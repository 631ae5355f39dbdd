//! The host-channel wire format for mask/bitmap transfers.
//!
//! Every bit-vector that crosses the host↔module channel (semijoin key
//! bitmaps, two-crossbar per-disjunct mask transfers) is sent as a fixed
//! 8-byte header (origin, length, encoding tag) plus whichever payload
//! encoding is smaller:
//!
//! * **bit-packed** — `⌈len/8⌉` bytes, the dense fallback scattered
//!   masks degrade to;
//! * **run-length** — per run of set bits, the zero-gap before it and
//!   its length, both LEB128 varints. Selective filters set long runs,
//!   which this collapses to a handful of bytes.
//!
//! The codec lives in `bbpim-sim` so both storage models charge the
//! shared bus wire bytes instead of raw mask lines.
//!
//! The module has two halves:
//!
//! * **The size path** — what every production caller uses. A mask
//!   column leaves the crossbars 64 rows to a word, and charging its
//!   transfer needs the encoded *size*, never the bytes. So a filter
//!   result stays word-packed ([`PackedBits`]) on both storage models —
//!   the pre-joined engine's per-record masks and the star model's
//!   `KeyBitmap` alike — its runs of set bits come from the one word
//!   scanner ([`PackedBits::runs`]), and its wire size from the words
//!   ([`rle_len`], [`packed_wire_bytes`], [`packed_wire_lines`]).
//! * **The format's reference** — the `&[bool]` codec ([`bit_runs`],
//!   [`encode_rle`] / [`decode_rle`] over LEB128 varints,
//!   [`wire_bytes`], [`wire_lines`]): the byte-exact
//!   statement of the format, which the sizes and the run scanner are
//!   tested against. It has no non-test caller and finds its runs on
//!   its own — a reference derived from the scanner it checks would
//!   check nothing.

use crate::bitmat::word_ones;

/// Fixed per-transfer header bytes (origin + length + encoding tag).
pub const WIRE_HEADER_BYTES: u64 = 8;

/// Append a LEB128 varint.
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint; `None` on truncated input.
fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// A bit-vector packed 64 to a word, bit `i` at bit `i % 64` of word
/// `i / 64`; bits past the length are zero.
///
/// ```
/// use bbpim_sim::maskwire::PackedBits;
/// let mut bits = PackedBits::zeros(130);
/// bits.set(3);
/// bits.set(129);
/// assert!(bits.get(129) && !bits.get(64));
/// assert_eq!(bits.ones().collect::<Vec<_>>(), vec![3, 129]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// `len` clear bits.
    pub fn zeros(len: usize) -> Self {
        PackedBits { words: vec![0; len.div_ceil(64)], len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the zero-length vector.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words (`⌈len/64⌉` of them).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Read bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The indices of the set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        word_ones(&self.words)
    }

    /// Every bit in index order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Maximal runs of consecutive set bits, as inclusive `(lo, hi)`
    /// index ranges, ascending. Found a word at a time, stepping by
    /// `trailing_zeros` / `trailing_ones`: a word costs one step per run
    /// boundary in it, never one per bit.
    pub fn runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        word_runs(self.words.iter().copied())
    }
}

/// The run scanner behind [`PackedBits::runs`] and [`rle_len`]: the
/// maximal runs of set bits of a bit-vector packed LSB-first into a
/// stream of words (zero past the vector's length).
fn word_runs(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = (u64, u64)> {
    let mut words = words.into_iter();
    // the word being scanned, the scan position in it (64 = spent) and
    // the bit offset one past it
    let (mut word, mut at, mut end) = (0u64, 64u32, 0u64);
    std::iter::from_fn(move || {
        // start of the run the scan is inside (it may span words)
        let mut open = None::<u64>;
        loop {
            if at == 64 {
                let Some(next) = words.next() else {
                    // a run still open ends with the vector (the tail bits are zero)
                    return open.map(|lo| (lo, end - 1));
                };
                (word, at, end) = (next, 0, end + 64);
            }
            let (rest, base) = (word >> at, end - 64);
            match open {
                None if rest == 0 => at = 64,
                None => {
                    at += rest.trailing_zeros();
                    open = Some(base + u64::from(at));
                }
                Some(lo) => {
                    at += rest.trailing_ones();
                    if at < 64 {
                        return Some((lo, base + u64::from(at) - 1));
                    }
                }
            }
        }
    })
}

/// Maximal runs of consecutive set bits, as inclusive `[lo, hi]` index
/// ranges, ascending — the reference [`PackedBits::runs`] is tested
/// against: the groups of equal neighbours that hold set bits.
pub fn bit_runs(bits: &[bool]) -> Vec<(u64, u64)> {
    let mut end = 0u64;
    bits.chunk_by(|a, b| a == b)
        .filter_map(|group| {
            end += group.len() as u64;
            group[0].then(|| (end - group.len() as u64, end - 1))
        })
        .collect()
}

/// Bit-packed payload size, bytes.
pub fn raw_bytes(len: u64) -> u64 {
    len.div_ceil(8)
}

/// Run-length payload: per run, (gap since previous run's end, run
/// length) as varints.
pub fn encode_rle(bits: &[bool]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut cursor = 0u64;
    for (lo, hi) in bit_runs(bits) {
        push_varint(&mut out, lo - cursor);
        push_varint(&mut out, hi - lo + 1);
        cursor = hi + 1;
    }
    out
}

/// Rebuild a bit-vector of length `len` from its run-length payload;
/// `None` on corrupt input (truncated varint, runs past `len`, zero-run).
pub fn decode_rle(len: u64, payload: &[u8]) -> Option<Vec<bool>> {
    let mut bits = vec![false; len as usize];
    let mut pos = 0usize;
    let mut cursor = 0u64;
    while pos < payload.len() {
        let gap = read_varint(payload, &mut pos)?;
        let run = read_varint(payload, &mut pos)?;
        let start = cursor.checked_add(gap)?;
        let end = start.checked_add(run)?;
        if end > len || run == 0 {
            return None;
        }
        for b in &mut bits[start as usize..end as usize] {
            *b = true;
        }
        cursor = end;
    }
    Some(bits)
}

/// Bytes [`push_varint`] appends for `v`.
fn varint_len(v: u64) -> u64 {
    u64::from((64 - (v | 1).leading_zeros()).div_ceil(7))
}

/// `encode_rle(bits).len()` for the bits packed LSB-first in `words`
/// (zero past the vector's length, as [`PackedBits`] keeps them) —
/// sized run by run from the words, nothing is encoded.
pub fn rle_len(words: impl IntoIterator<Item = u64>) -> u64 {
    // (bytes so far, end of the previous run)
    let sized = word_runs(words).fold((0, 0), |(bytes, cursor), (lo, hi)| {
        (bytes + varint_len(lo - cursor) + varint_len(hi + 1 - lo), hi + 1)
    });
    sized.0
}

/// Bytes actually sent for `bits`: the header plus the smaller encoding.
pub fn wire_bytes(bits: &[bool]) -> u64 {
    WIRE_HEADER_BYTES + raw_bytes(bits.len() as u64).min(encode_rle(bits).len() as u64)
}

/// Host-channel lines the transfer occupies at `line_bytes` per line.
pub fn wire_lines(bits: &[bool], line_bytes: u64) -> u64 {
    wire_bytes(bits).div_ceil(line_bytes.max(1))
}

/// [`wire_bytes`] of the `len` bits packed LSB-first in `words`: the
/// header plus the smaller encoding.
pub fn packed_wire_bytes(words: impl IntoIterator<Item = u64>, len: u64) -> u64 {
    WIRE_HEADER_BYTES + raw_bytes(len).min(rle_len(words))
}

/// [`wire_lines`] of the `len` bits packed LSB-first in `words`.
pub fn packed_wire_lines(words: impl IntoIterator<Item = u64>, len: u64, line_bytes: u64) -> u64 {
    packed_wire_bytes(words, len).div_ceil(line_bytes.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(set: &[usize], len: usize) -> Vec<bool> {
        let mut v = vec![false; len];
        for &i in set {
            v[i] = true;
        }
        v
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        assert_eq!(read_varint(&[0x80], &mut 0), None);
    }

    /// The shapes the cluster's key-bitmap sweep uses, over `len` bits.
    fn adversarial_shapes(len: usize) -> Vec<Vec<usize>> {
        let mut shapes: Vec<Vec<usize>> = vec![
            vec![],                                    // empty
            (0..len).collect(),                        // full
            (0..len).step_by(2).collect(),             // alternating
            (1..len).step_by(2).collect(),             // anti-phase alternating
            vec![0],                                   // lone head
            vec![len - 1],                             // lone tail
            (7..len - 9).collect(),                    // one long run
            (0..len).step_by(8).collect(),             // every byte boundary
            (0..len).filter(|i| i % 37 < 3).collect(), // short periodic runs
            (60..70).chain(120..200).collect(),        // runs across word boundaries
            (64..128).collect(),                       // exactly one word
            (63..130).collect(),                       // one run spanning three words
            vec![0, 1, 2, 700, 701, len - 2],          // mixed
        ];
        // deterministic xorshift at three densities
        let mut state = 0x2545F4914F6CDD1Du64;
        for density_shift in [1u64, 3, 6] {
            shapes.push(
                (0..len)
                    .filter(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state.is_multiple_of(1 << density_shift)
                    })
                    .collect(),
            );
        }
        shapes
    }

    #[test]
    fn rle_roundtrips_adversarial_shapes() {
        let len = 2048usize;
        for set in adversarial_shapes(len) {
            let b = bits(&set, len);
            let back = decode_rle(len as u64, &encode_rle(&b)).unwrap();
            assert_eq!(back, b);
        }
    }

    #[test]
    fn packed_sizes_equal_the_encoded_lengths() {
        // lengths on and off a word boundary, down to a single word
        for len in [2048usize, 2000, 1031, 64, 47] {
            // plus two runs still open where the vector ends
            let open_ended = [(len - 3..len).collect(), (len / 2..len).collect()];
            for set in adversarial_shapes(len.max(256)).into_iter().chain(open_ended) {
                let set: Vec<usize> = set.into_iter().filter(|i| *i < len).collect();
                let b = bits(&set, len);
                let mut packed = PackedBits::zeros(len);
                set.iter().for_each(|&i| packed.set(i));
                assert_eq!(packed.iter().collect::<Vec<_>>(), b);
                assert_eq!(packed.ones().collect::<Vec<_>>(), set);
                assert_eq!(packed.count_ones(), set.len() as u64);
                assert_eq!(packed.runs().collect::<Vec<_>>(), bit_runs(&b), "{len} bits, {set:?}");
                let words = || packed.words().iter().copied();
                assert_eq!(rle_len(words()), encode_rle(&b).len() as u64, "{len} bits, {set:?}");
                assert_eq!(packed_wire_bytes(words(), len as u64), wire_bytes(&b));
                for line_bytes in [64, 32, 8] {
                    assert_eq!(
                        packed_wire_lines(words(), len as u64, line_bytes),
                        wire_lines(&b, line_bytes)
                    );
                }
            }
        }
    }

    #[test]
    fn wire_never_exceeds_header_plus_bitpacked() {
        for set in [vec![], (0..512).step_by(2).collect::<Vec<_>>(), (5..400).collect()] {
            let b = bits(&set, 512);
            assert!(wire_bytes(&b) <= WIRE_HEADER_BYTES + raw_bytes(512));
        }
    }

    #[test]
    fn long_runs_collapse() {
        let b = bits(&(365..730).collect::<Vec<_>>(), 2556);
        assert_eq!(raw_bytes(b.len() as u64), 320);
        assert!(encode_rle(&b).len() <= 4);
        assert_eq!(wire_lines(&b, 64), 1);
    }

    #[test]
    fn corrupt_payloads_rejected() {
        assert!(decode_rle(10, &[0x80]).is_none()); // truncated
        assert!(decode_rle(10, &[0, 11]).is_none()); // past end
        assert!(decode_rle(10, &[0, 0]).is_none()); // zero run
    }
}
