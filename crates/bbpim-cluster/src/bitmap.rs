//! The dimension key bitmap and its wire format.
//!
//! A dimension filter leaves one bit per dimension row in the module's
//! mask column. Dimension keys are dense (`row = key − key_base`), so
//! that mask *is* the key bitmap of the semijoin. It crosses the host
//! channel exactly once per (disjunct, dimension) — the module streams
//! the mask column through its row buffer bit-packed, and the host
//! re-broadcasts it to every fact shard in one grant — so the wire
//! format matters: selective filters (the Q1.x class) set long runs of
//! zeros with a few short runs of ones, which a gap/length run-length
//! code collapses to a handful of bytes. The transfer is charged at
//! whichever of the two encodings is smaller:
//!
//! * **bit-packed** — `⌈len/8⌉` bytes, the dense fallback scattered
//!   bitmaps degrade to;
//! * **run-length** — per run of set bits, the zero-gap before it and
//!   its length, both LEB128 varints.
//!
//! plus a fixed 8-byte header (key base, length, encoding tag).
//!
//! `KeyBitmap` holds the mask as it left the crossbars — the one
//! word-packed [`PackedBits`] of [`bbpim_sim::maskwire`]'s size path,
//! the same object and the same size functions the pre-joined engine's
//! two-crossbar mask transfers are charged through — and adds the
//! dense-key view: base offset, runs as key ranges (the fact-side
//! semijoin's range predicates), the FK hull. This is the size path:
//! nothing here encodes a byte. The format itself is stated by
//! maskwire's unpacked reference codec (`encode_rle` / `decode_rle`),
//! which this file's tests compare the sizes and runs against.

use bbpim_sim::maskwire::{self, PackedBits};

/// A bitmap over a dimension's dense key space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyBitmap {
    base: u64,
    bits: PackedBits,
}

/// Fixed per-transfer header bytes (key base + length + encoding tag).
pub const WIRE_HEADER_BYTES: u64 = maskwire::WIRE_HEADER_BYTES;

impl KeyBitmap {
    /// Wrap a mask over keys `base..base + bits.len()`.
    pub fn new(base: u64, bits: PackedBits) -> Self {
        KeyBitmap { base, bits }
    }

    /// Size of the key space (bitmap length).
    pub fn key_space(&self) -> u64 {
        self.bits.len() as u64
    }

    /// Selected key count.
    pub fn keys_selected(&self) -> u64 {
        self.bits.count_ones()
    }

    /// Maximal runs of consecutive selected keys, as inclusive
    /// `[lo, hi]` key-value ranges, ascending.
    pub fn runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bits.runs().map(|(lo, hi)| (self.base + lo, self.base + hi))
    }

    /// Convex hull `[lo, hi]` of the selected keys (`None` when empty)
    /// — the BETWEEN bound shard pruning tests against the FK zone.
    pub fn hull(&self) -> Option<(u64, u64)> {
        let mut runs = self.runs();
        let (lo, hi) = runs.next()?;
        Some((lo, runs.last().map_or(hi, |last| last.1)))
    }

    /// Bit-packed payload size, bytes.
    pub fn raw_bytes(&self) -> u64 {
        maskwire::raw_bytes(self.key_space())
    }

    /// Bytes actually sent: the header plus the smaller encoding.
    pub fn wire_bytes(&self) -> u64 {
        maskwire::packed_wire_bytes(self.bits.words().iter().copied(), self.key_space())
    }

    /// Host-channel lines the transfer occupies at `line_bytes` per
    /// line.
    pub fn wire_lines(&self, line_bytes: u64) -> u64 {
        let words = self.bits.words().iter().copied();
        maskwire::packed_wire_lines(words, self.key_space(), line_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bits as the `&[bool]` reference codec takes them.
    fn reference(set: &[usize], len: usize) -> Vec<bool> {
        let mut bits = vec![false; len];
        for &i in set {
            bits[i] = true;
        }
        bits
    }

    fn bitmap(base: u64, set: &[usize], len: usize) -> KeyBitmap {
        let mut bits = PackedBits::zeros(len);
        set.iter().for_each(|&i| bits.set(i));
        KeyBitmap::new(base, bits)
    }

    #[test]
    fn runs_hull_and_counts() {
        let b = bitmap(10, &[0, 1, 3, 6, 7], 9);
        assert_eq!(b.runs().collect::<Vec<_>>(), vec![(10, 11), (13, 13), (16, 17)]);
        assert_eq!(b.hull(), Some((10, 17)));
        assert_eq!(b.keys_selected(), 5);
        assert_eq!(b.key_space(), 9);
        let lone = bitmap(10, &[70], 130);
        assert_eq!(lone.hull(), Some((80, 80)));
        let empty = bitmap(0, &[], 4);
        assert_eq!(empty.runs().count(), 0);
        assert_eq!(empty.hull(), None);
        assert_eq!(empty.keys_selected(), 0);
    }

    #[test]
    fn selective_filters_compress_far_below_bitpacked() {
        // one year of the date dimension: a single 365-day run
        let b = bitmap(0, &(365..730).collect::<Vec<_>>(), 2556);
        assert_eq!(b.raw_bytes(), 320);
        assert!(b.wire_bytes() <= WIRE_HEADER_BYTES + 4, "{} B", b.wire_bytes());
        assert_eq!(b.wire_lines(64), 1);
    }

    #[test]
    fn scattered_bitmaps_fall_back_to_bitpacked() {
        let set: Vec<usize> = (0..3000).step_by(2).collect();
        let b = bitmap(1, &set, 3000);
        // 1500 runs of length 1 cost ~2 B each in RLE — packed wins
        assert!(maskwire::encode_rle(&reference(&set, 3000)).len() as u64 > b.raw_bytes());
        assert_eq!(b.wire_bytes(), WIRE_HEADER_BYTES + b.raw_bytes());
    }

    /// Deterministic xorshift so the adversarial sweep needs no RNG dep.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn adversarial_masks_roundtrip_and_never_beat_raw_lines() {
        // Every adversarial shape must (a) come back bit-identically
        // from its key runs — what the fact side rebuilds the bitmap
        // from — and (b) cost no more channel lines than the
        // uncompressed line-per-row transfer it replaces.
        let len = 4096usize;
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
        ];
        let mut state = 0x2545F4914F6CDD1Du64;
        for density_shift in [1u64, 3, 6] {
            shapes.push(
                (0..len)
                    .filter(|_| xorshift(&mut state).is_multiple_of(1 << density_shift))
                    .collect(),
            );
        }
        for (base, line_bytes) in [(0u64, 64u64), (1000, 64), (0, 32)] {
            for set in &shapes {
                let b = bitmap(base, set, len);
                let keys: Vec<usize> =
                    b.runs().flat_map(|(lo, hi)| lo..=hi).map(|k| (k - base) as usize).collect();
                assert_eq!(&keys, set, "round-trip, base {base}, {} set", set.len());
                assert!(
                    b.wire_bytes() <= WIRE_HEADER_BYTES + b.raw_bytes(),
                    "wire must never exceed header + bit-packed"
                );
                // raw transfer: one line per key-space row
                assert!(
                    b.wire_lines(line_bytes) <= len as u64,
                    "wire lines above the raw line-per-row transfer"
                );
            }
        }
    }

    #[test]
    fn wire_format_matches_shared_codec_exactly() {
        // KeyBitmap is sized by bbpim_sim::maskwire's packed path —
        // the sizes of the bytes the `&[bool]` reference encodes.
        let set = [0, 1, 5, 6, 7, 300];
        let (b, bits) = (bitmap(42, &set, 512), reference(&set, 512));
        assert_eq!(b.wire_bytes(), maskwire::wire_bytes(&bits));
        assert_eq!(b.wire_lines(8), maskwire::wire_lines(&bits, 8));
        assert_eq!(b.raw_bytes(), maskwire::raw_bytes(512));
        let runs: Vec<_> = maskwire::bit_runs(&bits).iter().map(|r| (r.0 + 42, r.1 + 42)).collect();
        assert_eq!(b.runs().collect::<Vec<_>>(), runs);
    }
}
