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
//! The codec itself is [`bbpim_sim::maskwire`] — shared with the
//! pre-joined engine's two-crossbar mask transfers so the two wire
//! accountings cannot drift; `KeyBitmap` adds the dense-key view
//! (base offset, runs as key ranges, the FK hull).

use bbpim_sim::maskwire;

/// A bitmap over a dimension's dense key space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyBitmap {
    base: u64,
    bits: Vec<bool>,
}

/// Fixed per-transfer header bytes (key base + length + encoding tag).
pub const WIRE_HEADER_BYTES: u64 = maskwire::WIRE_HEADER_BYTES;

impl KeyBitmap {
    /// Wrap a mask over keys `base..base + bits.len()`.
    pub fn new(base: u64, bits: Vec<bool>) -> Self {
        KeyBitmap { base, bits }
    }

    /// Key value of bit 0.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The raw bits (indexed by `key − base`).
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Size of the key space (bitmap length).
    pub fn key_space(&self) -> u64 {
        self.bits.len() as u64
    }

    /// Selected key count.
    pub fn keys_selected(&self) -> u64 {
        self.bits.iter().filter(|b| **b).count() as u64
    }

    /// Maximal runs of consecutive selected keys, as inclusive
    /// `[lo, hi]` key-value ranges, ascending.
    pub fn runs(&self) -> Vec<(u64, u64)> {
        maskwire::bit_runs(&self.bits)
            .into_iter()
            .map(|(lo, hi)| (self.base + lo, self.base + hi))
            .collect()
    }

    /// Convex hull `[lo, hi]` of the selected keys (`None` when empty)
    /// — the BETWEEN bound shard pruning tests against the FK zone.
    pub fn hull(&self) -> Option<(u64, u64)> {
        let first = self.bits.iter().position(|b| *b)?;
        let last = self.bits.iter().rposition(|b| *b)?;
        Some((self.base + first as u64, self.base + last as u64))
    }

    /// Bit-packed payload size, bytes.
    pub fn raw_bytes(&self) -> u64 {
        maskwire::raw_bytes(self.bits.len() as u64)
    }

    /// Run-length payload: per run, (gap since previous run's end,
    /// run length) as varints.
    pub fn encode_rle(&self) -> Vec<u8> {
        maskwire::encode_rle(&self.bits)
    }

    /// Rebuild a bitmap from its run-length payload; `None` on corrupt
    /// input (truncated varint, runs past `key_space`).
    pub fn decode_rle(base: u64, key_space: u64, payload: &[u8]) -> Option<KeyBitmap> {
        Some(KeyBitmap { base, bits: maskwire::decode_rle(key_space, payload)? })
    }

    /// Bytes actually sent: the header plus the smaller encoding.
    pub fn wire_bytes(&self) -> u64 {
        maskwire::wire_bytes(&self.bits)
    }

    /// Host-channel lines the transfer occupies at `line_bytes` per
    /// line.
    pub fn wire_lines(&self, line_bytes: u64) -> u64 {
        maskwire::wire_lines(&self.bits, line_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bitmap(base: u64, set: &[usize], len: usize) -> KeyBitmap {
        let mut bits = vec![false; len];
        for &i in set {
            bits[i] = true;
        }
        KeyBitmap::new(base, bits)
    }

    #[test]
    fn runs_hull_and_counts() {
        let b = bitmap(10, &[0, 1, 3, 6, 7], 9);
        assert_eq!(b.runs(), vec![(10, 11), (13, 13), (16, 17)]);
        assert_eq!(b.hull(), Some((10, 17)));
        assert_eq!(b.keys_selected(), 5);
        assert_eq!(b.key_space(), 9);
        let empty = bitmap(0, &[], 4);
        assert!(empty.runs().is_empty());
        assert_eq!(empty.hull(), None);
    }

    #[test]
    fn rle_roundtrips() {
        for set in [
            vec![],
            vec![0],
            vec![2555],
            (0..2556).collect::<Vec<_>>(),
            vec![0, 1, 2, 100, 101, 900],
            (0..2556).filter(|i| i % 3 == 0).collect(),
        ] {
            let b = bitmap(0, &set, 2556);
            let payload = b.encode_rle();
            let back = KeyBitmap::decode_rle(0, 2556, &payload).unwrap();
            assert_eq!(back, b);
        }
    }

    #[test]
    fn selective_filters_compress_far_below_bitpacked() {
        // one year of the date dimension: a single 365-day run
        let b = bitmap(0, &(365..730).collect::<Vec<_>>(), 2556);
        assert_eq!(b.raw_bytes(), 320);
        assert!(b.encode_rle().len() <= 4, "{} B", b.encode_rle().len());
        assert!(b.wire_bytes() <= WIRE_HEADER_BYTES + 4);
        assert_eq!(b.wire_lines(64), 1);
    }

    #[test]
    fn scattered_bitmaps_fall_back_to_bitpacked() {
        let b = bitmap(1, &(0..3000).step_by(2).collect::<Vec<_>>(), 3000);
        // 1500 runs of length 1 cost ~2 B each in RLE — packed wins
        assert!(b.encode_rle().len() as u64 > b.raw_bytes());
        assert_eq!(b.wire_bytes(), WIRE_HEADER_BYTES + b.raw_bytes());
    }

    #[test]
    fn corrupt_payloads_rejected() {
        assert!(KeyBitmap::decode_rle(0, 10, &[0x80]).is_none()); // truncated
        assert!(KeyBitmap::decode_rle(0, 10, &[0, 11]).is_none()); // past end
        assert!(KeyBitmap::decode_rle(0, 10, &[0, 0]).is_none()); // zero run
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
        // Every adversarial shape must (a) round-trip bit-identically
        // through the wire codec and (b) cost no more channel lines
        // than the uncompressed line-per-row transfer it replaces.
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
                let back = KeyBitmap::decode_rle(base, len as u64, &b.encode_rle()).unwrap();
                assert_eq!(back, b, "round-trip, base {base}, {} set", set.len());
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
        // KeyBitmap is a view over bbpim_sim::maskwire — same bytes.
        use bbpim_sim::maskwire;
        let b = bitmap(42, &[0, 1, 5, 6, 7, 300], 512);
        assert_eq!(b.encode_rle(), maskwire::encode_rle(b.bits()));
        assert_eq!(b.wire_bytes(), maskwire::wire_bytes(b.bits()));
        assert_eq!(b.raw_bytes(), maskwire::raw_bytes(512));
    }
}
