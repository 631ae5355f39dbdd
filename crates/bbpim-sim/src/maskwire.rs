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
//! The codec lives in `bbpim-sim` so both storage models can charge
//! the shared bus wire bytes instead of raw mask lines; the star
//! model's `KeyBitmap` delegates here for its own wire accounting.

/// Fixed per-transfer header bytes (origin + length + encoding tag).
pub const WIRE_HEADER_BYTES: u64 = 8;

/// Append a LEB128 varint.
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
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
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
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

/// Maximal runs of consecutive set bits, as inclusive `[lo, hi]` index
/// ranges, ascending.
pub fn bit_runs(bits: &[bool]) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for (i, &set) in bits.iter().enumerate() {
        if !set {
            continue;
        }
        let i = i as u64;
        match runs.last_mut() {
            Some((_, hi)) if *hi + 1 == i => *hi = i,
            _ => runs.push((i, i)),
        }
    }
    runs
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

/// Bytes actually sent for `bits`: the header plus the smaller encoding.
pub fn wire_bytes(bits: &[bool]) -> u64 {
    WIRE_HEADER_BYTES + raw_bytes(bits.len() as u64).min(encode_rle(bits).len() as u64)
}

/// Host-channel lines the transfer occupies at `line_bytes` per line.
pub fn wire_lines(bits: &[bool], line_bytes: u64) -> u64 {
    wire_bytes(bits).div_ceil(line_bytes.max(1))
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

    #[test]
    fn rle_roundtrips_adversarial_shapes() {
        let len = 2048usize;
        let shapes: Vec<Vec<usize>> = vec![
            vec![],                        // empty
            (0..len).collect(),            // full
            (0..len).step_by(2).collect(), // alternating
            vec![0],                       // lone head
            vec![len - 1],                 // lone tail
            (100..1700).collect(),         // one long run
            vec![0, 1, 2, 700, 701, 2000], // mixed
        ];
        for set in shapes {
            let b = bits(&set, len);
            let back = decode_rle(len as u64, &encode_rle(&b)).unwrap();
            assert_eq!(back, b);
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
