//! Fixture: every rule fires, at pinned lines. Not compiled — parsed by
//! `tests/lint_fixtures.rs`, which asserts the exact (rule, line) pairs.

pub fn decode_payload(src: &[u8]) -> Vec<u8> {
    let n = u32::from_le_bytes([src[0], src[1], src[2], src[3]]) as usize; // line 5: R003
    let mut out = Vec::with_capacity(n); // line 6: R002
    out.extend_from_slice(src);
    out
}

pub fn read_sizes(src: &[u8]) -> Vec<u8> {
    let mut sizes = vec![0u8; src.len()]; // line 12: R002 (repeat form, expression length)
    sizes.copy_from_slice(src);
    sizes
}
