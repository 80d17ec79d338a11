//! Fixture: the rule fires, at pinned lines. Not compiled — parsed by
//! `tests/lint_fixtures.rs`, which asserts the exact lines.

pub fn decode_payload(src: &[u8]) -> Vec<u8> {
    let n = usize::from(src[0]); // a claim read off the wire
    let mut out = Vec::with_capacity(n); // line 6: ungated reservation
    out.extend_from_slice(src);
    out
}

pub fn read_sizes(src: &[u8]) -> Vec<u8> {
    let mut sizes = vec![0u8; src.len()]; // line 12: repeat form, expression length
    sizes.copy_from_slice(src);
    sizes
}
