//! Fixture: none of these may produce a finding. Every shape here is a
//! known false-positive hazard for a token-level scanner.

/// Doc comments may say `.unwrap()` and `panic!("...")` freely.
pub fn decode_with_gate(src: &[u8], claim: usize) -> Vec<u8> {
    // A string literal is not a call site: ".unwrap() with_capacity("
    let banner = "don't panic!(now) .unwrap() Vec::with_capacity(9999)";
    let _ = banner;
    check_decode_claim(claim); // the gate token that licenses the reserve below
    let mut out = Vec::with_capacity(claim);
    out.extend_from_slice(src);
    out
}

pub fn check_decode_claim(_claim: usize) {}

/// Lifetimes are not char literals; char literals may hold quotes.
pub fn decode_first<'a>(src: &'a [u8], marker: char) -> Option<&'a u8> {
    let _ = (marker == '\'', marker == 'u');
    src.first()
}

/// Fixed-size buffers are not decoded claims (literal repeat length).
pub fn read_header(src: &[u8]) -> [u8; 4] {
    let mut hdr = vec![0u8; 4];
    hdr.copy_from_slice(&src[..4]);
    [hdr[0], hdr[1], hdr[2], hdr[3]]
}

/// A raw string may contain anything at all.
pub fn raw() -> &'static str {
    r#"let x = src.first().unwrap(); panic!("{x}"); vec![0u8; n]"#
}

/// Waived reservation: the claim is bounded, and the waiver says why.
pub fn decode_waived(src: &[u8]) -> Vec<u8> {
    let n = usize::from(src[0]);
    // lint: claim-checked(n is u8-bounded, at most 255)
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&src[1..1 + n]);
    out
}

/* Block comments can nest in Rust: /* .unwrap() inside */ still a comment. */

#[cfg(test)]
mod tests {
    #[test]
    fn panics_are_fine_in_tests() {
        let v: Vec<u8> = Vec::new();
        assert!(v.first().is_none());
        let w = [1u8];
        let _ = w.first().unwrap();
        let _ = w.first().expect("present");
        let n = u32::from_le_bytes([1, 0, 0, 0]) as usize;
        let _ = Vec::<u8>::with_capacity(n);
    }
}
