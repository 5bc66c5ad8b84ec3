// Fixture: payload copies on the block byte path, and the forms the rule
// must leave alone.
pub fn stage(body: &[u8]) -> (Bytes, Vec<u8>) {
    let owned = Bytes::copy_from_slice(body);
    let staged = body.to_vec();
    (owned, staged)
}

pub fn header(len: u32) -> [u8; 4] {
    let mut out = [0u8; 4];
    // A slice-to-slice fill of a fixed header is not a payload copy.
    out.copy_from_slice(&len.to_le_bytes());
    out
}

pub fn vouched(body: &[u8]) -> Vec<u8> {
    body.to_vec() // lint:allow(no-staging-copy): fixture copy with a documented reason
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_copy() {
        assert_eq!(b"x".to_vec(), vec![b'x']);
    }
}
