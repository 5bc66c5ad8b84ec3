// Fixture: every would-be violation carries a `lint:allow` with a reason,
// sits inside test code, or is quoted in a string/comment — the lint must
// report nothing for this file.
pub fn invariant(v: &[u32]) -> u32 {
    // lint:allow(no-unwrap): fixture invariant with a documented reason
    *v.last().unwrap()
}

pub fn same_line(v: &[u32]) -> u32 {
    *v.first().expect("non-empty") // lint:allow(no-unwrap): fixture same-line allow
}

pub fn sanctioned(p: &u8) -> u8 {
    // lint:allow(no-unsafe): fixture exception with a documented reason
    unsafe { *(p as *const u8) }
}

pub fn quoted() -> &'static str {
    // The pattern below lives in a string literal, not code.
    "call .unwrap() and std::sync::Mutex and Instant::now() here"
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        let v = vec![1u32];
        assert_eq!(*v.last().unwrap(), 1);
    }
}
