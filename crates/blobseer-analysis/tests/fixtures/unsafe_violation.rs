// Fixture: an `unsafe` block and an `unsafe fn` — one finding each. The
// `unsafe_code` lint name, an identifier that merely starts with the
// word, and quoted or commented mentions of unsafe are not findings.
#![deny(unsafe_code)]

pub fn read(p: &u8) -> u8 {
    unsafe { *(p as *const u8) }
}

pub unsafe fn raw() {}

pub fn unsafe_looking_name() -> &'static str {
    "unsafe"
}
