//! Minimal, API-compatible stand-in for the `bytes` crate, vendored because
//! the build environment has no crates.io access.
//!
//! [`Bytes`] is a cheaply-clonable, immutable byte buffer: an
//! `Arc<Vec<u8>>` plus a `(start, end)` window, so [`Bytes::slice`] and
//! [`Clone`] are O(1) and never copy payloads — the property
//! `blobseer-core`'s block store depends on ("get" hands back a refcount
//! bump, not a memcpy). `From<Vec<u8>>` *moves* the vector behind the
//! `Arc` (one small allocation for the counts, no copy of the bytes), so
//! a buffer filled by a socket read or a [`BytesMut`] becomes shareable
//! for free: [`BytesMut::freeze`] and `split().freeze()` keep the
//! allocation — and its address — they were filled in.
//!
//! As in the real crate, the price is retention: every clone and slice
//! keeps the *whole* allocation alive, spare capacity included. A block
//! sliced out of a 4 MiB request frame pins those 4 MiB until the last
//! such slice is dropped.
#![forbid(unsafe_code)]

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable, sliceable, immutable contiguous byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates `Bytes` viewing a static slice (copied once into a buffer;
    /// the real crate borrows, but callers only rely on the signature).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from(bytes.to_vec())
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a zero-copy sub-window. Panics if the range is out of bounds,
    /// matching the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds of {}",
            self.len()
        );
        Self {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copies the viewed window out into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Takes ownership of the vector: its bytes are not copied and keep their
/// address.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Self {
        m.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

/// A growable byte buffer that freezes into [`Bytes`] by handing over its
/// allocation.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend);
    }

    /// Resizes, filling new space with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(new_len, value);
    }

    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Splits off and returns the entire filled portion, leaving `self`
    /// empty (the `split()` form the streaming writer uses).
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            buf: std::mem::take(&mut self.buf),
        }
    }

    /// Converts into an immutable [`Bytes`]: a move of the buffer, not a
    /// copy — the bytes stay at the address they were written to.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_zero_copy_window() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
        assert!(Arc::ptr_eq(&b.data, &s2.data));
    }

    #[test]
    fn bytes_mut_roundtrip() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(b"ab");
        m.resize(4, 0);
        assert_eq!(&m[..], b"ab\0\0");
        let frozen = m.freeze();
        assert_eq!(frozen, b"ab\0\0"[..]);
    }

    #[test]
    fn split_drains_writer() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"chunk");
        let taken = m.split().freeze();
        assert_eq!(&taken[..], b"chunk");
        assert!(m.is_empty());
    }

    #[test]
    fn from_vec_and_freeze_move_the_allocation() {
        let v = vec![7u8; 4096];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at, "From<Vec<u8>> must not copy");
        assert_eq!(b.slice(10..).as_ptr(), at.wrapping_add(10));

        let mut m = BytesMut::with_capacity(4096);
        m.extend_from_slice(&[1u8; 100]);
        let at = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), at, "freeze must not copy");

        let mut m = BytesMut::with_capacity(4096);
        m.extend_from_slice(&[2u8; 100]);
        let at = m.as_ptr();
        assert_eq!(m.split().freeze().as_ptr(), at, "split().freeze() too");
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1, 2]).slice(0..3);
    }
}
