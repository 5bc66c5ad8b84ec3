//! Byte ranges and block arithmetic.
//!
//! BlobSeer addresses data as `(offset, size)` ranges within a BLOB
//! (§III-A.1); the segment tree, the client read/write paths and the caches
//! all manipulate ranges and their projection onto fixed-size blocks. Keeping
//! that arithmetic in one well-tested place avoids a whole class of
//! off-by-one bugs.

use std::fmt;

/// A half-open byte range `[offset, offset + size)` within a BLOB or file.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteRange {
    /// First byte covered.
    pub offset: u64,
    /// Number of bytes covered. May be zero (an empty range).
    pub size: u64,
}

impl ByteRange {
    /// Creates a range from offset and size.
    #[inline]
    pub const fn new(offset: u64, size: u64) -> Self {
        Self { offset, size }
    }

    /// One byte past the end of the range.
    #[inline]
    pub const fn end(&self) -> u64 {
        self.offset + self.size
    }

    /// True if the range covers no bytes.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// True if the two ranges share at least one byte.
    ///
    /// Empty ranges intersect nothing, including themselves.
    #[inline]
    pub const fn intersects(&self, other: &ByteRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.offset < other.end()
            && other.offset < self.end()
    }

    /// The intersection of two ranges, or `None` when disjoint or empty.
    #[inline]
    pub fn intersection(&self, other: &ByteRange) -> Option<ByteRange> {
        if !self.intersects(other) {
            return None;
        }
        let offset = self.offset.max(other.offset);
        let end = self.end().min(other.end());
        Some(ByteRange::new(offset, end - offset))
    }

    /// True if `other` lies entirely within `self`. Empty ranges are
    /// contained anywhere their offset falls inside `self` or equals its end.
    #[inline]
    pub const fn contains_range(&self, other: &ByteRange) -> bool {
        self.offset <= other.offset && other.end() <= self.end()
    }

    /// True if the byte at absolute position `pos` lies within the range.
    #[inline]
    pub const fn contains(&self, pos: u64) -> bool {
        self.offset <= pos && pos < self.end()
    }

    /// Splits the range into the spans it covers in each fixed-size block.
    ///
    /// Returns an iterator of [`BlockSpan`]s in increasing block order. The
    /// first and last spans may be partial ("the first and the last block in
    /// the sequence … may not need to be fetched completely", §III-C).
    ///
    /// # Panics
    /// Panics if `block_size == 0`.
    pub fn block_spans(&self, block_size: u64) -> BlockSpanIter {
        assert!(block_size > 0, "block_size must be positive");
        BlockSpanIter {
            cursor: self.offset,
            end: self.end(),
            block_size,
        }
    }

    /// Number of blocks the range touches for the given block size.
    pub fn block_count(&self, block_size: u64) -> u64 {
        self.block_spans(block_size).count() as u64
    }
}

impl fmt::Debug for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.offset, self.end())
    }
}

impl fmt::Display for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.offset, self.end())
    }
}

/// The part of a [`ByteRange`] that falls within one block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockSpan {
    /// Index of the block within the BLOB (block 0 starts at byte 0).
    pub block_index: u64,
    /// Offset of the span *within the block*.
    pub offset_in_block: u64,
    /// Length of the span in bytes; always `>= 1`.
    pub len: u64,
}

impl BlockSpan {
    /// Absolute byte range this span covers within the BLOB.
    #[inline]
    pub fn absolute(&self, block_size: u64) -> ByteRange {
        ByteRange::new(
            self.block_index * block_size + self.offset_in_block,
            self.len,
        )
    }

    /// True if the span covers its entire block.
    #[inline]
    pub fn is_full_block(&self, block_size: u64) -> bool {
        self.offset_in_block == 0 && self.len == block_size
    }
}

/// Iterator over the [`BlockSpan`]s of a range. See [`ByteRange::block_spans`].
pub struct BlockSpanIter {
    cursor: u64,
    end: u64,
    block_size: u64,
}

impl Iterator for BlockSpanIter {
    type Item = BlockSpan;

    fn next(&mut self) -> Option<BlockSpan> {
        if self.cursor >= self.end {
            return None;
        }
        let block_index = self.cursor / self.block_size;
        let offset_in_block = self.cursor % self.block_size;
        let span_end = ((block_index + 1) * self.block_size).min(self.end);
        let len = span_end - self.cursor;
        self.cursor = span_end;
        Some(BlockSpan {
            block_index,
            offset_in_block,
            len,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.cursor >= self.end {
            return (0, Some(0));
        }
        let n = (self.end - 1) / self.block_size - self.cursor / self.block_size + 1;
        (n as usize, Some(n as usize))
    }
}

impl ExactSizeIterator for BlockSpanIter {}

/// Rounds `n` up to the next multiple of `m` (`m > 0`).
#[inline]
pub fn round_up(n: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    n.div_ceil(m) * m
}

/// Number of blocks needed to hold `size` bytes with the given block size.
#[inline]
pub fn blocks_for(size: u64, block_size: u64) -> u64 {
    debug_assert!(block_size > 0);
    size.div_ceil(block_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_geometry() {
        let r = ByteRange::new(10, 20);
        assert_eq!(r.end(), 30);
        assert!(!r.is_empty());
        assert!(r.contains(10));
        assert!(r.contains(29));
        assert!(!r.contains(30));
        assert_eq!(format!("{r}"), "[10, 30)");
    }

    #[test]
    fn empty_ranges_never_intersect() {
        let e = ByteRange::new(5, 0);
        let r = ByteRange::new(0, 100);
        assert!(!e.intersects(&r));
        assert!(!r.intersects(&e));
        assert!(!e.intersects(&e));
        assert_eq!(r.intersection(&e), None);
    }

    #[test]
    fn intersection_cases() {
        let a = ByteRange::new(0, 10);
        let b = ByteRange::new(5, 10);
        assert_eq!(a.intersection(&b), Some(ByteRange::new(5, 5)));
        let c = ByteRange::new(10, 5);
        assert_eq!(a.intersection(&c), None); // touching, half-open
        let d = ByteRange::new(2, 3);
        assert_eq!(a.intersection(&d), Some(d));
        assert!(a.contains_range(&d));
        assert!(!d.contains_range(&a));
    }

    #[test]
    fn spans_aligned() {
        let r = ByteRange::new(0, 256);
        let spans: Vec<_> = r.block_spans(64).collect();
        assert_eq!(spans.len(), 4);
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.block_index, i as u64);
            assert_eq!(s.offset_in_block, 0);
            assert_eq!(s.len, 64);
            assert!(s.is_full_block(64));
        }
    }

    #[test]
    fn spans_unaligned_extremes() {
        // Mirrors §III-C: "the first and the last block ... may not need to
        // be fetched completely".
        let r = ByteRange::new(100, 100); // [100, 200) over 64-byte blocks
        let spans: Vec<_> = r.block_spans(64).collect();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans[0],
            BlockSpan {
                block_index: 1,
                offset_in_block: 36,
                len: 28
            }
        );
        assert_eq!(
            spans[1],
            BlockSpan {
                block_index: 2,
                offset_in_block: 0,
                len: 64
            }
        );
        assert_eq!(
            spans[2],
            BlockSpan {
                block_index: 3,
                offset_in_block: 0,
                len: 8
            }
        );
        assert!(!spans[0].is_full_block(64));
        assert!(spans[1].is_full_block(64));
        assert_eq!(spans[0].absolute(64), ByteRange::new(100, 28));
    }

    #[test]
    fn spans_within_single_block() {
        let r = ByteRange::new(70, 10);
        let spans: Vec<_> = r.block_spans(64).collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0],
            BlockSpan {
                block_index: 1,
                offset_in_block: 6,
                len: 10
            }
        );
    }

    #[test]
    fn empty_range_has_no_spans() {
        let r = ByteRange::new(128, 0);
        assert_eq!(r.block_spans(64).count(), 0);
        assert_eq!(r.block_count(64), 0);
    }

    #[test]
    fn span_iterator_len_is_exact() {
        let r = ByteRange::new(3, 1000);
        let it = r.block_spans(64);
        let expected = it.len();
        assert_eq!(r.block_spans(64).count(), expected);
    }

    #[test]
    fn rounding_helpers() {
        assert_eq!(round_up(0, 64), 0);
        assert_eq!(round_up(1, 64), 64);
        assert_eq!(round_up(64, 64), 64);
        assert_eq!(round_up(65, 64), 128);
        assert_eq!(blocks_for(0, 64), 0);
        assert_eq!(blocks_for(63, 64), 1);
        assert_eq!(blocks_for(64, 64), 1);
        assert_eq!(blocks_for(65, 64), 2);
    }
}
