//! Workload inputs and output checking.
//!
//! Everything random comes from the `--seed` argument through [`SplitMix`].
//! Payloads are one seed-derived filler buffer with a 24-byte stamp
//! `(seed, stream, unit)` at the head of every unit (a block, or a 4 KiB
//! record for BSFS), where `stream` names the BLOB, append or file the unit
//! belongs to. Stamping a buffer costs a few stores per unit, so inputs are
//! made outside the op timer without being a load of their own, and a unit
//! that comes back from the wrong BLOB, the wrong offset or a stale version
//! fails the stamp check on every op; the full byte compare runs on a fixed
//! 1-in-8 sample.

/// SplitMix64: tiny, seedable, good enough for offsets and filler.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub const STAMP_LEN: usize = 24;

/// Every 8th op (by its stream number) gets the full byte compare.
pub const FULL_CHECK_EVERY: u64 = 8;

/// A stream id unique across clients: client in the top bits.
pub fn stream_id(client: usize, index: u64) -> u64 {
    ((client as u64) << 40) | index
}

/// Seed-derived filler plus the stamping and checking rules.
pub struct Stamper {
    seed: u64,
    filler: Vec<u8>,
    /// Test hook: flip one byte of whatever is checked next, so a test can
    /// show that a wrong byte fails the run.
    corrupt_next: std::sync::atomic::AtomicBool,
}

impl Stamper {
    /// Filler for payloads of up to `len` bytes.
    pub fn new(seed: u64, len: usize) -> Self {
        let mut rng = SplitMix::new(seed ^ 0xB10B_5EE2);
        let mut filler = Vec::with_capacity(len + 8);
        while filler.len() < len {
            filler.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        filler.truncate(len);
        Self {
            seed,
            filler,
            corrupt_next: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Arms the corruption hook for the next check.
    pub fn corrupt_next_check(&self) {
        self.corrupt_next
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// A fresh payload of `len` bytes (filler, not yet stamped).
    pub fn buffer(&self, len: usize) -> Vec<u8> {
        self.filler[..len].to_vec()
    }

    fn stamp_of(&self, stream: u64, unit: u64) -> [u8; STAMP_LEN] {
        let mut stamp = [0u8; STAMP_LEN];
        stamp[..8].copy_from_slice(&self.seed.to_le_bytes());
        stamp[8..16].copy_from_slice(&stream.to_le_bytes());
        stamp[16..].copy_from_slice(&unit.to_le_bytes());
        stamp
    }

    /// Stamps every `unit_len`-sized unit of `buf` as unit
    /// `first_unit, first_unit + 1, …` of `stream`.
    pub fn stamp(&self, buf: &mut [u8], unit_len: usize, stream: u64, first_unit: u64) {
        for (i, unit) in buf.chunks_mut(unit_len).enumerate() {
            unit[..STAMP_LEN].copy_from_slice(&self.stamp_of(stream, first_unit + i as u64));
        }
    }

    /// Checks `got` against what [`Self::stamp`] produced for the same
    /// arguments: length and every stamp always, every byte when `full`.
    pub fn check(
        &self,
        got: &[u8],
        expect_len: usize,
        unit_len: usize,
        stream: u64,
        first_unit: u64,
        full: bool,
    ) -> bool {
        let corrupted;
        let got = if self
            .corrupt_next
            .swap(false, std::sync::atomic::Ordering::Relaxed)
            && !got.is_empty()
        {
            let mut copy = got.to_vec();
            copy[STAMP_LEN / 2] ^= 0x40;
            corrupted = copy;
            &corrupted[..]
        } else {
            got
        };
        if got.len() != expect_len {
            return false;
        }
        got.chunks(unit_len).enumerate().all(|(i, unit)| {
            let at = i * unit_len;
            unit[..STAMP_LEN] == self.stamp_of(stream, first_unit + i as u64)
                && (!full || unit[STAMP_LEN..] == self.filler[at + STAMP_LEN..at + unit.len()])
        })
    }
}

/// Whether the op on `stream` is in the full-compare sample.
pub fn in_full_sample(stream: u64) -> bool {
    stream.is_multiple_of(FULL_CHECK_EVERY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b, c) = (
            Stamper::new(7, 4096),
            Stamper::new(7, 4096),
            Stamper::new(8, 4096),
        );
        assert_eq!(a.buffer(4096), b.buffer(4096));
        assert_ne!(a.buffer(4096), c.buffer(4096));
        let mut r1 = SplitMix::new(7);
        let mut r2 = SplitMix::new(7);
        assert_eq!(r1.next_u64(), r2.next_u64());
        assert!(r1.below(10) < 10);
    }

    #[test]
    fn checks_catch_wrong_stream_offset_length_and_bytes() {
        let s = Stamper::new(1, 1024);
        let mut buf = s.buffer(1024);
        s.stamp(&mut buf, 256, stream_id(1, 5), 8);
        assert!(s.check(&buf, 1024, 256, stream_id(1, 5), 8, true));
        assert!(
            !s.check(&buf, 1024, 256, stream_id(0, 5), 8, false),
            "stream"
        );
        assert!(!s.check(&buf, 1024, 256, stream_id(1, 5), 9, false), "unit");
        assert!(!s.check(&buf[..512], 1024, 256, stream_id(1, 5), 8, false));
        buf[700] ^= 1;
        assert!(s.check(&buf, 1024, 256, stream_id(1, 5), 8, false));
        assert!(!s.check(&buf, 1024, 256, stream_id(1, 5), 8, true), "bytes");
    }

    #[test]
    fn corruption_hook_fails_exactly_one_check() {
        let s = Stamper::new(1, 512);
        let mut buf = s.buffer(512);
        s.stamp(&mut buf, 256, 3, 0);
        s.corrupt_next_check();
        assert!(!s.check(&buf, 512, 256, 3, 0, false));
        assert!(s.check(&buf, 512, 256, 3, 0, false));
    }
}
