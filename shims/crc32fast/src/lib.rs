//! Minimal, API-compatible stand-in for the `crc32fast` crate, vendored
//! because the build environment has no crates.io access. It exposes the
//! slice of the API the workspace uses — [`Hasher`] (`new`, `update`,
//! `finalize`, `Default`, `Clone`) and [`hash`] — so swapping in the real
//! crate is a one-line manifest change.
//!
//! The checksum is CRC-32 (IEEE 802.3: bit-reflected polynomial
//! `0xEDB88320`, register preset to all ones, result inverted), built the
//! way the real crate builds it: a [`Hasher`] picks its path once, when it
//! is created, from what the CPU reports.
//!
//! * On x86_64 CPUs with `pclmulqdq` and `sse4.1`, [`Hasher::update`] runs
//!   the whole 64-byte blocks of every piece of 64 bytes or more through a
//!   carry-less-multiply folding kernel.
//! * Everything else — the remainder of such a piece, shorter pieces, and
//!   every byte on other CPUs — goes through slicing-by-16 tables.
//!
//! Both paths carry the same 32-bit register, so a stream hashes to the
//! same value wherever its pieces are cut and whichever path ran them. On
//! 64 KiB pieces (one core of a 2-vCPU x86_64 Xeon VM) the tables run at
//! ~1.4 GiB/s and the kernel at ~15 GiB/s.
//!
//! The call into the kernel is the crate's one `unsafe` expression: the
//! kernel is a safe `#[target_feature]` function, which may only be called
//! where the features are known to be present. It loads its input through
//! bounds-checked slices.

#![deny(unsafe_code)]

mod baseline;
#[cfg(target_arch = "x86_64")]
mod pclmulqdq;

/// The CRC-32 (IEEE) polynomial, bit-reflected.
const POLY: u32 = 0xEDB8_8320;

/// A running CRC-32 (IEEE): feed it a stream in as many pieces as it lies
/// in, in order; [`Self::finalize`] is the checksum of their
/// concatenation, wherever the cuts fall.
#[derive(Clone)]
pub struct Hasher {
    /// The CRC register: the checksum so far, inverted.
    state: u32,
    /// Whether the CPU has what the folding kernel is compiled for.
    #[cfg(target_arch = "x86_64")]
    clmul: bool,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// The checksum of no bytes yet, on the fastest path this CPU has.
    pub fn new() -> Self {
        Self {
            state: !0,
            #[cfg(target_arch = "x86_64")]
            clmul: is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"),
        }
    }

    /// Folds `buf` in.
    pub fn update(&mut self, buf: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let buf = if self.clmul && buf.len() >= 64 {
            let (blocks, rest) = buf.split_at(buf.len() / 64 * 64);
            // SAFETY: `clmul` is only ever set by `new`, and only after the
            // CPU reported both features the kernel is compiled for.
            #[allow(unsafe_code)]
            // lint:allow(no-unsafe): the one call into the CPU-specific kernel
            let state = unsafe { pclmulqdq::update(self.state, blocks) };
            self.state = state;
            rest
        } else {
            buf
        };
        self.state = baseline::update(self.state, buf);
    }

    /// The checksum of everything fed in.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// CRC-32 (IEEE) of `buf`.
pub fn hash(buf: &[u8]) -> u32 {
    let mut hasher = Hasher::new();
    hasher.update(buf);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one byte and one table lookup at a time: what both
    /// paths are held against.
    mod oracle {
        const fn table() -> [u32; 256] {
            let mut table = [0u32; 256];
            let mut i = 0;
            while i < 256 {
                let mut c = i as u32;
                let mut bit = 0;
                while bit < 8 {
                    c = if c & 1 != 0 {
                        super::POLY ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                    bit += 1;
                }
                table[i] = c;
                i += 1;
            }
            table
        }

        static TABLE: [u32; 256] = table();

        pub fn crc32(data: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in data {
                c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        }
    }

    /// The tables alone, whatever the CPU: the path every other host runs.
    fn tables_only(pieces: &[&[u8]]) -> u32 {
        !pieces
            .iter()
            .fold(!0, |c, piece| baseline::update(c, piece))
    }

    /// The dispatching hasher: the kernel too, where the CPU has it.
    fn dispatched(pieces: &[&[u8]]) -> u32 {
        let mut hasher = Hasher::new();
        for piece in pieces {
            hasher.update(piece);
        }
        hasher.finalize()
    }

    /// SplitMix64: the deterministic randomness of the tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }
    }

    #[test]
    fn crc32_known_answer() {
        // The standard CRC-32/IEEE check value.
        for crc in [oracle::crc32, hash, |d: &[u8]| tables_only(&[d])] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
        }
        assert_eq!(Hasher::default().finalize(), 0);
    }

    /// Every length across the 64-byte threshold, at every alignment.
    #[test]
    fn every_short_length_at_every_alignment_equals_the_oracle() {
        let buf = Rng(18).bytes(300 + 16);
        for len in 0..=300 {
            for align in 0..16 {
                let data = &buf[align..align + len];
                let want = oracle::crc32(data);
                assert_eq!(
                    tables_only(&[data]),
                    want,
                    "tables: {len} bytes at +{align}"
                );
                assert_eq!(hash(data), want, "dispatched: {len} bytes at +{align}");
            }
        }
    }

    /// Random streams up to 256 KiB, hashed whole and cut into up to six
    /// pieces: empty ones and 1–63-byte ones between bulk ones, so the
    /// register crosses from kernel to tables and back mid-stream.
    #[test]
    fn sliced_streaming_crc_equals_the_bytewise_oracle() {
        let mut rng = Rng(38);
        for case in 0..240 {
            let len = match case % 3 {
                0 => rng.below(300),
                1 => rng.below(5_000),
                _ => rng.below(256 * 1024 + 1),
            };
            let align = rng.below(16);
            let buf = rng.bytes(align + len);
            let data = &buf[align..];
            let want = oracle::crc32(data);
            let mut cuts = vec![0];
            for _ in 0..rng.below(6) {
                let at = *cuts.last().unwrap_or(&0);
                let step = match rng.below(3) {
                    0 => 0,
                    1 => 1 + rng.below(63),
                    _ => rng.below(len - at + 1),
                };
                cuts.push((at + step).min(len));
            }
            cuts.push(len);
            let pieces: Vec<&[u8]> = cuts.windows(2).map(|w| &data[w[0]..w[1]]).collect();
            assert_eq!(hash(data), want, "case {case}: {len} bytes at +{align}");
            assert_eq!(
                tables_only(&pieces),
                want,
                "case {case}: tables, cut at {cuts:?}"
            );
            assert_eq!(dispatched(&pieces), want, "case {case}: cut at {cuts:?}");
        }
    }

    /// Where the CPU has the kernel's features, a new hasher must use the
    /// kernel: the fast path cannot fall back to the tables unnoticed.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn a_cpu_with_the_features_gets_the_kernel() {
        let detected = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        assert_eq!(Hasher::new().clmul, detected);
        assert_eq!(Hasher::default().clmul, detected);
    }
}
