//! The x86_64 path: CRC-32 folding by carry-less multiplication.
//!
//! Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//! PCLMULQDQ Instruction" (Intel, 2009), for the bit-reflected CRC: four
//! 128-bit lanes each fold the lane 64 bytes ahead of them into
//! themselves, the four collapse into one, and one Barrett reduction
//! leaves the 32-bit register. The constants are the paper's for the
//! reflected case: `k` for `x^n mod P`, bit-reflected and shifted left by
//! one, with the `n` noted beside each.

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// Fold 512 bits: `n` = 4·128 + 32 and 4·128 − 32.
const K1: i64 = 0x1_5444_2bd4;
const K2: i64 = 0x1_c6e4_1596;
/// Fold 128 bits: `n` = 128 + 32 and 128 − 32.
const K3: i64 = 0x1_7519_97d0;
const K4: i64 = 0x0_ccaa_009e;
/// 64 → 32 bits: `n` = 64.
const K5: i64 = 0x1_63cd_6124;
/// Barrett reduction: the polynomial `P′` and `μ` = ⌊x⁶⁴ / P⌋, both
/// bit-reflected over 33 bits.
const P_X: i64 = 0x1_DB71_0641;
const U_PRIME: i64 = 0x1_F701_1641;

/// Folds the whole 64-byte blocks of `blocks` into the register `state`;
/// bytes past the last whole block are left to the caller.
#[target_feature(enable = "pclmulqdq,sse4.1")]
pub(crate) fn update(state: u32, blocks: &[u8]) -> u32 {
    let (lanes, _) = blocks.as_chunks::<16>();
    let mut groups = lanes.chunks_exact(4);
    let Some(first) = groups.next() else {
        return state;
    };
    let mut x = [
        load(&first[0]),
        load(&first[1]),
        load(&first[2]),
        load(&first[3]),
    ];
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));

    let k1k2 = _mm_set_epi64x(K2, K1);
    for group in groups {
        x[0] = fold(x[0], load(&group[0]), k1k2);
        x[1] = fold(x[1], load(&group[1]), k1k2);
        x[2] = fold(x[2], load(&group[2]), k1k2);
        x[3] = fold(x[3], load(&group[3]), k1k2);
    }

    let k3k4 = _mm_set_epi64x(K4, K3);
    let x = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);

    // 128 → 96 bits: x[0:63]·K4 ^ x[64:127]; 96 → 64: x[0:31]·K5 ^ x[32:95].
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(x, k3k4),
        _mm_srli_si128::<8>(x),
    );
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(x),
    );

    // Barrett, reflected: T1 = (R mod x³²)·μ, T2 = (T1 mod x³²)·P, and the
    // register is the upper half of R ^ T2.
    let pu = _mm_set_epi64x(U_PRIME, P_X);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
}

/// `a` carried forward by the distance `keys` encode (512 or 128 bits)
/// and added to `b`, the lane that far ahead of it.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
    let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
    _mm_xor_si128(_mm_xor_si128(b, lo), hi)
}

/// Sixteen little-endian bytes as one lane.
#[inline]
#[target_feature(enable = "sse2")]
fn load(lane: &[u8; 16]) -> __m128i {
    let v = u128::from_le_bytes(*lane);
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}
