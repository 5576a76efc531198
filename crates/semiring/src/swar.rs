//! SWAR min-plus lanes: 8×u8 or 4×u16 saturating tropical instances per u64.
//!
//! The packed Boolean plane works because the schedule never looks at the
//! values; the same is true for weighted closures, so min-plus batches can
//! ride the lane trick too — the only difference is that a lane is now a
//! narrow saturating integer instead of a bit. [`MinPlusSwar8`] packs 8
//! unsigned-byte tropical lanes into one `u64` ([`MinPlusSwar16`]: 4×u16);
//! lane-wise `min` and saturating `add` are branch-free SWAR expressions
//! (Hacker's-Delight-style carry/borrow isolation), so `⊕`/`⊗` stay a
//! handful of word instructions.
//!
//! **The ∞ encoding and lawfulness.** The all-ones lane value (`0xFF` /
//! `0xFFFF`) *is* the additive identity ∞: each lane is the tropical
//! semiring on the bounded chain `{0, …, MAX}` with `a ⊗ b =
//! min(a + b, MAX)` and `MAX = ∞`. Saturation is not an approximation
//! bolted on — it is the semiring's multiplication, and on the bounded
//! chain all the laws hold exactly (associativity and distributivity
//! follow from `min(a+b, MAX)` being monotone and `min`-compatible; `MAX`
//! is absorbing because `min(MAX + b, MAX) = MAX`). The law checker in
//! [`crate::laws`] verifies this per lane type, including lanes pinned at
//! the ∞ encoding.
//!
//! **Exactness versus the scalar path.** The bounded lanes agree
//! bit-for-bit with the unbounded scalar [`MinPlus`] whenever no *true*
//! shortest distance reaches `MAX`: any optimal path is simple (≤ n−1
//! edges), so if every finite weight fits a lane and
//! `(n−1)·max_weight < MAX`, every winning candidate in Warshall's
//! recurrence is computed without saturation, and any candidate that does
//! saturate is a walk that was not optimal anyway (saturating it to ∞ can
//! only discard a loser). [`LaneSemiring::batch_exact`] checks exactly
//! this bound; outside it the packed engine falls back to the scalar
//! path, so callers never observe saturated values.

use crate::instances::{MinPlus, INF};
use crate::lanes::LaneSemiring;
use crate::matrix::DenseMatrix;
use crate::traits::{PathSemiring, Semiring};

/// High (sign) bits of each u8 lane.
const H8: u64 = 0x8080_8080_8080_8080;
/// High (sign) bits of each u16 lane.
const H16: u64 = 0x8000_8000_8000_8000;

/// Lane-wise unsigned minimum of 8×u8 lanes, branch-free.
///
/// `d = (x | H) − (y & !H)` subtracts the low-7-bit parts with the high
/// bit pre-set so no borrow crosses a lane; its high bit per lane reads
/// `x_low7 ≥ y_low7`, which combines with the lanes' own high bits into a
/// full unsigned `x ≥ y` predicate, then a mask-select picks the smaller.
#[inline]
pub fn min_u8x8(x: u64, y: u64) -> u64 {
    let d = (x | H8).wrapping_sub(y & !H8);
    let xh = x & H8;
    let yh = y & H8;
    // x ≥ y per lane: x_hi > y_hi, or equal high bits and x_low7 ≥ y_low7.
    let ge = (xh & !yh) | (!(xh ^ yh) & d & H8);
    let mask = (ge >> 7).wrapping_mul(0xFF);
    (y & mask) | (x & !mask)
}

/// Lane-wise saturating addition of 8×u8 lanes, branch-free.
///
/// Low-7-bit sums cannot cross a lane; the lanes' high bits and the
/// carry-in from the low parts form a per-lane full adder whose carry-out
/// is the overflow flag, broadcast to `0xFF` (the ∞ encoding) on overflow.
#[inline]
pub fn satadd_u8x8(x: u64, y: u64) -> u64 {
    let low = (x & !H8).wrapping_add(y & !H8);
    let sum = low ^ (x & H8) ^ (y & H8);
    let carry_out = ((x & y) | ((x ^ y) & low)) & H8;
    sum | (carry_out >> 7).wrapping_mul(0xFF)
}

/// Lane-wise unsigned minimum of 4×u16 lanes (the u16 analogue of
/// [`min_u8x8`]).
#[inline]
pub fn min_u16x4(x: u64, y: u64) -> u64 {
    let d = (x | H16).wrapping_sub(y & !H16);
    let xh = x & H16;
    let yh = y & H16;
    let ge = (xh & !yh) | (!(xh ^ yh) & d & H16);
    let mask = (ge >> 15).wrapping_mul(0xFFFF);
    (y & mask) | (x & !mask)
}

/// Lane-wise saturating addition of 4×u16 lanes (the u16 analogue of
/// [`satadd_u8x8`]).
#[inline]
pub fn satadd_u16x4(x: u64, y: u64) -> u64 {
    let low = (x & !H16).wrapping_add(y & !H16);
    let sum = low ^ (x & H16) ^ (y & H16);
    let carry_out = ((x & y) | ((x ^ y) & low)) & H16;
    sum | (carry_out >> 15).wrapping_mul(0xFFFF)
}

/// 8 saturating u8 tropical lanes per u64: lane `l` is byte `l`, `⊕` is
/// lane-wise unsigned `min`, `⊗` is lane-wise saturating `+`, and the
/// all-ones byte `0xFF` is the lane's ∞ (the additive identity).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MinPlusSwar8;

/// Lane ∞ of [`MinPlusSwar8`] — the largest u8, absorbing for `⊗`.
pub const SWAR8_INF: u64 = 0xFF;

/// Lane ∞ of [`MinPlusSwar16`] — the largest u16, absorbing for `⊗`.
pub const SWAR16_INF: u64 = 0xFFFF;

impl Semiring for MinPlusSwar8 {
    type Elem = u64;
    const NAME: &'static str = "min-plus-swar-8x8";
    const LANE_COUNT: usize = 8;

    #[inline]
    fn zero() -> u64 {
        u64::MAX
    }
    #[inline]
    fn one() -> u64 {
        0
    }
    #[inline]
    fn add(a: &u64, b: &u64) -> u64 {
        min_u8x8(*a, *b)
    }
    #[inline]
    fn mul(a: &u64, b: &u64) -> u64 {
        satadd_u8x8(*a, *b)
    }

    #[inline]
    fn corrupt_lane(e: &u64, lane: usize) -> u64 {
        debug_assert!(lane < Self::LANE_COUNT);
        let sh = 8 * (lane as u32);
        let b = (e >> sh) & SWAR8_INF;
        // Per-lane zero ↔ one: ∞ (0xFF) becomes 0, anything else becomes ∞.
        let nb = if b == SWAR8_INF { 0 } else { SWAR8_INF };
        (e & !(SWAR8_INF << sh)) | (nb << sh)
    }
}
impl PathSemiring for MinPlusSwar8 {}

/// 4 saturating u16 tropical lanes per u64: lane `l` is the `l`-th 16-bit
/// field, with the same structure as [`MinPlusSwar8`] at a wider weight
/// range (`∞ = 0xFFFF`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MinPlusSwar16;

impl Semiring for MinPlusSwar16 {
    type Elem = u64;
    const NAME: &'static str = "min-plus-swar-4x16";
    const LANE_COUNT: usize = 4;

    #[inline]
    fn zero() -> u64 {
        u64::MAX
    }
    #[inline]
    fn one() -> u64 {
        0
    }
    #[inline]
    fn add(a: &u64, b: &u64) -> u64 {
        min_u16x4(*a, *b)
    }
    #[inline]
    fn mul(a: &u64, b: &u64) -> u64 {
        satadd_u16x4(*a, *b)
    }

    #[inline]
    fn corrupt_lane(e: &u64, lane: usize) -> u64 {
        debug_assert!(lane < Self::LANE_COUNT);
        let sh = 16 * (lane as u32);
        let b = (e >> sh) & SWAR16_INF;
        let nb = if b == SWAR16_INF { 0 } else { SWAR16_INF };
        (e & !(SWAR16_INF << sh)) | (nb << sh)
    }
}
impl PathSemiring for MinPlusSwar16 {}

/// Shared exactness bound: every finite weight fits a lane and the longest
/// simple path `(n−1)·max_weight` stays strictly below the lane's ∞.
fn minplus_batch_exact(mats: &[DenseMatrix<MinPlus>], lane_inf: u64) -> bool {
    let n = mats.first().map_or(0, DenseMatrix::rows) as u64;
    let mut wmax: u64 = 0;
    for m in mats {
        for e in m.as_slice() {
            if *e == INF {
                continue;
            }
            if *e >= lane_inf {
                return false;
            }
            wmax = wmax.max(*e);
        }
    }
    n <= 1 || wmax.saturating_mul(n - 1) < lane_inf
}

impl LaneSemiring for MinPlusSwar8 {
    type Scalar = MinPlus;

    #[inline]
    fn read_lane(e: &u64, lane: usize) -> u64 {
        let b = (e >> (8 * lane as u32)) & SWAR8_INF;
        if b == SWAR8_INF {
            INF
        } else {
            b
        }
    }

    #[inline]
    fn write_lane(e: &mut u64, lane: usize, v: &u64) {
        let sh = 8 * lane as u32;
        let b = if *v == INF {
            SWAR8_INF
        } else {
            debug_assert!(*v < SWAR8_INF, "weight {v} does not fit a u8 lane");
            *v
        };
        *e = (*e & !(SWAR8_INF << sh)) | (b << sh);
    }

    fn batch_exact(mats: &[DenseMatrix<MinPlus>]) -> bool {
        minplus_batch_exact(mats, SWAR8_INF)
    }
}

impl LaneSemiring for MinPlusSwar16 {
    type Scalar = MinPlus;

    #[inline]
    fn read_lane(e: &u64, lane: usize) -> u64 {
        let b = (e >> (16 * lane as u32)) & SWAR16_INF;
        if b == SWAR16_INF {
            INF
        } else {
            b
        }
    }

    #[inline]
    fn write_lane(e: &mut u64, lane: usize, v: &u64) {
        let sh = 16 * lane as u32;
        let b = if *v == INF {
            SWAR16_INF
        } else {
            debug_assert!(*v < SWAR16_INF, "weight {v} does not fit a u16 lane");
            *v
        };
        *e = (*e & !(SWAR16_INF << sh)) | (b << sh);
    }

    fn batch_exact(mats: &[DenseMatrix<MinPlus>]) -> bool {
        minplus_batch_exact(mats, SWAR16_INF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::warshall;
    use crate::lanes::{pack_into_lanes, unpack_lane_of};
    use crate::laws::{check_path_laws, check_semiring_laws};

    fn scalar_min(a: u64, b: u64) -> u64 {
        a.min(b)
    }

    fn scalar_satadd(a: u64, b: u64, max: u64) -> u64 {
        (a + b).min(max)
    }

    #[test]
    fn swar_min_and_satadd_match_scalar_u8() {
        let mut rng = systolic_util::Rng::seed_from_u64(0x5A11);
        for _ in 0..2000 {
            let x = rng.next_u64();
            let y = rng.next_u64();
            let mn = min_u8x8(x, y);
            let sm = satadd_u8x8(x, y);
            for l in 0..8 {
                let (a, b) = ((x >> (8 * l)) & 0xFF, (y >> (8 * l)) & 0xFF);
                assert_eq!((mn >> (8 * l)) & 0xFF, scalar_min(a, b), "min lane {l}");
                assert_eq!(
                    (sm >> (8 * l)) & 0xFF,
                    scalar_satadd(a, b, 0xFF),
                    "satadd lane {l}: {a} + {b}"
                );
            }
        }
    }

    #[test]
    fn swar_min_and_satadd_match_scalar_u16() {
        let mut rng = systolic_util::Rng::seed_from_u64(0x5A16);
        for _ in 0..2000 {
            let x = rng.next_u64();
            let y = rng.next_u64();
            let mn = min_u16x4(x, y);
            let sm = satadd_u16x4(x, y);
            for l in 0..4 {
                let (a, b) = ((x >> (16 * l)) & 0xFFFF, (y >> (16 * l)) & 0xFFFF);
                assert_eq!((mn >> (16 * l)) & 0xFFFF, scalar_min(a, b), "min lane {l}");
                assert_eq!(
                    (sm >> (16 * l)) & 0xFFFF,
                    scalar_satadd(a, b, 0xFFFF),
                    "satadd lane {l}: {a} + {b}"
                );
            }
        }
    }

    #[test]
    fn swar_semirings_satisfy_the_laws() {
        let mut rng = systolic_util::Rng::seed_from_u64(0x1A3);
        for _ in 0..128 {
            let (a, b, c) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
            check_semiring_laws::<MinPlusSwar8>(&a, &b, &c).unwrap();
            check_path_laws::<MinPlusSwar8>(&a).unwrap();
            check_semiring_laws::<MinPlusSwar16>(&a, &b, &c).unwrap();
            check_path_laws::<MinPlusSwar16>(&a).unwrap();
        }
    }

    /// The ∞ encoding survives the laws: lanes pinned at ∞ and lanes that
    /// saturate into ∞ still satisfy identity/absorption/distributivity.
    #[test]
    fn laws_hold_at_the_infinity_encoding() {
        // Lanes: ∞ everywhere; near-saturation values; a mix.
        let cases = [
            u64::MAX,
            0xFE80_FF01_FE02_FF7F,
            0x0000_00FF_FFFF_0000,
            0x7F7F_7F7F_7F7F_7F7F,
        ];
        for a in cases {
            for b in cases {
                for c in cases {
                    check_semiring_laws::<MinPlusSwar8>(&a, &b, &c).unwrap();
                    check_semiring_laws::<MinPlusSwar16>(&a, &b, &c).unwrap();
                }
            }
            check_path_laws::<MinPlusSwar8>(&a).unwrap();
            check_path_laws::<MinPlusSwar16>(&a).unwrap();
            // ∞ is absorbing lane-wise.
            assert_eq!(MinPlusSwar8::mul(&u64::MAX, &a), u64::MAX);
            assert_eq!(MinPlusSwar16::mul(&u64::MAX, &a), u64::MAX);
        }
    }

    #[test]
    fn read_write_lane_roundtrip_with_infinity() {
        let mut e = MinPlusSwar8::zero();
        MinPlusSwar8::write_lane(&mut e, 3, &42);
        MinPlusSwar8::write_lane(&mut e, 0, &0);
        assert_eq!(MinPlusSwar8::read_lane(&e, 3), 42);
        assert_eq!(MinPlusSwar8::read_lane(&e, 0), 0);
        assert_eq!(MinPlusSwar8::read_lane(&e, 5), INF, "untouched lane is ∞");
        MinPlusSwar8::write_lane(&mut e, 3, &INF);
        assert_eq!(MinPlusSwar8::read_lane(&e, 3), INF);

        let mut e = MinPlusSwar16::zero();
        MinPlusSwar16::write_lane(&mut e, 2, &40_000);
        assert_eq!(MinPlusSwar16::read_lane(&e, 2), 40_000);
        assert_eq!(MinPlusSwar16::read_lane(&e, 1), INF);
    }

    #[test]
    fn corrupt_lane_swaps_infinity_and_zero_in_one_lane() {
        let mut e = MinPlusSwar8::zero();
        MinPlusSwar8::write_lane(&mut e, 2, &7);
        let c = MinPlusSwar8::corrupt_lane(&e, 2);
        assert_eq!(MinPlusSwar8::read_lane(&c, 2), INF, "finite → ∞");
        let c2 = MinPlusSwar8::corrupt_lane(&e, 5);
        assert_eq!(MinPlusSwar8::read_lane(&c2, 5), 0, "∞ → 0 (one)");
        assert_eq!(MinPlusSwar8::read_lane(&c2, 2), 7, "other lanes untouched");
    }

    #[test]
    fn batch_exact_enforces_the_simple_path_bound() {
        let small = DenseMatrix::<MinPlus>::from_fn(5, 5, |i, j| if i == j { 0 } else { 3 });
        assert!(MinPlusSwar8::batch_exact(std::slice::from_ref(&small)));
        // (n−1)·wmax = 4·63 = 252 < 255: still exact.
        let edge = DenseMatrix::<MinPlus>::from_fn(5, 5, |i, j| if i == j { 0 } else { 63 });
        assert!(MinPlusSwar8::batch_exact(&[edge]));
        // 4·64 = 256 ≥ 255: falls back.
        let over = DenseMatrix::<MinPlus>::from_fn(5, 5, |i, j| if i == j { 0 } else { 64 });
        assert!(!MinPlusSwar8::batch_exact(std::slice::from_ref(&over)));
        // ∞ entries are fine; a single too-heavy finite entry is not.
        let with_inf = DenseMatrix::<MinPlus>::from_fn(5, 5, |i, j| if i < j { 3 } else { INF });
        assert!(MinPlusSwar8::batch_exact(&[with_inf]));
        let heavy = DenseMatrix::<MinPlus>::from_fn(3, 3, |_, _| 300);
        assert!(!MinPlusSwar8::batch_exact(std::slice::from_ref(&heavy)));
        // The u16 plane has the headroom the u8 plane lacks.
        assert!(MinPlusSwar16::batch_exact(&[over, heavy]));
    }

    /// The load-bearing property: one Warshall pass over SWAR lanes computes
    /// all packed weighted closures at once, bit-identical to scalar.
    #[test]
    fn warshall_over_swar_lanes_matches_scalar_minplus() {
        let mut rng = systolic_util::Rng::seed_from_u64(0x77);
        let mats: Vec<_> = (0..8)
            .map(|_| {
                DenseMatrix::<MinPlus>::from_fn(7, 7, |i, j| {
                    if i == j {
                        0
                    } else if rng.gen_bool(0.4) {
                        rng.gen_usize(20) as u64 + 1
                    } else {
                        INF
                    }
                })
            })
            .collect();
        assert!(MinPlusSwar8::batch_exact(&mats));
        let packed_closure = warshall(&pack_into_lanes::<MinPlusSwar8>(&mats));
        for (lane, m) in mats.iter().enumerate() {
            assert_eq!(
                unpack_lane_of::<MinPlusSwar8>(&packed_closure, lane),
                warshall(m),
                "lane {lane}"
            );
        }
        let packed16 = warshall(&pack_into_lanes::<MinPlusSwar16>(&mats[..4]));
        for (lane, m) in mats[..4].iter().enumerate() {
            assert_eq!(
                unpack_lane_of::<MinPlusSwar16>(&packed16, lane),
                warshall(m),
                "u16 lane {lane}"
            );
        }
    }
}
