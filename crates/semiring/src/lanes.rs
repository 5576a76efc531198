//! Bit-sliced Boolean lanes: 64·W independent instances per lane word.
//!
//! The partitioned arrays' schedules depend only on the problem *shape*,
//! never on the matrix entries, so any number of same-shape Boolean
//! instances can share one simulated run if their values travel together.
//! Over the Boolean semiring that sharing is free: pack instance `l`'s
//! element into bit `l` of a machine word and the per-lane `OR`/`AND` of
//! all lanes is a single word `|`/`&` (the same SWAR row-OR trick
//! [`crate::BitMatrix`] uses). [`BoolLanes`] is that lane semiring;
//! [`pack_into_lanes`]/[`unpack_from_lanes`] transpose a batch of scalar
//! Boolean matrices into one lane-word matrix and back.
//!
//! Since the schedule is value-width-agnostic, the word does not have to
//! stop at 64 bits: [`LaneWord<W>`](LaneWord) carries `W` words — 64·W
//! Boolean lanes — per element, so one simulated pass closes 64, 128 or
//! 256 instances for the same number of simulated events. `W = 1` stays
//! the default type parameter, so `LaneWord` and `BoolLanes` written
//! without arguments are the 64-lane word. The three widths are lane
//! words, not engine settings: `partition::PackedEngine` runs each group
//! of a Boolean batch on the narrowest of them that holds it.
//!
//! [`BoolLanes`] is a lawful [`PathSemiring`] (it is the 64·W-fold product
//! of [`Bool`] with itself, and semiring laws hold lane-wise), so every
//! generic kernel and engine in the workspace accepts it unchanged — the
//! scalar Boolean path is simply the 1-lane instantiation.
//!
//! The [`LaneSemiring`] trait is the packed plane's data contract: it names
//! the scalar semiring one lane carries and provides the pack/unpack
//! transpose, which is what lets `PackedEngine` run Boolean lanes of any
//! width and the SWAR min-plus lanes of [`crate::swar`] through one generic
//! code path.

use crate::instances::Bool;
use crate::matrix::DenseMatrix;
use crate::traits::{PathSemiring, Semiring};
use std::fmt;

/// `W` machine words carrying `64·W` independent Boolean values, one per
/// bit: lane `l` is bit `l % 64` of word `l / 64`.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct LaneWord<const W: usize = 1>([u64; W]);

impl<const W: usize> Default for LaneWord<W> {
    #[inline]
    fn default() -> Self {
        Self([0; W])
    }
}

impl<const W: usize> LaneWord<W> {
    /// Total number of Boolean lanes this word carries.
    pub const COUNT: usize = 64 * W;

    /// Word with the given raw bit pattern.
    #[inline]
    pub fn from_words(words: [u64; W]) -> Self {
        Self(words)
    }

    /// Raw bit pattern, word `w` carrying lanes `64·w .. 64·(w+1)`.
    #[inline]
    pub fn words(self) -> [u64; W] {
        self.0
    }

    /// Value of lane `lane`.
    #[inline]
    pub fn get(self, lane: usize) -> bool {
        debug_assert!(lane < Self::COUNT);
        (self.0[lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// Sets lane `lane` to `v`.
    #[inline]
    pub fn set(&mut self, lane: usize, v: bool) {
        debug_assert!(lane < Self::COUNT);
        let mask = 1u64 << (lane % 64);
        if v {
            self.0[lane / 64] |= mask;
        } else {
            self.0[lane / 64] &= !mask;
        }
    }
}

impl LaneWord<1> {
    /// Word with the given raw bit pattern (bit `l` = lane `l`).
    #[inline]
    pub fn from_bits(bits: u64) -> Self {
        Self([bits])
    }

    /// Raw bit pattern (bit `l` = lane `l`).
    #[inline]
    pub fn bits(self) -> u64 {
        self.0[0]
    }
}

impl<const W: usize> fmt::Debug for LaneWord<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LaneWord(")?;
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w:#018x}")?;
        }
        write!(f, ")")
    }
}

/// The `64·W`-lane Boolean semiring: per-lane `OR` as `⊕` and per-lane
/// `AND` as `⊗`, one word instruction per packed word. Zero is
/// all-lanes-false, one is all-lanes-true. `W = 1` (the default) is the
/// 64-lane word; `W ∈ {1, 2, 4}` are the widths the packed engine picks
/// from.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BoolLanes<const W: usize = 1>;

impl<const W: usize> Semiring for BoolLanes<W> {
    type Elem = LaneWord<W>;
    const NAME: &'static str = match W {
        1 => "boolean-64-lane",
        2 => "boolean-128-lane",
        4 => "boolean-256-lane",
        _ => "boolean-multi-lane",
    };
    const LANE_COUNT: usize = 64 * W;

    #[inline]
    fn zero() -> LaneWord<W> {
        LaneWord([0; W])
    }
    #[inline]
    fn one() -> LaneWord<W> {
        LaneWord([u64::MAX; W])
    }
    #[inline]
    fn add(a: &LaneWord<W>, b: &LaneWord<W>) -> LaneWord<W> {
        let mut out = [0; W];
        for (o, (x, y)) in out.iter_mut().zip(a.0.iter().zip(b.0.iter())) {
            *o = x | y;
        }
        LaneWord(out)
    }
    #[inline]
    fn mul(a: &LaneWord<W>, b: &LaneWord<W>) -> LaneWord<W> {
        let mut out = [0; W];
        for (o, (x, y)) in out.iter_mut().zip(a.0.iter().zip(b.0.iter())) {
            *o = x & y;
        }
        LaneWord(out)
    }
    #[inline]
    fn fuse(x: &LaneWord<W>, p: &LaneWord<W>, q: &LaneWord<W>) -> LaneWord<W> {
        let mut out = [0; W];
        for (i, o) in out.iter_mut().enumerate() {
            *o = x.0[i] | (p.0[i] & q.0[i]);
        }
        LaneWord(out)
    }

    #[inline]
    fn corrupt_lane(e: &LaneWord<W>, lane: usize) -> LaneWord<W> {
        debug_assert!(lane < Self::LANE_COUNT);
        // Per-lane zero ↔ one over Bool is a bit toggle.
        let mut out = *e;
        out.0[lane / 64] ^= 1u64 << (lane % 64);
        out
    }
}
impl<const W: usize> PathSemiring for BoolLanes<W> {}

/// A packed [`PathSemiring`] whose element carries
/// [`Semiring::LANE_COUNT`] independent instances of a scalar semiring.
///
/// This is the contract `partition::PackedEngine` programs against: the
/// engine packs a group of [`LaneSemiring::Scalar`] matrices into one
/// lane matrix, runs the ordinary generic simulation once, and unpacks —
/// so Boolean lanes of any width and the SWAR min-plus lanes share one
/// code path.
pub trait LaneSemiring: PathSemiring {
    /// Scalar semiring a single lane carries.
    type Scalar: PathSemiring;

    /// Value of lane `lane` of `e`, as a scalar element.
    fn read_lane(e: &Self::Elem, lane: usize) -> <Self::Scalar as Semiring>::Elem;

    /// Stores scalar `v` into lane `lane` of `e`.
    ///
    /// Callers must only store values for which the packed computation is
    /// exact (see [`LaneSemiring::batch_exact`]); an unrepresentable value
    /// is a logic error upstream.
    fn write_lane(e: &mut Self::Elem, lane: usize, v: &<Self::Scalar as Semiring>::Elem);

    /// True when the packed closure of this batch is guaranteed
    /// bit-identical to the scalar path — the engine's criterion for
    /// taking the packed path at all.
    ///
    /// Boolean lanes are always exact. Narrow arithmetic lanes (SWAR
    /// min-plus) are exact on a value-bounded domain and fall back to the
    /// scalar engine outside it.
    fn batch_exact(mats: &[DenseMatrix<Self::Scalar>]) -> bool;
}

impl<const W: usize> LaneSemiring for BoolLanes<W> {
    type Scalar = Bool;

    #[inline]
    fn read_lane(e: &LaneWord<W>, lane: usize) -> bool {
        e.get(lane)
    }

    #[inline]
    fn write_lane(e: &mut LaneWord<W>, lane: usize, v: &bool) {
        e.set(lane, *v);
    }

    #[inline]
    fn batch_exact(_mats: &[DenseMatrix<Bool>]) -> bool {
        true
    }
}

/// Transposes a batch of `1..=LANE_COUNT` same-shape scalar matrices into
/// one lane matrix: element `(i, j)` of the result carries
/// `mats[l].get(i, j)` in lane `l`. Unused lanes hold the scalar zero —
/// the empty graph for Boolean lanes, the all-∞ matrix for min-plus
/// lanes — whose closure under a reflexive convention is the identity.
///
/// The loop is lane-outer: each instance's row-major storage is read in
/// one linear pass alongside the lane matrix's, so both sides stream
/// through the cache instead of gathering one element from every
/// instance per lane word.
///
/// # Panics
/// Panics on an empty batch, more than `L::LANE_COUNT` matrices, or shape
/// mismatch within the batch.
pub fn pack_into_lanes<L: LaneSemiring>(mats: &[DenseMatrix<L::Scalar>]) -> DenseMatrix<L> {
    let lanes = L::LANE_COUNT;
    assert!(
        !mats.is_empty() && mats.len() <= lanes,
        "pack_into_lanes takes 1..={lanes} matrices, got {}",
        mats.len()
    );
    let (rows, cols) = (mats[0].rows(), mats[0].cols());
    assert!(
        mats.iter().all(|m| m.rows() == rows && m.cols() == cols),
        "pack_into_lanes requires same-shape matrices"
    );
    let mut words = vec![L::zero(); rows * cols];
    for (lane, m) in mats.iter().enumerate() {
        for (w, v) in words.iter_mut().zip(m.as_slice()) {
            L::write_lane(w, lane, v);
        }
    }
    DenseMatrix::from_vec(rows, cols, words)
}

/// Extracts one lane of a lane matrix as a scalar matrix, in one linear
/// pass over the lane matrix's row-major storage.
pub fn unpack_lane_of<L: LaneSemiring>(
    packed: &DenseMatrix<L>,
    lane: usize,
) -> DenseMatrix<L::Scalar> {
    assert!(lane < L::LANE_COUNT, "lane {lane} out of range");
    let scalars = packed.as_slice().iter().map(|w| L::read_lane(w, lane));
    DenseMatrix::from_vec(packed.rows(), packed.cols(), scalars.collect())
}

/// Extracts the first `count` lanes of a lane matrix, in lane order — the
/// inverse of [`pack_into_lanes`] for a batch of `count` matrices. Lane by
/// lane, like the packing.
pub fn unpack_from_lanes<L: LaneSemiring>(
    packed: &DenseMatrix<L>,
    count: usize,
) -> Vec<DenseMatrix<L::Scalar>> {
    assert!(count <= L::LANE_COUNT, "count {count} out of range");
    (0..count).map(|l| unpack_lane_of(packed, l)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::warshall;
    use crate::laws::{check_path_laws, check_semiring_laws};

    fn rand_word<const W: usize>(rng: &mut systolic_util::Rng) -> LaneWord<W> {
        let mut w = [0u64; W];
        for x in &mut w {
            *x = rng.next_u64();
        }
        LaneWord::from_words(w)
    }

    #[test]
    fn lane_get_set_roundtrip() {
        let mut w = LaneWord::default();
        assert!(!w.get(0) && !w.get(63));
        w.set(0, true);
        w.set(63, true);
        w.set(17, true);
        assert!(w.get(0) && w.get(17) && w.get(63));
        assert!(!w.get(16));
        w.set(17, false);
        assert!(!w.get(17));
        assert_eq!(w.bits(), (1 << 63) | 1);
        assert_eq!(LaneWord::from_bits(w.bits()), w);
    }

    #[test]
    fn wide_lane_get_set_roundtrip() {
        let mut w = LaneWord::<4>::default();
        assert_eq!(LaneWord::<4>::COUNT, 256);
        for lane in [0usize, 63, 64, 127, 128, 200, 255] {
            assert!(!w.get(lane));
            w.set(lane, true);
            assert!(w.get(lane), "lane {lane}");
        }
        assert!(!w.get(65));
        w.set(64, false);
        assert!(!w.get(64) && w.get(127));
    }

    #[test]
    fn lanes_satisfy_semiring_and_path_laws() {
        let mut rng = systolic_util::Rng::seed_from_u64(64);
        for _ in 0..64 {
            let a = LaneWord::from_bits(rng.next_u64());
            let b = LaneWord::from_bits(rng.next_u64());
            let c = LaneWord::from_bits(rng.next_u64());
            check_semiring_laws::<BoolLanes>(&a, &b, &c).unwrap();
            check_path_laws::<BoolLanes>(&a).unwrap();
        }
    }

    #[test]
    fn wide_lanes_satisfy_semiring_and_path_laws() {
        let mut rng = systolic_util::Rng::seed_from_u64(128);
        for _ in 0..64 {
            let (a, b, c) = (
                rand_word::<2>(&mut rng),
                rand_word::<2>(&mut rng),
                rand_word::<2>(&mut rng),
            );
            check_semiring_laws::<BoolLanes<2>>(&a, &b, &c).unwrap();
            check_path_laws::<BoolLanes<2>>(&a).unwrap();
            let (a, b, c) = (
                rand_word::<4>(&mut rng),
                rand_word::<4>(&mut rng),
                rand_word::<4>(&mut rng),
            );
            check_semiring_laws::<BoolLanes<4>>(&a, &b, &c).unwrap();
            check_path_laws::<BoolLanes<4>>(&a).unwrap();
        }
    }

    #[test]
    fn ops_are_lanewise_bool_ops() {
        let a = LaneWord::from_bits(0b1100);
        let b = LaneWord::from_bits(0b1010);
        assert_eq!(BoolLanes::add(&a, &b).bits(), 0b1110);
        assert_eq!(BoolLanes::mul(&a, &b).bits(), 0b1000);
        let x = LaneWord::from_bits(0b0001);
        assert_eq!(BoolLanes::fuse(&x, &a, &b).bits(), 0b1001);
    }

    #[test]
    fn corrupt_lane_touches_exactly_one_lane() {
        let mut rng = systolic_util::Rng::seed_from_u64(9);
        let w = rand_word::<2>(&mut rng);
        for lane in [0usize, 5, 63, 64, 100, 127] {
            let c = BoolLanes::<2>::corrupt_lane(&w, lane);
            assert_eq!(c.get(lane), !w.get(lane), "lane {lane} flipped");
            for other in 0..128 {
                if other != lane {
                    assert_eq!(c.get(other), w.get(other), "lane {other} untouched");
                }
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut rng = systolic_util::Rng::seed_from_u64(7);
        for count in [1usize, 2, 63, 64] {
            let mats: Vec<_> = (0..count)
                .map(|_| DenseMatrix::<Bool>::from_fn(5, 5, |_, _| rng.gen_bool(0.3)))
                .collect();
            let packed = pack_into_lanes::<BoolLanes>(&mats);
            assert_eq!(unpack_from_lanes(&packed, count), mats, "count={count}");
            // Unused lanes are the empty graph.
            if count < 64 {
                assert_eq!(
                    unpack_lane_of(&packed, 63),
                    DenseMatrix::<Bool>::zeros(5, 5)
                );
            }
        }
    }

    #[test]
    fn wide_pack_unpack_roundtrip() {
        let mut rng = systolic_util::Rng::seed_from_u64(11);
        for count in [1usize, 65, 128, 129, 256] {
            let mats: Vec<_> = (0..count)
                .map(|_| DenseMatrix::<Bool>::from_fn(4, 4, |_, _| rng.gen_bool(0.4)))
                .collect();
            let packed = pack_into_lanes::<BoolLanes<4>>(&mats);
            assert_eq!(
                unpack_from_lanes::<BoolLanes<4>>(&packed, count),
                mats,
                "count={count}"
            );
        }
    }

    /// The load-bearing property of the whole data plane: running the
    /// generic Warshall kernel once over lane words computes all packed
    /// closures simultaneously.
    #[test]
    fn warshall_over_lanes_is_64_closures_at_once() {
        let mut rng = systolic_util::Rng::seed_from_u64(42);
        let mats: Vec<_> = (0..64)
            .map(|_| DenseMatrix::<Bool>::from_fn(7, 7, |i, j| i != j && rng.gen_bool(0.2)))
            .collect();
        let packed_closure = warshall(&pack_into_lanes::<BoolLanes>(&mats));
        for (lane, m) in mats.iter().enumerate() {
            assert_eq!(
                unpack_lane_of(&packed_closure, lane),
                warshall(m),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn warshall_over_wide_lanes_is_256_closures_at_once() {
        let mut rng = systolic_util::Rng::seed_from_u64(43);
        let mats: Vec<_> = (0..256)
            .map(|_| DenseMatrix::<Bool>::from_fn(6, 6, |i, j| i != j && rng.gen_bool(0.25)))
            .collect();
        let packed_closure = warshall(&pack_into_lanes::<BoolLanes<4>>(&mats));
        for (lane, m) in mats.iter().enumerate() {
            assert_eq!(
                unpack_lane_of::<BoolLanes<4>>(&packed_closure, lane),
                warshall(m),
                "lane {lane}"
            );
        }
    }
}
