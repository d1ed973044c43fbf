//! Schedules: concrete software optimizations (§VI-A).
//!
//! A schedule fixes the factors of the primitive sequence
//! `[split, reorder, fuse, tensorize]`: which tensorize choice is used, the
//! tensorized tile sizes (the interface sub-workload), the order of the
//! outer software loops, and how many outermost loops are fused.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tensor_ir::intrinsics::Intrinsic;
use tensor_ir::matching::{find_tensorize_choices, MatchOptions, TensorizeChoice};
use tensor_ir::workload::Workload;
use tensor_ir::IndexId;

use crate::primitives::{PrimitiveSequence, SwPrimitive};
use crate::SwError;

/// The extent of `intrinsic`'s widest loop that `choice` maps onto
/// `compute_idx`, 1 when none does (see
/// [`ScheduleContext::intrinsic_extent`]).
pub(crate) fn intrinsic_extent(
    intrinsic: &Intrinsic,
    choice: &TensorizeChoice,
    compute_idx: IndexId,
) -> u64 {
    choice
        .var_map
        .iter()
        .filter(|&&(_, c)| c == compute_idx)
        .map(|&(q, _)| intrinsic.comp.index(q).extent)
        .max()
        .unwrap_or(1)
}

/// Maximum loop dimensions supported by the fixed-size feature encoding.
pub const MAX_DIMS: usize = 8;

/// Number of discrete revision actions (the Q-network's output arity).
pub const NUM_REVISIONS: usize = 2 * MAX_DIMS + (MAX_DIMS - 1) + 3;

/// Length of a schedule's feature vector (the Q-network's input arity).
pub const NUM_FEATURES: usize = 2 * MAX_DIMS + 2;

/// A schedule's fixed-size feature vector (see [`Schedule::features`]).
pub type Features = [f64; NUM_FEATURES];

/// A concrete software optimization for one workload on one accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// The tensorize choice (HW/SW partitioning) this schedule uses.
    pub choice: TensorizeChoice,
    /// Tile size per tensorized compute loop — the sub-workload the
    /// interface processes per invocation.
    pub tiles: BTreeMap<IndexId, u64>,
    /// The outer software loops, outermost first. A permutation of all the
    /// workload's loops (tensorized loops appear as their tile loops).
    pub outer_order: Vec<IndexId>,
    /// Number of outermost loops fused into one launch loop.
    pub fuse_outer: usize,
}

runtime::wire_struct!(Schedule {
    choice,
    tiles,
    outer_order,
    fuse_outer,
});

/// The software design space of one (workload, accelerator) pair: the
/// tensorize choices found by the matcher plus the intrinsic geometry.
#[derive(Debug, Clone)]
pub struct ScheduleContext {
    /// The workload being scheduled.
    pub workload: Workload,
    /// The accelerator's intrinsic (geometry from the PE array).
    pub intrinsic: Intrinsic,
    /// All legal tensorize choices for this pair.
    pub choices: Vec<TensorizeChoice>,
}

impl ScheduleContext {
    /// Builds the context by running the two-step matcher.
    ///
    /// # Errors
    /// Returns [`SwError::NoTensorizeChoice`] when the matcher finds no
    /// legal partitioning.
    pub fn new(workload: &Workload, intrinsic: &Intrinsic) -> Result<Self, SwError> {
        let choices =
            find_tensorize_choices(&workload.comp, &intrinsic.comp, &MatchOptions::default());
        ScheduleContext::with_choices(workload, intrinsic, choices)
    }

    /// Builds the context from tensorize choices the matcher already
    /// found for this workload's loop nest against an intrinsic of the
    /// same kind. Matching reads structure only, never extents, so the
    /// choices hold at every PE geometry; [`ScheduleContext::new`] is
    /// this plus the matcher run.
    ///
    /// # Errors
    /// Returns [`SwError::NoTensorizeChoice`] when `choices` is empty.
    pub(crate) fn with_choices(
        workload: &Workload,
        intrinsic: &Intrinsic,
        choices: Vec<TensorizeChoice>,
    ) -> Result<Self, SwError> {
        if choices.is_empty() {
            return Err(SwError::NoTensorizeChoice {
                workload: workload.name.clone(),
                intrinsic: intrinsic.kind.name().into(),
            });
        }
        Ok(ScheduleContext {
            workload: workload.clone(),
            intrinsic: intrinsic.clone(),
            choices,
        })
    }

    /// The intrinsic extent bound to a tensorized compute loop under a
    /// choice (the PE-array-imposed stride of that loop).
    pub fn intrinsic_extent(&self, choice: &TensorizeChoice, compute_idx: IndexId) -> u64 {
        intrinsic_extent(&self.intrinsic, choice, compute_idx)
    }

    /// Generates a random schedule for a random choice.
    pub fn random_schedule<R: Rng + ?Sized>(&self, rng: &mut R) -> Schedule {
        let choice = self.choices[rng.gen_range(0..self.choices.len())].clone();
        self.random_schedule_for(&choice, rng)
    }

    /// Generates a random schedule for a specific choice: tiles are random
    /// multiples of the intrinsic extent, the order is a random
    /// permutation, fusion is 0–2 loops.
    pub fn random_schedule_for<R: Rng + ?Sized>(
        &self,
        choice: &TensorizeChoice,
        rng: &mut R,
    ) -> Schedule {
        let mut tiles = BTreeMap::new();
        for idx in choice.tensorized_indices() {
            let ext = self.workload.comp.index(idx).extent;
            let base = self.intrinsic_extent(choice, idx).min(ext).max(1);
            // Multiples of the intrinsic extent plus the full extent (full
            // tiles avoid edge padding and are frequently optimal).
            let multipliers = [1u64, 2, 3, 4, 6, 8, 16];
            let tile = if rng.gen_bool(0.25) {
                ext
            } else {
                let m = multipliers[rng.gen_range(0..multipliers.len())];
                (base * m).min(ext)
            };
            tiles.insert(idx, tile.max(1));
        }
        let mut outer_order: Vec<IndexId> =
            (0..self.workload.comp.indices.len()).map(IndexId).collect();
        // Fisher-Yates shuffle.
        for i in (1..outer_order.len()).rev() {
            let j = rng.gen_range(0..=i);
            outer_order.swap(i, j);
        }
        let fuse_outer = rng.gen_range(0..=2usize.min(outer_order.len()));
        Schedule {
            choice: choice.clone(),
            tiles,
            outer_order,
            fuse_outer,
        }
    }
}

impl Schedule {
    /// Validates against a workload.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self, ctx: &ScheduleContext) -> Result<(), SwError> {
        let n = ctx.workload.comp.indices.len();
        // Order must be a permutation of all loops.
        if self.outer_order.len() != n {
            return Err(SwError::BadOrder);
        }
        let mut seen = vec![false; n];
        for id in &self.outer_order {
            if id.0 >= n || seen[id.0] {
                return Err(SwError::BadOrder);
            }
            seen[id.0] = true;
        }
        if self.fuse_outer > n {
            return Err(SwError::BadOrder);
        }
        // Tiles exactly on the tensorized indices, within extents.
        let tensorized = self.choice.tensorized_indices();
        for idx in &tensorized {
            match self.tiles.get(idx) {
                None => {
                    return Err(SwError::BadTile {
                        index: ctx.workload.comp.index(*idx).name.clone(),
                        tile: 0,
                    })
                }
                Some(&t) => {
                    let ext = ctx.workload.comp.index(*idx).extent;
                    if t == 0 || t > ext {
                        return Err(SwError::BadTile {
                            index: ctx.workload.comp.index(*idx).name.clone(),
                            tile: t,
                        });
                    }
                }
            }
        }
        for idx in self.tiles.keys() {
            if !tensorized.contains(idx) {
                return Err(SwError::BadIndex(idx.0));
            }
        }
        Ok(())
    }

    /// Trip count of an outer loop: `ceil(extent / tile)` for tensorized
    /// loops, the full extent otherwise.
    pub fn trip_count(&self, ctx: &ScheduleContext, idx: IndexId) -> u64 {
        let ext = ctx.workload.comp.index(idx).extent;
        match self.tiles.get(&idx) {
            Some(&t) => ext.div_ceil(t),
            None => ext,
        }
    }

    /// Total interface invocations (product of outer trip counts).
    pub fn invocations(&self, ctx: &ScheduleContext) -> u64 {
        self.outer_order
            .iter()
            .map(|&i| self.trip_count(ctx, i))
            .product()
    }

    /// The tile extent used *inside* one interface invocation: the tile for
    /// tensorized loops, 1 otherwise (outer loops are fixed per call).
    pub fn inner_extent(&self, idx: IndexId) -> u64 {
        self.tiles.get(&idx).copied().unwrap_or(1)
    }

    /// The paper's Fig. 5(c) view: the primitive sequence of this schedule.
    pub fn primitive_sequence(&self, ctx: &ScheduleContext) -> PrimitiveSequence {
        let mut primitives = Vec::new();
        for (&idx, &tile) in &self.tiles {
            primitives.push(SwPrimitive::Split {
                index: idx,
                outer: self.trip_count(ctx, idx),
                inner: tile,
            });
        }
        primitives.push(SwPrimitive::Reorder {
            order: self.outer_order.clone(),
        });
        if self.fuse_outer > 0 {
            primitives.push(SwPrimitive::Fuse {
                count: self.fuse_outer,
            });
        }
        primitives.push(SwPrimitive::Tensorize {
            tiles: self.tiles.iter().map(|(&i, &t)| (i, t)).collect(),
            intrinsic: self.choice.intrinsic.clone(),
        });
        PrimitiveSequence { primitives }
    }

    /// Fixed-size feature vector for the Q-network: per-dimension log tile
    /// multipliers, per-dimension order positions, fusion depth, and choice
    /// identity.
    pub fn features(&self, ctx: &ScheduleContext) -> Features {
        let n = ctx.workload.comp.indices.len().min(MAX_DIMS);
        let mut feat = [0.0; NUM_FEATURES];
        for d in 0..n {
            let idx = IndexId(d);
            if let Some(&t) = self.tiles.get(&idx) {
                let base = ctx.intrinsic_extent(&self.choice, idx).max(1);
                feat[d] = ((t as f64 / base as f64).log2() / 6.0).clamp(0.0, 1.0);
            }
            if let Some(pos) = self.outer_order.iter().position(|&i| i == idx) {
                feat[MAX_DIMS + d] = pos as f64 / self.outer_order.len().max(1) as f64;
            }
        }
        feat[2 * MAX_DIMS] = self.fuse_outer as f64 / self.outer_order.len().max(1) as f64;
        let choice_id = ctx
            .choices
            .iter()
            .position(|c| c.var_map == self.choice.var_map)
            .unwrap_or(0);
        feat[2 * MAX_DIMS + 1] = choice_id as f64 / ctx.choices.len().max(1) as f64;
        feat
    }
}

/// One discrete revision of a candidate schedule (the Q-learning action
/// space of Fig. 5(e)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Revision {
    /// Double the tile of the d-th tensorized dimension.
    GrowTile(usize),
    /// Halve the tile of the d-th tensorized dimension (floor at the
    /// intrinsic extent).
    ShrinkTile(usize),
    /// Swap outer loops at positions (pos, pos + 1).
    SwapOrder(usize),
    /// Fuse one more outer loop.
    IncFuse,
    /// Fuse one fewer outer loop.
    DecFuse,
    /// Re-tensorize: switch to the next tensorize choice.
    SwitchChoice,
}

impl Revision {
    /// Decodes an action id in `0..NUM_REVISIONS`.
    pub fn from_action(a: usize) -> Revision {
        if a < MAX_DIMS {
            Revision::GrowTile(a)
        } else if a < 2 * MAX_DIMS {
            Revision::ShrinkTile(a - MAX_DIMS)
        } else if a < 2 * MAX_DIMS + (MAX_DIMS - 1) {
            Revision::SwapOrder(a - 2 * MAX_DIMS)
        } else {
            match a - (2 * MAX_DIMS + MAX_DIMS - 1) {
                0 => Revision::IncFuse,
                1 => Revision::DecFuse,
                _ => Revision::SwitchChoice,
            }
        }
    }

    /// Whether the revision applies to `sched` (the action mask). Draws
    /// nothing and builds nothing, so a policy can mask all actions
    /// without cloning a schedule per action.
    pub fn applies(&self, sched: &Schedule, ctx: &ScheduleContext) -> bool {
        match *self {
            Revision::GrowTile(d) => sched
                .tiles
                .iter()
                .nth(d)
                .is_some_and(|(&idx, &t)| t < ctx.workload.comp.index(idx).extent),
            Revision::ShrinkTile(d) => sched
                .tiles
                .iter()
                .nth(d)
                .is_some_and(|(&idx, &t)| t > shrink_floor(sched, ctx, idx)),
            Revision::SwapOrder(pos) => pos + 1 < sched.outer_order.len(),
            Revision::IncFuse => sched.fuse_outer < sched.outer_order.len(),
            Revision::DecFuse => sched.fuse_outer > 0,
            Revision::SwitchChoice => ctx.choices.len() > 1,
        }
    }

    /// Applies the revision, returning the revised schedule, or `None` when
    /// the action is inapplicable (see [`Revision::applies`]). Only
    /// [`Revision::SwitchChoice`] draws from `rng`: it re-samples the
    /// tiles for the next choice.
    pub fn apply<R: Rng + ?Sized>(
        &self,
        sched: &Schedule,
        ctx: &ScheduleContext,
        rng: &mut R,
    ) -> Option<Schedule> {
        if !self.applies(sched, ctx) {
            return None;
        }
        // The d-th tensorized dimension is the d-th tile key (a BTreeMap
        // iterates its keys in index order).
        let nth_tile = |d: usize| {
            let (&idx, &t) = sched.tiles.iter().nth(d).expect("applicable");
            (idx, t)
        };
        let mut s = sched.clone();
        match *self {
            Revision::GrowTile(d) => {
                let (idx, t) = nth_tile(d);
                let ext = ctx.workload.comp.index(idx).extent;
                s.tiles.insert(idx, (t * 2).min(ext));
            }
            Revision::ShrinkTile(d) => {
                let (idx, t) = nth_tile(d);
                s.tiles
                    .insert(idx, (t / 2).max(shrink_floor(sched, ctx, idx)));
            }
            Revision::SwapOrder(pos) => s.outer_order.swap(pos, pos + 1),
            Revision::IncFuse => s.fuse_outer += 1,
            Revision::DecFuse => s.fuse_outer -= 1,
            Revision::SwitchChoice => {
                let cur = ctx
                    .choices
                    .iter()
                    .position(|c| c.var_map == s.choice.var_map)
                    .unwrap_or(0);
                let next = ctx.choices[(cur + 1) % ctx.choices.len()].clone();
                let mut fresh = ctx.random_schedule_for(&next, rng);
                fresh.outer_order = s.outer_order;
                fresh.fuse_outer = s.fuse_outer;
                s = fresh;
            }
        }
        Some(s)
    }
}

/// The smallest tile [`Revision::ShrinkTile`] leaves on a tensorized loop:
/// the intrinsic extent, capped by the loop extent.
fn shrink_floor(sched: &Schedule, ctx: &ScheduleContext, idx: IndexId) -> u64 {
    ctx.intrinsic_extent(&sched.choice, idx)
        .min(ctx.workload.comp.index(idx).extent)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tensor_ir::intrinsics::gemm_intrinsic;
    use tensor_ir::suites;

    fn ctx() -> ScheduleContext {
        let wl = suites::gemm_workload("g", 128, 128, 128);
        ScheduleContext::new(&wl, &gemm_intrinsic(16, 16, 16)).unwrap()
    }

    #[test]
    fn context_finds_choices() {
        let c = ctx();
        assert!(!c.choices.is_empty());
    }

    #[test]
    fn random_schedules_validate() {
        let c = ctx();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..50 {
            let s = c.random_schedule(&mut rng);
            assert!(s.validate(&c).is_ok(), "{s:?}");
        }
    }

    #[test]
    fn trip_counts_round_up() {
        let c = ctx();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut s = c.random_schedule(&mut rng);
        let idx = *s.tiles.keys().next().unwrap();
        s.tiles.insert(idx, 48); // 128 / 48 -> 3 tiles
        assert_eq!(s.trip_count(&c, idx), 3);
        assert_eq!(s.inner_extent(idx), 48);
    }

    #[test]
    fn invocations_multiply_trips() {
        let c = ctx();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut s = c.random_schedule(&mut rng);
        for idx in s.tiles.keys().copied().collect::<Vec<_>>() {
            s.tiles.insert(idx, 64);
        }
        // 3 loops; tensorized have 128/64 = 2 trips each; non-tensorized 128.
        let tens = s.tiles.len() as u32;
        let expected = 2u64.pow(tens) * 128u64.pow(3 - tens);
        assert_eq!(s.invocations(&c), expected);
    }

    #[test]
    fn validate_rejects_bad_order() {
        let c = ctx();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = c.random_schedule(&mut rng);
        s.outer_order = vec![IndexId(0), IndexId(0), IndexId(1)];
        assert_eq!(s.validate(&c), Err(SwError::BadOrder));
        s.outer_order = vec![IndexId(0)];
        assert_eq!(s.validate(&c), Err(SwError::BadOrder));
    }

    #[test]
    fn validate_rejects_oversized_tile() {
        let c = ctx();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut s = c.random_schedule(&mut rng);
        let idx = *s.tiles.keys().next().unwrap();
        s.tiles.insert(idx, 10_000);
        assert!(matches!(s.validate(&c), Err(SwError::BadTile { .. })));
    }

    #[test]
    fn grow_and_shrink_are_inverse_within_bounds() {
        let c = ctx();
        let mut rng = SmallRng::seed_from_u64(6);
        let mut s = c.random_schedule(&mut rng);
        let keys: Vec<IndexId> = s.tiles.keys().copied().collect();
        for idx in keys {
            s.tiles.insert(idx, 32);
        }
        let grown = Revision::GrowTile(0).apply(&s, &c, &mut rng).unwrap();
        let key0 = *s.tiles.keys().next().unwrap();
        assert_eq!(grown.tiles[&key0], 64);
        let back = Revision::ShrinkTile(0).apply(&grown, &c, &mut rng).unwrap();
        assert_eq!(back.tiles[&key0], 32);
    }

    #[test]
    fn shrink_floors_at_intrinsic_extent() {
        let c = ctx();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut s = c.random_schedule(&mut rng);
        let key0 = *s.tiles.keys().next().unwrap();
        s.tiles.insert(key0, 16); // == intrinsic extent
        assert_eq!(Revision::ShrinkTile(0).apply(&s, &c, &mut rng), None);
    }

    #[test]
    fn swap_order_is_local() {
        let c = ctx();
        let mut rng = SmallRng::seed_from_u64(8);
        let s = c.random_schedule(&mut rng);
        let swapped = Revision::SwapOrder(0).apply(&s, &c, &mut rng).unwrap();
        assert_eq!(swapped.outer_order[0], s.outer_order[1]);
        assert_eq!(swapped.outer_order[1], s.outer_order[0]);
        assert_eq!(Revision::SwapOrder(99).apply(&s, &c, &mut rng), None);
    }

    #[test]
    fn fuse_revisions_respect_bounds() {
        let c = ctx();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut s = c.random_schedule(&mut rng);
        s.fuse_outer = 0;
        assert_eq!(Revision::DecFuse.apply(&s, &c, &mut rng), None);
        let inc = Revision::IncFuse.apply(&s, &c, &mut rng).unwrap();
        assert_eq!(inc.fuse_outer, 1);
    }

    #[test]
    fn switch_choice_changes_mapping_when_possible() {
        let c = ctx();
        let mut rng = SmallRng::seed_from_u64(10);
        let s = c.random_schedule_for(&c.choices[0].clone(), &mut rng);
        if c.choices.len() > 1 {
            let switched = Revision::SwitchChoice.apply(&s, &c, &mut rng).unwrap();
            assert_ne!(switched.choice.var_map, s.choice.var_map);
            assert!(switched.validate(&c).is_ok());
        }
    }

    /// Schedule spaces with different choice counts, and loop extents
    /// both multiples and non-multiples of the intrinsic's.
    fn contexts() -> Vec<ScheduleContext> {
        use tensor_ir::intrinsics::conv2d_intrinsic;
        let conv = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        vec![
            ctx(),
            ScheduleContext::new(
                &suites::gemm_workload("odd", 100, 60, 36),
                &gemm_intrinsic(16, 16, 16),
            )
            .unwrap(),
            ScheduleContext::new(&conv, &gemm_intrinsic(16, 128, 16)).unwrap(),
            ScheduleContext::new(&conv, &conv2d_intrinsic(8, 8, 3, 3)).unwrap(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn applies_agrees_with_apply_and_masking_draws_nothing(
            which in 0usize..4,
            seed in any::<u64>(),
            edges in prop::collection::vec(0usize..4, 8),
            fuse in 0usize..8,
        ) {
            let c = &contexts()[which];
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = c.random_schedule(&mut rng);
            // Push tiles onto the boundaries the masks test: the shrink
            // floor, the loop extent, or one past the floor.
            let keys: Vec<IndexId> = s.tiles.keys().copied().collect();
            for (idx, edge) in keys.into_iter().zip(edges) {
                let ext = c.workload.comp.index(idx).extent;
                let floor = shrink_floor(&s, c, idx);
                match edge {
                    0 => { s.tiles.insert(idx, floor); }
                    1 => { s.tiles.insert(idx, ext); }
                    2 => { s.tiles.insert(idx, (floor + 1).min(ext)); }
                    _ => {}
                }
            }
            s.fuse_outer = fuse.min(s.outer_order.len());
            for a in 0..NUM_REVISIONS {
                let revision = Revision::from_action(a);
                let before = rng.clone();
                let applied = revision.apply(&s, c, &mut rng);
                prop_assert_eq!(revision.applies(&s, c), applied.is_some(), "{:?}", revision);
                if let Some(revised) = &applied {
                    prop_assert!(revised.validate(c).is_ok(), "{:?}", revision);
                }
                if revision != Revision::SwitchChoice {
                    // A mask that admits a no-op (a tile already at its
                    // bound) wastes a proposal on an unchanged schedule.
                    prop_assert!(applied.as_ref() != Some(&s), "{:?} is a no-op", revision);
                    // `QLearner::propose` builds the picked revision after
                    // its own draws; that keeps the RNG stream only if
                    // these actions never draw.
                    prop_assert_eq!(before.clone().gen::<u64>(), rng.clone().gen::<u64>());
                }
                rng = before;
            }
        }
    }

    #[test]
    fn action_decoding_roundtrip() {
        let mut kinds = std::collections::BTreeSet::new();
        for a in 0..NUM_REVISIONS {
            let r = Revision::from_action(a);
            kinds.insert(format!("{r:?}"));
        }
        assert_eq!(kinds.len(), NUM_REVISIONS);
        assert_eq!(Revision::from_action(0), Revision::GrowTile(0));
        assert_eq!(Revision::from_action(MAX_DIMS), Revision::ShrinkTile(0));
        assert_eq!(
            Revision::from_action(NUM_REVISIONS - 1),
            Revision::SwitchChoice
        );
    }

    #[test]
    fn features_are_fixed_size_and_bounded() {
        let c = ctx();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..20 {
            let s = c.random_schedule(&mut rng);
            let f = s.features(&c);
            assert_eq!(f.len(), NUM_FEATURES);
            assert!(f.iter().all(|&x| (0.0..=1.0).contains(&x)), "{f:?}");
        }
    }

    #[test]
    fn primitive_sequence_has_expected_skeleton() {
        let c = ctx();
        let mut rng = SmallRng::seed_from_u64(12);
        let mut s = c.random_schedule(&mut rng);
        s.fuse_outer = 1;
        let seq = s.primitive_sequence(&c);
        let skel = seq.skeleton();
        assert!(skel.contains(&"split"));
        assert!(skel.contains(&"reorder"));
        assert!(skel.contains(&"fuse"));
        assert_eq!(*skel.last().unwrap(), "tensorize");
    }
}
