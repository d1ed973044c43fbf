//! The Q-learning revision policy (§VI-B, Fig. 5(e)).
//!
//! "To revise candidates, we use Q-learning to generate a new candidate p′
//! for a valuable candidate p. We use a Q-value to indicate how good each
//! revision choice is \[and\] apply the revision choice with the highest
//! Q-value." A DQN — our from-scratch 4-layer [`crate::nn::Mlp`] — predicts
//! Q-values from schedule features; a replay buffer smooths the updates.
//! The paper reuses the network "for all design points in a software
//! space". Here each exploration builds its own [`QLearner`], so a
//! schedule's price never depends on which explorations ran before it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::nn::{Mlp, Scratch};
use crate::schedule::{Features, Revision, Schedule, ScheduleContext, NUM_FEATURES, NUM_REVISIONS};

/// One replay-buffer transition.
#[derive(Debug, Clone)]
struct Transition {
    state: Features,
    action: usize,
    reward: f64,
    next_state: Features,
}

/// DQN-based revision policy.
#[derive(Debug)]
pub struct QLearner {
    net: Mlp,
    /// Activation and gradient buffers reused by every forward pass and
    /// SGD step, so an update allocates nothing.
    scratch: Scratch,
    rng: SmallRng,
    replay: Vec<Transition>,
    /// Exploration rate (ε-greedy), decayed multiplicatively per step.
    pub epsilon: f64,
    /// Discount factor.
    pub gamma: f64,
    /// SGD learning rate.
    pub learning_rate: f64,
    replay_cap: usize,
    batch: usize,
}

impl QLearner {
    /// Creates a learner with the paper's 4-layer network.
    pub fn new(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = Mlp::new(NUM_FEATURES, 48, NUM_REVISIONS, &mut rng);
        QLearner {
            scratch: net.scratch(),
            net,
            rng,
            replay: Vec::new(),
            epsilon: 0.3,
            gamma: 0.7,
            learning_rate: 0.005,
            replay_cap: 512,
            batch: 16,
        }
    }

    /// Q-values for a schedule.
    pub fn q_values(&mut self, sched: &Schedule, ctx: &ScheduleContext) -> &[f64] {
        self.net.predict(&sched.features(ctx), &mut self.scratch)
    }

    /// Picks a revision for `sched`: the applicable action with the highest
    /// Q-value (ε-greedy), returning the revised schedule and the action id.
    pub fn propose(
        &mut self,
        sched: &Schedule,
        ctx: &ScheduleContext,
    ) -> Option<(Schedule, usize)> {
        // Applicable actions with their revised schedules.
        let mut applicable: Vec<(usize, Schedule)> = Vec::new();
        for a in 0..NUM_REVISIONS {
            if let Some(s) = Revision::from_action(a).apply(sched, ctx, &mut self.rng) {
                applicable.push((a, s));
            }
        }
        if applicable.is_empty() {
            return None;
        }
        let pick = if self.rng.gen_bool(self.epsilon) {
            self.rng.gen_range(0..applicable.len())
        } else {
            // Only a greedy pick reads the network (prediction touches
            // neither the RNG nor the weights).
            let q = self.q_values(sched, ctx);
            applicable
                .iter()
                .enumerate()
                .max_by(|(_, (a1, _)), (_, (a2, _))| {
                    q[*a1].partial_cmp(&q[*a2]).expect("finite Q-values")
                })
                .map(|(i, _)| i)
                .expect("non-empty")
        };
        let (action, revised) = applicable.swap_remove(pick);
        Some((revised, action))
    }

    /// Records the outcome of applying `action` (latency-based reward) and
    /// trains on a replay mini-batch.
    pub fn observe(&mut self, state: &Features, action: usize, reward: f64, next_state: &Features) {
        if self.replay.len() == self.replay_cap {
            let i = self.rng.gen_range(0..self.replay.len());
            self.replay.swap_remove(i);
        }
        self.replay.push(Transition {
            state: *state,
            action,
            reward,
            next_state: *next_state,
        });
        for _ in 0..self.batch.min(self.replay.len()) {
            let t = &self.replay[self.rng.gen_range(0..self.replay.len())];
            let max_next = self
                .net
                .predict(&t.next_state, &mut self.scratch)
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            let target = t.reward + self.gamma * max_next;
            self.net.train_on_output(
                &t.state,
                t.action,
                target,
                self.learning_rate,
                &mut self.scratch,
            );
        }
        self.epsilon = (self.epsilon * 0.995).max(0.05);
    }

    /// Latency-delta reward: positive when the revision reduced latency.
    pub fn reward(before_latency: f64, after_latency: f64) -> f64 {
        if before_latency <= 0.0 {
            return 0.0;
        }
        ((before_latency - after_latency) / before_latency).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_model::arch::AcceleratorConfig;
    use tensor_ir::intrinsics::IntrinsicKind;
    use tensor_ir::suites;

    fn ctx() -> ScheduleContext {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        let wl = suites::gemm_workload("g", 128, 128, 128);
        ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap()
    }

    #[test]
    fn proposes_applicable_revisions() {
        let c = ctx();
        let mut q = QLearner::new(0);
        let mut rng = SmallRng::seed_from_u64(1);
        let s = c.random_schedule(&mut rng);
        for _ in 0..20 {
            let (revised, action) = q.propose(&s, &c).expect("some revision applies");
            assert!(action < NUM_REVISIONS);
            assert!(revised.validate(&c).is_ok());
        }
    }

    #[test]
    fn reward_sign_tracks_improvement() {
        assert!(QLearner::reward(100.0, 50.0) > 0.0);
        assert!(QLearner::reward(50.0, 100.0) < 0.0);
        assert_eq!(QLearner::reward(0.0, 10.0), 0.0);
        assert_eq!(QLearner::reward(10.0, 10.0), 0.0);
    }

    #[test]
    fn epsilon_decays_with_observations() {
        let c = ctx();
        let mut q = QLearner::new(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let s = c.random_schedule(&mut rng);
        let feat = s.features(&c);
        let e0 = q.epsilon;
        for _ in 0..50 {
            q.observe(&feat, 0, 0.1, &feat);
        }
        assert!(q.epsilon < e0);
        assert!(q.epsilon >= 0.05);
    }

    #[test]
    fn learns_to_prefer_rewarded_action() {
        let c = ctx();
        let mut q = QLearner::new(4);
        q.epsilon = 0.0;
        let mut rng = SmallRng::seed_from_u64(5);
        let s = c.random_schedule(&mut rng);
        let feat = s.features(&c);
        // Action 3 always yields high reward, others zero.
        for a in 0..NUM_REVISIONS {
            let r = if a == 3 { 1.0 } else { 0.0 };
            for _ in 0..30 {
                q.observe(&feat, a, r, &feat);
            }
        }
        let qv = q.q_values(&s, &c);
        let best = qv
            .iter()
            .enumerate()
            .max_by(|(_, x), (_, y)| x.partial_cmp(y).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(best, 3, "Q-values: {qv:?}");
    }

    #[test]
    fn replay_buffer_is_bounded() {
        let c = ctx();
        let mut q = QLearner::new(6);
        let mut rng = SmallRng::seed_from_u64(7);
        let s = c.random_schedule(&mut rng);
        let feat = s.features(&c);
        for _ in 0..1000 {
            q.observe(&feat, 0, 0.0, &feat);
        }
        assert!(q.replay.len() <= 512);
    }

    #[test]
    fn observation_sequence_is_pinned_bit_for_bit() {
        // 200 observations with interleaved proposals from a fixed seed.
        // The digest covers every proposed action, the final Q-values of
        // eight schedules and epsilon; the golden bits were recorded with
        // the original allocating row-major network, so any change to the
        // update arithmetic or the RNG stream fails here.
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        let c = ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap();
        let mut q = QLearner::new(42);
        let mut rng = SmallRng::seed_from_u64(43);
        let schedules: Vec<Schedule> = (0..8).map(|_| c.random_schedule(&mut rng)).collect();
        let mut fp = runtime::Fingerprinter::new();
        for step in 0..200 {
            let s = &schedules[rng.gen_range(0..schedules.len())];
            let next = &schedules[rng.gen_range(0..schedules.len())];
            let action = rng.gen_range(0..NUM_REVISIONS);
            let reward = rng.gen_range(-1.0..1.0);
            q.observe(&s.features(&c), action, reward, &next.features(&c));
            if step % 10 == 0 {
                let proposed = q.propose(s, &c).map(|(_, a)| a);
                fp.write_u64(proposed.map_or(u64::MAX, |a| a as u64));
            }
        }
        for s in &schedules {
            for v in q.q_values(s, &c) {
                fp.write_u64(v.to_bits());
            }
        }
        fp.write_u64(q.epsilon.to_bits());
        assert_eq!(
            q.q_values(&schedules[0], &c)[0].to_bits(),
            0x3fd03d9656d4b253
        );
        assert_eq!(fp.finish().0, 0x0c22ad80af1c797d);
    }
}
