//! A tiny from-scratch multi-layer perceptron — the 4-layer fully-connected
//! network behind the paper's DQN (§VI-B: "we use the DQN algorithm to
//! train a 4-layer fully-connected neural network, which predicts
//! Q-values").
//!
//! Plain `f64` math, ReLU activations, squared-error loss on selected
//! outputs, and SGD — everything the Q-learner needs and nothing more.
//!
//! Training is the DQN's hot loop, so nothing here allocates per step:
//! activations, gradients and index lists live in a caller-owned
//! [`Scratch`]. The arithmetic is fixed bit for bit. Each output's dot
//! product starts at `-0.0` and adds `w[o][i] * x[i]` in ascending `i`,
//! exactly as `Iterator::sum` does; the forward pass only runs `ROWS`
//! independent rows side by side so their additions overlap. The tests pin
//! both passes against a naive dense row-major oracle.
//!
//! Only arithmetic whose result can matter runs. ReLU zeroes about half of
//! every hidden layer, so both passes visit only a layer's nonzero inputs;
//! back-propagation visits only rows with a nonzero gradient, and a
//! training step computes only the taken action's output. Skipping is
//! exact. A skipped term is `w * ±0 = ±0`, and adding `±0` leaves a nonzero
//! partial sum unchanged; it can flip only the sign of a zero one. An
//! output is `b + sum`, and a bias is never `-0.0`: it starts at `+0.0`,
//! and round-to-nearest makes `x - x = +0`. So `b + sum` erases that sign.
//! A skipped weight update is `w - step * ±0 = w` for the same reason,
//! since no weight is ever `-0.0` either. The identity needs finite weights
//! and steps (`inf * 0` is NaN, which the dense sum would have kept); a NaN
//! Q-value already panics in [`crate::qlearn::QLearner::propose`].

use rand::Rng;

/// Output rows the forward pass accumulates together. Each row keeps its
/// own sequential sum; interleaving only breaks the single dependency
/// chain of one-row-at-a-time accumulation.
const ROWS: usize = 8;

/// Rows the backward pass updates together, so each input gradient is
/// loaded and stored once per group rather than once per row.
const GROUP: usize = 4;

/// A fully-connected layer.
#[derive(Debug, Clone)]
struct Layer {
    w: Vec<f64>, // out x in, row-major
    b: Vec<f64>,
    inputs: usize,
    outputs: usize,
}

impl Layer {
    fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        // He initialization.
        let scale = (2.0 / inputs as f64).sqrt();
        let w = (0..inputs * outputs)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Layer {
            w,
            b: vec![0.0; outputs],
            inputs,
            outputs,
        }
    }

    /// Row `o` of `W x + b`, reading `x` only at `active`.
    fn row_dot(&self, o: usize, x: &[f64], active: &[usize]) -> f64 {
        let row = &self.w[o * self.inputs..(o + 1) * self.inputs];
        self.b[o] + active.iter().map(|&i| row[i] * x[i]).sum::<f64>()
    }

    /// `y = W x + b`, reading `x` only at `active`: the ascending indices
    /// of its nonzero entries.
    fn forward(&self, x: &[f64], active: &[usize], y: &mut [f64]) {
        let n = self.inputs;
        let x = &x[..n];
        let blocked = self.outputs / ROWS * ROWS;
        for ((rows, ys), bs) in self.w[..blocked * n]
            .chunks_exact(ROWS * n)
            .zip(y.chunks_exact_mut(ROWS))
            .zip(self.b.chunks_exact(ROWS))
        {
            let rows: [&[f64]; ROWS] = std::array::from_fn(|r| &rows[r * n..(r + 1) * n]);
            let mut acc = [-0.0f64; ROWS];
            for &i in active {
                let xi = x[i];
                for (a, row) in acc.iter_mut().zip(&rows) {
                    *a += row[i] * xi;
                }
            }
            for ((yo, bo), a) in ys.iter_mut().zip(bs).zip(acc) {
                *yo = bo + a;
            }
        }
        for (o, yo) in y.iter_mut().enumerate().skip(blocked) {
            *yo = self.row_dot(o, x, active);
        }
    }

    /// One SGD step on the rows in `grad` (ascending `(row, dL/dz)` pairs,
    /// all nonzero) for input `x`, touching only weights at `active`.
    /// First accumulates dL/dx at `active` into `grad_in`, each entry from
    /// `+0.0` in ascending row order; its other entries are left stale.
    fn backward(
        &mut self,
        x: &[f64],
        active: &[usize],
        grad: &[(usize, f64)],
        learning_rate: f64,
        grad_in: &mut [f64],
    ) {
        for &i in active {
            grad_in[i] = 0.0;
        }
        let (groups, rest) = grad.as_chunks::<GROUP>();
        for group in groups {
            self.step_rows(group, x, active, learning_rate, grad_in);
        }
        for row in rest {
            self.step_rows(std::array::from_ref(row), x, active, learning_rate, grad_in);
        }
    }

    /// [`Layer::backward`] for `K` rows at once: per input, the rows add
    /// their `w * g` to `grad_in` in order, each weight before its update.
    fn step_rows<const K: usize>(
        &mut self,
        group: &[(usize, f64); K],
        x: &[f64],
        active: &[usize],
        learning_rate: f64,
        grad_in: &mut [f64],
    ) {
        let n = self.inputs;
        let mut rows = self
            .w
            .get_disjoint_mut(group.map(|(o, _)| o * n..(o + 1) * n))
            .expect("ascending rows");
        let g = group.map(|(_, g)| g);
        let step = g.map(|g| learning_rate * g);
        for &i in active {
            let xi = x[i];
            let mut gi = grad_in[i];
            for ((row, g), step) in rows.iter_mut().zip(g).zip(step) {
                gi += row[i] * g;
                row[i] -= step * xi;
            }
            grad_in[i] = gi;
        }
        for ((o, _), step) in group.iter().zip(step) {
            self.b[*o] -= step;
        }
    }

    /// The first layer's SGD step: [`Layer::backward`] without the input
    /// gradient, which nothing reads.
    fn update(&mut self, x: &[f64], active: &[usize], grad: &[(usize, f64)], learning_rate: f64) {
        let n = self.inputs;
        for &(o, g) in grad {
            let step = learning_rate * g;
            let row = &mut self.w[o * n..(o + 1) * n];
            for &i in active {
                row[i] -= step * x[i];
            }
            self.b[o] -= step;
        }
    }
}

/// Overwrites `out` with the ascending indices of the nonzero `values`.
fn nonzero_indices(values: &[f64], out: &mut Vec<usize>) {
    out.clear();
    out.resize(values.len(), 0);
    let mut len = 0;
    for (i, &v) in values.iter().enumerate() {
        // Branch-free: about half of a hidden layer is zero, at random.
        out[len] = i;
        len += usize::from(v != 0.0);
    }
    out.truncate(len);
}

/// A 4-layer MLP: input → hidden → hidden → output, ReLU between layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
}

/// Reusable buffers for one [`Mlp`]'s forward and backward passes: one
/// activation vector and one active-input list per layer, plus the
/// gradients. A training loop that keeps one `Scratch` ([`Mlp::scratch`])
/// allocates nothing per step.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Post-activation outputs per layer (ReLU'd for hidden layers; the
    /// last one is the network output).
    acts: Vec<Vec<f64>>,
    /// Per layer, the ascending indices of its nonzero inputs.
    active: Vec<Vec<usize>>,
    /// `(row, dL/dz)` for the rows of the layer being back-propagated whose
    /// gradient is nonzero, ascending.
    grad: Vec<(usize, f64)>,
    /// dL/d(input) of that layer, valid at its active inputs.
    grad_in: Vec<f64>,
}

impl Mlp {
    /// Creates a 4-layer network with the given widths.
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, output: usize, rng: &mut R) -> Self {
        Mlp {
            layers: vec![
                Layer::new(input, hidden, rng),
                Layer::new(hidden, hidden, rng),
                Layer::new(hidden, hidden, rng),
                Layer::new(hidden, output, rng),
            ],
        }
    }

    /// Buffers sized for this network.
    pub fn scratch(&self) -> Scratch {
        let widest = self.layers.iter().map(|l| l.inputs.max(l.outputs)).max();
        let widest = widest.expect("four layers");
        Scratch {
            acts: self.layers.iter().map(|l| vec![0.0; l.outputs]).collect(),
            active: self
                .layers
                .iter()
                .map(|l| Vec::with_capacity(l.inputs))
                .collect(),
            grad: Vec::with_capacity(widest),
            grad_in: vec![0.0; widest],
        }
    }

    /// Runs every layer but the output layer, recording each layer's
    /// active inputs (the output layer's included) in `scratch`.
    fn forward_hidden(&self, x: &[f64], scratch: &mut Scratch) {
        let Scratch { acts, active, .. } = scratch;
        nonzero_indices(&x[..self.layers[0].inputs], &mut active[0]);
        let hidden = &self.layers[..self.layers.len() - 1];
        for (li, layer) in hidden.iter().enumerate() {
            let (done, rest) = acts.split_at_mut(li);
            let input = done.last().map_or(x, |a| a.as_slice());
            let y = &mut rest[0];
            let (seen, next) = active.split_at_mut(li + 1);
            layer.forward(input, &seen[li], y);
            y.iter_mut().for_each(|v| *v = v.max(0.0));
            nonzero_indices(y, &mut next[0]);
        }
    }

    /// Forward pass into `scratch`; returns the network output.
    pub fn predict<'s>(&self, x: &[f64], scratch: &'s mut Scratch) -> &'s [f64] {
        self.forward_hidden(x, scratch);
        let last = self.layers.len() - 1;
        let (hidden, out) = scratch.acts.split_at_mut(last);
        self.layers[last].forward(&hidden[last - 1], &scratch.active[last], &mut out[0]);
        &scratch.acts[last]
    }

    /// One SGD step on the squared error of a single output unit
    /// (Q-learning updates only the taken action's Q-value). Returns the
    /// pre-update loss. Leaves the output activations in `scratch` stale:
    /// only the taken action's output is computed.
    pub fn train_on_output(
        &mut self,
        x: &[f64],
        action: usize,
        target: f64,
        learning_rate: f64,
        scratch: &mut Scratch,
    ) -> f64 {
        self.forward_hidden(x, scratch);
        let Scratch {
            acts,
            active,
            grad,
            grad_in,
        } = scratch;
        let last = self.layers.len() - 1;
        let error = self.layers[last].row_dot(action, &acts[last - 1], &active[last]) - target;
        // Output-layer gradient: only `action` has nonzero dL/dz, if any.
        grad.clear();
        if error != 0.0 {
            grad.push((action, error));
        }
        for li in (1..=last).rev() {
            self.layers[li].backward(&acts[li - 1], &active[li], grad, learning_rate, grad_in);
            // ReLU derivative: a hidden unit passes gradient iff its
            // output max(z, 0) is positive, i.e. iff it is active.
            grad.clear();
            let passed = active[li].iter().map(|&i| (i, grad_in[i]));
            grad.extend(passed.filter(|&(_, g)| g != 0.0));
        }
        self.layers[0].update(x, &active[0], grad, learning_rate);
        0.5 * error * error
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The original row-major network, kept verbatim as the oracle the
    /// blocked, allocation-free passes must match bit for bit.
    mod oracle {
        use super::super::Layer;

        fn forward_layer(layer: &Layer, x: &[f64]) -> Vec<f64> {
            let mut y = layer.b.clone();
            for (o, yo) in y.iter_mut().enumerate() {
                let row = &layer.w[o * layer.inputs..(o + 1) * layer.inputs];
                *yo += row.iter().zip(x.iter()).map(|(w, x)| w * x).sum::<f64>();
            }
            y
        }

        pub struct ForwardPass {
            pre: Vec<Vec<f64>>,
            post: Vec<Vec<f64>>,
        }

        pub fn forward(layers: &[Layer], x: &[f64]) -> ForwardPass {
            let mut pre = Vec::with_capacity(layers.len());
            let mut post = vec![x.to_vec()];
            for (li, layer) in layers.iter().enumerate() {
                let z = forward_layer(layer, post.last().expect("non-empty"));
                let last = li == layers.len() - 1;
                let a = if last {
                    z.clone()
                } else {
                    z.iter().map(|&v| v.max(0.0)).collect()
                };
                pre.push(z);
                post.push(a);
            }
            ForwardPass { pre, post }
        }

        pub fn predict(layers: &[Layer], x: &[f64]) -> Vec<f64> {
            forward(layers, x).post.pop().expect("has layers")
        }

        pub fn train_on_output(
            layers: &mut [Layer],
            x: &[f64],
            action: usize,
            target: f64,
            learning_rate: f64,
        ) -> f64 {
            let fp = forward(layers, x);
            let out = fp.post.last().expect("has layers");
            let error = out[action] - target;
            let mut grad: Vec<f64> = vec![0.0; out.len()];
            grad[action] = error;
            for li in (0..layers.len()).rev() {
                let input = &fp.post[li];
                let layer = &mut layers[li];
                let mut grad_in = vec![0.0; layer.inputs];
                for (o, &g) in grad.iter().enumerate().take(layer.outputs) {
                    if g == 0.0 {
                        continue;
                    }
                    let row_start = o * layer.inputs;
                    for i in 0..layer.inputs {
                        grad_in[i] += layer.w[row_start + i] * g;
                        layer.w[row_start + i] -= learning_rate * g * input[i];
                    }
                    layer.b[o] -= learning_rate * g;
                }
                if li > 0 {
                    let prev_pre = &fp.pre[li - 1];
                    grad = grad_in
                        .iter()
                        .zip(prev_pre.iter())
                        .map(|(&g, &z)| if z > 0.0 { g } else { 0.0 })
                        .collect();
                }
            }
            0.5 * error * error
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn predict(net: &Mlp, x: &[f64]) -> Vec<f64> {
        net.predict(x, &mut net.scratch()).to_vec()
    }

    fn train(net: &mut Mlp, x: &[f64], action: usize, target: f64, lr: f64) -> f64 {
        let mut scratch = net.scratch();
        net.train_on_output(x, action, target, lr, &mut scratch)
    }

    /// An input coordinate: mostly continuous, sometimes a signed zero so
    /// the `-0.0` accumulator start and ReLU boundary are exercised.
    fn coord() -> impl Strategy<Value = f64> {
        const GRID: [f64; 3] = [-0.0, 0.0, 1.0];
        prop_oneof![(0usize..GRID.len()).prop_map(|k| GRID[k]), -2.0f64..2.0]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn blocked_passes_match_oracle_bit_for_bit(
            input in 1usize..24,
            hidden in 1usize..40,
            output in 1usize..30,
            seed in any::<u64>(),
            xs in prop::collection::vec(prop::collection::vec(coord(), 24), 1..4),
            steps in prop::collection::vec((0usize..4, 0usize..30, -2.0f64..2.0, 0.001f64..0.2), 0..12),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut net = Mlp::new(input, hidden, output, &mut rng);
            let mut reference = net.layers.clone();
            // One scratch reused across every call, as `QLearner` does.
            let mut scratch = net.scratch();
            for x in &xs {
                let y = net.predict(&x[..input], &mut scratch).to_vec();
                prop_assert_eq!(bits(&y), bits(&oracle::predict(&reference, &x[..input])));
            }
            for (xi, action, target, lr) in steps {
                let x = &xs[xi % xs.len()][..input];
                let action = action % output;
                let loss = net.train_on_output(x, action, target, lr, &mut scratch);
                let want = oracle::train_on_output(&mut reference, x, action, target, lr);
                prop_assert_eq!(loss.to_bits(), want.to_bits());
            }
            for (layer, want) in net.layers.iter().zip(&reference) {
                prop_assert_eq!(bits(&layer.w), bits(&want.w));
                prop_assert_eq!(bits(&layer.b), bits(&want.b));
            }
            for x in &xs {
                let y = net.predict(&x[..input], &mut scratch).to_vec();
                prop_assert_eq!(bits(&y), bits(&oracle::predict(&reference, &x[..input])));
            }
        }
    }

    /// A mostly-zero input coordinate: four draws in five are a signed
    /// zero, so most inputs are skipped and some layers see none at all.
    fn sparse_coord() -> impl Strategy<Value = f64> {
        (0usize..5, -2.0f64..2.0).prop_map(|(k, v)| match k {
            0 | 1 => -0.0,
            2 | 3 => 0.0,
            _ => v,
        })
    }

    /// A bias that keeps every unit of a hidden layer off for the inputs
    /// these tests draw.
    const DEAD: f64 = -1e3;

    /// Replays `xs` and the `(x index, action, target, learning rate)`
    /// training `steps` through `net` and, on a copy of its layers,
    /// through the oracle. Every output, loss, weight and bias must match
    /// by `to_bits()`.
    fn check_against_oracle(
        net: &mut Mlp,
        xs: &[Vec<f64>],
        steps: &[(usize, usize, f64, f64)],
    ) -> Result<(), TestCaseError> {
        let (input, output) = (net.layers[0].inputs, net.layers[3].outputs);
        let mut reference = net.layers.clone();
        let mut scratch = net.scratch();
        for x in xs {
            let y = net.predict(&x[..input], &mut scratch).to_vec();
            prop_assert_eq!(bits(&y), bits(&oracle::predict(&reference, &x[..input])));
        }
        for &(xi, action, target, lr) in steps {
            let x = &xs[xi % xs.len()][..input];
            let action = action % output;
            let loss = net.train_on_output(x, action, target, lr, &mut scratch);
            let want = oracle::train_on_output(&mut reference, x, action, target, lr);
            prop_assert_eq!(loss.to_bits(), want.to_bits());
        }
        for (layer, want) in net.layers.iter().zip(&reference) {
            prop_assert_eq!(bits(&layer.w), bits(&want.w));
            prop_assert_eq!(bits(&layer.b), bits(&want.b));
        }
        for x in xs {
            let y = net.predict(&x[..input], &mut scratch).to_vec();
            prop_assert_eq!(bits(&y), bits(&oracle::predict(&reference, &x[..input])));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sparse_passes_match_oracle_bit_for_bit(
            input in 1usize..24,
            hidden in 1usize..40,
            output in 1usize..30,
            seed_and_dead in (any::<u64>(), 0usize..6),
            xs in prop::collection::vec(prop::collection::vec(sparse_coord(), 24), 1..4),
            steps in prop::collection::vec((0usize..4, 0usize..30, -2.0f64..2.0, 0.001f64..0.2), 0..12),
        ) {
            let (seed, dead) = seed_and_dead;
            let mut net = Mlp::new(input, hidden, output, &mut SmallRng::seed_from_u64(seed));
            // In half the cases one hidden layer never activates, so the
            // layers after it see only zeros and no gradient passes it.
            if let Some(layer) = net.layers[..3].get_mut(dead) {
                layer.b.fill(DEAD);
            }
            check_against_oracle(&mut net, &xs, &steps)?;
        }
    }

    /// The `(x index, action, target, learning rate)` training steps of
    /// the deterministic sparse cases.
    const SPARSE_STEPS: [(usize, usize, f64, f64); 6] = [
        (0, 0, 1.0, 0.1),
        (0, 3, -0.5, 0.05),
        (1, 5, 2.0, 0.2),
        (0, 1, 0.25, 0.01),
        (1, 0, -1.5, 0.1),
        (0, 4, 0.75, 0.15),
    ];

    #[test]
    fn all_zero_input_gives_bias_only_outputs_and_matches_oracle() {
        let mut net = Mlp::new(18, 48, 6, &mut SmallRng::seed_from_u64(5));
        let zeros: Vec<f64> = (0..18)
            .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        let y = predict(&net, &zeros);
        // Fresh biases are +0.0, and so is every output: the skipped
        // `w * ±0` terms must not leave a -0.0 behind.
        assert_eq!(bits(&y), bits(&net.layers[3].b));
        assert!(y.iter().all(|v| v.to_bits() == 0.0f64.to_bits()), "{y:?}");

        let first = net.layers[0].w.clone();
        let xs = vec![zeros.clone(), zeros];
        check_against_oracle(&mut net, &xs, &SPARSE_STEPS).unwrap();
        // No feature is nonzero, so no first-layer weight may move.
        assert_eq!(bits(&net.layers[0].w), bits(&first));
    }

    #[test]
    fn inactive_hidden_layer_gives_bias_only_outputs_and_matches_oracle() {
        let mut net = Mlp::new(18, 48, 6, &mut SmallRng::seed_from_u64(6));
        net.layers[1].b.fill(DEAD);
        let mut unit = SmallRng::seed_from_u64(7);
        let xs: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..18).map(|_| unit.gen::<f64>() * 4.0 - 2.0).collect())
            .collect();
        let before = net.layers.clone();
        for x in &xs {
            assert_eq!(bits(&predict(&net, x)), bits(&net.layers[3].b));
        }

        check_against_oracle(&mut net, &xs, &SPARSE_STEPS).unwrap();
        // Only the output biases learn: no gradient passes the dead layer,
        // and every layer after it reads zeros.
        for (layer, old) in net.layers.iter().zip(&before) {
            assert_eq!(bits(&layer.w), bits(&old.w));
        }
        for (layer, old) in net.layers[..3].iter().zip(&before) {
            assert_eq!(bits(&layer.b), bits(&old.b));
        }
        assert_ne!(bits(&net.layers[3].b), bits(&before[3].b));
        for x in &xs {
            assert_eq!(bits(&predict(&net, x)), bits(&net.layers[3].b));
        }
    }

    #[test]
    fn has_four_layers() {
        let mut rng = SmallRng::seed_from_u64(0);
        let net = Mlp::new(4, 8, 3, &mut rng);
        assert_eq!(net.layers.len(), 4);
        assert_eq!(predict(&net, &[0.1, 0.2, 0.3, 0.4]).len(), 3);
    }

    #[test]
    fn learns_a_constant_target() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut net = Mlp::new(2, 16, 2, &mut rng);
        let x = [0.5, -0.3];
        for _ in 0..500 {
            train(&mut net, &x, 0, 1.0, 0.01);
            train(&mut net, &x, 1, -1.0, 0.01);
        }
        let y = predict(&net, &x);
        assert!((y[0] - 1.0).abs() < 0.05, "y0 = {}", y[0]);
        assert!((y[1] + 1.0).abs() < 0.05, "y1 = {}", y[1]);
    }

    #[test]
    fn learns_input_dependent_targets() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut net = Mlp::new(1, 24, 1, &mut rng);
        // Fit y = 2x - 0.5 on a small grid.
        let grid: Vec<f64> = (0..11).map(|i| i as f64 / 10.0).collect();
        for _ in 0..3000 {
            for &x in &grid {
                train(&mut net, &[x], 0, 2.0 * x - 0.5, 0.02);
            }
        }
        for &x in &grid {
            let y = predict(&net, &[x])[0];
            assert!((y - (2.0 * x - 0.5)).abs() < 0.1, "x = {x}: y = {y}");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut net = Mlp::new(3, 12, 4, &mut rng);
        let x = [0.2, 0.4, 0.9];
        let first = train(&mut net, &x, 2, 0.7, 0.05);
        for _ in 0..100 {
            train(&mut net, &x, 2, 0.7, 0.05);
        }
        let last = train(&mut net, &x, 2, 0.7, 0.05);
        assert!(last < first * 0.1, "loss {first} -> {last}");
    }

    #[test]
    fn untouched_outputs_drift_less_than_trained_one() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut net = Mlp::new(2, 8, 3, &mut rng);
        let x = [0.3, 0.6];
        let before = predict(&net, &x);
        for _ in 0..50 {
            train(&mut net, &x, 1, 5.0, 0.01);
        }
        let after = predict(&net, &x);
        let trained_delta = (after[1] - before[1]).abs();
        let other_delta = (after[0] - before[0])
            .abs()
            .max((after[2] - before[2]).abs());
        assert!(
            trained_delta > other_delta,
            "{trained_delta} vs {other_delta}"
        );
    }
}
