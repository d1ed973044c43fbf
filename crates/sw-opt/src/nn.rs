//! A tiny from-scratch multi-layer perceptron — the 4-layer fully-connected
//! network behind the paper's DQN (§VI-B: "we use the DQN algorithm to
//! train a 4-layer fully-connected neural network, which predicts
//! Q-values").
//!
//! Plain `f64` math, ReLU activations, squared-error loss on selected
//! outputs, and SGD — everything the Q-learner needs and nothing more.
//!
//! Training is the DQN's hot loop, so nothing here allocates per step:
//! activations and gradients live in a caller-owned [`Scratch`]. The
//! arithmetic is fixed bit for bit. Each output's dot product starts at
//! `-0.0` and adds `w[o][i] * x[i]` in ascending `i`, exactly as
//! `Iterator::sum` does; the forward pass only runs `ROWS` independent
//! rows side by side so their additions overlap. The tests pin both passes
//! against a naive row-major oracle.

use rand::Rng;

/// Output rows the forward pass accumulates together. Each row keeps its
/// own sequential sum; interleaving only breaks the single dependency
/// chain of one-row-at-a-time accumulation.
const ROWS: usize = 8;

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

    /// `y = W x + b`.
    fn forward(&self, x: &[f64], y: &mut [f64]) {
        let n = self.inputs;
        let x = &x[..n];
        let blocked = self.outputs / ROWS * ROWS;
        let (w_blocks, w_tail) = self.w.split_at(blocked * n);
        let (y_blocks, y_tail) = y.split_at_mut(blocked);
        for ((rows, ys), bs) in w_blocks
            .chunks_exact(ROWS * n)
            .zip(y_blocks.chunks_exact_mut(ROWS))
            .zip(self.b.chunks_exact(ROWS))
        {
            let rows: [&[f64]; ROWS] = std::array::from_fn(|r| &rows[r * n..(r + 1) * n]);
            let mut acc = [-0.0f64; ROWS];
            for (i, &xi) in x.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(&rows) {
                    *a += row[i] * xi;
                }
            }
            for ((yo, bo), a) in ys.iter_mut().zip(bs).zip(acc) {
                *yo = bo + a;
            }
        }
        for ((yo, bo), row) in y_tail
            .iter_mut()
            .zip(&self.b[blocked..])
            .zip(w_tail.chunks_exact(n))
        {
            *yo = bo + row.iter().zip(x).map(|(w, x)| w * x).sum::<f64>();
        }
    }
}

/// A 4-layer MLP: input → hidden → hidden → output, ReLU between layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
}

/// Reusable buffers for one [`Mlp`]'s forward and backward passes: one
/// activation vector per layer and two gradient vectors. A training loop
/// that keeps one `Scratch` ([`Mlp::scratch`]) allocates nothing per step.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Post-activation outputs per layer (ReLU'd for hidden layers; the
    /// last one is the network output).
    acts: Vec<Vec<f64>>,
    /// dL/dz of the layer being back-propagated.
    grad: Vec<f64>,
    /// dL/d(input) of that layer.
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
            grad: vec![0.0; widest],
            grad_in: vec![0.0; widest],
        }
    }

    /// Forward pass into `scratch`; returns the network output.
    pub fn predict<'s>(&self, x: &[f64], scratch: &'s mut Scratch) -> &'s [f64] {
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, rest) = scratch.acts.split_at_mut(li);
            let input = done.last().map_or(x, |a| a.as_slice());
            let y = &mut rest[0];
            layer.forward(input, y);
            if li < last {
                y.iter_mut().for_each(|v| *v = v.max(0.0));
            }
        }
        &scratch.acts[last]
    }

    /// One SGD step on the squared error of a single output unit
    /// (Q-learning updates only the taken action's Q-value). Returns the
    /// pre-update loss.
    pub fn train_on_output(
        &mut self,
        x: &[f64],
        action: usize,
        target: f64,
        learning_rate: f64,
        scratch: &mut Scratch,
    ) -> f64 {
        let error = self.predict(x, scratch)[action] - target;
        let Scratch {
            acts,
            grad,
            grad_in,
        } = scratch;
        // Output-layer gradient: only `action` has nonzero dL/dz.
        let outputs = self.layers.last().expect("four layers").outputs;
        grad[..outputs].fill(0.0);
        grad[action] = error;
        for li in (0..self.layers.len()).rev() {
            let input = if li == 0 { x } else { &acts[li - 1] };
            let layer = &mut self.layers[li];
            let grad_in = &mut grad_in[..layer.inputs];
            grad_in.fill(0.0);
            let rows = layer.w.chunks_exact_mut(layer.inputs);
            for (o, (row, &g)) in rows.zip(&grad[..layer.outputs]).enumerate() {
                if g == 0.0 {
                    continue;
                }
                let step = learning_rate * g;
                for ((w, gi), &xi) in row.iter_mut().zip(grad_in.iter_mut()).zip(input) {
                    *gi += *w * g;
                    *w -= step * xi;
                }
                layer.b[o] -= step;
            }
            if li > 0 {
                // ReLU derivative: a hidden unit passes gradient iff its
                // output max(z, 0) is positive, i.e. iff z > 0.
                for ((g, &gi), &a) in grad.iter_mut().zip(grad_in.iter()).zip(input) {
                    *g = if a > 0.0 { gi } else { 0.0 };
                }
            }
        }
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
