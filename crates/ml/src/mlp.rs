//! A small fully-connected binary classifier.
//!
//! Architecture: `input → [hidden, ReLU]* → 1 logit → sigmoid`.
//! Optimiser: Adam with bias correction; loss: binary cross-entropy.
//! Everything is `f64` and single-threaded.
//!
//! The fit is most of the work of a served job that trains its own
//! classifier (servebench's `fresh` workload: ~420 rows × 60 epochs
//! through `23 → 64 → 32 → 1`), so [`Mlp::train_with_stop`] runs each
//! mini-batch through the
//! `marioh-kernels` dense kernels, with a workspace allocated once per
//! fit. Every weight's gradient still sums over the batch's examples in
//! order, so the trained weights are bit-identical to the per-example
//! trainer it replaced, which this module's tests keep as the oracle.

use crate::optim::Adam;
use rand::Rng;

/// One dense layer: `n_out × n_in` weights plus a bias.
///
/// The weights are stored once, **column-major**
/// (`wt[k * n_out + o]` is the weight from input `k` to output `o`):
/// the layout [`marioh_kernels::dense_forward`] vectorizes across
/// output neurons. The trainer keeps its own row-major working copy
/// for the backward pass and writes it back here after every step;
/// persistence transposes to the row-major text format.
#[derive(Debug, Clone)]
struct Layer {
    wt: Vec<f64>,
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
}

impl Layer {
    fn new<R: Rng + ?Sized>(n_in: usize, n_out: usize, rng: &mut R) -> Self {
        // He initialisation (ReLU-friendly), drawn in row-major order.
        let scale = (2.0 / n_in as f64).sqrt();
        let w: Vec<f64> = (0..n_in * n_out)
            .map(|_| rng.gen_range(-1.0..1.0) * scale)
            .collect();
        Layer::from_row_major(&w, vec![0.0; n_out], n_in, n_out)
    }

    /// A layer from row-major weights (`w[o * n_in + k]`).
    fn from_row_major(w: &[f64], b: Vec<f64>, n_in: usize, n_out: usize) -> Self {
        let mut layer = Layer {
            wt: vec![0.0; w.len()],
            b,
            n_in,
            n_out,
        };
        layer.set_row_major(w);
        layer
    }

    /// Overwrites the weights from a row-major matrix. O(in × out), the
    /// same order as the optimiser step that produces it.
    fn set_row_major(&mut self, w: &[f64]) {
        transpose(w, self.n_out, self.n_in, &mut self.wt);
    }

    /// The weights in row-major order (`w[o * n_in + k]`).
    fn row_major(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.wt.len()];
        transpose(&self.wt, self.n_in, self.n_out, &mut w);
        w
    }

    /// `out = W x + b`, through the dispatched kernel. Each output's sum
    /// folds strictly in input order with the bias added last — exactly
    /// the scalar `Σ w·x + b`, bit for bit.
    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        marioh_kernels::dense_forward(&self.wt, &self.b, x, self.n_out, out);
    }
}

/// `dst = srcᵀ` for a row-major `rows × cols` matrix `src`.
fn transpose(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Training hyperparameters for [`Mlp::train`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay coefficient (0 disables).
    pub weight_decay: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            learning_rate: 1e-2,
            batch_size: 64,
            weight_decay: 1e-5,
        }
    }
}

/// Summary statistics returned by [`Mlp::train`].
#[derive(Debug, Clone)]
pub struct TrainStats {
    /// Mean BCE loss of the final epoch.
    pub final_loss: f64,
    /// Training-set accuracy at threshold 0.5 after training.
    pub train_accuracy: f64,
}

/// A binary-classification multi-layer perceptron.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
}

/// Reusable activation buffers for [`Mlp::predict_with`] /
/// [`Mlp::predict_rows`]. One scratch amortises the two per-call `Vec`
/// allocations of [`Mlp::predict`] over an entire batch.
#[derive(Debug, Default)]
pub struct MlpScratch {
    cur: Vec<f64>,
    next: Vec<f64>,
}

/// Numerically stable sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Mlp {
    /// Creates an MLP with the given hidden layer widths; e.g.
    /// `Mlp::new(23, &[64, 32], rng)` builds `23 → 64 → 32 → 1`.
    pub fn new<R: Rng + ?Sized>(input_dim: usize, hidden: &[usize], rng: &mut R) -> Self {
        assert!(input_dim > 0, "input dimension must be positive");
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(input_dim);
        dims.extend_from_slice(hidden);
        dims.push(1);
        let layers = dims
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].n_in
    }

    /// Predicted probability that `x` is a positive example.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.predict_with(x, &mut MlpScratch::default())
    }

    /// [`Mlp::predict`] with caller-provided activation buffers —
    /// bit-identical arithmetic, zero allocation once the scratch has
    /// grown to the widest layer.
    pub fn predict_with(&self, x: &[f64], scratch: &mut MlpScratch) -> f64 {
        assert_eq!(x.len(), self.input_dim(), "feature dimension mismatch");
        scratch.cur.clear();
        scratch.cur.extend_from_slice(x);
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward(&scratch.cur, &mut scratch.next);
            let is_last = i + 1 == self.layers.len();
            if !is_last {
                for v in scratch.next.iter_mut() {
                    *v = v.max(0.0); // ReLU
                }
            }
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        sigmoid(scratch.cur[0])
    }

    /// Batch prediction.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        let mut scratch = MlpScratch::default();
        xs.iter()
            .map(|x| self.predict_with(x, &mut scratch))
            .collect()
    }

    /// Forwards a whole batch stored as contiguous rows of `input_dim`
    /// values, writing one probability per row into `out`. Shares one
    /// scratch across the batch, so the only allocations are the
    /// scratch's one-time growth. Row `i` gets exactly
    /// `self.predict(&flat[i*d..(i+1)*d])`.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != out.len() * input_dim`.
    pub fn predict_rows(&self, flat: &[f64], out: &mut [f64]) {
        self.predict_rows_with(flat, out, &mut MlpScratch::default());
    }

    /// [`Mlp::predict_rows`] with caller-provided buffers, so multi-tile
    /// callers reuse one scratch across every tile.
    pub fn predict_rows_with(&self, flat: &[f64], out: &mut [f64], scratch: &mut MlpScratch) {
        let dim = self.input_dim();
        assert_eq!(
            flat.len(),
            out.len() * dim,
            "flat batch length/row count mismatch"
        );
        for (row, o) in flat.chunks_exact(dim).zip(out.iter_mut()) {
            *o = self.predict_with(row, scratch);
        }
    }

    /// Trains with Adam on BCE loss. `ys` must be 0.0 / 1.0 labels.
    ///
    /// # Panics
    ///
    /// Panics on empty input or dimension mismatch.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        cfg: &TrainConfig,
        rng: &mut R,
    ) -> TrainStats {
        self.train_with_stop(xs, ys, cfg, rng, &mut || false)
    }

    /// Like [`Mlp::train`], but polls `stop` at every epoch boundary and
    /// abandons training early (returning stats for the epochs that ran)
    /// once it reports `true` — the hook long-running services use for
    /// cooperative cancellation. `stop` draws no randomness, so a run
    /// whose hook never fires is bit-identical to [`Mlp::train`].
    pub fn train_with_stop<R: Rng + ?Sized>(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        cfg: &TrainConfig,
        rng: &mut R,
        stop: &mut dyn FnMut() -> bool,
    ) -> TrainStats {
        assert!(!xs.is_empty(), "empty training set");
        assert_eq!(xs.len(), ys.len(), "features/labels length mismatch");
        assert_eq!(xs[0].len(), self.input_dim(), "feature dimension mismatch");

        let n = xs.len();
        let mut trainer = Trainer::new(&self.layers, cfg.batch_size.min(n));
        let mut order: Vec<usize> = (0..n).collect();
        let mut final_loss = 0.0;

        for _epoch in 0..cfg.epochs {
            if stop() {
                break;
            }
            // Fisher–Yates shuffle.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0;
            for batch in order.chunks(cfg.batch_size) {
                trainer.step(&mut self.layers, xs, ys, batch, cfg, &mut epoch_loss);
            }
            final_loss = epoch_loss / n as f64;
        }

        let scratch = &mut trainer.scratch;
        let correct = xs
            .iter()
            .zip(ys)
            .filter(|(x, &y)| (self.predict_with(x, scratch) >= 0.5) == (y >= 0.5))
            .count();
        TrainStats {
            final_loss,
            train_accuracy: correct as f64 / n as f64,
        }
    }
}

/// The mini-batch trainer's workspace, allocated once per fit. Matrices
/// hold one row per batch example, `rows × width`.
struct Trainer {
    /// Row-major working weights per layer (`w[o * n_in + k]`), the
    /// layout the backward kernels read. Authoritative during the fit;
    /// each Adam step writes them into the layer's `wt`.
    w: Vec<Vec<f64>>,
    adam_w: Vec<Adam>,
    adam_b: Vec<Adam>,
    /// Adam steps taken (1-based once the first batch runs).
    t: usize,
    grad_w: Vec<Vec<f64>>,
    grad_b: Vec<Vec<f64>>,
    /// `acts[0]` holds the batch's input rows and `acts[l + 1]` layer
    /// `l`'s outputs (after ReLU, except at the top).
    acts: Vec<Vec<f64>>,
    /// `deltas[l]`: the loss gradient at layer `l`'s pre-activation.
    deltas: Vec<Vec<f64>>,
    scratch: MlpScratch,
}

impl Trainer {
    fn new(layers: &[Layer], rows: usize) -> Self {
        let mut acts = vec![vec![0.0; rows * layers[0].n_in]];
        acts.extend(layers.iter().map(|l| vec![0.0; rows * l.n_out]));
        Trainer {
            w: layers.iter().map(Layer::row_major).collect(),
            adam_w: layers.iter().map(|l| Adam::new(l.wt.len())).collect(),
            adam_b: layers.iter().map(|l| Adam::new(l.b.len())).collect(),
            t: 0,
            grad_w: layers.iter().map(|l| vec![0.0; l.wt.len()]).collect(),
            grad_b: layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            acts,
            deltas: layers.iter().map(|l| vec![0.0; rows * l.n_out]).collect(),
            scratch: MlpScratch::default(),
        }
    }

    /// One Adam step on the examples `batch`, adding each example's loss
    /// to `epoch_loss` in batch order.
    ///
    /// Bit-identical to backpropagating the examples one at a time:
    /// every gradient entry sums the batch's rows in order (the kernels
    /// fold row by row, and a zero delta still adds nothing), and the
    /// per-example forward and backward arithmetic is unchanged.
    fn step(
        &mut self,
        layers: &mut [Layer],
        xs: &[Vec<f64>],
        ys: &[f64],
        batch: &[usize],
        cfg: &TrainConfig,
        epoch_loss: &mut f64,
    ) {
        self.t += 1;
        let m = batch.len();
        let depth = layers.len();

        // Gather the batch's rows and forward them layer by layer.
        let dim = layers[0].n_in;
        for (row, &idx) in self.acts[0].chunks_exact_mut(dim).zip(batch) {
            row.copy_from_slice(&xs[idx]);
        }
        for (l, layer) in layers.iter().enumerate() {
            let (below, above) = self.acts.split_at_mut(l + 1);
            let inputs = below[l].chunks_exact(layer.n_in);
            let outputs = above[0].chunks_exact_mut(layer.n_out);
            let relu = l + 1 < depth;
            for (x, out) in inputs.zip(outputs).take(m) {
                layer.forward(x, &mut self.scratch.next);
                for (o, &v) in out.iter_mut().zip(&self.scratch.next) {
                    *o = if relu { v.max(0.0) } else { v };
                }
            }
        }

        // Loss and output delta dL/dlogit = p − y, in batch order.
        let logits = &self.acts[depth];
        for (e, &idx) in batch.iter().enumerate() {
            let (p, y) = (sigmoid(logits[e]), ys[idx]);
            let eps = 1e-12;
            *epoch_loss += -(y * (p + eps).ln() + (1.0 - y) * (1.0 - p + eps).ln());
            self.deltas[depth - 1][e] = p - y;
        }

        // Backward, top layer first: accumulate the weight and bias
        // gradients, then propagate δ_prev = Wᵀ δ ⊙ ReLU'. acts[li] is
        // the ReLU output of layer li-1, so its positive entries mark
        // active units.
        for li in (0..depth).rev() {
            let (n_in, n_out) = (layers[li].n_in, layers[li].n_out);
            let (lower, upper) = self.deltas.split_at_mut(li);
            let delta = &upper[0][..m * n_out];
            let input = &self.acts[li][..m * n_in];
            marioh_kernels::dense_outer_accumulate(
                &mut self.grad_w[li],
                delta,
                input,
                m,
                n_in,
                n_out,
            );
            for row in delta.chunks_exact(n_out) {
                for (g, &d) in self.grad_b[li].iter_mut().zip(row) {
                    *g += d;
                }
            }
            if li == 0 {
                break;
            }
            let prevs = lower[li - 1].chunks_exact_mut(n_in);
            for ((d, act), prev) in delta
                .chunks_exact(n_out)
                .zip(input.chunks_exact(n_in))
                .zip(prevs)
            {
                marioh_kernels::dense_backward(&self.w[li], d, act, prev);
            }
        }

        // Mean over the batch, weight decay, Adam; then publish the new
        // weights to the model and clear the gradients for the next batch.
        let scale = 1.0 / m as f64;
        for (li, layer) in layers.iter_mut().enumerate() {
            let (w, gw, gb) = (&mut self.w[li], &mut self.grad_w[li], &mut self.grad_b[li]);
            for g in gw.iter_mut() {
                *g *= scale;
            }
            for g in gb.iter_mut() {
                *g *= scale;
            }
            if cfg.weight_decay > 0.0 {
                for (g, &w) in gw.iter_mut().zip(w.iter()) {
                    *g += cfg.weight_decay * w;
                }
            }
            self.adam_w[li].step(w, gw, cfg.learning_rate, self.t);
            self.adam_b[li].step(&mut layer.b, gb, cfg.learning_rate, self.t);
            layer.set_row_major(w);
            gw.fill(0.0);
            gb.fill(0.0);
        }
    }
}

/// The per-example trainer: the one bit-identity oracle for the
/// mini-batch [`Mlp::train_with_stop`] and for the analytic gradient.
/// It runs the plain loops the dense kernels' scalar references copy,
/// over a row-major working copy of the weights.
#[cfg(test)]
impl Mlp {
    fn train_per_example<R: Rng + ?Sized>(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        cfg: &TrainConfig,
        rng: &mut R,
        stop: &mut dyn FnMut() -> bool,
    ) -> TrainStats {
        assert!(!xs.is_empty(), "empty training set");
        assert_eq!(xs.len(), ys.len(), "features/labels length mismatch");
        assert_eq!(xs[0].len(), self.input_dim(), "feature dimension mismatch");

        let n = xs.len();
        let mut ws: Vec<Vec<f64>> = self.layers.iter().map(Layer::row_major).collect();
        let mut adam_w: Vec<Adam> = ws.iter().map(|w| Adam::new(w.len())).collect();
        let mut adam_b: Vec<Adam> = self.layers.iter().map(|l| Adam::new(l.b.len())).collect();

        let mut order: Vec<usize> = (0..n).collect();
        let mut t = 0usize;
        let mut final_loss = 0.0;

        for _epoch in 0..cfg.epochs {
            if stop() {
                break;
            }
            // Fisher–Yates shuffle.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0;
            for batch in order.chunks(cfg.batch_size) {
                t += 1;
                // Accumulate gradients over the batch.
                let mut grad_w: Vec<Vec<f64>> = ws.iter().map(|w| vec![0.0; w.len()]).collect();
                let mut grad_b: Vec<Vec<f64>> =
                    self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
                for &idx in batch {
                    epoch_loss += self.backprop(&ws, &xs[idx], ys[idx], &mut grad_w, &mut grad_b);
                }
                let scale = 1.0 / batch.len() as f64;
                for (li, layer) in self.layers.iter_mut().enumerate() {
                    for g in grad_w[li].iter_mut() {
                        *g *= scale;
                    }
                    for g in grad_b[li].iter_mut() {
                        *g *= scale;
                    }
                    if cfg.weight_decay > 0.0 {
                        for (g, &w) in grad_w[li].iter_mut().zip(&ws[li]) {
                            *g += cfg.weight_decay * w;
                        }
                    }
                    adam_w[li].step(&mut ws[li], &grad_w[li], cfg.learning_rate, t);
                    adam_b[li].step(&mut layer.b, &grad_b[li], cfg.learning_rate, t);
                    layer.set_row_major(&ws[li]);
                }
            }
            final_loss = epoch_loss / n as f64;
        }

        let correct = xs
            .iter()
            .zip(ys)
            .filter(|(x, &y)| (self.predict(x) >= 0.5) == (y >= 0.5))
            .count();
        TrainStats {
            final_loss,
            train_accuracy: correct as f64 / n as f64,
        }
    }

    /// Backpropagates one example through the row-major weights `ws`
    /// (one per layer); returns its BCE loss and adds gradients into the
    /// accumulators.
    fn backprop(
        &self,
        ws: &[Vec<f64>],
        x: &[f64],
        y: f64,
        grad_w: &mut [Vec<f64>],
        grad_b: &mut [Vec<f64>],
    ) -> f64 {
        let depth = self.layers.len();
        // Forward pass caching post-activation outputs (activations[0] = x).
        let mut activations: Vec<Vec<f64>> = Vec::with_capacity(depth + 1);
        activations.push(x.to_vec());
        let mut buf = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward(activations.last().expect("nonempty"), &mut buf);
            let is_last = i + 1 == depth;
            if !is_last {
                for v in buf.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            activations.push(std::mem::take(&mut buf));
        }
        let logit = activations[depth][0];
        let p = sigmoid(logit);
        let eps = 1e-12;
        let loss = -(y * (p + eps).ln() + (1.0 - y) * (1.0 - p + eps).ln());

        // δ for the output layer: dL/dlogit = p − y.
        let mut delta = vec![p - y];
        for li in (0..depth).rev() {
            let layer = &self.layers[li];
            let input = &activations[li];
            // Accumulate gradients.
            for o in 0..layer.n_out {
                let d = delta[o];
                if d != 0.0 {
                    let grow = &mut grad_w[li][o * layer.n_in..(o + 1) * layer.n_in];
                    for (g, &inp) in grow.iter_mut().zip(input) {
                        *g += d * inp;
                    }
                }
                grad_b[li][o] += delta[o];
            }
            if li == 0 {
                break;
            }
            // Propagate: δ_prev = Wᵀ δ ⊙ ReLU'(pre-activation).
            // activations[li] is the ReLU output of layer li-1, so its
            // positive entries mark active units.
            let mut prev = vec![0.0; layer.n_in];
            for (o, &d) in delta.iter().enumerate().take(layer.n_out) {
                if d == 0.0 {
                    continue;
                }
                let row = &ws[li][o * layer.n_in..(o + 1) * layer.n_in];
                for (p, &w) in prev.iter_mut().zip(row) {
                    *p += d * w;
                }
            }
            for (p, &a) in prev.iter_mut().zip(&activations[li][..]) {
                if a <= 0.0 {
                    *p = 0.0;
                }
            }
            delta = prev;
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// `n` rows of `dim` features in [-2, 2) with a nonlinear label, so
    /// both classes occur and the fit has something to learn.
    fn dataset(seed: u64, n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let ys = xs
            .iter()
            .map(|x| f64::from(x[0] + x[x.len() / 2] * x[x.len() - 1] > 0.25))
            .collect();
        (xs, ys)
    }

    fn model_bytes(mlp: &Mlp) -> Vec<u8> {
        let mut buf = Vec::new();
        mlp.write_to(&mut buf).expect("write to a Vec");
        buf
    }

    /// Trains the same seeded model with the oracle and with
    /// [`Mlp::train_with_stop`]; asserts identical model bytes and
    /// identical loss and accuracy bits.
    fn assert_trainers_agree(
        seed: u64,
        n: usize,
        dim: usize,
        hidden: &[usize],
        cfg: &TrainConfig,
        stop_after: Option<u32>,
    ) {
        let (xs, ys) = dataset(seed ^ 0x5eed, n, dim);
        let run = |batched: bool| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mlp = Mlp::new(dim, hidden, &mut rng);
            let mut polls = 0u32;
            let mut stop = || {
                polls += 1;
                stop_after.is_some_and(|limit| polls > limit)
            };
            let stats = if batched {
                mlp.train_with_stop(&xs, &ys, cfg, &mut rng, &mut stop)
            } else {
                mlp.train_per_example(&xs, &ys, cfg, &mut rng, &mut stop)
            };
            (model_bytes(&mlp), stats, polls)
        };
        let (want_bytes, want, want_polls) = run(false);
        let (got_bytes, got, got_polls) = run(true);
        let case = format!(
            "seed {seed}, n {n}, dim {dim}, hidden {hidden:?}, level {}",
            marioh_kernels::active()
        );
        assert!(got_bytes == want_bytes, "weights differ: {case}");
        assert_eq!(
            got.final_loss.to_bits(),
            want.final_loss.to_bits(),
            "loss differs: {case}"
        );
        assert_eq!(
            got.train_accuracy.to_bits(),
            want.train_accuracy.to_bits(),
            "accuracy differs: {case}"
        );
        assert_eq!(got_polls, want_polls, "stop polled differently: {case}");
    }

    #[test]
    fn batched_trainer_matches_the_per_example_oracle_bitwise() {
        // Few epochs keep the 360-case grid quick in debug builds; the
        // full-length runs are in the test below.
        let cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        for seed in 0..8u64 {
            for dim in [23, 13, 18] {
                for hidden in [&[64, 32][..], &[16, 8], &[]] {
                    for n in [1, 63, 64, 65, 419] {
                        assert_trainers_agree(seed, n, dim, hidden, &cfg, None);
                    }
                }
            }
        }
    }

    #[test]
    fn batched_trainer_matches_the_oracle_over_a_full_default_fit() {
        let cfg = TrainConfig::default();
        for seed in [7, 11] {
            assert_trainers_agree(seed, 419, 23, &[64, 32], &cfg, None);
        }
        assert_trainers_agree(3, 200, 13, &[], &cfg, None);
        // Stopped after 3 epochs, mid-fit.
        assert_trainers_agree(5, 419, 18, &[64, 32], &cfg, Some(3));
        // An odd batch size leaves a ragged last batch.
        let odd = TrainConfig {
            batch_size: 17,
            epochs: 10,
            weight_decay: 0.0,
            ..TrainConfig::default()
        };
        assert_trainers_agree(9, 100, 23, &[16, 8], &odd, None);
    }

    #[test]
    fn train_with_stop_halts_at_an_epoch_boundary_and_never_fires_for_train() {
        let xs: Vec<Vec<f64>> = (0..16).map(|i| vec![f64::from(i % 2)]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let cfg = TrainConfig {
            epochs: 50,
            ..TrainConfig::default()
        };
        // Stop after 3 epochs: the hook is polled once per epoch.
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(1, &[4], &mut rng);
        let mut polls = 0u32;
        mlp.train_with_stop(&xs, &ys, &cfg, &mut rng, &mut || {
            polls += 1;
            polls > 3
        });
        assert_eq!(polls, 4, "stopped after the third epoch");

        // A never-firing hook is bit-identical to plain train().
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut a = Mlp::new(1, &[4], &mut rng_a);
        let stats_a = a.train(&xs, &ys, &cfg, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut b = Mlp::new(1, &[4], &mut rng_b);
        let stats_b = b.train_with_stop(&xs, &ys, &cfg, &mut rng_b, &mut || false);
        assert_eq!(stats_a.final_loss, stats_b.final_loss);
        assert_eq!(a.predict(&xs[0]), b.predict(&xs[0]));
    }

    #[test]
    fn sigmoid_is_stable_and_correct() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn learns_a_linearly_separable_problem() {
        let mut rng = StdRng::seed_from_u64(0);
        use rand::Rng;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..400 {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            xs.push(vec![a, b]);
            ys.push(if a + b > 0.0 { 1.0 } else { 0.0 });
        }
        let mut mlp = Mlp::new(2, &[8], &mut rng);
        let stats = mlp.train(&xs, &ys, &TrainConfig::default(), &mut rng);
        assert!(
            stats.train_accuracy > 0.95,
            "accuracy {}",
            stats.train_accuracy
        );
    }

    #[test]
    fn learns_xor_with_hidden_layer() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = [0.0, 1.0, 1.0, 0.0];
        // Replicate the four points so batches have some size.
        let xs: Vec<Vec<f64>> = xs.iter().cycle().take(200).cloned().collect();
        let ys: Vec<f64> = ys.iter().cycle().take(200).copied().collect();
        let mut mlp = Mlp::new(2, &[16, 8], &mut rng);
        let cfg = TrainConfig {
            epochs: 300,
            learning_rate: 5e-3,
            batch_size: 16,
            weight_decay: 0.0,
        };
        let stats = mlp.train(&xs, &ys, &cfg, &mut rng);
        assert!(
            stats.train_accuracy > 0.99,
            "XOR accuracy {}",
            stats.train_accuracy
        );
    }

    #[test]
    fn scratch_and_batch_paths_match_predict_bitwise() {
        let mut rng = StdRng::seed_from_u64(8);
        let mlp = Mlp::new(6, &[16, 8], &mut rng);
        use rand::Rng;
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..6).map(|_| rng.gen_range(-5.0..5.0)).collect())
            .collect();
        let reference: Vec<f64> = xs.iter().map(|x| mlp.predict(x)).collect();

        let mut scratch = MlpScratch::default();
        let with_scratch: Vec<f64> = xs
            .iter()
            .map(|x| mlp.predict_with(x, &mut scratch))
            .collect();
        assert_eq!(with_scratch, reference);
        assert_eq!(mlp.predict_batch(&xs), reference);

        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let mut out = vec![0.0; xs.len()];
        mlp.predict_rows(&flat, &mut out);
        assert_eq!(out, reference);
    }

    #[test]
    #[should_panic(expected = "flat batch length/row count mismatch")]
    fn predict_rows_rejects_ragged_batches() {
        let mut rng = StdRng::seed_from_u64(9);
        let mlp = Mlp::new(3, &[], &mut rng);
        let mut out = vec![0.0; 2];
        mlp.predict_rows(&[0.0; 5], &mut out);
    }

    #[test]
    fn predictions_are_probabilities() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(5, &[4], &mut rng);
        use rand::Rng;
        for _ in 0..50 {
            let x: Vec<f64> = (0..5).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let p = mlp.predict(&x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(33);
            use rand::Rng;
            let xs: Vec<Vec<f64>> = (0..100)
                .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
                .collect();
            let ys: Vec<f64> = xs.iter().map(|x| f64::from(x[0] > 0.0)).collect();
            let mut mlp = Mlp::new(2, &[6], &mut rng);
            mlp.train(&xs, &ys, &TrainConfig::default(), &mut rng);
            mlp.predict(&[0.3, -0.2])
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn gradient_check_single_layer() {
        // Numerical gradient check on a tiny network.
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(3, &[], &mut rng);
        let x = vec![0.5, -0.3, 0.8];
        let y = 1.0;
        let ws: Vec<Vec<f64>> = mlp.layers.iter().map(Layer::row_major).collect();
        let mut gw: Vec<Vec<f64>> = ws.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = mlp.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        mlp.backprop(&ws, &x, y, &mut gw, &mut gb);

        let eps = 1e-6;
        // One output, so the row- and column-major slots coincide.
        #[allow(clippy::needless_range_loop)] // index mirrors the weight slot being perturbed
        for wi in 0..3 {
            let mut plus = mlp.clone();
            plus.layers[0].wt[wi] += eps;
            let mut minus = mlp.clone();
            minus.layers[0].wt[wi] -= eps;
            let loss = |m: &Mlp| {
                let p = m.predict(&x);
                -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
            };
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (numeric - gw[0][wi]).abs() < 1e-5,
                "grad mismatch at {wi}: numeric {numeric} analytic {}",
                gw[0][wi]
            );
        }
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn predict_rejects_wrong_dimension() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(3, &[], &mut rng);
        mlp.predict(&[1.0]);
    }
}

// --- persistence ---------------------------------------------------------

impl Mlp {
    /// Writes the network weights as a plain-text stream:
    /// `mlp <n_layers>` then per layer a header `layer <in> <out>` and two
    /// lines of space-separated weights (row-major, `w[o * in + k]`) and
    /// biases.
    pub fn write_to<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(writer);
        use std::io::Write as _;
        writeln!(out, "mlp {}", self.layers.len())?;
        for layer in &self.layers {
            writeln!(out, "layer {} {}", layer.n_in, layer.n_out)?;
            let ws: Vec<String> = layer.row_major().iter().map(|v| format!("{v:e}")).collect();
            writeln!(out, "{}", ws.join(" "))?;
            let bs: Vec<String> = layer.b.iter().map(|v| format!("{v:e}")).collect();
            writeln!(out, "{}", bs.join(" "))?;
        }
        out.flush()
    }

    /// Reads a network written by [`Mlp::write_to`].
    pub fn read_from<R: std::io::Read>(reader: R) -> std::io::Result<Self> {
        Self::read_from_buf(&mut std::io::BufReader::new(reader))
    }

    /// Like [`Mlp::read_from`], but consumes exactly the model's lines
    /// from a shared buffered reader (no look-ahead), so callers can
    /// concatenate several records in one stream.
    pub fn read_from_buf(reader: &mut dyn std::io::BufRead) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_owned());
        let mut next_line = || -> std::io::Result<String> {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    "unexpected end of mlp data",
                ));
            }
            Ok(line.trim_end().to_owned())
        };
        let header = next_line()?;
        let n_layers: usize = header
            .strip_prefix("mlp ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| bad("malformed mlp header"))?;
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let meta = next_line()?;
            let mut parts = meta.split_ascii_whitespace();
            if parts.next() != Some("layer") {
                return Err(bad("malformed layer header"));
            }
            let n_in: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("bad layer n_in"))?;
            let n_out: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("bad layer n_out"))?;
            let parse_row = |line: String, expect: usize| -> std::io::Result<Vec<f64>> {
                let vals: Vec<f64> = line
                    .split_ascii_whitespace()
                    .map(|t| t.parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("bad weight value"))?;
                if vals.iter().any(|v| !v.is_finite()) {
                    return Err(bad("non-finite weight value"));
                }
                if vals.len() != expect {
                    return Err(bad("weight row length mismatch"));
                }
                Ok(vals)
            };
            let w = parse_row(next_line()?, n_in * n_out)?;
            let b = parse_row(next_line()?, n_out)?;
            layers.push(Layer::from_row_major(&w, b, n_in, n_out));
        }
        if layers.is_empty() {
            return Err(bad("mlp needs at least one layer"));
        }
        Ok(Mlp { layers })
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn round_trip_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(4, &[8, 3], &mut rng);
        let mut buf = Vec::new();
        mlp.write_to(&mut buf).unwrap();
        let back = Mlp::read_from(buf.as_slice()).unwrap();
        use rand::Rng;
        for _ in 0..20 {
            let x: Vec<f64> = (0..4).map(|_| rng.gen_range(-3.0..3.0)).collect();
            assert_eq!(mlp.predict(&x), back.predict(&x));
        }
    }

    #[test]
    fn text_format_is_row_major_and_round_trips_byte_for_byte() {
        // Distinct weights in a 2 → 3 → 1 net: any transposition slip
        // in read or write would reorder them.
        let text = "mlp 2\nlayer 2 3\n1e0 2e0 3e0 4e0 5e0 6e0\n1e-1 2e-1 3e-1\n\
                    layer 3 1\n-1.5e0 2.5e-3 7e2\n-5e-1\n";
        let mlp = Mlp::read_from(text.as_bytes()).unwrap();
        // Row-major: w[o * in + k]; output 2 reads inputs (5, 6).
        assert_eq!(mlp.layers[0].wt, [1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        let mut buf = Vec::new();
        mlp.write_to(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), text);
    }

    #[test]
    fn rejects_corrupt_input() {
        assert!(Mlp::read_from("nonsense".as_bytes()).is_err());
        assert!(Mlp::read_from("mlp 1\nlayer 2 1\n1.0\n0.0".as_bytes()).is_err());
        assert!(Mlp::read_from("".as_bytes()).is_err());
    }
}
