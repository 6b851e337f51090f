//! A small fully-connected binary classifier.
//!
//! Architecture: `input → [hidden, ReLU]* → 1 logit → sigmoid`.
//! Optimiser: Adam with bias correction; loss: binary cross-entropy.
//! Everything is `f64` and single-threaded — the feature vectors in this
//! workspace are ~25-dimensional, so the classifier is never the
//! bottleneck (the paper reports the same: training is a small slice of
//! Fig. 6's runtime breakdown).

use crate::optim::Adam;
use rand::Rng;

/// One dense layer (`out × in` weights, row-major, plus bias).
#[derive(Debug, Clone)]
struct Layer {
    w: Vec<f64>,
    /// Column-major mirror of `w` (`wt[k * n_out + o] == w[o * n_in + k]`)
    /// — the layout [`marioh_kernels::dense_forward`] vectorizes across
    /// output neurons. `w` stays authoritative (backprop and persistence
    /// read it); every mutation of `w` must be followed by
    /// [`Layer::sync_wt`].
    wt: Vec<f64>,
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
}

impl Layer {
    fn new<R: Rng + ?Sized>(n_in: usize, n_out: usize, rng: &mut R) -> Self {
        // He initialisation (ReLU-friendly).
        let scale = (2.0 / n_in as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| rng.gen_range(-1.0..1.0) * scale)
            .collect();
        Layer::from_parts(w, vec![0.0; n_out], n_in, n_out)
    }

    fn from_parts(w: Vec<f64>, b: Vec<f64>, n_in: usize, n_out: usize) -> Self {
        let mut layer = Layer {
            w,
            wt: Vec::new(),
            b,
            n_in,
            n_out,
        };
        layer.sync_wt();
        layer
    }

    /// Rebuilds the transposed mirror from `w`. O(in × out) — the same
    /// order as the optimiser step that makes it necessary.
    fn sync_wt(&mut self) {
        self.wt.resize(self.w.len(), 0.0);
        for o in 0..self.n_out {
            for k in 0..self.n_in {
                self.wt[k * self.n_out + o] = self.w[o * self.n_in + k];
            }
        }
    }

    /// `out = W x + b`, through the dispatched kernel. Each output's sum
    /// folds strictly in input order with the bias added last — exactly
    /// the scalar `Σ w·x + b` this replaced, bit for bit.
    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        marioh_kernels::dense_forward(&self.wt, &self.b, x, self.n_out, out);
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
        let mut adam_w: Vec<Adam> = self.layers.iter().map(|l| Adam::new(l.w.len())).collect();
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
                let mut grad_w: Vec<Vec<f64>> =
                    self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
                let mut grad_b: Vec<Vec<f64>> =
                    self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
                for &idx in batch {
                    epoch_loss += self.backprop(&xs[idx], ys[idx], &mut grad_w, &mut grad_b);
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
                        for (g, &w) in grad_w[li].iter_mut().zip(&layer.w) {
                            *g += cfg.weight_decay * w;
                        }
                    }
                    adam_w[li].step(&mut layer.w, &grad_w[li], cfg.learning_rate, t);
                    adam_b[li].step(&mut layer.b, &grad_b[li], cfg.learning_rate, t);
                    layer.sync_wt();
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

    /// Backpropagates one example; returns its BCE loss and adds gradients
    /// into the accumulators.
    fn backprop(&self, x: &[f64], y: f64, grad_w: &mut [Vec<f64>], grad_b: &mut [Vec<f64>]) -> f64 {
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
                let row = &layer.w[o * layer.n_in..(o + 1) * layer.n_in];
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
        let mut gw: Vec<Vec<f64>> = mlp.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = mlp.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        mlp.backprop(&x, y, &mut gw, &mut gb);

        let eps = 1e-6;
        #[allow(clippy::needless_range_loop)] // index mirrors the weight slot being perturbed
        for wi in 0..3 {
            let mut plus = mlp.clone();
            plus.layers[0].w[wi] += eps;
            plus.layers[0].sync_wt();
            let mut minus = mlp.clone();
            minus.layers[0].w[wi] -= eps;
            minus.layers[0].sync_wt();
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
    /// lines of space-separated weights and biases.
    pub fn write_to<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(writer);
        use std::io::Write as _;
        writeln!(out, "mlp {}", self.layers.len())?;
        for layer in &self.layers {
            writeln!(out, "layer {} {}", layer.n_in, layer.n_out)?;
            let ws: Vec<String> = layer.w.iter().map(|v| format!("{v:e}")).collect();
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
            layers.push(Layer::from_parts(w, b, n_in, n_out));
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
    fn rejects_corrupt_input() {
        assert!(Mlp::read_from("nonsense".as_bytes()).is_err());
        assert!(Mlp::read_from("mlp 1\nlayer 2 1\n1.0\n0.0".as_bytes()).is_err());
        assert!(Mlp::read_from("".as_bytes()).is_err());
    }
}
