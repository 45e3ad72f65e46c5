//! Sequential networks and the in-core reference training step.

use serde::{Deserialize, Serialize};

use crate::layers::{Layer, ParamGrads};
use crate::tensor::Tensor;

/// Per-layer parameter gradients for one step.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Gradients {
    /// `per_layer[i]` holds layer `i`'s parameter gradients.
    pub per_layer: Vec<ParamGrads>,
}

impl Gradients {
    /// Element-wise accumulate another worker's gradients.
    pub fn accumulate(&mut self, other: &Gradients) {
        assert_eq!(self.per_layer.len(), other.per_layer.len());
        for (a, b) in self.per_layer.iter_mut().zip(&other.per_layer) {
            for (ga, gb) in a.grads.iter_mut().zip(&b.grads) {
                ga.axpy(1.0, gb);
            }
        }
    }

    /// Scale all gradients (e.g. 1/num_workers for averaging).
    pub fn scale(&mut self, s: f32) {
        for l in &mut self.per_layer {
            for g in &mut l.grads {
                g.scale(s);
            }
        }
    }

    /// Total bytes of gradient payload (what an exchange moves).
    pub fn bytes(&self) -> usize {
        self.per_layer
            .iter()
            .flat_map(|l| l.grads.iter())
            .map(Tensor::bytes)
            .sum()
    }
}

/// A stack of layers trained with softmax cross-entropy.
pub struct Sequential {
    /// The layers in forward order.
    pub layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Build from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Forward pass returning every layer input: `acts[i]` is the input to
    /// layer `i`, `acts[len]` is the network output (logits).
    pub fn forward_all(&self, x: &Tensor) -> Vec<Tensor> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for l in &self.layers {
            let y = l.forward(acts.last().unwrap());
            acts.push(y);
        }
        acts
    }

    /// Softmax cross-entropy loss and logits gradient for integer labels.
    /// Returns `(mean loss, dlogits)`.
    pub fn softmax_xent(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let batch = logits.shape[0];
        assert_eq!(batch, labels.len());
        let classes = logits.shape[1];
        let mut dl = vec![0.0f32; logits.len()];
        let mut loss = 0.0f32;
        for (n, &label) in labels.iter().enumerate() {
            let row = &logits.data[n * classes..(n + 1) * classes];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|v| (v - max).exp()).collect();
            let z: f32 = exps.iter().sum();
            loss -= (exps[label] / z).ln();
            for c in 0..classes {
                dl[n * classes + c] = (exps[c] / z - f32::from(c == label)) / batch as f32;
            }
        }
        (loss / batch as f32, Tensor::from_vec(&logits.shape, dl))
    }

    /// One full in-core training step (the reference the OOC runtime is
    /// compared against): forward, loss, backward, SGD update. Returns the
    /// mean loss.
    pub fn train_step(&mut self, x: &Tensor, labels: &[usize], lr: f32) -> f32 {
        let acts = self.forward_all(x);
        let (loss, mut dy) = Self::softmax_xent(acts.last().unwrap(), labels);
        let grads = self.backward_from(&acts, &mut dy);
        self.apply(&grads, lr);
        loss
    }

    /// Backward through all layers given the saved activations; consumes
    /// `dy` in place. Exposed separately so OOC runtimes can drive it
    /// block by block.
    pub fn backward_from(&self, acts: &[Tensor], dy: &mut Tensor) -> Gradients {
        let mut per_layer = vec![ParamGrads::default(); self.layers.len()];
        for (i, l) in self.layers.iter().enumerate().rev() {
            let (dx, g) = l.backward(&acts[i], dy);
            per_layer[i] = g;
            *dy = dx;
        }
        Gradients { per_layer }
    }

    /// SGD: `w -= lr * g`.
    pub fn apply(&mut self, grads: &Gradients, lr: f32) {
        for (l, g) in self.layers.iter_mut().zip(&grads.per_layer) {
            l.update(g, -lr);
        }
    }

    /// Classification accuracy on `(x, labels)`.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f64 {
        let acts = self.forward_all(x);
        let pred = acts.last().unwrap().argmax_rows();
        let hits = pred.iter().zip(labels).filter(|(p, l)| p == l).count();
        hits as f64 / labels.len() as f64
    }

    /// Flat copy of all parameters, in layer order then each layer's
    /// [`Layer::params`] order — the checkpoint format [`Sequential::restore`]
    /// reads back and the value bit-parity tests compare. One pre-sized
    /// pass of slice copies. To check two nets for identical weights,
    /// use [`Sequential::same_params`], which copies nothing.
    pub fn snapshot(&self) -> Vec<f32> {
        let params = || self.layers.iter().flat_map(|l| l.params());
        let mut flat = Vec::with_capacity(params().map(|t| t.data.len()).sum());
        for t in params() {
            flat.extend_from_slice(&t.data);
        }
        flat
    }

    /// True when `other` holds exactly this net's parameters: the same
    /// layer count, the same parameter shapes per layer and every value
    /// equal under `f32 ==`, compared in place. The verdict on
    /// same-architecture nets is that of `self.snapshot() ==
    /// other.snapshot()`, so `-0.0` equals `0.0` and a NaN weight makes
    /// even a net compared with itself differ. A different architecture
    /// gives `false`, never a panic.
    pub fn same_params(&self, other: &Sequential) -> bool {
        self.layers.len() == other.layers.len()
            && self.layers.iter().zip(&other.layers).all(|(a, b)| {
                let (pa, pb) = (a.params(), b.params());
                pa.len() == pb.len()
                    && pa
                        .iter()
                        .zip(&pb)
                        .all(|(ta, tb)| ta.shape == tb.shape && ta.data == tb.data)
            })
    }

    /// Overwrite every parameter from a flat [`Sequential::snapshot`] of a
    /// same-architecture net (checkpoint restore / elastic pool growth).
    /// Values are copied verbatim — no arithmetic — so the restored net is
    /// bitwise-identical to the snapshotted one. Panics when `flat` does
    /// not have exactly one value per parameter element.
    pub fn restore(&mut self, flat: &[f32]) {
        let mut off = 0usize;
        for l in self.layers.iter_mut() {
            for t in l.params_mut() {
                let n = t.data.len();
                assert!(
                    off + n <= flat.len(),
                    "snapshot too short: architecture mismatch"
                );
                t.data.copy_from_slice(&flat[off..off + n]);
                off += n;
            }
        }
        assert_eq!(off, flat.len(), "snapshot too long: architecture mismatch");
    }
}

/// A small deterministic CNN used across tests, examples and the runtime
/// parity checks: conv-relu-pool ×2, flatten, dense.
pub fn small_cnn(classes: usize, seed: u64) -> Sequential {
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, ReLU};
    Sequential::new(vec![
        Box::new(Conv2d::new(1, 4, 3, 1, 1, seed)),
        Box::new(ReLU),
        Box::new(MaxPool2d { k: 2 }),
        Box::new(Conv2d::new(4, 8, 3, 1, 1, seed + 1)),
        Box::new(ReLU),
        Box::new(MaxPool2d { k: 2 }),
        Box::new(Flatten),
        Box::new(Dense::new(8 * 4 * 4, classes, seed + 2)),
    ])
}

/// A plain conv stack: `pairs` conv+ReLU pairs at constant 16×16 spatial
/// size, then flatten + FC. Deep enough that multi-layer blocks have real
/// interior activations — the substrate for out-of-core tests where swap
/// and recompute must move actual bytes (a block's boundary activation
/// always stays resident, so single-layer blocks transfer nothing).
pub fn conv_stack(pairs: usize, classes: usize, seed: u64) -> Sequential {
    use crate::layers::{Conv2d, Dense, Flatten, ReLU};
    let mut layers: Vec<Box<dyn crate::layers::Layer>> = Vec::with_capacity(2 * pairs + 2);
    let mut in_ch = 1;
    for i in 0..pairs {
        layers.push(Box::new(Conv2d::new(in_ch, 4, 3, 1, 1, seed + i as u64)));
        layers.push(Box::new(ReLU));
        in_ch = 4;
    }
    layers.push(Box::new(Flatten));
    layers.push(Box::new(Dense::new(
        4 * 16 * 16,
        classes,
        seed + pairs as u64,
    )));
    Sequential::new(layers)
}

/// A parameter-heavy MLP: flatten, then `hidden + 2` dense layers of
/// `width` units with ReLU between them. Dense weights dominate the
/// footprint (each hidden layer carries `width²` parameters against a
/// `batch × width` activation), which is the regime where ZeRO-style
/// optimizer-state partitioning frees real capacity — the executed
/// Fig. 8 comparison plans over this workload.
pub fn mlp_stack(hidden: usize, width: usize, classes: usize, seed: u64) -> Sequential {
    use crate::layers::{Dense, Flatten, ReLU};
    let mut layers: Vec<Box<dyn crate::layers::Layer>> = Vec::with_capacity(2 * hidden + 4);
    layers.push(Box::new(Flatten));
    layers.push(Box::new(Dense::new(16 * 16, width, seed)));
    layers.push(Box::new(ReLU));
    for i in 0..hidden {
        layers.push(Box::new(Dense::new(width, width, seed + 1 + i as u64)));
        layers.push(Box::new(ReLU));
    }
    layers.push(Box::new(Dense::new(
        width,
        classes,
        seed + 1 + hidden as u64,
    )));
    Sequential::new(layers)
}

/// A deeper normalized CNN (conv-BN-ReLU blocks + global average pooling)
/// exercising every real layer kind — the zoo's ResNet idiom at test scale.
pub fn small_resnet_style(classes: usize, seed: u64) -> Sequential {
    use crate::layers::{Conv2d, Dense, Flatten, ReLU};
    use crate::norm::{BatchNorm2d, GlobalAvgPool};
    Sequential::new(vec![
        Box::new(Conv2d::new(1, 8, 3, 1, 1, seed)),
        Box::new(BatchNorm2d::new(8)),
        Box::new(ReLU),
        Box::new(Conv2d::new(8, 8, 3, 2, 1, seed + 1)),
        Box::new(BatchNorm2d::new(8)),
        Box::new(ReLU),
        Box::new(Conv2d::new(8, 16, 3, 2, 1, seed + 2)),
        Box::new(BatchNorm2d::new(16)),
        Box::new(ReLU),
        Box::new(GlobalAvgPool),
        Box::new(Flatten),
        Box::new(Dense::new(16, classes, seed + 3)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticDataset;

    #[test]
    fn softmax_xent_gradient_sums_to_zero_per_row() {
        let logits = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 0.5, 0.5, 0.5]);
        let (loss, d) = Sequential::softmax_xent(&logits, &[2, 0]);
        assert!(loss > 0.0);
        for row in d.data.chunks(3) {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn training_reduces_loss() {
        let data = SyntheticDataset::classification(64, 1, 16, 4, 42);
        let mut net = small_cnn(4, 1);
        let (x, y) = data.batch(0, 32);
        let first = net.train_step(&x, &y, 0.05);
        let mut last = first;
        for _ in 0..30 {
            last = net.train_step(&x, &y, 0.05);
        }
        assert!(
            last < first * 0.6,
            "loss should fall: first {first}, last {last}"
        );
    }

    #[test]
    fn training_improves_accuracy_above_chance() {
        let data = SyntheticDataset::classification(128, 1, 16, 4, 7);
        let mut net = small_cnn(4, 3);
        let (x, y) = data.batch(0, 128);
        for _ in 0..40 {
            net.train_step(&x, &y, 0.05);
        }
        let acc = net.accuracy(&x, &y);
        assert!(acc > 0.5, "accuracy {acc} should beat 0.25 chance");
    }

    #[test]
    fn restore_round_trips_snapshot_bitwise() {
        let data = SyntheticDataset::classification(16, 1, 16, 4, 9);
        let mut net = small_cnn(4, 5);
        let (x, y) = data.batch(0, 16);
        net.train_step(&x, &y, 0.05);
        let trained = net.snapshot();

        // A differently-seeded same-architecture net adopts the snapshot
        // exactly, and diverged weights are fully overwritten.
        let mut other = small_cnn(4, 77);
        assert_ne!(other.snapshot(), trained);
        other.restore(&trained);
        assert_eq!(other.snapshot(), trained);

        // Every param-bearing layer kind must round trip — batch norm's
        // gamma/beta included, not just Dense/Conv2d weights.
        let bn_net = small_resnet_style(4, 5);
        let weights = bn_net.snapshot();
        let mut bn_other = small_resnet_style(4, 77);
        assert_ne!(bn_other.snapshot(), weights);
        bn_other.restore(&weights);
        assert_eq!(bn_other.snapshot(), weights);
    }

    #[test]
    #[should_panic(expected = "architecture mismatch")]
    fn restore_rejects_wrong_length() {
        let mut net = small_cnn(4, 5);
        let short = vec![0.0f32; net.snapshot().len() - 1];
        net.restore(&short);
    }

    /// A differently seeded `small_cnn(4, _)` holding `net`'s exact
    /// parameters.
    fn copy_of(net: &Sequential) -> Sequential {
        let mut copy = small_cnn(4, 77);
        copy.restore(&net.snapshot());
        copy
    }

    /// Move one parameter value of `net` up by one ulp.
    fn bump(net: &mut Sequential, layer: usize, param: usize, idx: usize) {
        let v = &mut net.layers[layer].params_mut()[param].data[idx];
        *v = f32::from_bits(v.to_bits() + 1);
    }

    #[test]
    fn same_params_holds_on_a_copy_and_fails_one_ulp_off_at_either_end() {
        let net = small_cnn(4, 5);
        let copy = copy_of(&net);
        assert!(net.same_params(&copy) && copy.same_params(&net));
        assert!(net.same_params(&net));

        let mut first = copy_of(&net);
        bump(&mut first, 0, 0, 0);
        assert!(!net.same_params(&first), "first weight one ulp off");

        // The final dense layer's params are [w, b]: bump b's last value.
        let mut last = copy_of(&net);
        let l = net.len() - 1;
        let n = net.layers[l].params()[1].data.len();
        bump(&mut last, l, 1, n - 1);
        assert!(!net.same_params(&last), "last bias one ulp off");
    }

    #[test]
    fn same_params_is_false_without_panic_across_architectures() {
        let cnn = small_cnn(4, 5);
        for other in [
            small_cnn(3, 5),
            small_resnet_style(4, 5),
            mlp_stack(1, 8, 4, 5),
        ] {
            assert!(!cnn.same_params(&other));
            assert!(!other.same_params(&cnn));
        }
        assert!(!cnn.same_params(&Sequential::new(Vec::new())));
    }

    #[test]
    fn same_params_follows_snapshot_equality_on_nan() {
        // Flat `Vec<f32>` equality says NaN != NaN, so two nets holding
        // the same NaN — even one net against itself — are not the same.
        let mut net = small_cnn(4, 5);
        net.layers[0].params_mut()[0].data[0] = f32::NAN;
        let copy = copy_of(&net);
        assert_ne!(net.snapshot(), copy.snapshot());
        assert!(!net.same_params(&copy));
        assert!(!net.same_params(&net));
    }

    #[test]
    fn snapshot_is_the_per_parameter_concatenation() {
        // Batch norm's gamma/beta included, in layer then parameter order.
        let net = small_resnet_style(4, 5);
        let mut expected = Vec::new();
        for l in &net.layers {
            for t in l.params() {
                expected.extend(t.data.iter().copied());
            }
        }
        assert!(net.layers.iter().any(|l| l.name() == "batchnorm"));
        let flat = net.snapshot();
        assert_eq!(flat.len(), expected.len());
        assert!(flat
            .iter()
            .zip(&expected)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn snapshot_changes_only_after_update() {
        let data = SyntheticDataset::classification(16, 1, 16, 4, 9);
        let mut net = small_cnn(4, 5);
        let s0 = net.snapshot();
        let (x, y) = data.batch(0, 16);
        let acts = net.forward_all(&x);
        assert_eq!(net.snapshot(), s0, "forward must not mutate");
        let (_, mut dy) = Sequential::softmax_xent(acts.last().unwrap(), &y);
        let grads = net.backward_from(&acts, &mut dy);
        assert_eq!(net.snapshot(), s0, "backward must not mutate");
        net.apply(&grads, 0.1);
        assert_ne!(net.snapshot(), s0);
    }

    #[test]
    fn gradient_accumulate_and_scale() {
        let data = SyntheticDataset::classification(8, 1, 16, 4, 11);
        let net = small_cnn(4, 5);
        let (x, y) = data.batch(0, 8);
        let acts = net.forward_all(&x);
        let (_, mut dy) = Sequential::softmax_xent(acts.last().unwrap(), &y);
        let g1 = net.backward_from(&acts, &mut dy.clone());
        let mut sum = net.backward_from(&acts, &mut dy);
        sum.accumulate(&g1);
        sum.scale(0.5);
        // (g + g)/2 == g
        for (a, b) in sum.per_layer.iter().zip(&g1.per_layer) {
            for (ta, tb) in a.grads.iter().zip(&b.grads) {
                for (va, vb) in ta.data.iter().zip(&tb.data) {
                    assert!((va - vb).abs() < 1e-6);
                }
            }
        }
        assert!(sum.bytes() > 0);
    }
}
