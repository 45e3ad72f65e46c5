//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions: the setup calls, the step call, and
//! every `karma_tensor::Layer` forward/backward through the [`Timed`]
//! wrapper. Nothing inside the program is instrumented. Spans stay in
//! memory until [`Recorder::write_jsonl`] writes them out at the end.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use karma_tensor::layers::ParamGrads;
use karma_tensor::{Layer, Sequential, Tensor};

/// Parent id of a root span.
pub const ROOT: u64 = 0;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never [`ROOT`]).
    pub id: u64,
    /// Id of the span that caused this one ([`ROOT`] for none).
    pub parent: u64,
    /// Layer-qualified name, e.g. `tensor.conv2d.fwd`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Data-parallel rank of the replica that ran it, if any.
    pub rank: Option<u32>,
    /// Small per-process thread number of the recording thread.
    pub thread: u32,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_NO: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans while enabled; a disabled recorder only runs the
/// wrapped closures.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    /// The innermost span open on the driving thread: the parent of the
    /// next span, including [`Timed`] spans recorded on worker threads.
    current: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(ROOT),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Turn recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as span `name`, a child of the span open around it,
    /// returning its result and its wall time in seconds. While `f` runs,
    /// spans it opens — and [`Timed`] layers on any thread — nest under
    /// this one. The time is measured whether or not recording is on.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let on = self.enabled();
        let id = if on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            ROOT
        };
        let parent = self.current.swap(id, Ordering::SeqCst);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.current.store(parent, Ordering::SeqCst);
        if on {
            self.push(Span {
                id,
                parent,
                name,
                start_ns: start,
                end_ns: end,
                rank: None,
                thread: THREAD_NO.with(|t| *t),
            });
        }
        (out, (end - start) as f64 * 1e-9)
    }

    /// Record `f` as a leaf span under the currently open span (used by
    /// [`Timed`] on whichever thread runs the layer).
    fn leaf<T>(&self, name: &'static str, rank: Option<u32>, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let parent = self.current.load(Ordering::SeqCst);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            rank,
            thread: THREAD_NO.with(|t| *t),
        });
        out
    }

    fn push(&self, s: Span) {
        self.spans.lock().expect("span log poisoned").push(s);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span log poisoned").iter() {
            let rank = s.rank.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"rank\":{},\"thread\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, rank, s.thread
            )?;
        }
        w.flush()
    }
}

/// A `karma_tensor::Layer` that times its inner layer's forward and
/// backward as `tensor.<kind>.fwd` / `tensor.<kind>.bwd` spans. It passes
/// every call through unchanged, so results stay bitwise identical.
pub struct Timed {
    inner: Box<dyn Layer>,
    fwd: &'static str,
    bwd: &'static str,
    rank: Option<u32>,
    rec: Arc<Recorder>,
}

/// Span names for a layer kind, interned once per kind.
fn span_names(kind: &'static str) -> (&'static str, &'static str) {
    static NAMES: Mutex<Option<HashMap<&'static str, (&'static str, &'static str)>>> =
        Mutex::new(None);
    let mut names = NAMES.lock().expect("span names poisoned");
    *names
        .get_or_insert_with(HashMap::new)
        .entry(kind)
        .or_insert_with(|| {
            (
                Box::leak(format!("tensor.{kind}.fwd").into_boxed_str()),
                Box::leak(format!("tensor.{kind}.bwd").into_boxed_str()),
            )
        })
}

/// Wrap every layer of `net` in [`Timed`], tagging its spans with `rank`.
pub fn instrument(net: Sequential, rec: &Arc<Recorder>, rank: Option<u32>) -> Sequential {
    Sequential::new(
        net.layers
            .into_iter()
            .map(|inner| {
                let (fwd, bwd) = span_names(inner.name());
                Box::new(Timed {
                    inner,
                    fwd,
                    bwd,
                    rank,
                    rec: Arc::clone(rec),
                }) as Box<dyn Layer>
            })
            .collect(),
    )
}

impl Layer for Timed {
    fn forward(&self, x: &Tensor) -> Tensor {
        self.rec.leaf(self.fwd, self.rank, || self.inner.forward(x))
    }

    fn backward(&self, x: &Tensor, dy: &Tensor) -> (Tensor, ParamGrads) {
        self.rec
            .leaf(self.bwd, self.rank, || self.inner.backward(x, dy))
    }

    fn params(&self) -> Vec<&Tensor> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.inner.params_mut()
    }

    fn update(&mut self, grads: &ParamGrads, alpha: f32) {
        self.inner.update(grads, alpha)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Self time of every span, in seconds: its duration minus the part of
/// its interval that its children cover (children on several threads may
/// overlap each other; covered time counts once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, (s.end_ns - s.start_ns - covered) as f64 * 1e-9)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            rank: None,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, ROOT, 0, 100),
            // Two overlapping children (two worker threads) cover 10..60.
            span(2, 1, 10, 50),
            span(3, 1, 20, 60),
            // A disjoint child covers 80..90.
            span(4, 1, 80, 90),
            // A grandchild does not count against the root.
            span(5, 2, 15, 45),
        ];
        let st = self_times(&spans);
        assert!((st[&1] - 40e-9).abs() < 1e-15);
        assert!((st[&2] - 10e-9).abs() < 1e-15);
        assert!((st[&3] - 40e-9).abs() < 1e-15);
        assert!((st[&5] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(1, ROOT, 50, 100), span(2, 1, 40, 70)];
        assert!((self_times(&spans)[&1] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn timed_layers_nest_under_the_open_span_and_stay_bitwise() {
        let rec = Arc::new(Recorder::default());
        let plain = karma_tensor::small_cnn(4, 7);
        let timed = instrument(karma_tensor::small_cnn(4, 7), &rec, Some(1));
        let x = karma_tensor::SyntheticDataset::classification(4, 1, 16, 4, 3)
            .batch(0, 4)
            .0;
        rec.set_enabled(true);
        let (out, _) = rec.span("bench.step", || timed.forward_all(&x));
        assert_eq!(out, plain.forward_all(&x));
        assert_eq!(timed.snapshot(), plain.snapshot());
        let spans = rec.spans();
        let step = spans.iter().find(|s| s.name == "bench.step").unwrap();
        let kernels: Vec<&Span> = spans.iter().filter(|s| s.parent == step.id).collect();
        assert_eq!(kernels.len(), plain.len());
        assert!(kernels.iter().all(|s| s.rank == Some(1)));
        assert_eq!(kernels[0].name, "tensor.conv2d.fwd");
        // Disabled: nothing more is recorded.
        rec.set_enabled(false);
        timed.forward_all(&x);
        assert_eq!(rec.spans().len(), spans.len());
    }
}
