//! Pieces both workload families share: the planning recipe, set-up
//! phase timing, the closed step loop, and the store microbench.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use karma_core::capacity::{build_training_plan, CapacityPlan, CapacityPlanOptions};
use karma_core::cost::{BlockCosts, LayerCostTable};
use karma_core::opt::{optimize_blocking, refine_recompute, OptConfig};
use karma_graph::{MemoryParams, ModelGraph};
use karma_hw::{GpuSpec, LinkSpec, NodeSpec};
use karma_runtime::store::priced_transfer;
use karma_runtime::{BlockPolicy, OocExecutor, TierSpec};
use karma_sim::ModelProfile;
use karma_tensor::Tensor;

use crate::report::Checker;
use crate::stats::{median, percentile};
use crate::trace::{self_times, Recorder, Span};

/// Seed of the initial weights, the same in every run. The conv
/// backward skips zero output gradients, so how many ReLUs start dead —
/// set by the initial weights — moves step time; the run's `--seed`
/// therefore drives only the data.
pub const INIT_SEED: u64 = 11;
/// SGD learning rate of every workload.
pub const LR: f32 = 0.05;
/// Set-ups per run: one before the step loop, the rest spread through
/// it (see [`closed_loop`]); `setup_s` is their median.
pub const SETUP_REPS: usize = 30;
/// Warm-up steps at the end of each set-up.
pub const WARMUP_STEPS: usize = 1;
/// Distinct batches the step loop cycles through.
pub const RING: usize = 8;
/// Fewest timed steps in a run: p90 then has 10 samples beyond it.
pub const MIN_STEPS: usize = 100;
/// Steps per block in the traced run, which alternates untraced and
/// traced blocks so host drift hits both alike.
pub const TRACE_BLOCK: usize = 10;
/// Link price of the transfer-bound far tier (ns per KiB, ~50 MB/s).
pub const LINK_NS_PER_KIB: u64 = 20_000;

/// The planning recipe `exec_bench` uses: a toy device at 65% of the
/// model's footprint, cuts from layer 2 on, five cut candidates.
pub struct Planned {
    pub costs: BlockCosts,
    pub plan: CapacityPlan,
    pub graph_bounds: Vec<usize>,
}

/// Profile `graph` at `batch` and plan it against a host link of
/// `link_bw` bytes/s, timing each call as a set-up phase.
pub fn plan(phases: &mut Phases, graph: &ModelGraph, batch: usize, link_bw: f64) -> Planned {
    let mem = MemoryParams::exact();
    let need = graph.peak_footprint(batch, &mem) as f64;
    let node = NodeSpec::toy(
        GpuSpec::toy((need * 0.65) as u64, 5.0e9),
        LinkSpec::toy(link_bw),
    );
    let table = phases.time("sim.profile", || {
        let profile = ModelProfile::collect(graph, batch, &node.gpu, &mem);
        LayerCostTable::from_profile(&profile, &node)
    });
    let mut cfg = OptConfig::fast(17);
    cfg.min_cut_layer = 2;
    cfg.max_cut_candidates = 5;
    let graph_bounds = phases.time("core.search", || optimize_blocking(&table, &cfg));
    let (costs, plan) = phases.time("core.schedule", || {
        let costs = table.block_costs(&graph_bounds);
        let rc = refine_recompute(&costs);
        let plan = build_training_plan(&costs, &CapacityPlanOptions::karma_with_recompute(rc));
        (costs, plan)
    });
    Planned {
        costs,
        plan,
        graph_bounds,
    }
}

/// Wall time per named set-up phase, summed within one set-up and kept
/// per set-up across a run. Each phase is also a span under
/// `bench.setup` when recording is on.
pub struct Phases {
    rec: Arc<Recorder>,
    current: BTreeMap<&'static str, f64>,
    done: Vec<BTreeMap<&'static str, f64>>,
    totals: Vec<f64>,
}

impl Phases {
    pub fn new(rec: &Arc<Recorder>) -> Self {
        Phases {
            rec: Arc::clone(rec),
            current: BTreeMap::new(),
            done: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// Time `f` as phase `name` (a static span name).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = self.rec.span(name, f);
        *self.current.entry(name).or_insert(0.0) += secs;
        out
    }

    /// Run one whole set-up as a `bench.setup` span and keep its phases.
    pub fn setup<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let rec = Arc::clone(&self.rec);
        let (out, secs) = rec.span("bench.setup", || f(self));
        self.totals.push(secs);
        self.done.push(std::mem::take(&mut self.current));
        out
    }

    /// Median set-up wall time (s).
    pub fn setup_s(&self) -> f64 {
        median(&self.totals)
    }

    /// Median of each setup-phase metric over the set-ups (ms); phases a
    /// workload does not have read 0.
    pub fn phase_ms(&self, values: &mut BTreeMap<&'static str, f64>) {
        for (phase, metric) in [
            ("sim.profile", "sim.profile_ms"),
            ("core.search", "core.search_ms"),
            ("core.schedule", "core.schedule_ms"),
            ("tensor.probe_forward", "tensor.probe_forward_ms"),
            ("bridge.replay", "bridge.replay_ms"),
            ("bridge.lower", "bridge.lower_ms"),
            ("dp.register", "dp.register_ms"),
            ("exec.warmup", "exec.warmup_ms"),
        ] {
            let per_setup: Vec<f64> = self
                .done
                .iter()
                .map(|p| p.get(phase).copied().unwrap_or(0.0) * 1e3)
                .collect();
            values.insert(metric, median(&per_setup));
        }
    }
}

/// Bytes of the largest interior (activations inside a block, boundary
/// excluded) among the blocks `keep` selects: the store microbench's
/// transfer size. `key_bytes[k]` is the size of layer `k`'s input.
pub fn largest_interior(
    bounds: &[usize],
    key_bytes: &[usize],
    keep: impl Fn(usize) -> bool,
) -> usize {
    let n_layers = key_bytes.len() - 1;
    (0..bounds.len())
        .filter(|&b| keep(b))
        .map(|b| {
            let end = bounds.get(b + 1).copied().unwrap_or(n_layers);
            key_bytes[bounds[b] + 1..end].iter().sum()
        })
        .max()
        .unwrap_or(0)
}

/// Far-memory peaks: the sum over tiers and the first tier's own peak.
pub fn far_peaks(peak_tiers: &[usize], values: &mut BTreeMap<&'static str, f64>) {
    values.insert(
        "store.peak_far_bytes",
        peak_tiers.iter().sum::<usize>() as f64,
    );
    values.insert(
        "store.peak_tier0_bytes",
        peak_tiers.first().copied().unwrap_or(0) as f64,
    );
}

/// Plan-shape counts read off a lowered executor.
pub fn plan_shape(exec: &OocExecutor, values: &mut BTreeMap<&'static str, f64>) {
    let count = |p: BlockPolicy| exec.policies().iter().filter(|q| **q == p).count() as f64;
    values.insert("plan.blocks", exec.n_blocks() as f64);
    values.insert("plan.swap_blocks", count(BlockPolicy::Swap));
    values.insert("plan.recompute_blocks", count(BlockPolicy::Recompute));
}

/// One timed step: the wall time of its step call, and whether it ran
/// traced.
pub struct StepTime {
    pub wall_s: f64,
    pub traced: bool,
}

/// The closed step loop: each step starts when the previous returns.
/// Runs until `seconds` have passed and at least [`MIN_STEPS`] steps
/// completed, or a step panics (counted as attempted, not ok). With
/// `trace`, blocks of [`TRACE_BLOCK`] steps alternate untraced/traced.
/// `step(i)` runs step `i` inside the `bench.step` span and returns the
/// wall time of the step call itself.
///
/// Between two steps, once every `seconds / SETUP_REPS`, the loop runs
/// `set_up` untraced. The host's speed shifts in bursts, so set-ups
/// made back to back all land in one burst; spread through the window,
/// they sample the host as the steps do. Returns the per-step times and
/// the loop's wall time without the set-ups.
pub fn closed_loop(
    rec: &Recorder,
    checker: &mut Checker,
    seconds: f64,
    trace: bool,
    mut set_up: impl FnMut(),
    mut step: impl FnMut(usize, &mut Checker) -> f64,
) -> (Vec<StepTime>, f64) {
    let limit = Duration::from_secs_f64(seconds);
    let gap = limit / SETUP_REPS as u32;
    let mut next_setup = gap;
    let mut setup_s = 0.0;
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < MIN_STEPS || start.elapsed() < limit {
        if start.elapsed() >= next_setup {
            let t = Instant::now();
            set_up();
            setup_s += t.elapsed().as_secs_f64();
            next_setup += gap;
        }
        let i = checker.attempt();
        let traced = trace && (i / TRACE_BLOCK) % 2 == 1;
        rec.set_enabled(traced);
        let run = catch_unwind(AssertUnwindSafe(|| {
            rec.span("bench.step", || step(i, checker)).0
        }));
        rec.set_enabled(false);
        match run {
            Ok(wall_s) => times.push(StepTime { wall_s, traced }),
            Err(_) => {
                checker.fail(i, "the step panicked".into());
                break;
            }
        }
    }
    (times, start.elapsed().as_secs_f64() - setup_s)
}

/// Kernel width for the correctness replay. The timed steps run at
/// width 1. An untraced run times nothing in its replay, so it replays
/// at width 2, which gives the same bits in less time. A traced run
/// reports the replay's step times, so it replays at width 1 like the
/// timed steps.
pub fn replay_width(trace: bool) {
    rayon::set_num_threads(if trace { 1 } else { 2 });
}

/// Wall times (ms) of the steps that ran `traced` or not.
pub fn step_ms(times: &[StepTime], traced: bool) -> Vec<f64> {
    times
        .iter()
        .filter(|t| t.traced == traced)
        .map(|t| t.wall_s * 1e3)
        .collect()
}

/// End-to-end step metrics over the untraced steps, plus the traced
/// run's overhead when there are traced steps.
pub fn step_metrics(
    times: &[StepTime],
    wall_s: f64,
    samples_per_step: usize,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let plain = step_ms(times, false);
    let traced = step_ms(times, true);
    values.insert(
        "samples_per_s",
        (times.len() * samples_per_step) as f64 / wall_s,
    );
    values.insert("step_ms.p50", median(&plain));
    values.insert("step_ms.p90", percentile(&plain, 90.0));
    if !traced.is_empty() {
        values.insert("trace.overhead", median(&traced) / median(&plain) - 1.0);
    }
}

/// Per-step kernel and step-call self times from `spans`, the spans the
/// traced steps recorded. `call` is the span name of the step call
/// (`exec.train_step` or `dp.train_call`); kernel spans are summed over
/// ranks.
pub fn span_metrics(
    spans: &[Span],
    call: &str,
    traced_steps: usize,
    values: &mut BTreeMap<&'static str, f64>,
) {
    // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
    let per_step = |secs: f64| secs * 1e3 / traced_steps.max(1) as f64 + 0.0;
    let own = self_times(spans);
    let sum = |pred: &dyn Fn(&Span) -> bool| -> f64 {
        spans.iter().filter(|s| pred(s)).map(|s| own[&s.id]).sum()
    };
    for (name, metric) in [
        ("tensor.conv2d.fwd", "tensor.conv2d.fwd_ms"),
        ("tensor.conv2d.bwd", "tensor.conv2d.bwd_ms"),
        ("tensor.dense.fwd", "tensor.dense.fwd_ms"),
        ("tensor.dense.bwd", "tensor.dense.bwd_ms"),
    ] {
        values.insert(metric, per_step(sum(&|s| s.name == name)));
    }
    let other = sum(&|s| {
        s.name.starts_with("tensor.")
            && !s.name.starts_with("tensor.conv2d.")
            && !s.name.starts_with("tensor.dense.")
    });
    values.insert("tensor.other_ms", per_step(other));
    values.insert("exec.self_ms", per_step(sum(&|s| s.name == call)));
    values.insert(
        "trace.spans_per_step",
        spans.len() as f64 / traced_steps.max(1) as f64,
    );
}

/// Median wall time (ms) of one priced transfer of `bytes` through a
/// host-DRAM tier (one copy pass), an NVMe tier (four copy passes) and
/// the link-priced tier (one copy pass plus the link sleep).
pub fn store_microbench(bytes: usize, values: &mut BTreeMap<&'static str, f64>) {
    let t = Tensor::zeros(&[bytes.div_ceil(4).max(1)]);
    let tiers = [
        ("store.host_transfer_ms", TierSpec::host(usize::MAX)),
        ("store.nvme_transfer_ms", TierSpec::nvme(usize::MAX)),
        (
            "store.link_transfer_ms",
            TierSpec::unbounded().with_link(LINK_NS_PER_KIB),
        ),
    ];
    // Rounds visit every tier in turn, so the allocator's state changes
    // (the first large frees move glibc's mmap threshold) reach all tiers
    // alike; the first rounds are untimed warm-up.
    let mut samples = vec![Vec::new(); tiers.len()];
    for round in 0..18 {
        for ((_, spec), s) in tiers.iter().zip(&mut samples) {
            let src = t.clone();
            let start = Instant::now();
            std::hint::black_box(priced_transfer(src, spec));
            if round >= 3 {
                s.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    for ((metric, _), s) in tiers.iter().zip(&samples) {
        values.insert(metric, median(s));
    }
}
