//! The `conv-overlap` workload: `conv_stack(6, 4)` at batch 16, planned
//! as `exec_bench`'s conv-stack panel and run on one out-of-core executor
//! whose single unbounded far tier is priced at 20 µs/KiB, on the
//! asynchronous engine with one I/O lane. The store and io layers do most
//! of the step's work.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use karma_runtime::bridge::{
    expected_residency, expected_residency_tiered, expected_swap_timing, graph_boundaries_to_net,
    lower_plan,
};
use karma_runtime::{BlockPolicy, OocExecutor, OocStats, TierSpec};
use karma_tensor::{conv_stack, Sequential, SyntheticDataset, Tensor};

use crate::common::{
    closed_loop, far_peaks, largest_interior, plan, plan_shape, replay_width, span_metrics,
    step_metrics, step_ms, store_microbench, Phases, Planned, INIT_SEED, LINK_NS_PER_KIB, LR, RING,
    WARMUP_STEPS,
};
use crate::report::Checker;
use crate::stats::median;
use crate::trace::{instrument, Recorder};
use crate::Run;

const PAIRS: usize = 6;
const CLASSES: usize = 4;
const BATCH: usize = 16;

/// What one set-up produces.
struct Lowered {
    planned: Planned,
    bounds: Vec<usize>,
    key_bytes: Vec<usize>,
    exec: OocExecutor,
    peak_near: usize,
    peak_tiers: Vec<usize>,
}

fn set_up(phases: &mut Phases, net: &Sequential, x: &Tensor, y: &[usize]) -> Lowered {
    let graph = karma_zoo::micro::conv_stack_graph(PAIRS, CLASSES);
    let n_layers = net.len();
    let planned = plan(phases, &graph, BATCH, 4.0e9);
    let plan = &planned.plan.plan;
    let bounds =
        graph_boundaries_to_net(&planned.graph_bounds).expect("the plan isolates the input layer");
    let key_bytes: Vec<usize> = phases.time("tensor.probe_forward", || {
        net.forward_all(x).iter().map(Tensor::bytes).collect()
    });
    let replay = phases.time("bridge.replay", || {
        expected_residency(plan, &bounds, &key_bytes, n_layers).expect("the plan replays")
    });
    let budget = replay.peak_bytes;
    let exec = phases.time("bridge.lower", || {
        lower_plan(plan, &bounds, budget, n_layers)
            .expect("the plan lowers")
            .with_tiers(
                vec![TierSpec::unbounded().with_link(LINK_NS_PER_KIB)],
                vec![0; plan.n_blocks],
            )
            .with_io_lanes(1)
    });
    let tiered = phases.time("bridge.replay", || {
        expected_residency_tiered(
            plan,
            &bounds,
            &key_bytes,
            n_layers,
            exec.tier_of(),
            exec.tiers().len(),
        )
        .expect("the lowered routing replays")
    });
    phases.time("exec.warmup", || {
        for _ in 0..WARMUP_STEPS {
            exec.grad_step(net, x, y, |_, _| {});
        }
    });
    Lowered {
        planned,
        bounds,
        key_bytes,
        exec,
        peak_near: replay.peak_bytes,
        peak_tiers: tiered.peak_tier_bytes,
    }
}

impl Lowered {
    /// The swap model's stall (s) for this schedule, pricing a copy
    /// pass at `beta` measured seconds per byte over the planner's own
    /// compute-time model.
    fn model_stall_s(&self, beta: f64) -> f64 {
        expected_swap_timing(
            &self.planned.plan.plan,
            &self.planned.costs,
            &self.bounds,
            &self.key_bytes,
            self.key_bytes.len() - 1,
            self.exec.tier_of(),
            self.exec.tiers(),
            self.exec.io_lanes(),
            0.0,
            beta,
        )
        .expect("the lowered schedule prices")
        .stall_s
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    let rec = Arc::new(Recorder::default());
    // Inputs first, outside every clock: a ring of batches from the seed
    // and the fixed initial weights.
    let data = SyntheticDataset::classification(RING * BATCH, 1, 16, CLASSES, seed);
    let ring: Vec<(Tensor, Vec<usize>)> = (0..RING).map(|k| data.batch(k * BATCH, BATCH)).collect();
    // The set-ups get a net of their own: the step loop trains `net`.
    let [mut net, setup_net] = [(); 2].map(|_| {
        let net = conv_stack(PAIRS, CLASSES, INIT_SEED);
        if trace {
            instrument(net, &rec, None)
        } else {
            net
        }
    });
    let (x0, y0) = &ring[0];

    rec.set_enabled(trace);
    let mut phases = Phases::new(&rec);
    let lw = phases.setup(|p| set_up(p, &setup_net, x0, y0));
    rec.set_enabled(false);
    let setup_spans = rec.spans().len();
    let exec = &lw.exec;

    let mut checker = Checker::default();
    let mut losses: Vec<f32> = Vec::new();
    let mut stats: Vec<OocStats> = Vec::new();
    let (times, wall_s) = closed_loop(
        &rec,
        &mut checker,
        seconds,
        trace,
        || {
            phases.setup(|p| set_up(p, &setup_net, x0, y0));
        },
        |i, chk| {
            let (x, y) = &ring[i % RING];
            let ((loss, s), call_s) =
                rec.span("exec.train_step", || exec.train_step(&mut net, x, y, LR));
            chk.expect(i, "peak_near_bytes", s.peak_near_bytes, lw.peak_near);
            chk.expect(i, "peak_tier_bytes", &s.peak_tier_bytes, &lw.peak_tiers);
            losses.push(loss);
            stats.push(s);
            call_s
        },
    );

    // Correctness: replay the same batches from the same initial weights
    // through the in-core executor; losses and final weights must match
    // bit for bit.
    replay_width(trace);
    let mut reference = conv_stack(PAIRS, CLASSES, INIT_SEED);
    let in_core = OocExecutor::in_core(reference.len());
    let mut in_core_ms = Vec::with_capacity(losses.len());
    for (i, loss) in losses.iter().enumerate() {
        let (x, y) = &ring[i % RING];
        let start = Instant::now();
        let (want, _) = in_core.train_step(&mut reference, x, y, LR);
        in_core_ms.push(start.elapsed().as_secs_f64() * 1e3);
        checker.expect(i, "loss bits", loss.to_bits(), want.to_bits());
    }
    if losses.len() == checker.attempted() && !bitwise_eq(&net.snapshot(), &reference.snapshot()) {
        checker.fail(
            losses.len() - 1,
            "final weights differ from the in-core replay".into(),
        );
    }

    let mut values = BTreeMap::new();
    step_metrics(&times, wall_s, BATCH, &mut values);
    values.insert("setup_s", phases.setup_s());
    values.insert("peak_near_bytes", lw.peak_near as f64);
    values.insert("ok_step_share", checker.ok_share());
    if trace {
        phases.phase_ms(&mut values);
        plan_shape(exec, &mut values);
        let untraced: Vec<&OocStats> = stats
            .iter()
            .zip(&times)
            .filter(|(_, t)| !t.traced)
            .map(|(s, _)| s)
            .collect();
        let med = |f: &dyn Fn(&OocStats) -> f64| {
            median(&untraced.iter().map(|s| f(s)).collect::<Vec<_>>())
        };
        let in_core_step = median(&in_core_ms);
        values.insert("tensor.in_core_step_ms", in_core_step);
        values.insert("exec.ooc_overhead_ms", values["step_ms.p50"] - in_core_step);
        values.insert(
            "exec.recomputed_layers_per_step",
            med(&|s| s.recomputed_layers as f64),
        );
        let wait = med(&|s| s.swap_wait_s * 1e3);
        let hidden = med(&|s| s.swap_hidden_s * 1e3);
        values.insert("store.swap_wait_ms", wait);
        values.insert("io.swap_hidden_ms", hidden);
        values.insert(
            "io.hidden_share",
            if hidden + wait > 0.0 {
                hidden / (hidden + wait)
            } else {
                0.0
            },
        );
        values.insert(
            "store.swapped_bytes_per_step",
            med(&|s| (s.swapped_in_bytes + s.swapped_out_bytes) as f64),
        );
        values.insert(
            "store.transfer_ops_per_step",
            med(&|s| (s.swap_in_ops + s.swap_out_ops) as f64),
        );
        far_peaks(&lw.peak_tiers, &mut values);
        let policies = lw.exec.policies();
        let bytes = largest_interior(&lw.bounds, &lw.key_bytes, |b| {
            policies[b] == BlockPolicy::Swap
        })
        .max(1);
        store_microbench(bytes, &mut values);
        let beta = values["store.host_transfer_ms"] * 1e-3 / bytes as f64;
        values.insert("model.swap_stall_ms", lw.model_stall_s(beta) * 1e3);
        values.insert("model.exchange_exposed_ms", 0.0);
        for m in [
            "dp.register_ms",
            "dp.compute_ms",
            "dp.exchange_exposed_ms",
            "dp.bookkeeping_ms",
            "dp.group_window_ms",
            "dp.exchanged_bytes_per_step",
            "dp.messages_per_step",
            "dp.seq_step_ms",
            "dp.speedup_vs_seq",
        ] {
            values.insert(m, 0.0);
        }
        let spans = rec.spans();
        let traced_steps = times.iter().filter(|t| t.traced).count();
        span_metrics(
            &spans[setup_spans..],
            "exec.train_step",
            traced_steps,
            &mut values,
        );
        crate::write_spans(&rec, "conv-overlap", seed);
    }
    Run {
        checker,
        values,
        step_ms: step_ms(&times, false),
    }
}

/// Bitwise equality of two weight snapshots.
pub fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
