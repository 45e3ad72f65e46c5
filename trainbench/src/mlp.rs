//! The `mlp-dp` workload: `mlp_stack(8, 256, 4)`, two workers × 64
//! samples, planned over a thin 1e7 B/s link (recompute-heavy, no swaps)
//! with the MG-WFBP-grouped phased exchange. Each step is one
//! `dp::train_with_buffers` call over buffers registered once; no churn.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use karma_core::plan::Plan;
use karma_dist::append_exchange_ops;
use karma_hw::ClusterSpec;
use karma_net::{AllReduceAlgo, AllReduceModel, PhasedExchange};
use karma_runtime::bridge::{
    block_grad_bytes, expected_exchange, expected_exchange_timing, expected_residency,
    expected_residency_tiered, graph_boundaries_to_net, lower_dist_plan, ExchangeReplay,
};
use karma_runtime::dp::{
    train_reference, train_with_buffers, ChurnConfig, ExchangeBuffers, ExchangeSchedule,
};
use karma_runtime::OocExecutor;
use karma_tensor::{mlp_stack, Sequential, SyntheticDataset, Tensor};

use crate::common::{
    closed_loop, far_peaks, largest_interior, plan, plan_shape, replay_width, span_metrics,
    step_metrics, step_ms, store_microbench, Phases, Planned, INIT_SEED, LR, RING, WARMUP_STEPS,
};
use crate::conv::bitwise_eq;
use crate::report::Checker;
use crate::stats::median;
use crate::trace::{instrument, Recorder};
use crate::Run;

const HIDDEN: usize = 8;
const WIDTH: usize = 256;
const CLASSES: usize = 4;
const WORKERS: usize = 2;
const PER_WORKER: usize = 64;
const GLOBAL: usize = WORKERS * PER_WORKER;

/// What one set-up produces.
struct Lowered {
    exec: OocExecutor,
    xchg: ExchangeSchedule,
    bufs: ExchangeBuffers,
    peak_near: usize,
    peak_tiers: Vec<usize>,
    exchange: ExchangeReplay,
    planned: Planned,
    dist_plan: Plan,
    bounds: Vec<usize>,
    key_bytes: Vec<usize>,
    grad_bytes: Vec<u64>,
}

impl Lowered {
    /// The exchange model's exposed time (s) past the backward, pricing
    /// each group at `beta` measured seconds per payload byte over the
    /// planner's own compute-time model.
    fn model_exposed_s(&self, beta: f64) -> f64 {
        expected_exchange_timing(
            &self.dist_plan,
            &self.planned.costs,
            &self.grad_bytes,
            0.0,
            beta,
        )
        .expect("the distributed plan prices")
        .exposed()
    }
}

/// The per-call figures the step loop keeps from each report (the
/// report's weight snapshot is dropped right away).
struct CallStats {
    loss: f32,
    call_s: f64,
    step_wall_s: f64,
    backward_done_s: f64,
    group_window_s: f64,
    messages: usize,
    exchanged_bytes: usize,
    recomputed_layers: usize,
    swapped_bytes: usize,
}

fn set_up(
    phases: &mut Phases,
    nets: &mut [Sequential],
    init: &[f32],
    data: &SyntheticDataset,
) -> Lowered {
    let graph = karma_zoo::micro::mlp_stack_graph(HIDDEN, WIDTH, CLASSES);
    let n_layers = nets[0].len();
    let planned = plan(phases, &graph, PER_WORKER, 1.0e7);
    let bounds =
        graph_boundaries_to_net(&planned.graph_bounds).expect("the plan isolates the input layer");
    let model = AllReduceModel::new(AllReduceAlgo::Hierarchical, &ClusterSpec::abci(2));
    let (grad_bytes, dist_plan) = phases.time("core.schedule", || {
        let grad_bytes = block_grad_bytes(&nets[0], &bounds);
        let phased = PhasedExchange::plan(&grad_bytes, &model);
        let mut dist_plan = planned.plan.plan.clone();
        append_exchange_ops(&mut dist_plan, &phased);
        (grad_bytes, dist_plan)
    });
    let (x, _) = data.shard(0, PER_WORKER, 0);
    let key_bytes: Vec<usize> = phases.time("tensor.probe_forward", || {
        nets[0].forward_all(&x).iter().map(Tensor::bytes).collect()
    });
    let (replay, exchange) = phases.time("bridge.replay", || {
        let replay = expected_residency(&dist_plan, &bounds, &key_bytes, n_layers)
            .expect("the plan replays");
        let exchange =
            expected_exchange(&dist_plan, &grad_bytes, WORKERS, 1).expect("the exchange replays");
        (replay, exchange)
    });
    let (exec, xchg) = phases.time("bridge.lower", || {
        lower_dist_plan(&dist_plan, &bounds, replay.peak_bytes, n_layers)
            .expect("the distributed plan lowers")
    });
    let tiered = phases.time("bridge.replay", || {
        expected_residency_tiered(
            &dist_plan,
            &bounds,
            &key_bytes,
            n_layers,
            exec.tier_of(),
            exec.tiers().len(),
        )
        .expect("the lowered routing replays")
    });
    let bufs = phases.time("dp.register", || {
        ExchangeBuffers::register(&xchg, exec.boundaries(), n_layers)
    });
    phases.time("exec.warmup", || {
        let cfg = config();
        for _ in 0..WARMUP_STEPS {
            train_with_buffers(nets, &exec, &xchg, &bufs, data, &cfg);
        }
        for net in nets.iter_mut() {
            net.restore(init);
        }
    });
    Lowered {
        exec,
        xchg,
        bufs,
        peak_near: replay.peak_bytes,
        peak_tiers: tiered.peak_tier_bytes,
        exchange,
        planned,
        dist_plan,
        bounds,
        key_bytes,
        grad_bytes,
    }
}

fn config() -> ChurnConfig {
    ChurnConfig {
        offset: 0,
        per_worker: PER_WORKER,
        lr: LR,
        steps: 1,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    let rec = Arc::new(Recorder::default());
    // Inputs first, outside every clock: a ring of global batches from
    // the seed and the fixed initial weights.
    let ring: Vec<SyntheticDataset> = (0..RING as u64)
        .map(|k| {
            SyntheticDataset::classification(
                GLOBAL,
                1,
                16,
                CLASSES,
                seed.wrapping_mul(RING as u64).wrapping_add(k),
            )
        })
        .collect();
    let init = mlp_stack(HIDDEN, WIDTH, CLASSES, INIT_SEED).snapshot();
    // The set-ups get nets of their own: a set-up's warm-up resets its
    // nets to `init`, while the step loop trains `nets`.
    let [mut nets, mut setup_nets] = [(); 2].map(|_| -> Vec<Sequential> {
        (0..WORKERS)
            .map(|r| {
                let net = mlp_stack(HIDDEN, WIDTH, CLASSES, INIT_SEED);
                if trace {
                    instrument(net, &rec, Some(r as u32))
                } else {
                    net
                }
            })
            .collect()
    });

    rec.set_enabled(trace);
    let mut phases = Phases::new(&rec);
    let lw = phases.setup(|p| set_up(p, &mut setup_nets, &init, &ring[0]));
    rec.set_enabled(false);
    let setup_spans = rec.spans().len();

    let mut checker = Checker::default();
    let mut calls: Vec<CallStats> = Vec::new();
    let cfg = config();
    let set_up_again = || {
        phases.setup(|p| set_up(p, &mut setup_nets, &init, &ring[0]));
    };
    let (times, wall_s) = closed_loop(
        &rec,
        &mut checker,
        seconds,
        trace,
        set_up_again,
        |i, chk| {
            let data = &ring[i % RING];
            let (r, call_s) = rec.span("dp.train_call", || {
                train_with_buffers(&mut nets, &lw.exec, &lw.xchg, &lw.bufs, data, &cfg)
            });
            chk.expect(i, "peak_near_bytes", r.peak_near_bytes, lw.peak_near);
            chk.expect(i, "peak_tier_bytes", &r.peak_tier_bytes, &lw.peak_tiers);
            chk.expect(
                i,
                "exchange messages",
                r.exchange_messages,
                lw.exchange.messages,
            );
            chk.expect(
                i,
                "exchanged bytes",
                r.exchanged_bytes as u64,
                lw.exchange.total_bytes,
            );
            let windows: Vec<f64> = r
                .group_ready_s
                .iter()
                .zip(&r.group_ship_s)
                .map(|(ready, ship)| ready - ship)
                .collect();
            calls.push(CallStats {
                loss: r.losses[0],
                call_s,
                step_wall_s: r.step_wall_s,
                backward_done_s: r.backward_done_s,
                group_window_s: windows.iter().sum::<f64>() / windows.len().max(1) as f64,
                messages: r.exchange_messages,
                exchanged_bytes: r.exchanged_bytes,
                recomputed_layers: r.recomputed_layers,
                swapped_bytes: r.swapped_bytes,
            });
            call_s
        },
    );

    // Correctness: replay the same global batches from the same initial
    // weights through the sequential oracle `dp::train_reference`;
    // losses and final weights must match bit for bit. Even steps replay
    // on the in-core executor, odd ones on the planned executor — both
    // must match, and the two timings give the in-core compute floor and
    // the sequential baseline.
    replay_width(trace);
    let mut reference = mlp_stack(HIDDEN, WIDTH, CLASSES, INIT_SEED);
    let in_core = OocExecutor::in_core(reference.len());
    let (mut in_core_ms, mut seq_ms) = (Vec::new(), Vec::new());
    for (i, call) in calls.iter().enumerate() {
        let exec = if i % 2 == 0 { &in_core } else { &lw.exec };
        let start = Instant::now();
        let want = train_reference(
            &mut reference,
            exec,
            &ring[i % RING],
            PER_WORKER,
            WORKERS,
            LR,
            1,
        );
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if i % 2 == 0 {
            &mut in_core_ms
        } else {
            &mut seq_ms
        }
        .push(ms);
        checker.expect(i, "loss bits", call.loss.to_bits(), want[0].to_bits());
    }
    if calls.len() == checker.attempted() && !bitwise_eq(&nets[0].snapshot(), &reference.snapshot())
    {
        checker.fail(
            calls.len() - 1,
            "final weights differ from dp::train_reference".into(),
        );
    }

    let mut values = BTreeMap::new();
    step_metrics(&times, wall_s, GLOBAL, &mut values);
    values.insert("setup_s", phases.setup_s());
    values.insert("peak_near_bytes", lw.peak_near as f64);
    values.insert("ok_step_share", checker.ok_share());
    if trace {
        phases.phase_ms(&mut values);
        plan_shape(&lw.exec, &mut values);
        let untraced: Vec<&CallStats> = calls
            .iter()
            .zip(&times)
            .filter(|(_, t)| !t.traced)
            .map(|(c, _)| c)
            .collect();
        let med = |f: &dyn Fn(&CallStats) -> f64| {
            median(&untraced.iter().map(|c| f(c)).collect::<Vec<_>>())
        };
        // One worker's share of the in-core global step: the compute
        // floor of a step both workers run in parallel.
        let in_core_step = median(&in_core_ms) / WORKERS as f64;
        let seq_step = median(&seq_ms);
        let p50 = values["step_ms.p50"];
        values.insert("tensor.in_core_step_ms", in_core_step);
        values.insert("exec.ooc_overhead_ms", p50 - in_core_step);
        values.insert(
            "exec.recomputed_layers_per_step",
            med(&|c| c.recomputed_layers as f64),
        );
        for m in ["store.swap_wait_ms", "io.swap_hidden_ms", "io.hidden_share"] {
            values.insert(m, 0.0);
        }
        values.insert(
            "store.swapped_bytes_per_step",
            med(&|c| c.swapped_bytes as f64),
        );
        values.insert("store.transfer_ops_per_step", 0.0);
        far_peaks(&lw.peak_tiers, &mut values);
        // Nothing swaps here; time the largest block a swap would move.
        let bytes = largest_interior(&lw.bounds, &lw.key_bytes, |_| true).max(1);
        store_microbench(bytes, &mut values);
        values.insert("model.swap_stall_ms", 0.0);
        let group_bytes = &lw.exchange.per_group_bytes;
        let mean_group_bytes = group_bytes.iter().sum::<u64>() as f64 / group_bytes.len() as f64;
        let beta = med(&|c| c.group_window_s) / mean_group_bytes;
        values.insert("model.exchange_exposed_ms", lw.model_exposed_s(beta) * 1e3);
        values.insert("dp.compute_ms", med(&|c| c.backward_done_s * 1e3));
        values.insert(
            "dp.exchange_exposed_ms",
            med(&|c| (c.step_wall_s - c.backward_done_s) * 1e3),
        );
        values.insert(
            "dp.bookkeeping_ms",
            med(&|c| (c.call_s - c.step_wall_s) * 1e3),
        );
        values.insert("dp.group_window_ms", med(&|c| c.group_window_s * 1e3));
        values.insert(
            "dp.exchanged_bytes_per_step",
            med(&|c| c.exchanged_bytes as f64),
        );
        values.insert("dp.messages_per_step", med(&|c| c.messages as f64));
        values.insert("dp.seq_step_ms", seq_step);
        values.insert("dp.speedup_vs_seq", seq_step / p50);
        let spans = rec.spans();
        let traced_steps = times.iter().filter(|t| t.traced).count();
        span_metrics(
            &spans[setup_spans..],
            "dp.train_call",
            traced_steps,
            &mut values,
        );
        crate::write_spans(&rec, "mlp-dp", seed);
    }
    Run {
        checker,
        values,
        step_ms: step_ms(&times, false),
    }
}
