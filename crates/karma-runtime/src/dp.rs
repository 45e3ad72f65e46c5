//! Real multi-worker data parallelism with the phased gradient exchange —
//! the executable analogue of paper Sec. III-G, built on threads and
//! shared memory instead of MPI.
//!
//! Each worker trains its out-of-core replica on a shard of the global
//! batch. Gradients move **by exchange group** ([`ExchangeSchedule`])
//! through **zero-copy aggregation buffers** ([`ExchangeBuffers`]): one
//! pre-registered accumulation slot per group, sized at lowering time
//! from the per-block gradient payloads. As a group's last block finishes
//! its backward pass, the worker folds the group's gradients *in place*
//! into the shared slot — no message serialization, no aggregator thread,
//! no per-rank copies — and *keeps computing*: the folding of
//! already-gated groups overlaps the remaining backward/swap work,
//! exactly the overlap the paper's phased exchange buys. Folds are
//! sequenced in ascending contributor-rank order per group (a worker
//! whose turn has not come defers the fold to its end-of-step drain), so
//! the float operations and their order are fixed regardless of thread
//! interleaving: the averaged gradients every replica installs before its
//! weight update are bit-identical to [`train_reference`] at any
//! worker×thread count.
//!
//! The previous crossbeam-channel transport is kept, verbatim, as the
//! **channel oracle** ([`train_channel_reference`] /
//! [`train_churn_channel_reference`]): an independently-implemented
//! second engine the zero-copy path is pinned against bitwise.
//!
//! The group shapes come from `karma_net::PhasedExchange` (MG-WFBP
//! merging) via the plan→runtime bridge, or from the [`ExchangeSchedule`]
//! constructors directly ([`ExchangeSchedule::per_block`] reproduces the
//! original one-message-per-block protocol, [`ExchangeSchedule::bulk`]
//! the naive single-AllReduce baseline).

use crossbeam::channel::{unbounded, Receiver, Sender};
use karma_tensor::layers::ParamGrads;
use karma_tensor::{Gradients, Sequential, SyntheticDataset, Tensor};
use serde::{Deserialize, Serialize};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::exec::{OocExecutor, OocStats};

/// The grouped gradient-exchange shape for one training step: which
/// blocks ship together, in launch order. This is the runtime mirror of
/// `karma_core::bridge::DistSchedule` (kept free of planner types so the
/// parity-critical execution path stays independent of the analysis
/// stack, like `BlockPolicy` mirrors `LoweredPolicy`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExchangeSchedule {
    /// Member blocks per group: contiguous, descending within each group
    /// (backward completion order) and across groups, covering every
    /// block exactly once.
    groups: Vec<Vec<usize>>,
    n_blocks: usize,
}

impl ExchangeSchedule {
    /// Build a schedule over `n_blocks` blocks, validating that `groups`
    /// partition them in backward-completion order (descending, first
    /// group starts at the last block). Panics on malformed groups, like
    /// the executor's own schedule setters.
    pub fn new(groups: Vec<Vec<usize>>, n_blocks: usize) -> Self {
        let flat: Vec<usize> = groups.iter().flatten().copied().collect();
        assert_eq!(flat.len(), n_blocks, "groups must cover every block once");
        assert!(
            flat.windows(2).all(|w| w[0] == w[1] + 1),
            "groups must list blocks in contiguous descending order"
        );
        assert_eq!(
            flat.first().copied(),
            n_blocks.checked_sub(1),
            "first group must start at the last block"
        );
        ExchangeSchedule { groups, n_blocks }
    }

    /// One group per block — the fully eager, un-merged protocol (what
    /// [`train_data_parallel`] runs).
    pub fn per_block(n_blocks: usize) -> Self {
        ExchangeSchedule::new((0..n_blocks).rev().map(|b| vec![b]).collect(), n_blocks)
    }

    /// A single group holding every block — the bulk-AllReduce baseline
    /// with no compute/communication overlap.
    pub fn bulk(n_blocks: usize) -> Self {
        ExchangeSchedule::new(vec![(0..n_blocks).rev().collect()], n_blocks)
    }

    /// Member blocks per group, launch order.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Number of groups (= exchange messages per worker per step).
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of blocks covered.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// The group's *gate*: its lowest block, whose backward finishes
    /// last and launches the group's exchange.
    pub fn gate(&self, group: usize) -> usize {
        *self.groups[group].last().expect("groups are non-empty")
    }
}

/// One group's shared aggregation state for the step in flight.
#[derive(Debug, Default)]
struct GroupSlot {
    /// The in-place accumulation buffer: first contributor's payload,
    /// then ascending-rank `axpy` folds, then one final `1/count` scale.
    grads: Vec<ParamGrads>,
    /// Contributions folded so far this step.
    arrived: usize,
    /// Contributions scheduled this step (the complete-or-abort rule's
    /// static contributor count).
    expected: usize,
    /// Measured payload bytes of one contribution (replicas share
    /// shapes, so every contribution is the same size).
    bytes: usize,
    /// The average is published: folded by every scheduled contributor
    /// and scaled. Never set with a partial fold in the buffer.
    done: bool,
    /// Wall-clock instant (seconds from the step epoch) the first
    /// contribution landed — the group's measured *ship* time.
    ship: Option<f64>,
    /// Instant the average was published — the group's *ready* time.
    ready_at: Option<f64>,
}

/// One group's pre-registered buffer: the layer span it owns plus the
/// slot its contributors fold into.
#[derive(Debug)]
struct GroupBuffer {
    /// Layer span `[start, end)` this group aggregates — disjoint from
    /// every other group's by construction (validated at registration).
    span: (usize, usize),
    /// Payload bytes promised at registration (from the lowering-time
    /// `block_grad_bytes`); checked against the first fold when present.
    registered_bytes: Option<u64>,
    slot: Mutex<GroupSlot>,
    published: Condvar,
}

/// Pre-registered zero-copy aggregation buffers for one
/// [`ExchangeSchedule`] — the shared-memory transport [`train`] and
/// [`train_churn`] fold gradients through.
///
/// **Buffer lifecycle.** Registered once per lowered (executor, exchange)
/// pair — the spans and sizes depend only on the schedule and the net's
/// parameter shapes, never on the pool size, so a registration survives
/// pool churn and is memoized alongside the lowered pair by
/// [`crate::elastic::ElasticDriver`]. Each training step re-arms every
/// slot with that step's scheduled contributor count
/// ([`ExchangeBuffers::begin_step`]), workers fold in
/// ([`ExchangeBuffers::try_contribute`] at the gate,
/// [`ExchangeBuffers::contribute_in_turn`] in the end-of-step drain), and
/// survivors copy the published average out
/// ([`ExchangeBuffers::install`]).
///
/// **Sequencing rule.** Contributions to a group fold in ascending
/// contributor-rank order: position `p` may fold only after positions
/// `0..p` have. A worker at the gate whose turn has not come defers to
/// its drain instead of blocking compute; drains wait. Waits only ever
/// point at lower-ranked contributors, whose own waits point lower
/// still — by induction on rank the protocol is deadlock-free, and the
/// fold order (hence every float operation) is fixed at any thread
/// interleaving: in-place aggregation stays bit-identical to the
/// sequential reference.
///
/// **Failure safety.** `done` is set only after the *complete* fold and
/// scale, under the slot lock; a contributor panicking mid-fold poisons
/// the slot's mutex, so every later touch of that group fails loudly
/// instead of observing (or publishing) a partially-accumulated buffer
/// — the complete-or-abort rule cannot be silently violated
/// ([`ExchangeBuffers::poisoned`] exposes the state).
#[derive(Debug)]
pub struct ExchangeBuffers {
    groups: Vec<GroupBuffer>,
    n_layers: usize,
    n_blocks: usize,
}

impl ExchangeBuffers {
    /// Register one aggregation buffer per group of `xchg` over a net of
    /// `n_layers` layers split at `boundaries`. Validates that the group
    /// spans tile the layer range exactly (no aliasing, no gaps).
    pub fn register(xchg: &ExchangeSchedule, boundaries: &[usize], n_layers: usize) -> Self {
        Self::build(xchg, boundaries, n_layers, None)
    }

    /// [`ExchangeBuffers::register`] with the lowering-time per-block
    /// gradient payload sizes (`crate::bridge::block_grad_bytes`): each
    /// group's buffer records the bytes it must receive, and the first
    /// fold of every step is checked against that registration.
    pub fn register_sized(
        xchg: &ExchangeSchedule,
        boundaries: &[usize],
        n_layers: usize,
        grad_bytes: &[u64],
    ) -> Self {
        assert_eq!(
            grad_bytes.len(),
            xchg.n_blocks(),
            "need one gradient size per block"
        );
        Self::build(xchg, boundaries, n_layers, Some(grad_bytes))
    }

    fn build(
        xchg: &ExchangeSchedule,
        boundaries: &[usize],
        n_layers: usize,
        grad_bytes: Option<&[u64]>,
    ) -> Self {
        assert_eq!(
            boundaries.len(),
            xchg.n_blocks(),
            "exchange schedule / boundary block mismatch"
        );
        let groups: Vec<GroupBuffer> = (0..xchg.n_groups())
            .map(|g| GroupBuffer {
                span: group_span(xchg, g, boundaries, n_layers),
                registered_bytes: grad_bytes
                    .map(|sizes| xchg.groups()[g].iter().map(|&b| sizes[b]).sum::<u64>()),
                slot: Mutex::new(GroupSlot::default()),
                published: Condvar::new(),
            })
            .collect();
        // Groups launch in descending layer order: each span must end
        // exactly where the previous began, the first at the top layer,
        // the last at 0 — a disjoint exact tiling.
        let mut expect_end = n_layers;
        for gb in &groups {
            let (s, e) = gb.span;
            assert!(s < e, "empty group span");
            assert_eq!(e, expect_end, "group spans must tile the layers");
            expect_end = s;
        }
        assert_eq!(expect_end, 0, "group spans must cover layer 0");
        ExchangeBuffers {
            groups,
            n_layers,
            n_blocks: xchg.n_blocks(),
        }
    }

    /// Number of registered group buffers.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Blocks the registered schedule covers.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Layers the registered spans tile.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// The layer span `[start, end)` group `g`'s buffer owns.
    pub fn span(&self, g: usize) -> (usize, usize) {
        self.groups[g].span
    }

    /// Per-group payload bytes promised at registration (launch order),
    /// when sized; `None` for [`ExchangeBuffers::register`]ed buffers.
    pub fn registered_group_bytes(&self) -> Option<Vec<u64>> {
        self.groups.iter().map(|g| g.registered_bytes).collect()
    }

    /// True when any group's slot lock is poisoned — a contributor
    /// panicked mid-fold and the step must not commit.
    pub fn poisoned(&self) -> bool {
        self.groups.iter().any(|g| g.slot.is_poisoned())
    }

    /// Arm every slot for a new step: group `g` expects `expected[g]`
    /// contributions (the step's scheduled contributor count). Clears
    /// arrival counts, publication flags, and timestamps; buffer
    /// allocations are reused.
    pub fn begin_step(&self, expected: &[usize]) {
        assert_eq!(expected.len(), self.groups.len(), "one count per group");
        for (gb, &exp) in self.groups.iter().zip(expected) {
            assert!(exp >= 1, "every group needs a contributor");
            let mut slot = gb.slot.lock().expect("exchange buffer poisoned");
            slot.arrived = 0;
            slot.expected = exp;
            slot.bytes = 0;
            slot.done = false;
            slot.ship = None;
            slot.ready_at = None;
        }
    }

    /// Fold `src` into group `g`'s slot. Caller holds the lock and has
    /// already established it is position `slot.arrived`'s turn.
    fn fold(&self, g: usize, slot: &mut GroupSlot, src: &[ParamGrads], epoch: Instant) {
        let (s, e) = self.groups[g].span;
        assert_eq!(src.len(), e - s, "payload does not match the group span");
        if slot.arrived == 0 {
            slot.ship = Some(epoch.elapsed().as_secs_f64());
            let bytes: usize = src
                .iter()
                .flat_map(|pg| pg.grads.iter())
                .map(Tensor::bytes)
                .sum();
            if let Some(reg) = self.groups[g].registered_bytes {
                assert_eq!(
                    bytes as u64, reg,
                    "group {g} payload does not match its registered size"
                );
            }
            slot.bytes = bytes;
            slot.grads.clear();
            slot.grads.extend_from_slice(src);
        } else {
            for (a, b) in slot.grads.iter_mut().zip(src) {
                for (ta, tb) in a.grads.iter_mut().zip(&b.grads) {
                    ta.axpy(1.0, tb);
                }
            }
        }
        slot.arrived += 1;
        if slot.arrived == slot.expected {
            for pg in &mut slot.grads {
                for t in &mut pg.grads {
                    t.scale(1.0 / slot.expected as f32);
                }
            }
            slot.done = true;
            slot.ready_at = Some(epoch.elapsed().as_secs_f64());
        }
    }

    /// Gate-time fold: if it is position `pos`'s turn (all lower-ranked
    /// contributions already folded), fold `src` in place and return
    /// `true`; otherwise return `false` without blocking — the caller
    /// defers to its end-of-step drain and keeps computing.
    pub fn try_contribute(&self, g: usize, pos: usize, src: &[ParamGrads], epoch: Instant) -> bool {
        let mut slot = self.groups[g]
            .slot
            .lock()
            .expect("exchange buffer poisoned");
        if slot.arrived != pos {
            return false;
        }
        self.fold(g, &mut slot, src, epoch);
        drop(slot);
        self.groups[g].published.notify_all();
        true
    }

    /// Drain-time fold: wait until it is position `pos`'s turn, then fold
    /// `src`. Waits only ever point at lower-ranked contributors —
    /// deadlock-free by rank induction.
    pub fn contribute_in_turn(&self, g: usize, pos: usize, src: &[ParamGrads], epoch: Instant) {
        let mut slot = self.groups[g]
            .slot
            .lock()
            .expect("exchange buffer poisoned");
        while slot.arrived != pos {
            slot = self.groups[g]
                .published
                .wait(slot)
                .expect("exchange buffer poisoned");
        }
        self.fold(g, &mut slot, src, epoch);
        drop(slot);
        self.groups[g].published.notify_all();
    }

    /// Wait for group `g`'s average to publish and copy it into `dst`
    /// (the caller's own span of its gradient buffer).
    pub fn install(&self, g: usize, dst: &mut [ParamGrads]) {
        let mut slot = self.groups[g]
            .slot
            .lock()
            .expect("exchange buffer poisoned");
        while !slot.done {
            slot = self.groups[g]
                .published
                .wait(slot)
                .expect("exchange buffer poisoned");
        }
        dst.clone_from_slice(&slot.grads);
    }

    /// Measured `(ship, ready)` instants per group (seconds from the step
    /// epoch, launch order) of the step last run through these buffers.
    fn timings(&self) -> (Vec<f64>, Vec<f64>) {
        let mut ship = Vec::with_capacity(self.groups.len());
        let mut ready = Vec::with_capacity(self.groups.len());
        for gb in &self.groups {
            let slot = gb.slot.lock().expect("exchange buffer poisoned");
            ship.push(slot.ship.expect("group shipped"));
            ready.push(slot.ready_at.expect("group published"));
        }
        (ship, ready)
    }

    /// Measured payload bytes of one contribution per group.
    fn measured_bytes(&self) -> Vec<usize> {
        self.groups
            .iter()
            .map(|gb| gb.slot.lock().expect("exchange buffer poisoned").bytes)
            .collect()
    }
}

/// Outcome of a data-parallel training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataParallelReport {
    /// Mean worker loss per step.
    pub losses: Vec<f32>,
    /// Final parameter snapshot (identical across replicas): the one
    /// parameter copy a call makes, taken after every replica was checked
    /// in place with [`Sequential::same_params`].
    pub final_snapshot: Vec<f32>,
    /// Aggregate swap traffic across workers and steps.
    pub swapped_bytes: usize,
    /// Aggregate recomputed layers across workers and steps.
    pub recomputed_layers: usize,
    /// Highest per-worker near-memory residency across workers and steps
    /// — replicas run the same schedule on same-shaped shards, so this
    /// must equal the single-worker executed peak (and the bridge's
    /// residency replay): distributed lowering inherits the boundary
    /// eviction contract unchanged.
    pub peak_near_bytes: usize,
    /// Highest per-worker residency in each far-memory tier across
    /// workers and steps (elementwise max, fastest tier first) — the
    /// distributed analogue of [`crate::OocStats::peak_tier_bytes`], and
    /// what each level of the offload stack must provision per replica.
    pub peak_tier_bytes: Vec<usize>,
    /// Gradient-exchange messages (one per group per worker per step).
    pub exchange_messages: usize,
    /// Total gradient payload shipped worker→aggregator, across workers
    /// and steps.
    pub exchanged_bytes: usize,
    /// Payload bytes of one worker's message per group, in launch order
    /// (identical for every worker and step: replicas share shapes).
    pub group_bytes: Vec<usize>,
    /// Measured wall-clock instant each group's first contribution landed
    /// in its buffer (seconds from the step start), per group in launch
    /// order, for the **last executed step**. Empty on the channel
    /// oracle, which records no timing.
    pub group_ship_s: Vec<f64>,
    /// Measured instant each group's average was published (last fold +
    /// scale), same epoch and order as `group_ship_s`.
    pub group_ready_s: Vec<f64>,
    /// Latest backward-pass completion across workers (seconds from the
    /// step start), last executed step.
    pub backward_done_s: f64,
    /// Wall time of the last executed step (seconds).
    pub step_wall_s: f64,
}

/// A planned worker failure inside one training step: the worker at
/// `rank` (its position in the pool *at that step*) dies after shipping
/// `groups_shipped` exchange groups of step `step`. `groups_shipped = 0`
/// kills it before its first message of the step; a value at or above the
/// schedule's group count means it dies only after shipping everything
/// (its replica still leaves the pool, but every group keeps its
/// contribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerFailure {
    /// Step index (relative to the start of the run) the failure hits.
    pub step: usize,
    /// Rank in the pool at that step (after earlier failures re-shard).
    pub rank: usize,
    /// Exchange groups of that step shipped before dying, in launch order.
    pub groups_shipped: usize,
}

/// A static schedule of per-worker, per-step failures — the
/// fault-injection hook of [`train_churn`].
///
/// The plan being static is what makes mid-exchange failure handling
/// deterministic: every participant (and the sequential reference)
/// derives the same per-group contributor sets from it up front, instead
/// of racing on message arrival order. This models a membership protocol
/// that reaches agreement on the failed rank before the survivors commit
/// the step — the same role MPI-ULFM's `shrink` plays in the recovery the
/// paper sketches for its out-of-core data parallelism (Sec. II-B).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    failures: Vec<WorkerFailure>,
}

impl FaultPlan {
    /// The empty plan: no failures, [`train_churn`] degenerates to
    /// [`train`].
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Build a plan, rejecting two failures of the same rank in the same
    /// step (one worker cannot die twice).
    pub fn new(failures: Vec<WorkerFailure>) -> Self {
        for (i, f) in failures.iter().enumerate() {
            assert!(
                !failures[..i]
                    .iter()
                    .any(|g| g.step == f.step && g.rank == f.rank),
                "duplicate failure for rank {} at step {}",
                f.rank,
                f.step
            );
        }
        FaultPlan { failures }
    }

    /// True when the plan schedules no failures.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// All scheduled failures.
    pub fn failures(&self) -> &[WorkerFailure] {
        &self.failures
    }

    /// Failures hitting `step`, as `(rank, groups_shipped)` sorted by
    /// rank.
    pub fn at_step(&self, step: usize) -> Vec<(usize, usize)> {
        let mut hits: Vec<(usize, usize)> = self
            .failures
            .iter()
            .filter(|f| f.step == step)
            .map(|f| (f.rank, f.groups_shipped))
            .collect();
        hits.sort_unstable();
        hits
    }
}

/// The batch-window slice of one [`train_churn`] call: where in the
/// dataset it starts and how it shards.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Sample offset of the first step's global batch (the data cursor a
    /// checkpoint restores).
    pub offset: usize,
    /// Samples per worker per step.
    pub per_worker: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Steps to run.
    pub steps: usize,
}

/// Outcome of a fault-injected data-parallel run ([`train_churn`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnReport {
    /// Mean participant loss per step (dying workers' shard losses count:
    /// they computed them before dying).
    pub losses: Vec<f32>,
    /// Pool size at each step's start.
    pub pool_sizes: Vec<usize>,
    /// Final parameters (identical across surviving replicas, checked
    /// in place; see [`DataParallelReport::final_snapshot`]).
    pub final_snapshot: Vec<f32>,
    /// Aggregate swap traffic across workers and steps.
    pub swapped_bytes: usize,
    /// Aggregate recomputed layers across workers and steps.
    pub recomputed_layers: usize,
    /// Highest per-worker near-memory residency (see
    /// [`DataParallelReport::peak_near_bytes`]).
    pub peak_near_bytes: usize,
    /// Highest per-worker residency per far-memory tier (see
    /// [`DataParallelReport::peak_tier_bytes`]).
    pub peak_tier_bytes: Vec<usize>,
    /// Gradient-exchange messages actually shipped (a dying worker's
    /// unsent groups are missing from this count).
    pub exchange_messages: usize,
    /// Total gradient payload shipped worker→aggregator.
    pub exchanged_bytes: usize,
    /// Payload bytes of one worker's message per group, in launch order.
    pub group_bytes: Vec<usize>,
    /// Exchange groups that lost a scheduled contribution and fell back
    /// to survivor-only averaging (one count per missing contribution).
    pub aborted_groups: usize,
    /// Exchange groups that kept a dying worker's already-shipped
    /// contribution (one count per kept contribution).
    pub completed_with_dead: usize,
    /// Samples the run consumed (dying workers' shards included — their
    /// microbatches are lost to the failure, as in a real run).
    pub samples_consumed: usize,
    /// Measured per-group first-contribution instants of the last
    /// executed step (see [`DataParallelReport::group_ship_s`]).
    pub group_ship_s: Vec<f64>,
    /// Measured per-group average-published instants of the last
    /// executed step (see [`DataParallelReport::group_ready_s`]).
    pub group_ready_s: Vec<f64>,
    /// Latest backward completion across workers, last executed step
    /// (seconds from the step start).
    pub backward_done_s: f64,
    /// Wall time of the last executed step (seconds).
    pub step_wall_s: f64,
}

type GroupMsg = (usize, usize, Vec<ParamGrads>); // (rank, group, grads)
type ReplyChannel = (Sender<Vec<ParamGrads>>, Receiver<Vec<ParamGrads>>);

/// Layer span `[start, end)` covered by `group` (contiguous descending
/// blocks ⇒ contiguous layers from the gate's first to the lead's last).
fn group_span(
    xchg: &ExchangeSchedule,
    group: usize,
    boundaries: &[usize],
    n_layers: usize,
) -> (usize, usize) {
    let blocks = &xchg.groups()[group];
    let lead = blocks[0];
    let gate = *blocks.last().unwrap();
    let start = boundaries[gate];
    let end = boundaries.get(lead + 1).copied().unwrap_or(n_layers);
    (start, end)
}

/// Train `nets` (identical replicas) data-parallel for `steps` steps with
/// the grouped phased gradient exchange.
///
/// Worker `r` consumes shard `r` of each global batch window:
/// `data[start + step*global .. ]` split into `nets.len()` shards of
/// `per_worker` samples. As each exchange group's gate block finishes its
/// backward, the worker ships the group's gradients and continues; the
/// averaged result is installed before the SGD update, so replicas end
/// every step bit-identical (asserted). `nets` are left at the final
/// parameters.
///
/// ```
/// use karma_runtime::dp::{train, ExchangeSchedule};
/// use karma_runtime::exec::{BlockPolicy, OocExecutor};
/// use karma_tensor::{small_cnn, SyntheticDataset};
///
/// let data = SyntheticDataset::classification(64, 1, 16, 4, 33);
/// let mut nets: Vec<_> = (0..2).map(|_| small_cnn(4, 77)).collect();
/// let exec = OocExecutor::new(
///     vec![0, 3, 6],
///     vec![BlockPolicy::Swap, BlockPolicy::Recompute, BlockPolicy::Resident],
///     usize::MAX / 2,
///     nets[0].len(),
/// );
/// // Blocks {2, 1} exchange together as soon as B(1) lands, overlapping
/// // B(0); block 0 ships last.
/// let xchg = ExchangeSchedule::new(vec![vec![2, 1], vec![0]], 3);
/// let report = train(&mut nets, &exec, &xchg, &data, 8, 0.05, 2);
/// // 2 groups × 2 workers × 2 steps:
/// assert_eq!(report.exchange_messages, 8);
/// assert_eq!(report.group_bytes.len(), 2);
/// ```
pub fn train(
    nets: &mut [Sequential],
    exec: &OocExecutor,
    xchg: &ExchangeSchedule,
    data: &SyntheticDataset,
    per_worker: usize,
    lr: f32,
    steps: usize,
) -> DataParallelReport {
    assert!(!nets.is_empty(), "need at least one worker");
    let bufs = ExchangeBuffers::register(xchg, exec.boundaries(), nets[0].len());
    let cfg = ChurnConfig {
        offset: 0,
        per_worker,
        lr,
        steps,
    };
    train_with_buffers(nets, exec, xchg, &bufs, data, &cfg)
}

/// [`train`] over caller-registered [`ExchangeBuffers`] — the entry the
/// lowered path uses, so a registration made once at lowering time (and
/// memoized across pool churn by [`crate::elastic::ElasticDriver`]) is
/// reused step after step instead of rebuilt per call. `cfg` carries the
/// batch offset, per-worker batch size, learning rate and step count.
pub fn train_with_buffers(
    nets: &mut [Sequential],
    exec: &OocExecutor,
    xchg: &ExchangeSchedule,
    bufs: &ExchangeBuffers,
    data: &SyntheticDataset,
    cfg: &ChurnConfig,
) -> DataParallelReport {
    let (report, dead) = run_churn(nets, exec, xchg, bufs, data, cfg, &FaultPlan::none());
    debug_assert!(dead.is_empty(), "empty fault plan killed a worker");
    DataParallelReport {
        losses: report.losses,
        final_snapshot: report.final_snapshot,
        swapped_bytes: report.swapped_bytes,
        recomputed_layers: report.recomputed_layers,
        peak_near_bytes: report.peak_near_bytes,
        peak_tier_bytes: report.peak_tier_bytes,
        exchange_messages: report.exchange_messages,
        exchanged_bytes: report.exchanged_bytes,
        group_bytes: report.group_bytes,
        group_ship_s: report.group_ship_s,
        group_ready_s: report.group_ready_s,
        backward_done_s: report.backward_done_s,
        step_wall_s: report.step_wall_s,
    }
}

/// [`train`] with mid-step worker failures injected from a static
/// [`FaultPlan`] — the churn-safe phased exchange.
///
/// **The complete-or-abort rule.** When worker `r` dies at step `s` after
/// shipping `k` groups, every exchange group decides its aggregation from
/// the plan, not from message timing: group `g` **completes with** `r`'s
/// contribution iff `r` shipped it before dying (`g < k`); otherwise the
/// group **aborts to survivor-only averaging** — it averages over exactly
/// the workers whose contribution was scheduled to arrive, in ascending
/// rank order, divided by that count. Survivors install identical
/// averages either way, so they end the step bit-identical at any thread
/// count (asserted); the sequential emulation of the same rule is
/// [`train_churn_reference`].
///
/// After the step, dead replicas are removed from `nets` and the
/// survivors renumber contiguously in rank order (deterministic
/// contiguous re-sharding); the next step's window shards over the
/// shrunken pool. A step must keep at least one survivor. Ranks in the
/// plan refer to the pool *at the failure's step*.
pub fn train_churn(
    nets: &mut Vec<Sequential>,
    exec: &OocExecutor,
    xchg: &ExchangeSchedule,
    data: &SyntheticDataset,
    cfg: &ChurnConfig,
    faults: &FaultPlan,
) -> ChurnReport {
    assert!(!nets.is_empty(), "need at least one worker");
    let bufs = ExchangeBuffers::register(xchg, exec.boundaries(), nets[0].len());
    train_churn_with_buffers(nets, exec, xchg, &bufs, data, cfg, faults)
}

/// [`train_churn`] over caller-registered [`ExchangeBuffers`] (see
/// [`train_with_buffers`]). The fault-injected path rides the exact same
/// buffers: a dying worker's shipped groups fold normally, its unshipped
/// groups are simply never expected (the static contributor table sets
/// each slot's count up front).
pub fn train_churn_with_buffers(
    nets: &mut Vec<Sequential>,
    exec: &OocExecutor,
    xchg: &ExchangeSchedule,
    bufs: &ExchangeBuffers,
    data: &SyntheticDataset,
    cfg: &ChurnConfig,
    faults: &FaultPlan,
) -> ChurnReport {
    let (report, dead) = run_churn(nets, exec, xchg, bufs, data, cfg, faults);
    for &i in dead.iter().rev() {
        nets.remove(i);
    }
    report
}

/// One worker's step outcome: loss, averaged gradients (`None` for a
/// dying worker, whose update never happens), executor stats, and the
/// worker's backward-completion instant.
type WorkerStep = (f32, Option<Gradients>, OocStats, f64);

/// The engine behind [`train`] and [`train_churn`]: the zero-copy phased
/// exchange over the alive subset of `nets`, applying scheduled failures.
/// Workers fold group gradients in place into `bufs` under the
/// ascending-rank sequencing rule (see [`ExchangeBuffers`]); no
/// aggregator thread, no message copies. Returns the report plus the
/// indices of dead replicas (ascending) for the caller to drop.
fn run_churn(
    nets: &mut [Sequential],
    exec: &OocExecutor,
    xchg: &ExchangeSchedule,
    bufs: &ExchangeBuffers,
    data: &SyntheticDataset,
    cfg: &ChurnConfig,
    faults: &FaultPlan,
) -> (ChurnReport, Vec<usize>) {
    assert!(!nets.is_empty(), "need at least one worker");
    assert_eq!(
        xchg.n_blocks(),
        exec.n_blocks(),
        "exchange schedule / executor block mismatch"
    );
    assert_eq!(
        bufs.n_groups(),
        xchg.n_groups(),
        "buffers registered for a different schedule"
    );
    assert_eq!(
        bufs.n_blocks(),
        xchg.n_blocks(),
        "buffers registered for a different schedule"
    );
    assert_eq!(
        bufs.n_layers(),
        nets[0].len(),
        "buffers registered for a different net"
    );
    // The head is compared with itself too, so a NaN weight fails.
    for n in nets.iter() {
        assert!(n.same_params(&nets[0]), "replicas must start identical");
    }
    let (per_worker, lr) = (cfg.per_worker, cfg.lr);

    let n_groups = xchg.n_groups();
    let n_layers = nets[0].len();
    let boundaries = exec.boundaries().to_vec();
    // Per-block lookup: which group, and is this block its group's gate?
    let mut group_of = vec![0usize; exec.n_blocks()];
    let mut is_gate = vec![false; exec.n_blocks()];
    for (g, blocks) in xchg.groups().iter().enumerate() {
        for &b in blocks {
            group_of[b] = g;
        }
        is_gate[xchg.gate(g)] = true;
    }

    // Alive replicas, as indices into `nets`; rank = position here.
    let mut alive: Vec<usize> = (0..nets.len()).collect();
    let mut dead: Vec<usize> = Vec::new();

    let mut losses = Vec::with_capacity(cfg.steps);
    let mut pool_sizes = Vec::with_capacity(cfg.steps);
    let mut swapped = 0usize;
    let mut recomputed = 0usize;
    let mut peak_near = 0usize;
    let mut peak_tier = vec![0usize; exec.tiers().len()];
    let mut messages = 0usize;
    let mut shipped = 0usize;
    let mut group_bytes = vec![0usize; n_groups];
    let mut aborted = 0usize;
    let mut completed_with_dead = 0usize;
    let mut offset = cfg.offset;
    let mut last_ship: Vec<f64> = Vec::new();
    let mut last_ready: Vec<f64> = Vec::new();
    let mut last_bwd_done = 0.0f64;
    let mut last_step_wall = 0.0f64;

    for step in 0..cfg.steps {
        let workers = alive.len();
        let start = offset;
        assert!(
            start + per_worker * workers <= data.len(),
            "dataset too small: need {} samples",
            start + per_worker * workers
        );

        // Who dies this step, and after how many shipped groups. All
        // complete-or-abort decisions derive from this static table.
        let dying_at = faults.at_step(step);
        for &(rank, _) in &dying_at {
            assert!(rank < workers, "failure rank {rank} outside pool {workers}");
        }
        assert!(
            dying_at.len() < workers,
            "a step must keep at least one survivor"
        );
        let mut death_after: Vec<Option<usize>> = vec![None; workers];
        for &(rank, k) in &dying_at {
            death_after[rank] = Some(k.min(n_groups));
        }
        // Group g's scheduled contributors: survivors always, a dying
        // worker only for the groups it ships before the failure.
        let contributors: Vec<Vec<usize>> = (0..n_groups)
            .map(|g| {
                (0..workers)
                    .filter(|&r| death_after[r].is_none_or(|k| g < k))
                    .collect()
            })
            .collect();
        for &(_, k) in &dying_at {
            let k = k.min(n_groups);
            completed_with_dead += k;
            aborted += n_groups - k;
        }
        // Each rank's fold position per group (its index in the group's
        // contributor list), `None` where it is not scheduled.
        let pos_of: Vec<Vec<Option<usize>>> = (0..workers)
            .map(|r| {
                (0..n_groups)
                    .map(|g| contributors[g].iter().position(|&c| c == r))
                    .collect()
            })
            .collect();
        let expected: Vec<usize> = contributors.iter().map(Vec::len).collect();

        bufs.begin_step(&expected);
        let epoch = Instant::now();

        let mut step_results: Vec<Option<WorkerStep>> = (0..workers).map(|_| None).collect();

        std::thread::scope(|scope| {
            let nets_view: &[Sequential] = nets;
            for (rank, result) in step_results.iter_mut().enumerate() {
                let net = &nets_view[alive[rank]];
                let (group_of, is_gate) = (&group_of, &is_gate);
                let (xchg, boundaries) = (&xchg, &boundaries);
                let my_pos = &pos_of[rank];
                let my_death = death_after[rank];
                scope.spawn(move || {
                    let (x, y): (Tensor, Vec<usize>) = data.shard(start, per_worker, rank);
                    // Blocks finish backward in descending order, so a
                    // group's members arrive consecutively: stage them
                    // and fold at the gate — in place when it is this
                    // rank's turn, deferred to the end-of-step drain
                    // otherwise, so compute never blocks on the exchange.
                    let mut staged: Vec<Vec<ParamGrads>> = Vec::new();
                    let mut deferred: Vec<(usize, Vec<ParamGrads>)> = Vec::new();
                    let (loss, mut grads, stats) = exec.grad_step(net, &x, &y, |b, block_grads| {
                        staged.push(block_grads.to_vec());
                        if is_gate[b] {
                            // Ascending layer order across the group.
                            let payload: Vec<ParamGrads> =
                                staged.drain(..).rev().flatten().collect();
                            let g = group_of[b];
                            // A dying worker contributes only its first
                            // `groups_shipped` groups — it has no fold
                            // position in the others (the contributor
                            // table is static).
                            if let Some(pos) = my_pos[g] {
                                if !bufs.try_contribute(g, pos, &payload, epoch) {
                                    deferred.push((g, payload));
                                }
                            }
                        }
                    });
                    let bwd_done = epoch.elapsed().as_secs_f64();
                    // Drain the deferred folds in launch order; each wait
                    // points only at lower-ranked contributors.
                    for (g, payload) in &deferred {
                        bufs.contribute_in_turn(
                            *g,
                            my_pos[*g].expect("deferred fold"),
                            payload,
                            epoch,
                        );
                    }
                    if my_death.is_none() {
                        // Install the published averages in place.
                        for g in 0..xchg.n_groups() {
                            let (s, e) = group_span(xchg, g, boundaries, n_layers);
                            bufs.install(g, &mut grads.per_layer[s..e]);
                        }
                        *result = Some((loss, Some(grads), stats, bwd_done));
                    } else {
                        // Dead before the update: the loss and the stats
                        // are real (the shard was computed), the weights
                        // never advance.
                        *result = Some((loss, None, stats, bwd_done));
                    }
                });
            }
        });
        last_step_wall = epoch.elapsed().as_secs_f64();

        // Traffic accounting: one contribution per scheduled
        // (rank, group) pair, every contribution the same size.
        let measured = bufs.measured_bytes();
        for g in 0..n_groups {
            messages += contributors[g].len();
            shipped += measured[g] * contributors[g].len();
            group_bytes[g] = measured[g];
        }
        let (ship, ready) = bufs.timings();
        last_ship = ship;
        last_ready = ready;

        let mut step_loss = 0.0f32;
        last_bwd_done = 0.0;
        for (rank, result) in step_results.into_iter().enumerate() {
            let (loss, grads, stats, bwd_done) = result.expect("worker finished");
            if let Some(grads) = grads {
                nets[alive[rank]].apply(&grads, lr);
            }
            step_loss += loss;
            last_bwd_done = last_bwd_done.max(bwd_done);
            swapped += stats.swapped_in_bytes + stats.swapped_out_bytes;
            recomputed += stats.recomputed_layers;
            peak_near = peak_near.max(stats.peak_near_bytes);
            for (p, s) in peak_tier.iter_mut().zip(&stats.peak_tier_bytes) {
                *p = (*p).max(*s);
            }
        }
        losses.push(step_loss / workers as f32);
        pool_sizes.push(workers);
        offset += per_worker * workers;

        // Contiguous re-sharding: drop the dead ranks, survivors keep
        // their relative order and renumber 0..pool.
        for &(rank, _) in dying_at.iter().rev() {
            dead.push(alive.remove(rank));
        }
    }
    dead.sort_unstable();

    for &i in &alive {
        assert!(
            nets[i].same_params(&nets[alive[0]]),
            "replicas diverged — exchange broke determinism"
        );
    }
    let final_snapshot = nets[alive[0]].snapshot();
    let report = ChurnReport {
        losses,
        pool_sizes,
        final_snapshot,
        swapped_bytes: swapped,
        recomputed_layers: recomputed,
        peak_near_bytes: peak_near,
        peak_tier_bytes: peak_tier,
        exchange_messages: messages,
        exchanged_bytes: shipped,
        group_bytes,
        aborted_groups: aborted,
        group_ship_s: last_ship,
        group_ready_s: last_ready,
        backward_done_s: last_bwd_done,
        step_wall_s: last_step_wall,
        completed_with_dead,
        samples_consumed: offset - cfg.offset,
    };
    (report, dead)
}

/// The kept crossbeam-channel transport, as a **bitwise oracle** for the
/// zero-copy path: an independently-implemented engine (aggregator
/// thread, per-rank message buckets, reply channels) whose averaging
/// arithmetic is identical. [`train`] must produce exactly this
/// function's weights, losses, and traffic counts for any schedule,
/// worker count, or thread count. Records no exchange timing (its timing
/// fields are empty).
pub fn train_channel_reference(
    nets: &mut [Sequential],
    exec: &OocExecutor,
    xchg: &ExchangeSchedule,
    data: &SyntheticDataset,
    per_worker: usize,
    lr: f32,
    steps: usize,
) -> DataParallelReport {
    let cfg = ChurnConfig {
        offset: 0,
        per_worker,
        lr,
        steps,
    };
    let (report, dead) = run_churn_channels(nets, exec, xchg, data, &cfg, &FaultPlan::none());
    debug_assert!(dead.is_empty(), "empty fault plan killed a worker");
    DataParallelReport {
        losses: report.losses,
        final_snapshot: report.final_snapshot,
        swapped_bytes: report.swapped_bytes,
        recomputed_layers: report.recomputed_layers,
        peak_near_bytes: report.peak_near_bytes,
        peak_tier_bytes: report.peak_tier_bytes,
        exchange_messages: report.exchange_messages,
        exchanged_bytes: report.exchanged_bytes,
        group_bytes: report.group_bytes,
        group_ship_s: report.group_ship_s,
        group_ready_s: report.group_ready_s,
        backward_done_s: report.backward_done_s,
        step_wall_s: report.step_wall_s,
    }
}

/// [`train_channel_reference`] with fault injection — the channel oracle
/// for [`train_churn`]'s complete-or-abort rule.
pub fn train_churn_channel_reference(
    nets: &mut Vec<Sequential>,
    exec: &OocExecutor,
    xchg: &ExchangeSchedule,
    data: &SyntheticDataset,
    cfg: &ChurnConfig,
    faults: &FaultPlan,
) -> ChurnReport {
    let (report, dead) = run_churn_channels(nets, exec, xchg, data, cfg, faults);
    for &i in dead.iter().rev() {
        nets.remove(i);
    }
    report
}

/// The channel-transport engine behind the oracle entry points: runs the
/// phased exchange through an aggregator thread and crossbeam channels —
/// the pre-zero-copy implementation, kept verbatim for cross-checking.
fn run_churn_channels(
    nets: &mut [Sequential],
    exec: &OocExecutor,
    xchg: &ExchangeSchedule,
    data: &SyntheticDataset,
    cfg: &ChurnConfig,
    faults: &FaultPlan,
) -> (ChurnReport, Vec<usize>) {
    assert!(!nets.is_empty(), "need at least one worker");
    assert_eq!(
        xchg.n_blocks(),
        exec.n_blocks(),
        "exchange schedule / executor block mismatch"
    );
    // The head is compared with itself too, so a NaN weight fails.
    for n in nets.iter() {
        assert!(n.same_params(&nets[0]), "replicas must start identical");
    }
    let (per_worker, lr) = (cfg.per_worker, cfg.lr);

    let n_groups = xchg.n_groups();
    let n_layers = nets[0].len();
    let boundaries = exec.boundaries().to_vec();
    // Per-block lookup: which group, and is this block its group's gate?
    let mut group_of = vec![0usize; exec.n_blocks()];
    let mut is_gate = vec![false; exec.n_blocks()];
    for (g, blocks) in xchg.groups().iter().enumerate() {
        for &b in blocks {
            group_of[b] = g;
        }
        is_gate[xchg.gate(g)] = true;
    }

    // Alive replicas, as indices into `nets`; rank = position here.
    let mut alive: Vec<usize> = (0..nets.len()).collect();
    let mut dead: Vec<usize> = Vec::new();

    let mut losses = Vec::with_capacity(cfg.steps);
    let mut pool_sizes = Vec::with_capacity(cfg.steps);
    let mut swapped = 0usize;
    let mut recomputed = 0usize;
    let mut peak_near = 0usize;
    let mut peak_tier = vec![0usize; exec.tiers().len()];
    let mut messages = 0usize;
    let mut shipped = 0usize;
    let mut group_bytes = vec![0usize; n_groups];
    let mut aborted = 0usize;
    let mut completed_with_dead = 0usize;
    let mut offset = cfg.offset;

    for step in 0..cfg.steps {
        let workers = alive.len();
        let start = offset;
        assert!(
            start + per_worker * workers <= data.len(),
            "dataset too small: need {} samples",
            start + per_worker * workers
        );

        // Who dies this step, and after how many shipped groups. All
        // complete-or-abort decisions derive from this static table.
        let dying_at = faults.at_step(step);
        for &(rank, _) in &dying_at {
            assert!(rank < workers, "failure rank {rank} outside pool {workers}");
        }
        assert!(
            dying_at.len() < workers,
            "a step must keep at least one survivor"
        );
        let mut death_after: Vec<Option<usize>> = vec![None; workers];
        for &(rank, k) in &dying_at {
            death_after[rank] = Some(k.min(n_groups));
        }
        // Group g's scheduled contributors: survivors always, a dying
        // worker only for the groups it ships before the failure.
        let contributors: Vec<Vec<usize>> = (0..n_groups)
            .map(|g| {
                (0..workers)
                    .filter(|&r| death_after[r].is_none_or(|k| g < k))
                    .collect()
            })
            .collect();
        let expected_msgs: usize = contributors.iter().map(Vec::len).sum();
        for &(_, k) in &dying_at {
            let k = k.min(n_groups);
            completed_with_dead += k;
            aborted += n_groups - k;
        }

        // Channels: workers -> aggregator, aggregator -> each worker.
        let (to_agg, from_workers): (Sender<GroupMsg>, Receiver<GroupMsg>) = unbounded();
        let replies: Vec<ReplyChannel> = (0..workers).map(|_| unbounded()).collect();
        let reply_senders: Vec<Sender<Vec<ParamGrads>>> =
            replies.iter().map(|(s, _)| s.clone()).collect();

        // Survivors carry averaged gradients out; dying workers only a
        // loss and stats (their update never happens).
        let mut step_results: Vec<Option<(f32, Option<Gradients>, OocStats)>> =
            (0..workers).map(|_| None).collect();

        let agg_messages = &mut messages;
        let agg_shipped = &mut shipped;
        let agg_group_bytes = &mut group_bytes;
        std::thread::scope(|scope| {
            // Aggregator: groups complete in launch order (each worker
            // ships them in order), but messages from different workers
            // interleave freely — bucket until a group's scheduled
            // contributors all arrived, average in fixed rank order
            // (deterministic), reply to the survivors. This runs while
            // workers are still in their backward phase: the overlap the
            // phased exchange is for.
            let (contributors, death_after) = (&contributors, &death_after);
            scope.spawn(move || {
                let mut buckets: Vec<Vec<Option<Vec<ParamGrads>>>> =
                    vec![vec![None; workers]; n_groups];
                let mut next = 0usize;
                for _ in 0..expected_msgs {
                    let (rank, g, payload) = from_workers.recv().expect("worker died");
                    *agg_messages += 1;
                    let bytes: usize = payload
                        .iter()
                        .flat_map(|pg| pg.grads.iter())
                        .map(Tensor::bytes)
                        .sum();
                    *agg_shipped += bytes;
                    agg_group_bytes[g] = bytes;
                    let prev = buckets[g][rank].replace(payload);
                    assert!(prev.is_none(), "duplicate message for group {g}");
                    while next < n_groups
                        && contributors[next]
                            .iter()
                            .all(|&r| buckets[next][r].is_some())
                    {
                        // Average over the scheduled contributors in fixed
                        // rank order (flatten over the rank-indexed bucket
                        // row preserves it).
                        let mut ranked = std::mem::take(&mut buckets[next]).into_iter().flatten();
                        let mut acc = ranked.next().expect("groups have a contributor");
                        for other in ranked {
                            for (a, b) in acc.iter_mut().zip(&other) {
                                for (ta, tb) in a.grads.iter_mut().zip(&b.grads) {
                                    ta.axpy(1.0, tb);
                                }
                            }
                        }
                        for pg in &mut acc {
                            for t in &mut pg.grads {
                                t.scale(1.0 / contributors[next].len() as f32);
                            }
                        }
                        for (r, s) in reply_senders.iter().enumerate() {
                            if death_after[r].is_none() {
                                s.send(acc.clone()).expect("worker died");
                            }
                        }
                        next += 1;
                    }
                }
            });

            // Workers.
            let nets_view: &[Sequential] = nets;
            for (rank, result) in step_results.iter_mut().enumerate() {
                let net = &nets_view[alive[rank]];
                let to_agg = to_agg.clone();
                let from_agg = replies[rank].1.clone();
                let (group_of, is_gate) = (&group_of, &is_gate);
                let (xchg, boundaries) = (&xchg, &boundaries);
                let my_death = death_after[rank];
                scope.spawn(move || {
                    let (x, y): (Tensor, Vec<usize>) = data.shard(start, per_worker, rank);
                    // Blocks finish backward in descending order, so a
                    // group's members arrive consecutively: stage them
                    // and ship at the gate, without waiting for the
                    // average (it is installed after the step).
                    let mut staged: Vec<Vec<ParamGrads>> = Vec::new();
                    let (loss, mut grads, stats) = exec.grad_step(net, &x, &y, |b, block_grads| {
                        staged.push(block_grads.to_vec());
                        if is_gate[b] {
                            // Ascending layer order across the group.
                            let payload: Vec<ParamGrads> =
                                staged.drain(..).rev().flatten().collect();
                            let g = group_of[b];
                            // A dying worker ships only its first
                            // `groups_shipped` groups; the rest are lost
                            // with it (the aggregator never waits for
                            // them — the fault plan is static).
                            if my_death.is_none_or(|k| g < k) {
                                to_agg.send((rank, g, payload)).expect("aggregator died");
                            }
                        }
                    });
                    if my_death.is_none() {
                        // Install the averages (arriving in launch order).
                        for g in 0..xchg.n_groups() {
                            let avg = from_agg.recv().expect("aggregator died");
                            let (s, e) = group_span(xchg, g, boundaries, n_layers);
                            grads.per_layer[s..e].clone_from_slice(&avg);
                        }
                        *result = Some((loss, Some(grads), stats));
                    } else {
                        // Dead before the update: the loss and the stats
                        // are real (the shard was computed), the weights
                        // never advance.
                        *result = Some((loss, None, stats));
                    }
                });
            }
        });

        let mut step_loss = 0.0f32;
        for (rank, result) in step_results.into_iter().enumerate() {
            let (loss, grads, stats) = result.expect("worker finished");
            if let Some(grads) = grads {
                nets[alive[rank]].apply(&grads, lr);
            }
            step_loss += loss;
            swapped += stats.swapped_in_bytes + stats.swapped_out_bytes;
            recomputed += stats.recomputed_layers;
            peak_near = peak_near.max(stats.peak_near_bytes);
            for (p, s) in peak_tier.iter_mut().zip(&stats.peak_tier_bytes) {
                *p = (*p).max(*s);
            }
        }
        losses.push(step_loss / workers as f32);
        pool_sizes.push(workers);
        offset += per_worker * workers;

        // Contiguous re-sharding: drop the dead ranks, survivors keep
        // their relative order and renumber 0..pool.
        for &(rank, _) in dying_at.iter().rev() {
            dead.push(alive.remove(rank));
        }
    }
    dead.sort_unstable();

    for &i in &alive {
        assert!(
            nets[i].same_params(&nets[alive[0]]),
            "replicas diverged — exchange broke determinism"
        );
    }
    let final_snapshot = nets[alive[0]].snapshot();
    let report = ChurnReport {
        losses,
        pool_sizes,
        final_snapshot,
        swapped_bytes: swapped,
        recomputed_layers: recomputed,
        peak_near_bytes: peak_near,
        peak_tier_bytes: peak_tier,
        exchange_messages: messages,
        exchanged_bytes: shipped,
        group_bytes,
        aborted_groups: aborted,
        completed_with_dead,
        samples_consumed: offset - cfg.offset,
        group_ship_s: Vec::new(),
        group_ready_s: Vec::new(),
        backward_done_s: 0.0,
        step_wall_s: 0.0,
    };
    (report, dead)
}

/// Train `nets` with the original one-message-per-block protocol — the
/// un-merged ([`ExchangeSchedule::per_block`]) special case of [`train`].
pub fn train_data_parallel(
    nets: &mut [Sequential],
    exec: &OocExecutor,
    data: &SyntheticDataset,
    per_worker: usize,
    lr: f32,
    steps: usize,
) -> DataParallelReport {
    let xchg = ExchangeSchedule::per_block(exec.n_blocks());
    train(nets, exec, &xchg, data, per_worker, lr, steps)
}

/// The sequential single-worker emulation of the same `workers`-shard
/// data-parallel step: shard gradients are computed one rank at a time
/// on one thread, accumulated in rank order, and averaged with the exact
/// float operations the aggregator uses. This is the **bitwise
/// reference** for [`train`] — for any worker count, thread count, or
/// exchange grouping, `train` must leave its replicas at exactly the
/// weights this function produces (grouping moves messages, never
/// arithmetic). Returns the per-step mean losses; `net` is left at the
/// final parameters.
pub fn train_reference(
    net: &mut Sequential,
    exec: &OocExecutor,
    data: &SyntheticDataset,
    per_worker: usize,
    workers: usize,
    lr: f32,
    steps: usize,
) -> Vec<f32> {
    let global = per_worker * workers;
    assert!(
        steps * global <= data.len(),
        "dataset too small: need {} samples",
        steps * global
    );
    let mut losses = Vec::with_capacity(steps);
    for step in 0..steps {
        let start = step * global;
        let mut acc: Option<Gradients> = None;
        let mut step_loss = 0.0f32;
        for rank in 0..workers {
            let (x, y) = data.shard(start, per_worker, rank);
            let (loss, grads, _) = exec.grad_step(net, &x, &y, |_, _| {});
            step_loss += loss;
            match &mut acc {
                None => acc = Some(grads),
                Some(a) => a.accumulate(&grads),
            }
        }
        let mut avg = acc.expect("workers >= 1");
        avg.scale(1.0 / workers as f32);
        net.apply(&avg, lr);
        losses.push(step_loss / workers as f32);
    }
    losses
}

/// The sequential single-worker emulation of [`train_churn`]'s
/// complete-or-abort rule — the **bitwise reference** for fault-injected
/// runs, as [`train_reference`] is for fault-free ones. Starting from a
/// `pool`-worker pool, each step computes every participant's shard
/// gradients in rank order on one thread, then averages each exchange
/// group over exactly the contributors the [`FaultPlan`] schedules
/// (ascending rank, divided by the contributor count) with the exact
/// float operations the aggregator uses. `net` plays every surviving
/// replica at once (they stay bit-identical); returns the per-step mean
/// participant losses.
///
/// Unlike the fault-free reference, the grouping *is* arithmetic-bearing
/// here: a worker that died after shipping one of three groups leaves
/// different divisors on each group's average, so the reference needs the
/// [`ExchangeSchedule`] to reproduce the spans.
pub fn train_churn_reference(
    net: &mut Sequential,
    exec: &OocExecutor,
    xchg: &ExchangeSchedule,
    data: &SyntheticDataset,
    cfg: &ChurnConfig,
    pool: usize,
    faults: &FaultPlan,
) -> Vec<f32> {
    assert!(pool >= 1, "need at least one worker");
    let n_layers = net.len();
    let n_groups = xchg.n_groups();
    let boundaries = exec.boundaries().to_vec();
    let mut workers = pool;
    let mut offset = cfg.offset;
    let mut losses = Vec::with_capacity(cfg.steps);
    for step in 0..cfg.steps {
        let dying_at = faults.at_step(step);
        assert!(dying_at.len() < workers, "must keep at least one survivor");
        let mut death_after: Vec<Option<usize>> = vec![None; workers];
        for &(rank, k) in &dying_at {
            assert!(rank < workers, "failure rank {rank} outside pool {workers}");
            death_after[rank] = Some(k.min(n_groups));
        }

        let mut per_rank: Vec<Gradients> = Vec::with_capacity(workers);
        let mut step_loss = 0.0f32;
        for rank in 0..workers {
            let (x, y) = data.shard(offset, cfg.per_worker, rank);
            let (loss, grads, _) = exec.grad_step(net, &x, &y, |_, _| {});
            step_loss += loss;
            per_rank.push(grads);
        }

        // Per group: average over the scheduled contributors with the
        // aggregator's float ops (first contributor's payload, axpy the
        // rest in ascending rank order, one scale at the end).
        let mut installed = Gradients {
            per_layer: vec![ParamGrads::default(); n_layers],
        };
        for g in 0..n_groups {
            let (s, e) = group_span(xchg, g, &boundaries, n_layers);
            let contr: Vec<usize> = (0..workers)
                .filter(|&r| death_after[r].is_none_or(|k| g < k))
                .collect();
            let mut acc: Vec<ParamGrads> = per_rank[contr[0]].per_layer[s..e].to_vec();
            for &r in &contr[1..] {
                for (a, b) in acc.iter_mut().zip(&per_rank[r].per_layer[s..e]) {
                    for (ta, tb) in a.grads.iter_mut().zip(&b.grads) {
                        ta.axpy(1.0, tb);
                    }
                }
            }
            for pg in &mut acc {
                for t in &mut pg.grads {
                    t.scale(1.0 / contr.len() as f32);
                }
            }
            installed.per_layer[s..e].clone_from_slice(&acc);
        }
        net.apply(&installed, cfg.lr);
        losses.push(step_loss / workers as f32);
        offset += cfg.per_worker * workers;
        workers -= dying_at.len();
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::BlockPolicy;
    use karma_tensor::small_cnn;

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::classification(256, 1, 16, 4, 33)
    }

    fn replicas(n: usize) -> Vec<Sequential> {
        (0..n).map(|_| small_cnn(4, 77)).collect()
    }

    fn ooc_exec(n_layers: usize) -> OocExecutor {
        OocExecutor::new(
            vec![0, 3, 6],
            vec![
                BlockPolicy::Swap,
                BlockPolicy::Recompute,
                BlockPolicy::Resident,
            ],
            usize::MAX / 2,
            n_layers,
        )
    }

    #[test]
    fn replicas_stay_identical_and_loss_falls() {
        let data = dataset();
        let mut nets = replicas(4);
        let exec = ooc_exec(nets[0].len());
        let report = train_data_parallel(&mut nets, &exec, &data, 8, 0.05, 6);
        assert_eq!(report.losses.len(), 6);
        assert!(report.losses.last().unwrap() < report.losses.first().unwrap());
        assert!(report.swapped_bytes > 0);
        assert!(report.recomputed_layers > 0);
        assert_eq!(report.exchange_messages, 6 * 4 * 3);
        assert!(report.exchanged_bytes > 0);
        assert_eq!(report.group_bytes.len(), 3);
    }

    #[test]
    fn workers_sharing_io_lanes_match_the_synchronous_run_bitwise() {
        // All workers drive one executor — with lanes armed they share
        // one I/O pool, each step publishing through its own slot store —
        // and must land on the synchronous run's bits.
        let data = dataset();
        let xchg = ExchangeSchedule::new(vec![vec![2, 1], vec![0]], 3);
        let mut sync_nets = replicas(4);
        let exec = ooc_exec(sync_nets[0].len());
        let sync = train(&mut sync_nets, &exec, &xchg, &data, 8, 0.05, 4);
        for lanes in [1usize, 3] {
            let mut nets = replicas(4);
            let exec = ooc_exec(nets[0].len()).with_io_lanes(lanes);
            let report = train(&mut nets, &exec, &xchg, &data, 8, 0.05, 4);
            assert_eq!(
                report.final_snapshot, sync.final_snapshot,
                "{lanes}-lane pool drifted"
            );
            assert_eq!(report.losses, sync.losses);
            assert_eq!(report.exchanged_bytes, sync.exchanged_bytes);
        }
    }

    #[test]
    fn grouping_moves_messages_not_arithmetic() {
        // Per-block vs merged vs bulk grouping: fewer, larger messages,
        // identical bytes, bit-identical weights.
        let data = dataset();
        let schedules = [
            ExchangeSchedule::per_block(3),
            ExchangeSchedule::new(vec![vec![2, 1], vec![0]], 3),
            ExchangeSchedule::bulk(3),
        ];
        let mut snapshots = Vec::new();
        let mut totals = Vec::new();
        for xchg in &schedules {
            let mut nets = replicas(2);
            let exec = ooc_exec(nets[0].len());
            let report = train(&mut nets, &exec, xchg, &data, 8, 0.05, 3);
            assert_eq!(report.exchange_messages, 3 * 2 * xchg.n_groups());
            assert_eq!(report.group_bytes.len(), xchg.n_groups());
            totals.push(report.exchanged_bytes);
            snapshots.push(report.final_snapshot);
        }
        assert_eq!(snapshots[0], snapshots[1], "merged grouping changed bits");
        assert_eq!(snapshots[0], snapshots[2], "bulk grouping changed bits");
        assert_eq!(totals[0], totals[1], "total payload must not change");
        assert_eq!(totals[0], totals[2]);
    }

    #[test]
    fn train_matches_sequential_reference_bitwise() {
        let data = dataset();
        for workers in [1, 2, 4] {
            let mut nets = replicas(workers);
            let exec = ooc_exec(nets[0].len());
            let xchg = ExchangeSchedule::new(vec![vec![2, 1], vec![0]], 3);
            let report = train(&mut nets, &exec, &xchg, &data, 8, 0.05, 3);

            let mut reference = small_cnn(4, 77);
            let ref_losses = train_reference(&mut reference, &exec, &data, 8, workers, 0.05, 3);
            assert_eq!(
                report.final_snapshot,
                reference.snapshot(),
                "{workers} workers diverged from the sequential reference"
            );
            assert_eq!(report.losses, ref_losses);
        }
    }

    #[test]
    fn dp_matches_large_batch_single_worker_closely() {
        // 2 workers × shard 8 with averaged gradients ≈ single worker with
        // batch 16 (identical up to float reassociation in the loss mean).
        let data = dataset();
        let mut nets = replicas(2);
        let exec = ooc_exec(nets[0].len());
        let report = train_data_parallel(&mut nets, &exec, &data, 8, 0.05, 3);

        let mut single = small_cnn(4, 77);
        for step in 0..3 {
            let (x, y) = data.batch(step * 16, 16);
            single.train_step(&x, &y, 0.05);
        }
        let a = report.final_snapshot;
        let b = single.snapshot();
        assert_eq!(a.len(), b.len());
        let max_rel = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs() / y.abs().max(1e-3))
            .fold(0.0f32, f32::max);
        assert!(max_rel < 1e-3, "max relative deviation {max_rel}");
    }

    #[test]
    fn single_worker_dp_is_bitwise_in_core_ooc() {
        // One worker, phased exchange degenerates to a no-op averaging:
        // must equal the plain OOC step exactly.
        let data = dataset();
        let mut nets = replicas(1);
        let exec = ooc_exec(nets[0].len());
        let report = train_data_parallel(&mut nets, &exec, &data, 16, 0.05, 2);

        let mut plain = small_cnn(4, 77);
        for step in 0..2 {
            let (x, y) = data.batch(step * 16, 16);
            exec.train_step(&mut plain, &x, &y, 0.05);
        }
        assert_eq!(report.final_snapshot, plain.snapshot());
    }

    fn churn_cfg(steps: usize) -> ChurnConfig {
        ChurnConfig {
            offset: 0,
            per_worker: 8,
            lr: 0.05,
            steps,
        }
    }

    #[test]
    fn empty_fault_plan_matches_plain_train() {
        let data = dataset();
        let xchg = ExchangeSchedule::new(vec![vec![2, 1], vec![0]], 3);

        let mut plain = replicas(3);
        let exec = ooc_exec(plain[0].len());
        let expected = train(&mut plain, &exec, &xchg, &data, 8, 0.05, 3);

        let mut nets = replicas(3);
        let report = train_churn(
            &mut nets,
            &exec,
            &xchg,
            &data,
            &churn_cfg(3),
            &FaultPlan::none(),
        );
        assert_eq!(report.final_snapshot, expected.final_snapshot);
        assert_eq!(report.losses, expected.losses);
        assert_eq!(report.pool_sizes, vec![3, 3, 3]);
        assert_eq!(report.aborted_groups, 0);
        assert_eq!(report.completed_with_dead, 0);
        assert_eq!(nets.len(), 3);
    }

    #[test]
    fn mid_exchange_failure_matches_the_sequential_reference_bitwise() {
        // Worker 1 of 4 dies at step 1 after shipping group 0 of 2: group
        // 0 completes with its contribution (divisor 4), group 1 aborts
        // to survivor-only averaging (divisor 3). Survivors must land on
        // exactly the reference weights, run after run.
        let data = dataset();
        let xchg = ExchangeSchedule::new(vec![vec![2, 1], vec![0]], 3);
        let faults = FaultPlan::new(vec![WorkerFailure {
            step: 1,
            rank: 1,
            groups_shipped: 1,
        }]);
        let cfg = churn_cfg(3);

        let mut reference = small_cnn(4, 77);
        let exec = ooc_exec(reference.len());
        let ref_losses =
            train_churn_reference(&mut reference, &exec, &xchg, &data, &cfg, 4, &faults);

        for _ in 0..2 {
            let mut nets = replicas(4);
            let report = train_churn(&mut nets, &exec, &xchg, &data, &cfg, &faults);
            assert_eq!(report.final_snapshot, reference.snapshot(), "bit parity");
            assert_eq!(report.losses, ref_losses);
            assert_eq!(report.pool_sizes, vec![4, 4, 3]);
            assert_eq!(report.completed_with_dead, 1);
            assert_eq!(report.aborted_groups, 1);
            assert_eq!(nets.len(), 3, "dead replica dropped from the pool");
            // One message lost: the dead worker's unshipped group 1.
            assert_eq!(report.exchange_messages, 2 * 4 + (2 * 4 - 1) + 2 * 3);
        }
    }

    #[test]
    fn failure_before_first_ship_aborts_every_group() {
        let data = dataset();
        let xchg = ExchangeSchedule::per_block(3);
        let faults = FaultPlan::new(vec![WorkerFailure {
            step: 0,
            rank: 0,
            groups_shipped: 0,
        }]);
        let cfg = churn_cfg(2);

        let mut reference = small_cnn(4, 77);
        let exec = ooc_exec(reference.len());
        let ref_losses =
            train_churn_reference(&mut reference, &exec, &xchg, &data, &cfg, 2, &faults);

        let mut nets = replicas(2);
        let report = train_churn(&mut nets, &exec, &xchg, &data, &cfg, &faults);
        assert_eq!(report.final_snapshot, reference.snapshot());
        assert_eq!(report.losses, ref_losses);
        assert_eq!(report.aborted_groups, 3);
        assert_eq!(report.completed_with_dead, 0);
        assert_eq!(report.pool_sizes, vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one survivor")]
    fn killing_the_whole_pool_in_one_step_is_rejected() {
        let data = dataset();
        let xchg = ExchangeSchedule::per_block(3);
        let faults = FaultPlan::new(vec![
            WorkerFailure {
                step: 0,
                rank: 0,
                groups_shipped: 0,
            },
            WorkerFailure {
                step: 0,
                rank: 1,
                groups_shipped: 0,
            },
        ]);
        let mut nets = replicas(2);
        let exec = ooc_exec(nets[0].len());
        train_churn(&mut nets, &exec, &xchg, &data, &churn_cfg(1), &faults);
    }

    /// Two replicas whose last parameter (the final dense bias's last
    /// element) differs by one ulp.
    fn replicas_one_ulp_apart() -> Vec<Sequential> {
        let mut nets = replicas(2);
        let bias = nets[1].layers.last_mut().unwrap().params_mut().pop();
        let v = bias.unwrap().data.last_mut().unwrap();
        *v = f32::from_bits(v.to_bits() + 1);
        nets
    }

    #[test]
    #[should_panic(expected = "replicas must start identical")]
    fn train_with_buffers_rejects_replicas_one_ulp_apart() {
        let data = dataset();
        let mut nets = replicas_one_ulp_apart();
        let exec = ooc_exec(nets[0].len());
        let xchg = ExchangeSchedule::new(vec![vec![2, 1], vec![0]], 3);
        let bufs = ExchangeBuffers::register(&xchg, exec.boundaries(), nets[0].len());
        train_with_buffers(&mut nets, &exec, &xchg, &bufs, &data, &churn_cfg(1));
    }

    #[test]
    #[should_panic(expected = "replicas must start identical")]
    fn channel_reference_rejects_replicas_one_ulp_apart() {
        let data = dataset();
        let mut nets = replicas_one_ulp_apart();
        let exec = ooc_exec(nets[0].len());
        let xchg = ExchangeSchedule::per_block(3);
        train_channel_reference(&mut nets, &exec, &xchg, &data, 8, 0.05, 1);
    }

    /// A pass-through layer with one scalar weight whose update adds a
    /// per-replica `skew` on top of the exchanged gradient, so replicas
    /// that start identical part after one step.
    struct Skewed {
        w: Tensor,
        skew: f32,
    }

    impl karma_tensor::Layer for Skewed {
        fn forward(&self, x: &Tensor) -> Tensor {
            x.clone()
        }
        fn backward(&self, _x: &Tensor, dy: &Tensor) -> (Tensor, ParamGrads) {
            let grads = vec![Tensor::zeros(&[1])];
            (dy.clone(), ParamGrads { grads })
        }
        fn params(&self) -> Vec<&Tensor> {
            vec![&self.w]
        }
        fn update(&mut self, grads: &ParamGrads, alpha: f32) {
            self.w.data[0] += alpha * grads.grads[0].data[0] + self.skew;
        }
        fn name(&self) -> &'static str {
            "skewed"
        }
    }

    fn skewed_replicas() -> Vec<Sequential> {
        (0..2)
            .map(|rank| {
                let mut net = small_cnn(4, 77);
                net.layers.push(Box::new(Skewed {
                    w: Tensor::zeros(&[1]),
                    skew: rank as f32,
                }));
                net
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "replicas diverged")]
    fn train_catches_replicas_that_diverge() {
        let data = dataset();
        let mut nets = skewed_replicas();
        let exec = ooc_exec(nets[0].len());
        let xchg = ExchangeSchedule::per_block(3);
        train(&mut nets, &exec, &xchg, &data, 8, 0.05, 1);
    }

    #[test]
    #[should_panic(expected = "replicas diverged")]
    fn channel_reference_catches_replicas_that_diverge() {
        let data = dataset();
        let mut nets = skewed_replicas();
        let exec = ooc_exec(nets[0].len());
        let xchg = ExchangeSchedule::per_block(3);
        train_channel_reference(&mut nets, &exec, &xchg, &data, 8, 0.05, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate failure")]
    fn duplicate_failures_are_rejected() {
        let f = WorkerFailure {
            step: 0,
            rank: 0,
            groups_shipped: 0,
        };
        FaultPlan::new(vec![f, f]);
    }

    #[test]
    #[should_panic(expected = "dataset too small")]
    fn dataset_bounds_checked() {
        let data = SyntheticDataset::classification(8, 1, 16, 4, 1);
        let mut nets = replicas(2);
        let exec = ooc_exec(nets[0].len());
        train_data_parallel(&mut nets, &exec, &data, 8, 0.05, 2);
    }

    #[test]
    #[should_panic(expected = "cover every block")]
    fn partial_exchange_coverage_is_rejected() {
        ExchangeSchedule::new(vec![vec![2, 1]], 3);
    }

    #[test]
    #[should_panic(expected = "descending order")]
    fn ascending_groups_are_rejected() {
        ExchangeSchedule::new(vec![vec![1, 2], vec![0]], 3);
    }
}
