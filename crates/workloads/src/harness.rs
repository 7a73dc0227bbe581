//! An algorithm-agnostic, backend-agnostic experiment harness with a
//! first-class **epoch lifecycle**.
//!
//! Every workload driver in this module runs under **either execution
//! backend** behind [`ExecMode`]:
//!
//! * [`ExecMode::Sim`] — the deterministic simulator (any schedule family,
//!   bounded scheduled steps), for adversarial and replayable runs;
//! * [`ExecMode::Real`] — one free-running OS thread per process via
//!   [`wfl_runtime::real`], optionally timed, for throughput and
//!   hardware-race stress.
//!
//! # Epochs
//!
//! The tagged-write idempotence scheme is sound *per heap lifetime*, and
//! each process's attempt serials are finite (`wfl_idem::tag`), so a run
//! that should outlast one tag space proceeds in **epochs**: batches of
//! rounds separated by quiescent resets. [`ExecMode::with_epoch_rounds`]
//! sets the batch length; at every boundary the recorded outcomes are
//! aggregated and safety-checked, the arena is rewound to the pre-root
//! watermark, the per-process tag counters are rewound, and the workload's
//! roots (data structure, outcome slots, the algorithm's lock records) are
//! re-created from scratch via each workload's `re_root` hook. Timed real
//! runs with an epoch length keep opening fresh epochs until the deadline —
//! they run for their full `run_for`, no longer bounded by the tag space —
//! while untimed (and simulator) runs split their fixed round total into
//! deterministic epochs, so epoch-crossing bugs are schedulable and
//! replayable. Without an explicit epoch length every run is a single
//! epoch, exactly the historical behavior.
//!
//! In real mode the epoch boundary is a barrier rendezvous
//! ([`wfl_runtime::epoch::EpochSync`]): workers park, one leader
//! aggregates, checks, resets and re-roots, and everyone resumes. In sim
//! mode epochs are consecutive simulator runs with the reset performed
//! between them on the host thread — same lifecycle, fully deterministic.
//!
//! # Safety checking
//!
//! The drivers record one outcome word per `(process, round)` attempt into
//! the shared heap and derive the post-epoch **safety check from the
//! recorded outcomes** — each lock counter (or meal counter, update
//! counter, list snapshot, bank total) must match exactly what the recorded
//! wins imply. Checks run at *every* epoch boundary and aggregate across
//! epochs ([`HarnessReport::safety_ok`] is the conjunction), so nothing is
//! lost or double-counted across a reset. Every experiment built on this
//! harness is therefore also a mutual-exclusion test — on the simulator
//! *and* on real hardware — which keeps the benchmark numbers honest.

use crate::graph::Graph;
use crate::list::SortedList;
use crate::philosophers;
use wfl_baselines::{
    AttemptOutcome, BlockingMode, BlockingTpl, LockAlgo, NaiveTryLock, TspLock, WflKnown,
    WflUnknown,
};
use wfl_core::{
    Deadline, GiveUp, LockConfig, LockId, LockSpace, Scratch, SpaceLayout, TryLockRequest,
    UnknownConfig,
};
use wfl_delegation::{CcSynch, FcLock};
use wfl_idem::{cell, IdemRun, Registry, TagSource, Thunk, ThunkId};
use wfl_runtime::epoch::{run_epoch_worker, EpochState, EpochSync};
use wfl_runtime::real::{run_threads_epochs, RealConfig};
use wfl_runtime::rng::Pcg;
use wfl_runtime::schedule::{Bursty, PeriodicFaults, RoundRobin, Schedule, SeededRandom, Weighted};
use wfl_runtime::sim::SimBuilder;
use wfl_obs::FixedHistogram;
use wfl_runtime::stats::Bernoulli;
use wfl_runtime::{Addr, AllocMode, Ctx, Event, Heap, History};
use std::sync::{Mutex, RwLock};
use std::time::Duration;

/// Critical section used by the random-conflict workload: increment the
/// counter of every acquired lock (read+write per counter), optionally
/// preceded by `cs_work` padding steps of pure local computation.
pub struct TouchAll {
    /// Maximum locks per attempt (sizes the op log).
    pub max_locks: usize,
    /// Local padding steps executed while the locks are held, before the
    /// counter increments. Models a non-trivial critical section: a
    /// blocking holder occupies its locks for this long, while under wfl
    /// the padding is re-executed by whichever process drives the decided
    /// attempt (helpers pay the work, the op log stays idempotent).
    pub cs_work: u64,
}

impl Thunk for TouchAll {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        for _ in 0..self.cs_work {
            run.ctx().local_step();
        }
        let n = run.arg(0) as usize;
        for i in 0..n {
            let c = Addr::from_word(run.arg(1 + i));
            let v = run.read(c);
            run.write(c, v + 1);
        }
    }
    fn max_ops(&self) -> usize {
        2 * self.max_locks
    }
}

/// Scheduler families for simulated experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Fair round-robin.
    RoundRobin,
    /// Seeded uniform random.
    Random,
    /// Runs of the given length on one process at a time.
    Bursty(u64),
    /// Weights `1, 4, 7, ...` — persistent speed skew across processes.
    WeightedRamp,
    /// Seeded uniform random with periodic injected stalls: in every window
    /// of `period` scheduled slots, one deterministically chosen victim
    /// loses its first `quantum` slots — a lock holder freezing
    /// mid-critical-section (the E16 fault model, sim arm). Deterministic
    /// and oblivious, so fault runs replay exactly.
    RandomFaults {
        /// Window length in scheduled slots.
        period: u64,
        /// Stalled slots per window (`<= period`).
        quantum: u64,
    },
    /// [`SchedKind::Random`], additionally opting the run in to the wfl
    /// combining fast path ([`LockConfig::combine`]). Combining changes the
    /// counted step sequence, so it stays off in sim replays unless the
    /// schedule family names it — recordings under the plain families keep
    /// replaying bit-identically.
    RandomCombining,
    /// [`SchedKind::RandomFaults`] with combining opted in (the E17 sim
    /// fault arm: frozen processes *and* a live combining fast path).
    FaultsCombining {
        /// Window length in scheduled slots.
        period: u64,
        /// Stalled slots per window (`<= period`).
        quantum: u64,
    },
}

impl SchedKind {
    /// Instantiates the schedule for `n` processes (public so external
    /// drivers — the fairness adversary — build schedules from the same
    /// families).
    pub fn build(self, n: usize, seed: u64) -> Box<dyn Schedule> {
        match self {
            SchedKind::RoundRobin => Box::new(RoundRobin::new(n)),
            SchedKind::Random => Box::new(SeededRandom::new(n, seed)),
            SchedKind::Bursty(len) => Box::new(Bursty::new(n, len, seed)),
            SchedKind::WeightedRamp => Box::new(Weighted::new(
                &(0..n as u64).map(|i| 1 + 3 * i).collect::<Vec<_>>(),
                seed,
            )),
            SchedKind::RandomFaults { period, quantum }
            | SchedKind::FaultsCombining { period, quantum } => Box::new(PeriodicFaults::new(
                SeededRandom::new(n, seed),
                n,
                period,
                quantum,
                seed ^ 0x5EED_FA17,
            )),
            SchedKind::RandomCombining => Box::new(SeededRandom::new(n, seed)),
        }
    }

    /// Whether sim runs under this family may use the wfl combining fast
    /// path. The interleaving families are unchanged — opting in only
    /// unmasks [`LockConfig::combine`] in [`ExecMode::Sim`] (real-threads
    /// runs always honor the config; they never claim replayability).
    pub fn allows_combining(self) -> bool {
        matches!(self, SchedKind::RandomCombining | SchedKind::FaultsCombining { .. })
    }
}

/// Which backend executes a workload's process bodies, and how the run is
/// batched into epochs.
///
/// The bodies themselves are identical across backends — they are written
/// against [`Ctx`] — so switching the mode changes *only* who grants steps
/// and where the epoch boundaries fall.
#[derive(Debug, Clone, Copy)]
pub enum ExecMode {
    /// Deterministic simulator.
    Sim {
        /// Schedule family.
        sched: SchedKind,
        /// Scheduled-phase budget **per epoch** (the simulator drains
        /// cooperatively past the budget).
        max_steps: u64,
        /// Rounds per process per epoch (`None` = the whole run is one
        /// epoch). Deterministic, so epoch-crossing bugs are replayable.
        epoch_rounds: Option<usize>,
        /// Per-round own-step deadline budget armed into the attempt's
        /// [`Scratch::deadline`] (`None` = attempts run to a decision, the
        /// historical behavior). See [`ExecMode::with_deadline_steps`].
        deadline_steps: Option<u64>,
        /// Capture a flight-recorder trace of the run (see
        /// [`ExecMode::with_recorder`]).
        recorder: bool,
    },
    /// Free-running OS threads. `threads` must equal the workload's process
    /// count (it is spelled out so a matrix sweep reads naturally). With
    /// `run_for` set, the driver raises the cooperative stop flag at the
    /// deadline and every attempt loop drains; recorded outcomes then cover
    /// a variable number of completed rounds.
    Real {
        /// OS threads == workload processes.
        threads: usize,
        /// Optional wall-clock budget (timed run).
        run_for: Option<Duration>,
        /// Hot-path configuration of the real driver.
        cfg: RealConfig,
        /// Rounds per process per epoch. With `run_for` also set, the run
        /// keeps opening fresh epochs until the deadline — wall-clock
        /// soaks unbounded by the tag space. `None` = single epoch
        /// (historical behavior).
        epoch_rounds: Option<usize>,
        /// Per-round own-step deadline budget (see the `Sim` variant).
        deadline_steps: Option<u64>,
        /// Capture a flight-recorder trace of the run (see
        /// [`ExecMode::with_recorder`]).
        recorder: bool,
    },
}

impl ExecMode {
    /// A simulator mode (single epoch).
    pub fn sim(sched: SchedKind, max_steps: u64) -> ExecMode {
        ExecMode::Sim {
            sched,
            max_steps,
            epoch_rounds: None,
            deadline_steps: None,
            recorder: false,
        }
    }

    /// An untimed real-threads mode with the contention-free hot path.
    pub fn real(threads: usize) -> ExecMode {
        ExecMode::Real {
            threads,
            run_for: None,
            cfg: RealConfig::fast(),
            epoch_rounds: None,
            deadline_steps: None,
            recorder: false,
        }
    }

    /// A timed real-threads mode with the contention-free hot path.
    pub fn real_timed(threads: usize, run_for: Duration) -> ExecMode {
        ExecMode::Real {
            threads,
            run_for: Some(run_for),
            cfg: RealConfig::fast(),
            epoch_rounds: None,
            deadline_steps: None,
            recorder: false,
        }
    }

    /// Batches the run into epochs of `rounds` rounds per process (clamped
    /// to at least 1). See the variant docs for the timed/untimed split.
    pub fn with_epoch_rounds(mut self, rounds: usize) -> ExecMode {
        let r = Some(rounds.max(1));
        match &mut self {
            ExecMode::Sim { epoch_rounds, .. } => *epoch_rounds = r,
            ExecMode::Real { epoch_rounds, .. } => *epoch_rounds = r,
        }
        self
    }

    /// Arms a per-round abort deadline: before every round the driver sets
    /// the attempt's [`Scratch::deadline`] to `steps` own steps from the
    /// round's start, so any single acquisition bails out (releasing
    /// partial acquisitions, descriptor left helpable) instead of
    /// overstaying its SLO. Applies to **all five workloads** — the budget
    /// rides [`Scratch`], untouched by workload-specific round logic.
    pub fn with_deadline_steps(mut self, steps: u64) -> ExecMode {
        let d = Some(steps.max(1));
        match &mut self {
            ExecMode::Sim { deadline_steps, .. } => *deadline_steps = d,
            ExecMode::Real { deadline_steps, .. } => *deadline_steps = d,
        }
        self
    }

    /// Turns on the flight recorder for the run: the driver enables
    /// `wfl_obs::rec` before spawning the processes, the epoch leader
    /// stamps an `EpochBarrier` control event at every boundary, and the
    /// drained [`wfl_obs::TraceSnapshot`] rides back on
    /// [`HarnessReport::trace`]. The recorder is process-global, so traced
    /// runs must not overlap other traced runs in the same process.
    pub fn with_recorder(mut self) -> ExecMode {
        match &mut self {
            ExecMode::Sim { recorder, .. } => *recorder = true,
            ExecMode::Real { recorder, .. } => *recorder = true,
        }
        self
    }

    /// Whether the run captures a flight-recorder trace.
    pub fn recorder(&self) -> bool {
        match self {
            ExecMode::Sim { recorder, .. } | ExecMode::Real { recorder, .. } => *recorder,
        }
    }

    /// The configured epoch length, if any.
    pub fn epoch_rounds(&self) -> Option<usize> {
        match self {
            ExecMode::Sim { epoch_rounds, .. } | ExecMode::Real { epoch_rounds, .. } => *epoch_rounds,
        }
    }

    /// The configured per-round deadline budget, if any.
    pub fn deadline_steps(&self) -> Option<u64> {
        match self {
            ExecMode::Sim { deadline_steps, .. } | ExecMode::Real { deadline_steps, .. } => {
                *deadline_steps
            }
        }
    }

    /// Rounds per process per epoch for a run of `total_rounds`.
    pub fn epoch_len(&self, total_rounds: usize) -> usize {
        self.epoch_rounds().unwrap_or(total_rounds).max(1)
    }

    /// Short label for tables and JSON ("sim" / "real").
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Sim { .. } => "sim",
            ExecMode::Real { .. } => "real",
        }
    }
}

/// Results of a harness run, aggregated across every epoch.
#[derive(Debug, Clone, Default)]
pub struct HarnessReport {
    /// Total attempts made (completed rounds; timed real runs stop early —
    /// or, with epochs, keep going until the deadline).
    pub attempts: u64,
    /// Total successful attempts.
    pub wins: u64,
    /// Per-attempt own-step counts.
    pub steps: FixedHistogram,
    /// Per-process (wins, attempts).
    pub per_pid: Vec<(u64, u64)>,
    /// Whether **every epoch's** workload invariant matched its recorded
    /// outcomes exactly (the mutual-exclusion check).
    pub safety_ok: bool,
    /// Attempts abandoned mid-flight (armed deadline expired, or the stop
    /// flag during a deadline-armed attempt) rather than decided.
    pub aborts: u64,
    /// Abandoned attempts a competitor's helping completed anyway (these
    /// also count as wins); `rescues / aborts` is E16's abandoned-attempt
    /// helping rate.
    pub rescues: u64,
    /// Per-attempt own-step counts of the aborted attempts alone — the
    /// abort *latency* distribution (steps from round start to bailing
    /// out). Its tail against the armed budget is E16's abort-p99 gate.
    pub abort_steps: FixedHistogram,
    /// Wins granted by a combining holder (wfl's [`LockConfig::combine`]
    /// fast path, or a delegation baseline's combiner applying the request)
    /// rather than by the attempt's own competition. A subset of `wins`,
    /// disjoint from `rescues`.
    pub combined_wins: u64,
    /// Batch sizes observed by combining winners: one sample per winner
    /// that applied at least one peer request (the sample is the peer
    /// count). Empty when combining never fired — E17's histogram gate.
    pub combine_batch: FixedHistogram,
    /// Give-up events by reason, indexed by [`GiveUp::index`]: per-attempt
    /// aborts land under `Deadline`/`Stop`; a batch cut short by heap
    /// pressure or the stop flag adds one `HeapLow`/`Stop` event per
    /// process per epoch.
    pub give_up: [u64; GiveUp::COUNT],
    /// Wall-clock duration (real runs only).
    pub wall: Option<Duration>,
    /// Heap lifetimes the run spanned (1 = no epoch batching).
    pub epochs: u64,
    /// Highest arena usage observed at any epoch boundary: words handed
    /// out, summed over every allocation lane.
    pub heap_high_water: usize,
    /// The per-lane breakdown of [`HarnessReport::heap_high_water`]
    /// (index = lane = pid; the trailing entry is the root lane carrying
    /// setup and re-root allocations).
    pub heap_high_water_lanes: Vec<usize>,
    /// Recorded invoke/respond history (empty unless the workload records
    /// one, e.g. [`run_bank_mode_recorded`]).
    pub history: History,
    /// The drained flight-recorder trace ([`ExecMode::with_recorder`]
    /// runs only).
    pub trace: Option<wfl_obs::TraceSnapshot>,
}

impl HarnessReport {
    /// A report of zero epochs over `nprocs` processes: the identity of
    /// [`HarnessReport::merge`].
    fn empty(nprocs: usize) -> HarnessReport {
        HarnessReport { per_pid: vec![(0, 0); nprocs], safety_ok: true, ..Default::default() }
    }

    /// Folds one epoch's report (from [`Outcomes::aggregate`]) into the
    /// whole-run report; `safe` is that epoch's safety verdict. The
    /// run-level fields (wall, high water, history, trace) are set by the
    /// driver once the run ends.
    fn merge(&mut self, epoch: &HarnessReport, safe: bool) {
        self.attempts += epoch.attempts;
        self.wins += epoch.wins;
        self.steps.merge(&epoch.steps);
        for (acc, e) in self.per_pid.iter_mut().zip(&epoch.per_pid) {
            acc.0 += e.0;
            acc.1 += e.1;
        }
        self.safety_ok &= safe;
        self.aborts += epoch.aborts;
        self.rescues += epoch.rescues;
        self.abort_steps.merge(&epoch.abort_steps);
        self.combined_wins += epoch.combined_wins;
        self.combine_batch.merge(&epoch.combine_batch);
        for (acc, e) in self.give_up.iter_mut().zip(&epoch.give_up) {
            *acc += e;
        }
        self.epochs += epoch.epochs;
    }

    /// The success-rate estimator over all attempts.
    pub fn success(&self) -> Bernoulli {
        Bernoulli { successes: self.wins, trials: self.attempts }
    }

    /// Successful acquisitions per wall-clock second (real runs only).
    pub fn wins_per_sec(&self) -> Option<f64> {
        self.wall.map(|w| self.wins as f64 / w.as_secs_f64().max(1e-12))
    }

    /// The meaningful slice of [`HarnessReport::heap_high_water_lanes`]
    /// for reports and JSON: the worker lanes actually used by this run
    /// (one per process) plus the trailing root lane — the heap pads to
    /// its full lane count, which would bury output in zeros.
    pub fn compact_high_water_lanes(&self) -> Vec<usize> {
        let threads = self.per_pid.len();
        if self.heap_high_water_lanes.len() <= threads + 1 {
            return self.heap_high_water_lanes.clone();
        }
        let mut v = self.heap_high_water_lanes[..threads].to_vec();
        v.push(*self.heap_high_water_lanes.last().expect("non-empty lane vector"));
        v
    }

    /// Folds the report into the uniform [`wfl_obs::MetricsSnapshot`] the
    /// shared `wfl_bench` row writer serializes: counters, per-reason
    /// give-up tallies under their stable labels, the step histograms,
    /// and the calibrated wall-clock rates (real runs only;
    /// `steps_per_sec` is total own steps over the wall, the number that
    /// converts step-denominated deadlines into time).
    pub fn metrics(&self) -> wfl_obs::MetricsSnapshot {
        let wall_secs = self.wall.map(|w| w.as_secs_f64().max(1e-12));
        wfl_obs::MetricsSnapshot {
            attempts: self.attempts,
            wins: self.wins,
            aborts: self.aborts,
            rescues: self.rescues,
            combined_wins: self.combined_wins,
            epochs: self.epochs,
            steps: self.steps.clone(),
            abort_steps: self.abort_steps.clone(),
            give_up: GiveUp::all()
                .iter()
                .map(|g| (g.label(), self.give_up[g.index()]))
                .collect(),
            wall_secs,
            steps_per_sec: wall_secs.map(|w| self.steps.sum() as f64 / w),
            wins_per_sec: self.wins_per_sec(),
        }
    }
}

// ---------------------------------------------------------------------------
// Outcome recording
// ---------------------------------------------------------------------------

/// Per-`(process, round)` outcome slots in the shared heap for **one
/// epoch**: 0 = round not run (timed run stopped first), else `1 + bits`
/// with bit 0 = won, bit 1 = aborted, bit 2 = rescued, bit 3 = the stop
/// flag was up when the abort was recorded (classifies the abort reason);
/// plus a parallel word of own-steps per attempt and one batch-exit word
/// per process (0 = ran its full batch, else `1 + GiveUp::index`). The
/// recorder knows its epoch's base round so aggregation reports *global*
/// round numbers, which is what keeps deterministic `(seed, pid, round)`
/// reconstructions exact across resets.
struct Outcomes {
    outcomes: Addr,
    steps: Addr,
    breaks: Addr,
    cap: usize,
    /// Words between consecutive processes' slot regions: `cap` rounded up
    /// to a cache-line multiple, so concurrent recorders never share a
    /// line (false-sharing audit, DESIGN.md §1.3). The bases are
    /// line-aligned, making every `pid * stride` region line-disjoint.
    stride: usize,
    nprocs: usize,
    base_round: usize,
}

/// Outcome-word bits (over `value - 1`).
const OUT_WON: u64 = 1;
const OUT_ABORTED: u64 = 2;
const OUT_RESCUED: u64 = 4;
const OUT_STOPPING: u64 = 8;
/// The win was granted by a combining holder (disjoint from
/// [`OUT_RESCUED`]; implies [`OUT_WON`]).
const OUT_COMBINED: u64 = 16;
/// Bits above this shift carry the winner's combine batch size (peer
/// requests applied while holding; 0 for non-combining wins).
const OUT_PEERS_SHIFT: u32 = 5;

impl Outcomes {
    fn create_root(heap: &Heap, nprocs: usize, cap: usize, base_round: usize) -> Outcomes {
        // One tag base is drawn per attempt, and the tag space is per heap
        // lifetime (= per epoch) — a cap beyond the guaranteed per-process
        // capacity could never be recorded anyway.
        assert!(
            cap <= wfl_idem::tag::MIN_PROCESS_CAPACITY as usize,
            "epoch length {cap} exceeds the per-process tag capacity"
        );
        let stride = cap.next_multiple_of(wfl_runtime::LINE_WORDS);
        Outcomes {
            outcomes: heap.alloc_root_aligned(nprocs * stride),
            steps: heap.alloc_root_aligned(nprocs * stride),
            // One line per process: the break word is written exactly once
            // per epoch, but all processes write it in the same drain
            // window.
            breaks: heap.alloc_root_aligned(nprocs * wfl_runtime::LINE_WORDS),
            cap,
            stride,
            nprocs,
            base_round,
        }
    }

    fn idx(&self, pid: usize, slot: usize) -> u32 {
        (pid * self.stride + slot) as u32
    }

    fn break_idx(&self, pid: usize) -> u32 {
        (pid * wfl_runtime::LINE_WORDS) as u32
    }

    /// Records one attempt (counted heap writes from the process itself).
    /// `slot` is the round index *within this epoch*.
    ///
    /// Release writes, not SeqCst (the §2.2 ordering audit): each slot is
    /// written by exactly one process and read only at the quiescent epoch
    /// boundary, where the barrier's mutex (or the sim host's join)
    /// already provides the happens-before edge — the store needs no
    /// global ordering of its own.
    fn record(&self, ctx: &Ctx<'_>, pid: usize, slot: usize, out: &AttemptOutcome) {
        let idx = self.idx(pid, slot);
        let mut bits = 0u64;
        if out.won {
            bits |= OUT_WON;
        }
        if out.aborted {
            bits |= OUT_ABORTED;
            // Classifies the abort: armed deadlines are the steady-state
            // trigger; the stop flag only rises once the driver drains, and
            // it never falls again, so sampling it here is exact enough to
            // split the per-reason counters.
            if ctx.stop_requested() {
                bits |= OUT_STOPPING;
            }
        }
        if out.rescued {
            bits |= OUT_RESCUED;
        }
        if out.combined {
            bits |= OUT_COMBINED;
        }
        bits |= out.combined_peers << OUT_PEERS_SHIFT;
        ctx.write_rel(self.outcomes.off(idx), 1 + bits);
        ctx.write_rel(self.steps.off(idx), out.steps);
    }

    /// Records why `pid`'s batch ended before running every round (noop
    /// word 0 when the batch completed; the slots are freshly zeroed per
    /// epoch, so only real breaks need a write — but writing
    /// unconditionally keeps the step count schedule-independent).
    fn record_break(&self, ctx: &Ctx<'_>, pid: usize, reason: Option<GiveUp>) {
        let word = reason.map_or(0, |g| 1 + g.index() as u64);
        ctx.write_rel(self.breaks.off(self.break_idx(pid)), word);
    }

    /// Folds this epoch's recorded outcomes into a [`HarnessReport`] (with
    /// `safety_ok` left `true` for the caller to refine), invoking
    /// `on_win(pid, global_round)` for every recorded win so the caller can
    /// reconstruct the workload-specific expectation.
    fn aggregate(&self, heap: &Heap, mut on_win: impl FnMut(usize, usize)) -> HarnessReport {
        let mut r = HarnessReport::empty(self.nprocs);
        r.epochs = 1;
        for (pid, pp) in r.per_pid.iter_mut().enumerate() {
            for slot in 0..self.cap {
                let idx = self.idx(pid, slot);
                let o = heap.peek(self.outcomes.off(idx));
                if o == 0 {
                    continue; // round not run (timed run stopped first)
                }
                let bits = o - 1;
                r.attempts += 1;
                pp.1 += 1;
                let own_steps = heap.peek(self.steps.off(idx));
                r.steps.record(own_steps);
                if bits & OUT_ABORTED != 0 {
                    r.aborts += 1;
                    r.abort_steps.record(own_steps);
                    let reason = if bits & OUT_STOPPING != 0 { GiveUp::Stop } else { GiveUp::Deadline };
                    r.give_up[reason.index()] += 1;
                }
                if bits & OUT_RESCUED != 0 {
                    r.rescues += 1;
                }
                if bits & OUT_COMBINED != 0 {
                    r.combined_wins += 1;
                }
                let peers = bits >> OUT_PEERS_SHIFT;
                if peers > 0 {
                    r.combine_batch.record(peers);
                }
                if bits & OUT_WON != 0 {
                    r.wins += 1;
                    pp.0 += 1;
                    on_win(pid, self.base_round + slot);
                }
            }
            let brk = heap.peek(self.breaks.off(self.break_idx(pid)));
            if brk != 0 {
                let idx = (brk - 1) as usize;
                assert!(idx < GiveUp::COUNT, "corrupt batch-exit word {brk}");
                r.give_up[idx] += 1;
            }
        }
        r
    }
}

// ---------------------------------------------------------------------------
// Algorithm instantiation
// ---------------------------------------------------------------------------

/// Algorithms the harness can instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// The paper's known-bounds algorithm (§6). `kappa` is the contention
    /// bound used for the delays (active sets are always sized at the
    /// process count, which is a valid upper bound).
    Wfl {
        /// Contention bound κ for the delay formulas.
        kappa: usize,
        /// Fixed delays enabled (disable only for the E11 ablation).
        delays: bool,
        /// Helping phase enabled (disable only for the E12 ablation).
        helping: bool,
    },
    /// The §6.2 unknown-bounds variant.
    WflUnknown,
    /// Turek–Shasha–Prakash-style lock-free locks (always succeed).
    Tsp,
    /// Blocking ordered two-phase locking (always succeeds outside of
    /// cooperative shutdown; blocks under crashes).
    Blocking,
    /// Blocking two-phase locking with the cohort/backoff spin discipline
    /// (TTAS + bounded exponential backoff, per Fissile Locks): the honest
    /// blocking comparison point at 16–64 threads, where the naked spin is
    /// a coherence-traffic strawman.
    BlockingCohort,
    /// No-helping tryLock (may fail; never blocks).
    Naive,
    /// The known-bounds algorithm with the combining fast path
    /// ([`LockConfig::combine`]): a winner batches compatible pending
    /// requests before releasing. Wait-freedom and the fairness bound are
    /// untouched — combining only adds extra-early grants.
    WflCombine {
        /// Contention bound κ for the delay formulas.
        kappa: usize,
    },
    /// Flat combining (Hendler et al.): publication array + combiner lock.
    FlatCombining,
    /// CCSynch (Fatourou & Kallimanis): swap-based combining queue.
    CcSynch,
}

impl AlgoKind {
    /// Short name for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AlgoKind::Wfl { .. } => "wfl",
            AlgoKind::WflUnknown => "wfl-unknown",
            AlgoKind::Tsp => "tsp",
            AlgoKind::Blocking => "blocking",
            AlgoKind::BlockingCohort => "blocking-cohort",
            AlgoKind::Naive => "naive",
            AlgoKind::WflCombine { .. } => "wfl+combine",
            AlgoKind::FlatCombining => "fc",
            AlgoKind::CcSynch => "ccsynch",
        }
    }

    /// The five kinds with default wfl parameters (κ = `nprocs`).
    pub fn all(nprocs: usize) -> [AlgoKind; 5] {
        [
            AlgoKind::Wfl { kappa: nprocs.max(2), delays: true, helping: true },
            AlgoKind::WflUnknown,
            AlgoKind::Tsp,
            AlgoKind::Blocking,
            AlgoKind::Naive,
        ]
    }

    /// Every kind the harness can run: [`AlgoKind::all`] plus the cohort
    /// spin discipline, the combining fast path, and both delegation
    /// baselines (the E14 extended matrix / E17 roster).
    pub fn all_extended(nprocs: usize) -> [AlgoKind; 9] {
        let [wfl, unknown, tsp, blocking, naive] = Self::all(nprocs);
        [
            wfl,
            AlgoKind::WflCombine { kappa: nprocs.max(2) },
            unknown,
            tsp,
            blocking,
            AlgoKind::BlockingCohort,
            naive,
            AlgoKind::FlatCombining,
            AlgoKind::CcSynch,
        ]
    }

    /// Parses a [`AlgoKind::label`] back into a kind with default
    /// parameters (κ = `nprocs`) — the `--algos` filter flags.
    pub fn from_label(name: &str, nprocs: usize) -> Option<AlgoKind> {
        Self::all_extended(nprocs).into_iter().find(|k| k.label() == name)
    }
}

/// Everything needed to (re-)create the algorithm under test on a fresh
/// heap: kind, lock-space shape, memory layout, and the known-bounds
/// configuration.
#[derive(Debug, Clone, Copy)]
struct AlgoSpec {
    kind: AlgoKind,
    nlocks: usize,
    aset: usize,
    layout: SpaceLayout,
    cfg: LockConfig,
}

/// The per-epoch heap instantiation of an [`AlgoSpec`]: owns the on-heap
/// lock records (or the lock-word arrays of the baselines) so the epoch
/// boundary can drop and re-create them wholesale.
enum AlgoInstance<'reg> {
    Wfl { space: LockSpace, cfg: LockConfig },
    Unknown { space: LockSpace },
    Tsp(TspLock<'reg>),
    Blocking(BlockingTpl<'reg>),
    Naive(NaiveTryLock<'reg>),
    Fc(FcLock<'reg>),
    Cc(CcSynch<'reg>),
}

impl<'reg> AlgoInstance<'reg> {
    /// `nprocs` sizes the delegation baselines' per-process publication
    /// records; the paper's algorithms use `spec.aset` instead.
    fn create(
        heap: &Heap,
        registry: &'reg Registry,
        spec: &AlgoSpec,
        nprocs: usize,
    ) -> AlgoInstance<'reg> {
        let layout = spec.layout;
        match spec.kind {
            // WflCombine differs only in `spec.cfg.combine` (see
            // `known_cfg`); the heap instantiation is identical.
            AlgoKind::Wfl { .. } | AlgoKind::WflCombine { .. } => AlgoInstance::Wfl {
                space: LockSpace::create_root_with(heap, spec.nlocks, spec.aset, layout),
                cfg: spec.cfg,
            },
            AlgoKind::WflUnknown => AlgoInstance::Unknown {
                space: LockSpace::create_root_with(heap, spec.nlocks, spec.aset, layout),
            },
            AlgoKind::Tsp => AlgoInstance::Tsp(TspLock::create_root_placed(
                heap,
                registry,
                spec.nlocks,
                layout.placement,
            )),
            AlgoKind::Blocking => AlgoInstance::Blocking(BlockingTpl::create_root_placed(
                heap,
                registry,
                spec.nlocks,
                layout.placement,
            )),
            AlgoKind::BlockingCohort => AlgoInstance::Blocking(
                BlockingTpl::create_root_placed(heap, registry, spec.nlocks, layout.placement)
                    .with_mode(BlockingMode::Cohort),
            ),
            AlgoKind::Naive => AlgoInstance::Naive(NaiveTryLock::create_root_placed(
                heap,
                registry,
                spec.nlocks,
                layout.placement,
            )),
            AlgoKind::FlatCombining => AlgoInstance::Fc(FcLock::create_root_placed(
                heap,
                registry,
                nprocs.max(2),
                layout.placement,
            )),
            AlgoKind::CcSynch => AlgoInstance::Cc(CcSynch::create_root_placed(
                heap,
                registry,
                nprocs.max(2),
                layout.placement,
            )),
        }
    }

    /// Lends the instance as a `&dyn LockAlgo` (the paper's algorithms
    /// borrow the space per call; the baselines are the algo themselves).
    fn with<R>(&self, registry: &Registry, f: impl FnOnce(&dyn LockAlgo) -> R) -> R {
        match self {
            AlgoInstance::Wfl { space, cfg } => f(&WflKnown { space, registry, cfg: *cfg }),
            AlgoInstance::Unknown { space } => {
                f(&WflUnknown { space, registry, cfg: UnknownConfig::new() })
            }
            AlgoInstance::Tsp(a) => f(a),
            AlgoInstance::Blocking(a) => f(a),
            AlgoInstance::Naive(a) => f(a),
            AlgoInstance::Fc(a) => f(a),
            AlgoInstance::Cc(a) => f(a),
        }
    }
}

/// A harness hook for **external drivers**: (re-)creates any [`AlgoKind`]
/// on a heap and lends it as a `&dyn LockAlgo`, exactly like the epoch
/// driver does for its own workloads. The `wfl_fairness` adversary
/// subsystem uses this so its victim/competitor loops instantiate
/// algorithms identically to every other experiment (same κ defaulting,
/// same active-set sizing), and so an epoch boundary can drop and re-create
/// the whole thing by building a fresh handle.
pub struct AlgoHandle<'reg> {
    registry: &'reg Registry,
    instance: AlgoInstance<'reg>,
}

impl<'reg> AlgoHandle<'reg> {
    /// Creates the algorithm's heap roots (lock records / lock-word
    /// arrays). `nprocs` is the κ default and active-set size; `l_max` /
    /// `t_max` bound the known-bounds delay formulas.
    pub fn create(
        heap: &Heap,
        registry: &'reg Registry,
        kind: AlgoKind,
        nlocks: usize,
        nprocs: usize,
        l_max: usize,
        t_max: usize,
    ) -> AlgoHandle<'reg> {
        Self::create_with_layout(
            heap,
            registry,
            kind,
            nlocks,
            nprocs,
            l_max,
            t_max,
            SpaceLayout::default(),
        )
    }

    /// [`AlgoHandle::create`] with an explicit memory [`SpaceLayout`]
    /// (layout A/B experiments; everything else uses the default).
    #[allow(clippy::too_many_arguments)]
    pub fn create_with_layout(
        heap: &Heap,
        registry: &'reg Registry,
        kind: AlgoKind,
        nlocks: usize,
        nprocs: usize,
        l_max: usize,
        t_max: usize,
        layout: SpaceLayout,
    ) -> AlgoHandle<'reg> {
        let cfg = known_cfg(kind, nprocs, l_max, t_max);
        let spec = AlgoSpec { kind, nlocks, aset: nprocs.max(2), layout, cfg };
        AlgoHandle { registry, instance: AlgoInstance::create(heap, registry, &spec, nprocs) }
    }

    /// Lends the instance as a `&dyn LockAlgo`.
    pub fn with<R>(&self, f: impl FnOnce(&dyn LockAlgo) -> R) -> R {
        self.instance.with(self.registry, f)
    }
}

/// The known-bounds configuration a workload hands to the harness:
/// the `AlgoKind`'s κ/ablation switches with the workload's `L` and `T`.
fn known_cfg(algo: AlgoKind, default_kappa: usize, l_max: usize, t_max: usize) -> LockConfig {
    let (kappa, delays, helping) = match algo {
        AlgoKind::Wfl { kappa, delays, helping } => (kappa, delays, helping),
        AlgoKind::WflCombine { kappa } => (kappa, true, true),
        _ => (default_kappa, true, true),
    };
    let mut cfg = LockConfig::new(kappa.max(1), l_max, t_max);
    cfg.delays = delays;
    cfg.helping = helping;
    cfg.combine = matches!(algo, AlgoKind::WflCombine { .. });
    cfg
}

// ---------------------------------------------------------------------------
// The generic epoch driver
// ---------------------------------------------------------------------------

/// One workload's epoch-lifecycle hooks. The generic driver
/// ([`drive_epochs`]) owns batching, recording, rendezvous, reset and
/// aggregation; a workload supplies root (re-)creation, per-round behavior
/// and the boundary safety check.
trait EpochWorkload: Sync {
    /// Per-epoch heap roots (shared by every worker through the world
    /// slot).
    type Roots: Send + Sync;
    /// Per-worker per-epoch scratch (request buffers, result cells, ...).
    type Local;

    /// (Re-)creates the workload's heap roots on a fresh (or freshly
    /// reset) arena.
    fn re_root(&self, heap: &Heap) -> Self::Roots;

    /// Builds a worker's per-epoch scratch (may allocate from the heap via
    /// `ctx`; such allocations are reclaimed by the next reset).
    fn local(&self, ctx: &Ctx<'_>, roots: &Self::Roots) -> Self::Local;

    /// Runs one round. `round` is the global round number (deterministic
    /// draws key off it, so behavior varies across epochs); `slot` is the
    /// index within the current epoch.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &self,
        ctx: &Ctx<'_>,
        roots: &Self::Roots,
        local: &mut Self::Local,
        algo: &dyn LockAlgo,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        pid: usize,
        round: usize,
        slot: usize,
    ) -> AttemptOutcome;

    /// Epoch-boundary check at quiescence: aggregate this epoch's recorded
    /// outcomes (via [`Outcomes::aggregate`]) and compare the heap state
    /// against them. Returns the epoch report and whether it was safe.
    fn check(&self, heap: &Heap, roots: &Self::Roots, rec: &Outcomes) -> (HarnessReport, bool);
}

/// A world: everything re-created at each epoch boundary.
struct World<'reg, R> {
    algo: AlgoInstance<'reg>,
    roots: R,
    rec: Outcomes,
}

/// One worker's batch for one epoch: build the per-epoch scratch, run up to
/// `rounds` rounds (bailing at the cooperative stop flag), record each
/// outcome. Shared verbatim by the simulator and real-threads arms of
/// [`drive_epochs`] — the bodies must stay identical across backends.
#[allow(clippy::too_many_arguments)]
fn run_batch<WL: EpochWorkload>(
    ctx: &Ctx<'_>,
    wl: &WL,
    world: &World<'_, WL::Roots>,
    registry: &Registry,
    tags: &mut TagSource,
    scratch: &mut Scratch,
    pid: usize,
    base: usize,
    rounds: usize,
    deadline_steps: Option<u64>,
) {
    // A fresh heap lifetime: the boundary reset (or first-epoch setup) has
    // rewound the lanes, so any latched allocation pressure is stale.
    ctx.reset_heap_low();
    let mut local = wl.local(ctx, &world.roots);
    world.algo.with(registry, |algo| {
        let mut cut_short = None;
        for slot in 0..rounds {
            // Heap pressure ends the batch exactly like the stop flag: the
            // attempt that tapped the reserve has completed and been
            // recorded; nothing new starts until the boundary rewinds the
            // lanes (see `Ctx::heap_low`).
            if ctx.stop_requested() {
                cut_short = Some(GiveUp::Stop);
                break;
            }
            if ctx.heap_low() {
                cut_short = Some(GiveUp::HeapLow);
                break;
            }
            // Arm the per-round SLO: the attempt (any algorithm) bails out
            // once the budget is spent instead of retrying/spinning on.
            if let Some(budget) = deadline_steps {
                scratch.deadline = Deadline::after(ctx, budget);
            }
            let out =
                wl.round(ctx, &world.roots, &mut local, algo, tags, scratch, pid, base + slot, slot);
            world.rec.record(ctx, pid, slot, &out);
        }
        if deadline_steps.is_some() {
            scratch.deadline = Deadline::NEVER;
        }
        world.rec.record_break(ctx, pid, cut_short);
    });
}

/// Runs `wl` for `total_rounds` rounds per process (timed epoch runs:
/// unbounded) under `mode`, driving the full epoch lifecycle on either
/// backend. See the module docs for the protocol.
#[allow(clippy::too_many_arguments)]
fn drive_epochs<WL: EpochWorkload>(
    heap: &Heap,
    registry: &Registry,
    spec: AlgoSpec,
    nprocs: usize,
    seed: u64,
    total_rounds: usize,
    mode: &ExecMode,
    wl: &WL,
) -> HarnessReport {
    // The epoch mark precedes every root: a boundary rewinds *everything*
    // (workload roots, outcome slots, lock records, transients), which is
    // what makes rewinding the tag counters sound.
    let state = EpochState::new(heap);
    let epoch_len = mode.epoch_len(total_rounds);
    let deadline_steps = mode.deadline_steps();
    // The flight recorder is enabled at quiescence, before any process
    // spawns, and drained after the last join — the single points where
    // every ring is guaranteed writer-free. The recorder is global, so a
    // traced run owns it for its whole duration.
    let recording = mode.recorder();
    if recording {
        wfl_obs::rec::enable();
    }
    // Combining is masked in the simulator unless the schedule family opts
    // in: a combining winner takes extra counted steps, so recordings made
    // under the plain families must keep replaying bit-identically
    // (`SchedKind::allows_combining`). Real runs always honor the config.
    let mut spec = spec;
    if let ExecMode::Sim { sched, .. } = *mode {
        spec.cfg.combine &= sched.allows_combining();
    }
    let make_world = |epoch: usize| World {
        algo: AlgoInstance::create(heap, registry, &spec, nprocs),
        roots: wl.re_root(heap),
        rec: Outcomes::create_root(heap, nprocs, epoch_len, epoch * epoch_len),
    };

    let mut report = match *mode {
        ExecMode::Sim { sched, max_steps, .. } => {
            let mut totals = HarnessReport::empty(nprocs);
            let mut events: Vec<Event> = Vec::new();
            let mut epoch = 0usize;
            loop {
                let base = epoch * epoch_len;
                // The loop only opens an epoch while base < total_rounds,
                // so this is >= 1 except in the degenerate total == 0 run
                // (which must execute zero rounds).
                let rounds = epoch_len.min(total_rounds.saturating_sub(base));
                let world = make_world(epoch);
                let world_ref = &world;
                let report = SimBuilder::new(heap, nprocs)
                    .seed(seed)
                    // Re-seed the schedule per epoch so boundaries land at
                    // fresh interleavings (still fully deterministic).
                    .schedule_box(sched.build(nprocs, seed.wrapping_add(epoch as u64)))
                    .max_steps(max_steps)
                    .spawn_all(|pid| {
                        move |ctx: &Ctx| {
                            let mut tags = TagSource::new(pid);
                            let mut scratch = Scratch::new();
                            run_batch(ctx, wl, world_ref, registry, &mut tags, &mut scratch, pid, base, rounds, deadline_steps);
                        }
                    })
                    .run();
                report.assert_clean();
                // Each epoch's sim clock restarts near zero, so events from
                // different epochs must never be mixed into one ordered
                // history: recording is only meaningful inside epoch 0
                // (run_bank_mode_recorded caps itself accordingly).
                debug_assert!(
                    epoch == 0 || report.history.is_empty(),
                    "sim history recorded past epoch 0 would interleave as falsely concurrent"
                );
                events.extend(report.history.events);
                let (erep, safe) = wl.check(heap, &world.roots, &world.rec);
                postmortem_on_failure(epoch, safe);
                totals.merge(&erep, safe);
                // The sim host owns the quiescent gap between epoch runs,
                // so the control ring is writer-free here (the host has no
                // pid or clock of its own — `now` is 0 by convention).
                wfl_obs::rec::record_ctrl(wfl_obs::EventKind::EpochBarrier, 0, epoch as u64);
                epoch += 1;
                if epoch * epoch_len >= total_rounds {
                    state.finish(heap);
                    break;
                }
                state.advance(heap);
            }
            totals.history = History::from_parts(vec![events]);
            totals
        }
        ExecMode::Real { threads, run_for, cfg, epoch_rounds, .. } => {
            assert_eq!(
                threads, nprocs,
                "ExecMode::Real.threads must equal the workload's process count"
            );
            // A timed run with an explicit epoch length keeps opening
            // epochs until the deadline; otherwise the run covers exactly
            // `total_rounds`.
            let unbounded = run_for.is_some() && epoch_rounds.is_some();
            let sync = EpochSync::new(nprocs);
            let slot_world = RwLock::new(make_world(0));
            let totals = Mutex::new(HarnessReport::empty(nprocs));
            let (sync_ref, state_ref, world_ref, totals_ref, make_world_ref) =
                (&sync, &state, &slot_world, &totals, &make_world);
            let report = run_threads_epochs(heap, nprocs, seed, run_for, cfg, &state, &sync, |pid| {
                move |ctx: &Ctx| {
                    let mut tags = TagSource::new(pid);
                    let mut scratch = Scratch::new();
                    run_epoch_worker(
                        ctx,
                        sync_ref,
                        |ctx, epoch| {
                            // A fresh heap lifetime begins: rewind the tag
                            // counters (sound — see the quiescence argument
                            // in DESIGN.md §1.1).
                            tags.reset();
                            let world = world_ref.read().unwrap();
                            let base = epoch as usize * epoch_len;
                            let rounds = if unbounded {
                                epoch_len
                            } else {
                                // The leader only continues while the next
                                // base is below the total, so this is >= 1
                                // except in the degenerate total == 0 run.
                                epoch_len.min(total_rounds.saturating_sub(base))
                            };
                            run_batch(ctx, wl, &world, registry, &mut tags, &mut scratch, pid, base, rounds, deadline_steps);
                        },
                        |ctx, epoch| {
                            // Leader, at quiescence: aggregate + check this
                            // epoch, then either close the run or reset the
                            // arena and re-root the next epoch.
                            let heap = ctx.heap();
                            let mut world = world_ref.write().unwrap();
                            let (erep, safe) = wl.check(heap, &world.roots, &world.rec);
                            postmortem_on_failure(epoch as usize, safe);
                            totals_ref.lock().unwrap().merge(&erep, safe);
                            // The barrier stamp goes on the leader's *own*
                            // ring, not the control ring: the fault
                            // injector thread may be writing control
                            // events concurrently, and pid rings are the
                            // single-writer-safe home for worker emissions.
                            wfl_obs::rec::record(
                                ctx.pid(),
                                wfl_obs::EventKind::EpochBarrier,
                                ctx.now(),
                                ctx.steps(),
                                epoch,
                            );
                            let next_base = (epoch as usize + 1) * epoch_len;
                            let done = ctx.stop_requested()
                                || (!unbounded && next_base >= total_rounds);
                            if done {
                                state_ref.finish(heap);
                                false
                            } else {
                                state_ref.advance(heap);
                                *world = make_world_ref(epoch as usize + 1);
                                true
                            }
                        },
                    );
                }
            });
            report.assert_clean();
            let mut totals = totals.into_inner().unwrap();
            // The driver-stamped epoch count (from the EpochState the
            // leaders advanced) must agree with the boundary merges — a
            // divergence means a worker body skipped the epoch protocol.
            assert_eq!(
                report.epochs, totals.epochs,
                "driver epoch count disagrees with boundary aggregation"
            );
            totals.wall = Some(report.wall);
            totals.history = report.history;
            totals
        }
    };
    report.heap_high_water = state.high_water();
    report.heap_high_water_lanes = state.high_water_lanes();
    if recording {
        wfl_obs::rec::disable();
        report.trace = Some(wfl_obs::rec::snapshot());
    }
    report
}

/// Prints the flight recorder's tail when a recorded run fails its
/// safety check — the postmortem the recorder exists for. A no-op when
/// the recorder is off (every untraced run).
fn postmortem_on_failure(epoch: usize, safe: bool) {
    if !safe && wfl_obs::rec::is_enabled() {
        eprintln!(
            "[wfl-obs] epoch {epoch} safety check FAILED; flight-recorder tail:\n{}",
            wfl_obs::rec::snapshot().postmortem(16)
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic lock-set choice
// ---------------------------------------------------------------------------

/// Allocation-free deterministic lock-set draws: `L` distinct locks,
/// uniform without replacement, as a pure function of `(seed, pid, round)`.
///
/// The draw is a partial Fisher–Yates shuffle over a reusable pool; the
/// swaps are undone after each draw so the mapping is independent of call
/// history (the aggregation pass recomputes the same sets from a fresh
/// picker). In the driver hot loop this replaces a fresh `Vec` plus an
/// O(L²) `contains` scan per attempt.
pub struct LockPicker {
    pool: Vec<u32>,
    swaps: Vec<u32>,
}

impl LockPicker {
    /// A picker over locks `0..nlocks`.
    pub fn new(nlocks: usize) -> LockPicker {
        LockPicker { pool: (0..nlocks as u32).collect(), swaps: Vec::new() }
    }

    /// Writes the sorted lock set for `(seed, pid, round)` into `out`.
    pub fn pick_into(&mut self, seed: u64, pid: usize, round: usize, l: usize, out: &mut Vec<LockId>) {
        let n = self.pool.len();
        assert!(l <= n, "cannot draw {l} distinct locks from {n}");
        let mut rng = Pcg::new(seed ^ 0xD1CE, ((pid as u64) << 32) | round as u64);
        self.swaps.clear();
        for i in 0..l {
            let j = i + rng.below((n - i) as u64) as usize;
            self.pool.swap(i, j);
            self.swaps.push(j as u32);
        }
        out.clear();
        out.extend(self.pool[..l].iter().map(|&c| LockId(c)));
        // Undo the swaps (reverse order) so the pool is the identity again:
        // the mapping must depend only on (seed, pid, round).
        for i in (0..l).rev() {
            self.pool.swap(i, self.swaps[i] as usize);
        }
        out.sort_unstable();
    }
}

/// Deterministic lock-set choice for `(seed, pid, round)`: `L` distinct
/// locks, uniform without replacement, sorted. Convenience wrapper around
/// [`LockPicker`] for cold paths and tests.
pub fn pick_locks(seed: u64, pid: usize, round: usize, nlocks: usize, l: usize) -> Vec<LockId> {
    let mut picker = LockPicker::new(nlocks);
    let mut out = Vec::with_capacity(l);
    picker.pick_into(seed, pid, round, l, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Random-conflict workload
// ---------------------------------------------------------------------------

/// Workload shape for [`run_random_conflict`].
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Number of processes.
    pub nprocs: usize,
    /// Attempts per process (in timed real runs: an upper bound, or with
    /// epochs the per-epoch batch size base).
    pub attempts_per_proc: usize,
    /// Number of locks in the system.
    pub nlocks: usize,
    /// Locks per attempt (`L`).
    pub locks_per_attempt: usize,
    /// Maximum random think time (local steps) between attempts.
    pub think_max: u64,
    /// Critical-section padding steps (see [`TouchAll::cs_work`]).
    /// Default 0: the historical read+write-only critical section.
    pub cs_work: u64,
    /// Workload + schedule seed.
    pub seed: u64,
    /// Scheduler family (used by the [`run_random_conflict`] legacy entry
    /// point, which runs `ExecMode::sim(self.sched, self.max_steps)`).
    pub sched: SchedKind,
    /// Scheduled-phase budget for the legacy entry point.
    pub max_steps: u64,
    /// Heap size in words.
    pub heap_words: usize,
    /// Allocator mode for the arena (default: sharded lanes; `Global`
    /// keeps the historical single bump cursor for the E13 A/B cell).
    pub alloc: AllocMode,
    /// Memory layout of the lock space and baseline lock words (default:
    /// padded + sharded; `SpaceLayout::packed_unified()` is the historical
    /// layout for the E13 A/B cells). Pure address arithmetic — sim replays
    /// are identical under every layout.
    pub layout: SpaceLayout,
}

impl SimSpec {
    /// A reasonable default spec; override fields as needed.
    pub fn new(nprocs: usize, attempts_per_proc: usize, nlocks: usize, locks_per_attempt: usize) -> SimSpec {
        SimSpec {
            nprocs,
            attempts_per_proc,
            nlocks,
            locks_per_attempt,
            think_max: 16,
            cs_work: 0,
            seed: 1,
            sched: SchedKind::Random,
            max_steps: 400_000_000,
            heap_words: 1 << 23,
            alloc: AllocMode::laned(),
            layout: SpaceLayout::default(),
        }
    }

    /// The execution mode the legacy sim-only entry points use.
    pub fn sim_mode(&self) -> ExecMode {
        ExecMode::sim(self.sched, self.max_steps)
    }
}

/// The random-conflict workload behind the epoch hooks.
struct ConflictWl {
    spec: SimSpec,
    touch: ThunkId,
}

impl EpochWorkload for ConflictWl {
    type Roots = Addr; // counters base
    type Local = (LockPicker, Vec<LockId>, Vec<u64>);

    fn re_root(&self, heap: &Heap) -> Addr {
        heap.alloc_root(self.spec.nlocks)
    }

    fn local(&self, _ctx: &Ctx<'_>, _roots: &Addr) -> Self::Local {
        (
            LockPicker::new(self.spec.nlocks),
            Vec::with_capacity(self.spec.locks_per_attempt),
            Vec::with_capacity(1 + self.spec.locks_per_attempt),
        )
    }

    fn round(
        &self,
        ctx: &Ctx<'_>,
        counters: &Addr,
        (picker, locks, args): &mut Self::Local,
        algo: &dyn LockAlgo,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        pid: usize,
        round: usize,
        _slot: usize,
    ) -> AttemptOutcome {
        let s = &self.spec;
        picker.pick_into(s.seed, pid, round, s.locks_per_attempt, locks);
        args.clear();
        args.push(locks.len() as u64);
        args.extend(locks.iter().map(|l| counters.off(l.0).to_word()));
        let req = TryLockRequest { locks, thunk: self.touch, args };
        let out = algo.attempt(ctx, tags, scratch, &req);
        if s.think_max > 0 {
            let think = ctx.rand_below(s.think_max);
            for _ in 0..think {
                ctx.local_step();
            }
        }
        out
    }

    fn check(&self, heap: &Heap, counters: &Addr, rec: &Outcomes) -> (HarnessReport, bool) {
        let s = &self.spec;
        let mut expected = vec![0u64; s.nlocks];
        let mut picker = LockPicker::new(s.nlocks);
        let mut locks: Vec<LockId> = Vec::with_capacity(s.locks_per_attempt);
        let report = rec.aggregate(heap, |pid, round| {
            picker.pick_into(s.seed, pid, round, s.locks_per_attempt, &mut locks);
            for l in &locks {
                expected[l.0 as usize] += 1;
            }
        });
        let safe = (0..s.nlocks)
            .all(|l| cell::value(heap.peek(counters.off(l as u32))) as u64 == expected[l]);
        (report, safe)
    }
}

/// Runs the random-conflict workload in the simulator (legacy entry point;
/// equivalent to [`run_random_conflict_mode`] with [`SimSpec::sim_mode`]).
pub fn run_random_conflict(spec: &SimSpec, algo: AlgoKind) -> HarnessReport {
    run_random_conflict_mode(spec, algo, &spec.sim_mode())
}

/// Runs the random-conflict workload under the given algorithm on either
/// backend and returns aggregated metrics. Safety check (every epoch):
/// each lock's counter must equal the number of *recorded* winning
/// attempts covering it (recomputed from the deterministic
/// `(seed, pid, round)` lock sets).
pub fn run_random_conflict_mode(spec: &SimSpec, algo: AlgoKind, mode: &ExecMode) -> HarnessReport {
    assert!(spec.locks_per_attempt <= spec.nlocks);
    let mut registry = Registry::new();
    let touch = registry.register(TouchAll { max_locks: spec.locks_per_attempt, cs_work: spec.cs_work });
    let heap = Heap::with_mode(spec.heap_words, spec.alloc);
    let cfg = known_cfg(algo, spec.nprocs, spec.locks_per_attempt, 2 * spec.locks_per_attempt);
    let aspec =
        AlgoSpec { kind: algo, nlocks: spec.nlocks, aset: spec.nprocs.max(2), layout: spec.layout, cfg };
    let wl = ConflictWl { spec: *spec, touch };
    drive_epochs(&heap, &registry, aspec, spec.nprocs, spec.seed, spec.attempts_per_proc, mode, &wl)
}

// ---------------------------------------------------------------------------
// Dining philosophers
// ---------------------------------------------------------------------------

/// The philosophers workload behind the epoch hooks.
struct PhilWl {
    n: usize,
    eat: ThunkId,
}

impl EpochWorkload for PhilWl {
    type Roots = philosophers::Table;
    type Local = ();

    fn re_root(&self, heap: &Heap) -> philosophers::Table {
        philosophers::Table::re_root(heap, self.n, self.eat)
    }

    fn local(&self, _ctx: &Ctx<'_>, _roots: &philosophers::Table) {}

    fn round(
        &self,
        ctx: &Ctx<'_>,
        table: &philosophers::Table,
        _local: &mut (),
        algo: &dyn LockAlgo,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        pid: usize,
        _round: usize,
        _slot: usize,
    ) -> AttemptOutcome {
        let out = table.attempt_eat(ctx, algo, tags, scratch, pid);
        let think = ctx.rand_below(24);
        for _ in 0..think {
            ctx.local_step();
        }
        out
    }

    fn check(&self, heap: &Heap, table: &philosophers::Table, rec: &Outcomes) -> (HarnessReport, bool) {
        let report = rec.aggregate(heap, |_pid, _round| {});
        let safe = (0..self.n).all(|i| table.meals_eaten(heap, i) as u64 == report.per_pid[i].0);
        (report, safe)
    }
}

/// Runs the dining-philosophers workload (E4) in the simulator (legacy
/// entry point).
pub fn run_philosophers(
    n: usize,
    attempts: usize,
    seed: u64,
    sched: SchedKind,
    algo: AlgoKind,
    heap_words: usize,
) -> HarnessReport {
    run_philosophers_mode(n, attempts, seed, algo, heap_words, &ExecMode::sim(sched, 600_000_000))
}

/// Runs the dining-philosophers workload on either backend: `n`
/// philosophers, each making up to `attempts` eating attempts per epoch
/// with random think time. Safety check (every epoch): each philosopher's
/// meal counter must equal their recorded wins.
pub fn run_philosophers_mode(
    n: usize,
    attempts: usize,
    seed: u64,
    algo: AlgoKind,
    heap_words: usize,
    mode: &ExecMode,
) -> HarnessReport {
    let mut registry = Registry::new();
    let eat = registry.register(philosophers::EatThunk);
    let heap = Heap::new(heap_words);
    let cfg = known_cfg(algo, 2, 2, 2);
    let aspec = AlgoSpec { kind: algo, nlocks: n, aset: 3, layout: SpaceLayout::default(), cfg };
    let wl = PhilWl { n, eat };
    drive_epochs(&heap, &registry, aspec, n, seed, attempts, mode, &wl)
}

// ---------------------------------------------------------------------------
// Bank transfers
// ---------------------------------------------------------------------------

/// History op code recorded by [`run_bank_mode_recorded`] for a winning
/// transfer. Numerically equal to `wfl_lincheck::regular::MS_INSERT`: a won
/// transfer "inserts" its unique token, so a set-regularity pass against a
/// final getSet synthesized from the *heap-recorded* outcomes cross-checks
/// the real-mode history pipeline against the outcome recording.
pub const BANK_HIST_WIN: u32 = 20;
/// History op code for a losing transfer attempt (ignored by the
/// set-regularity checker; recorded so the event stream covers every
/// attempt).
pub const BANK_HIST_LOSS: u32 = 99;

/// The unique history token for the bank attempt `(pid, global round)`.
pub fn bank_history_token(pid: usize, round: usize) -> u64 {
    ((pid as u64 + 1) << 32) | (round as u64 + 1)
}

/// The bank workload behind the epoch hooks.
struct BankWl {
    accounts: usize,
    initial: u32,
    seed: u64,
    transfer: ThunkId,
    /// Record invoke/respond history events for global rounds below this
    /// bound (0 = off; [`run_bank_mode_recorded`] sets it to the first
    /// epoch's length).
    record_rounds: usize,
    /// Tokens of heap-recorded wins among the recorded rounds, collected at
    /// the epoch boundary (the cross-check oracle).
    win_tokens: Mutex<Vec<u64>>,
}

impl EpochWorkload for BankWl {
    type Roots = crate::bank::Bank;
    type Local = ();

    fn re_root(&self, heap: &Heap) -> crate::bank::Bank {
        crate::bank::Bank::re_root(heap, self.accounts, self.initial, self.transfer)
    }

    fn local(&self, _ctx: &Ctx<'_>, _roots: &crate::bank::Bank) {}

    fn round(
        &self,
        ctx: &Ctx<'_>,
        bank: &crate::bank::Bank,
        _local: &mut (),
        algo: &dyn LockAlgo,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        pid: usize,
        round: usize,
        _slot: usize,
    ) -> AttemptOutcome {
        let mut rng = Pcg::new(self.seed ^ 0xBA2C, ((pid as u64) << 32) | round as u64);
        let a = rng.below(self.accounts as u64) as usize;
        let mut b = rng.below(self.accounts as u64 - 1) as usize;
        if b >= a {
            b += 1;
        }
        let amt = 1 + rng.below(30) as u32;
        let out = bank.attempt_transfer(ctx, algo, tags, scratch, a, b, amt);
        if round < self.record_rounds {
            // Bracket the *known outcome* right after the attempt (a
            // linearization-point-style recording: the transfer has taken
            // effect by now, and the token interval precedes any later
            // audit event). Won attempts are set-regularity inserts;
            // losses use an opcode the checker ignores.
            let op = if out.won { BANK_HIST_WIN } else { BANK_HIST_LOSS };
            ctx.invoke(op, bank_history_token(pid, round), 0);
            ctx.respond(out.won as u64, vec![]);
        }
        let think = ctx.rand_below(16);
        for _ in 0..think {
            ctx.local_step();
        }
        out
    }

    fn check(&self, heap: &Heap, bank: &crate::bank::Bank, rec: &Outcomes) -> (HarnessReport, bool) {
        let mut tokens = Vec::new();
        let report = rec.aggregate(heap, |pid, round| {
            if round < self.record_rounds {
                tokens.push(bank_history_token(pid, round));
            }
        });
        if !tokens.is_empty() {
            self.win_tokens.lock().unwrap().extend(tokens);
        }
        // Conservation: any mutual-exclusion or idempotence failure moves
        // money (schedule-independent, so no win reconstruction needed).
        let safe = bank.total(heap) == (self.accounts as u64) * (self.initial as u64);
        (report, safe)
    }
}

/// Runs the bank-transfer workload on either backend: `nprocs` processes
/// each make up to `rounds` two-account transfers per epoch with
/// deterministic `(seed, pid, round)` account/amount choices. Safety check
/// (every epoch): the sum of all balances equals the initial total
/// (conservation — any mutual-exclusion or idempotence failure moves
/// money).
#[allow(clippy::too_many_arguments)]
pub fn run_bank_mode(
    nprocs: usize,
    accounts: usize,
    rounds: usize,
    initial: u32,
    seed: u64,
    algo: AlgoKind,
    heap_words: usize,
    mode: &ExecMode,
) -> HarnessReport {
    run_bank_inner(nprocs, accounts, rounds, initial, seed, algo, heap_words, mode, false).0
}

/// Like [`run_bank_mode`], but records a history of the **first epoch**'s
/// transfer attempts (invoke/respond events with [`BANK_HIST_WIN`] /
/// [`BANK_HIST_LOSS`] opcodes) and returns the [`bank_history_token`]s of
/// the first epoch's heap-recorded wins alongside the report. Feed the
/// history plus a synthetic final getSet built from the tokens to
/// `wfl_lincheck::regular` to cross-check the real-mode history pipeline
/// (use [`RealConfig::precise`] so event timestamps are globally ordered).
#[allow(clippy::too_many_arguments)]
pub fn run_bank_mode_recorded(
    nprocs: usize,
    accounts: usize,
    rounds: usize,
    initial: u32,
    seed: u64,
    algo: AlgoKind,
    heap_words: usize,
    mode: &ExecMode,
) -> (HarnessReport, Vec<u64>) {
    run_bank_inner(nprocs, accounts, rounds, initial, seed, algo, heap_words, mode, true)
}

#[allow(clippy::too_many_arguments)]
fn run_bank_inner(
    nprocs: usize,
    accounts: usize,
    rounds: usize,
    initial: u32,
    seed: u64,
    algo: AlgoKind,
    heap_words: usize,
    mode: &ExecMode,
    record_first_epoch: bool,
) -> (HarnessReport, Vec<u64>) {
    assert!(accounts >= 2);
    let mut registry = Registry::new();
    let transfer = registry.register(crate::bank::TransferThunk);
    let heap = Heap::new(heap_words);
    let cfg = known_cfg(algo, nprocs, 2, 4);
    let aspec = AlgoSpec {
        kind: algo,
        nlocks: accounts,
        aset: nprocs.max(2),
        layout: SpaceLayout::default(),
        cfg,
    };
    let wl = BankWl {
        accounts,
        initial,
        seed,
        transfer,
        record_rounds: if record_first_epoch { mode.epoch_len(rounds) } else { 0 },
        win_tokens: Mutex::new(Vec::new()),
    };
    let report = drive_epochs(&heap, &registry, aspec, nprocs, seed, rounds, mode, &wl);
    let tokens = wl.win_tokens.into_inner().unwrap();
    (report, tokens)
}

// ---------------------------------------------------------------------------
// Sorted list
// ---------------------------------------------------------------------------

/// Per-operation tryLock attempt budget for the list workload (each retry
/// draws one tag, so `keys_per_epoch * LIST_ATTEMPT_BUDGET` must stay
/// inside the per-process tag space of one epoch).
const LIST_ATTEMPT_BUDGET: u64 = 64;

/// The sorted-list workload behind the epoch hooks. Each epoch builds a
/// fresh list; pool slots and keys are keyed off the *in-epoch* slot, so
/// every epoch inserts the same key set into its own lifetime.
struct ListWl {
    nprocs: usize,
    keys_per_epoch: usize,
    insert_thunk: ThunkId,
    delete_thunk: ThunkId,
}

impl ListWl {
    /// Interleave keys across processes so splice points genuinely contend.
    fn key_of(&self, pid: usize, slot: usize) -> u32 {
        (1 + slot * self.nprocs + pid) as u32 * 10 + 3
    }

    fn node_of(&self, pid: usize, slot: usize) -> u32 {
        (1 + pid * self.keys_per_epoch + slot) as u32
    }
}

impl EpochWorkload for ListWl {
    type Roots = SortedList;
    type Local = Addr; // per-worker result cell

    fn re_root(&self, heap: &Heap) -> SortedList {
        let pool = 1 + self.nprocs * self.keys_per_epoch;
        // Thunks are registered by the runner; only the heap pool is
        // re-created per epoch.
        SortedList::re_root(heap, pool, self.insert_thunk, self.delete_thunk)
    }

    fn local(&self, ctx: &Ctx<'_>, _roots: &SortedList) -> Addr {
        ctx.alloc(1)
    }

    fn round(
        &self,
        ctx: &Ctx<'_>,
        list: &SortedList,
        result_cell: &mut Addr,
        algo: &dyn LockAlgo,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        pid: usize,
        _round: usize,
        slot: usize,
    ) -> AttemptOutcome {
        let start = ctx.steps();
        let r = list.insert(
            ctx,
            algo,
            tags,
            scratch,
            *result_cell,
            self.node_of(pid, slot),
            self.key_of(pid, slot),
            LIST_ATTEMPT_BUDGET,
        );
        AttemptOutcome::decided(r == Some(true), ctx.steps() - start)
    }

    fn check(&self, heap: &Heap, list: &SortedList, rec: &Outcomes) -> (HarnessReport, bool) {
        let mut expected: Vec<u32> = Vec::new();
        let epoch_len = rec.cap;
        let report = rec.aggregate(heap, |pid, round| {
            expected.push(self.key_of(pid, round % epoch_len.max(1)));
        });
        expected.sort_unstable();
        let safe = list.snapshot(heap) == expected;
        (report, safe)
    }
}

/// Runs the sorted-list workload on either backend: each process inserts
/// `keys_per_proc` globally-unique keys per epoch (dedicated pool slots, so
/// the only contention is on adjacent splice points). Safety check (every
/// epoch): the final list snapshot is exactly the sorted set of keys whose
/// inserts were recorded as wins.
pub fn run_list_mode(
    nprocs: usize,
    keys_per_proc: usize,
    seed: u64,
    algo: AlgoKind,
    heap_words: usize,
    mode: &ExecMode,
) -> HarnessReport {
    let keys_per_epoch = mode.epoch_len(keys_per_proc);
    // Unlike the one-tag-per-round workloads, each list round may draw up
    // to LIST_ATTEMPT_BUDGET tags (one per tryLock retry) — bound each
    // epoch against the per-process tag space up front.
    assert!(
        (keys_per_epoch as u64) * LIST_ATTEMPT_BUDGET
            <= wfl_idem::tag::MIN_PROCESS_CAPACITY as u64,
        "keys/epoch {keys_per_epoch} x retry budget {LIST_ATTEMPT_BUDGET} exceeds the tag space"
    );
    let mut registry = Registry::new();
    let insert = registry.register(crate::list::InsertThunk);
    let delete = registry.register(crate::list::DeleteThunk);
    let pool = 1 + nprocs * keys_per_epoch;
    let heap = Heap::new(heap_words);
    let cfg = known_cfg(algo, nprocs, 2, 4);
    let aspec = AlgoSpec {
        kind: algo,
        nlocks: pool,
        aset: nprocs.max(2),
        layout: SpaceLayout::default(),
        cfg,
    };
    let wl = ListWl { nprocs, keys_per_epoch, insert_thunk: insert, delete_thunk: delete };
    drive_epochs(&heap, &registry, aspec, nprocs, seed, keys_per_proc, mode, &wl)
}

// ---------------------------------------------------------------------------
// Graph relaxations
// ---------------------------------------------------------------------------

/// The graph workload behind the epoch hooks.
struct GraphWl {
    vertices: usize,
    seed: u64,
    relax: ThunkId,
    init: Vec<u32>,
}

impl GraphWl {
    fn vertex_of(&self, pid: usize, round: usize) -> usize {
        Pcg::new(self.seed ^ 0x62AF, ((pid as u64) << 32) | round as u64)
            .below(self.vertices as u64) as usize
    }
}

impl EpochWorkload for GraphWl {
    type Roots = Graph;
    /// Pre-built per-vertex request buffers (the ring is small; attempts
    /// stay allocation-free inside the epoch).
    type Local = Vec<(Vec<LockId>, Vec<u64>)>;

    fn re_root(&self, heap: &Heap) -> Graph {
        Graph::ring_rooted(heap, self.vertices, &self.init, self.relax)
    }

    fn local(&self, _ctx: &Ctx<'_>, graph: &Graph) -> Self::Local {
        (0..self.vertices)
            .map(|v| {
                let mut args = Vec::new();
                graph.relax_args(v, &mut args);
                (graph.lock_set(v), args)
            })
            .collect()
    }

    fn round(
        &self,
        ctx: &Ctx<'_>,
        graph: &Graph,
        reqs: &mut Self::Local,
        algo: &dyn LockAlgo,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        pid: usize,
        round: usize,
        _slot: usize,
    ) -> AttemptOutcome {
        let (locks, args) = &reqs[self.vertex_of(pid, round)];
        let req = TryLockRequest { locks, thunk: graph.relax, args };
        algo.attempt(ctx, tags, scratch, &req)
    }

    fn check(&self, heap: &Heap, graph: &Graph, rec: &Outcomes) -> (HarnessReport, bool) {
        let mut expected = vec![0u64; self.vertices];
        let report = rec.aggregate(heap, |pid, round| {
            expected[self.vertex_of(pid, round)] += 1;
        });
        let safe = (0..self.vertices).all(|v| graph.updates(heap, v) as u64 == expected[v]);
        (report, safe)
    }
}

/// Runs the graph workload on either backend: a ring of `vertices`, each
/// process making up to `rounds` relax attempts per epoch on deterministic
/// `(seed, pid, round)` vertices (`L = 3`: the vertex and both neighbors).
/// Safety check (every epoch): every vertex's lock-protected update counter
/// equals the number of recorded wins targeting it.
#[allow(clippy::too_many_arguments)]
pub fn run_graph_mode(
    nprocs: usize,
    vertices: usize,
    rounds: usize,
    seed: u64,
    algo: AlgoKind,
    heap_words: usize,
    mode: &ExecMode,
) -> HarnessReport {
    assert!(vertices >= 3);
    let mut registry = Registry::new();
    let relax = registry.register(crate::graph::RelaxThunk { max_degree: 2 });
    let heap = Heap::new(heap_words);
    let cfg = known_cfg(algo, nprocs, 3, 5);
    let aspec = AlgoSpec {
        kind: algo,
        nlocks: vertices,
        aset: nprocs.max(2),
        layout: SpaceLayout::default(),
        cfg,
    };
    let wl = GraphWl { vertices, seed, relax, init: vec![1u32; vertices] };
    drive_epochs(&heap, &registry, aspec, nprocs, seed, rounds, mode, &wl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_locks_is_deterministic_distinct_sorted() {
        let a = pick_locks(5, 2, 7, 10, 3);
        let b = pick_locks(5, 2, 7, 10, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, a, "locks must be sorted and distinct");
    }

    #[test]
    fn lock_picker_matches_one_shot_and_is_history_independent() {
        // The reusable picker must give the same set regardless of what it
        // drew before (the aggregation pass recomputes with a fresh one).
        let mut picker = LockPicker::new(12);
        let mut out = Vec::new();
        picker.pick_into(9, 1, 4, 5, &mut out);
        let first = out.clone();
        for (pid, round) in [(0usize, 0usize), (3, 17), (2, 2)] {
            picker.pick_into(9, pid, round, 5, &mut out);
            assert_eq!(out, pick_locks(9, pid, round, 12, 5));
        }
        picker.pick_into(9, 1, 4, 5, &mut out);
        assert_eq!(out, first, "picker state leaked between draws");
    }

    #[test]
    fn lock_picker_draws_full_pool() {
        let mut picker = LockPicker::new(6);
        let mut out = Vec::new();
        picker.pick_into(3, 0, 0, 6, &mut out);
        assert_eq!(out, (0..6).map(LockId).collect::<Vec<_>>());
    }

    #[test]
    fn harness_runs_wfl_and_checks_safety() {
        let mut spec = SimSpec::new(3, 4, 3, 2);
        spec.seed = 11;
        let r = run_random_conflict(&spec, AlgoKind::Wfl { kappa: 3, delays: false, helping: true });
        assert!(r.safety_ok, "harness safety check failed");
        assert_eq!(r.attempts, 12);
        assert!(r.wins >= 1);
        assert_eq!(r.per_pid.len(), 3);
        assert!(r.wall.is_none(), "sim runs have no wall clock");
        assert_eq!(r.epochs, 1, "no epoch batching requested");
        assert!(r.heap_high_water > 0);
    }

    #[test]
    fn harness_runs_all_baselines() {
        for algo in [AlgoKind::Tsp, AlgoKind::Blocking, AlgoKind::Naive, AlgoKind::WflUnknown] {
            let mut spec = SimSpec::new(3, 3, 3, 2);
            spec.seed = 21;
            let r = run_random_conflict(&spec, algo);
            assert!(r.safety_ok, "{algo:?}: safety check failed");
            assert_eq!(r.attempts, 9, "{algo:?}");
            if matches!(algo, AlgoKind::Tsp | AlgoKind::Blocking) {
                assert_eq!(r.wins, 9, "{algo:?}: blocking-style algorithms always succeed");
            }
        }
    }

    #[test]
    fn blocking_cohort_always_wins_and_is_labeled() {
        assert_eq!(AlgoKind::BlockingCohort.label(), "blocking-cohort");
        let mut spec = SimSpec::new(3, 3, 3, 2);
        spec.seed = 21;
        let r = run_random_conflict(&spec, AlgoKind::BlockingCohort);
        assert!(r.safety_ok, "cohort safety check failed");
        assert_eq!(r.attempts, 9);
        assert_eq!(r.wins, 9, "blocking-style algorithms always succeed");
    }

    #[test]
    fn extended_roster_labels_round_trip() {
        for kind in AlgoKind::all_extended(4) {
            assert_eq!(
                AlgoKind::from_label(kind.label(), 4),
                Some(kind),
                "{kind:?}: label does not round-trip"
            );
        }
        assert_eq!(AlgoKind::from_label("nope", 4), None);
        assert_eq!(AlgoKind::FlatCombining.label(), "fc");
        assert_eq!(AlgoKind::CcSynch.label(), "ccsynch");
        assert_eq!(AlgoKind::WflCombine { kappa: 4 }.label(), "wfl+combine");
    }

    #[test]
    fn delegation_baselines_pass_harness_safety_checks() {
        for algo in [AlgoKind::FlatCombining, AlgoKind::CcSynch] {
            let mut spec = SimSpec::new(3, 4, 3, 2);
            spec.seed = 41;
            let r = run_random_conflict(&spec, algo);
            assert!(r.safety_ok, "{algo:?}: safety check failed");
            assert_eq!(r.attempts, 12, "{algo:?}");
            assert_eq!(r.wins, 12, "{algo:?}: the combiner applies every request");
            assert!(
                r.combined_wins > 0,
                "{algo:?}: some request must have been applied by another's combiner"
            );
        }
    }

    #[test]
    fn wfl_combine_is_masked_under_plain_sim_schedules() {
        // Replay-compat contract: under a schedule family that does not
        // opt in, WflCombine must be bit-identical to plain Wfl — the
        // combining fast path changes the counted step sequence, so it
        // only runs when the family names it.
        let run = |algo: AlgoKind| {
            let mut spec = SimSpec::new(4, 6, 4, 2);
            spec.seed = 77;
            spec.think_max = 0;
            let r = run_random_conflict(&spec, algo);
            assert!(r.safety_ok, "{algo:?}");
            (r.attempts, r.wins, r.aborts, r.steps.max(), r.steps.mean().to_bits(), r.per_pid.clone())
        };
        let plain = run(AlgoKind::Wfl { kappa: 4, delays: true, helping: true });
        let combine = run(AlgoKind::WflCombine { kappa: 4 });
        assert_eq!(combine, plain, "masked combining diverged from plain wfl");
        let mut spec = SimSpec::new(4, 6, 4, 2);
        spec.seed = 77;
        spec.think_max = 0;
        let r = run_random_conflict(&spec, AlgoKind::WflCombine { kappa: 4 });
        assert_eq!(r.combined_wins, 0, "combining fired under a non-combining family");
        assert!(r.combine_batch.is_empty());
    }

    #[test]
    fn wfl_combine_fires_under_opted_in_schedules() {
        // Single shared lock, no think time: every attempt contends, so
        // over enough rounds some winner must find a claimable ACTIVE peer.
        let mut spec = SimSpec::new(4, 40, 1, 1);
        spec.seed = 5;
        spec.think_max = 0;
        spec.sched = SchedKind::RandomCombining;
        let r = run_random_conflict(&spec, AlgoKind::WflCombine { kappa: 4 });
        assert!(r.safety_ok, "combining broke the counter invariant");
        assert_eq!(r.attempts, 160);
        assert!(r.combined_wins > 0, "combining never fired under RandomCombining");
        assert!(!r.combine_batch.is_empty(), "no batch sizes recorded");
        assert!(r.combined_wins <= r.wins);
        // Each combined win was granted by exactly one batch sample peer.
        assert!(
            r.combine_batch.count() <= r.combined_wins.max(r.wins),
            "more batches than winners"
        );
    }

    #[test]
    fn sim_replay_is_identical_across_layouts() {
        // The E13 A/B contract at the harness level: the schedule is
        // oblivious and layout is pure address arithmetic, so the same
        // seed must produce the same outcome stream under every layout.
        let run = |layout: SpaceLayout, algo: AlgoKind| {
            let mut spec = SimSpec::new(4, 6, 8, 2);
            spec.seed = 33;
            spec.layout = layout;
            let r = run_random_conflict(&spec, algo);
            assert!(r.safety_ok);
            (r.attempts, r.wins, r.aborts, r.steps.max(), r.steps.mean().to_bits(), r.per_pid.clone())
        };
        for algo in [
            AlgoKind::Wfl { kappa: 4, delays: true, helping: true },
            AlgoKind::Naive,
            AlgoKind::BlockingCohort,
        ] {
            let layouts = [
                SpaceLayout::packed_unified(),
                SpaceLayout::default(),
                SpaceLayout { placement: wfl_runtime::Placement::Padded, shards: 1 },
                SpaceLayout { placement: wfl_runtime::Placement::Packed, shards: 0 },
            ];
            let first = run(layouts[0], algo);
            for layout in &layouts[1..] {
                assert_eq!(run(*layout, algo), first, "{algo:?} diverged under {layout:?}");
            }
        }
    }

    #[test]
    fn philosophers_harness_reports_consistent_meals() {
        let r = run_philosophers(
            4,
            5,
            3,
            SchedKind::Random,
            AlgoKind::Wfl { kappa: 2, delays: false, helping: true },
            1 << 22,
        );
        assert!(r.safety_ok);
        assert_eq!(r.attempts, 20);
    }

    /// The delegation baselines serve every seat: their publication
    /// records are sized by the process count, not the 3-slot active sets
    /// the philosophers' wfl spec uses.
    #[test]
    fn philosophers_delegation_serves_five_seats() {
        for algo in [AlgoKind::FlatCombining, AlgoKind::CcSynch] {
            let r = run_philosophers(5, 6, 3, SchedKind::Random, algo, 1 << 22);
            assert!(r.safety_ok, "{algo:?}");
            assert_eq!(r.attempts, 30, "{algo:?}");
            assert!(r.per_pid.iter().all(|&(w, _)| w > 0), "{algo:?}: a seat never ate");
        }
    }

    // ----- unified-backend coverage: the same drivers on real threads -----

    /// Every algorithm must pass the random-conflict safety check on free
    /// -running threads with the contention-free hot path — this is the
    /// acceptance gate for the unified harness, and (for `WflUnknown` and
    /// `Naive`) the only real-hardware race coverage those paths get.
    #[test]
    fn real_threads_random_conflict_all_algos_safe() {
        for algo in AlgoKind::all(4) {
            let mut spec = SimSpec::new(4, 60, 4, 2);
            spec.seed = 9;
            spec.heap_words = 1 << 22;
            let r = run_random_conflict_mode(&spec, algo, &ExecMode::real(4));
            assert!(r.safety_ok, "{algo:?}: real-threads safety check failed");
            assert_eq!(r.attempts, 240, "{algo:?}: untimed real runs complete every round");
            assert!(r.wall.is_some());
            assert_eq!(r.epochs, 1);
        }
    }

    /// The E17 roster on free-running threads: the combining fast path and
    /// both delegation baselines must pass the same recorded-outcome
    /// safety check as everything else (real mode never masks combining).
    #[test]
    fn real_threads_extended_algos_safe() {
        for algo in
            [AlgoKind::WflCombine { kappa: 4 }, AlgoKind::FlatCombining, AlgoKind::CcSynch]
        {
            let mut spec = SimSpec::new(4, 60, 4, 2);
            spec.seed = 9;
            spec.heap_words = 1 << 22;
            let r = run_random_conflict_mode(&spec, algo, &ExecMode::real(4));
            assert!(r.safety_ok, "{algo:?}: real-threads safety check failed");
            assert_eq!(r.attempts, 240, "{algo:?}");
            assert!(r.combined_wins <= r.wins, "{algo:?}");
        }
    }

    /// Heavier real-threads stress for the two paths that previously had no
    /// real-hardware lost-update coverage at all.
    #[test]
    fn real_threads_stress_wfl_unknown_and_naive() {
        for algo in [AlgoKind::WflUnknown, AlgoKind::Naive] {
            let mut spec = SimSpec::new(8, 400, 2, 2);
            spec.seed = 31;
            spec.think_max = 0;
            spec.heap_words = 1 << 24;
            let r = run_random_conflict_mode(&spec, algo, &ExecMode::real(8));
            assert!(r.safety_ok, "{algo:?}: lost update under real-threads stress");
            assert_eq!(r.attempts, 3200, "{algo:?}");
            assert!(r.wins >= 1, "{algo:?}: some attempt must succeed");
        }
    }

    #[test]
    fn timed_real_run_records_variable_attempts_and_stays_safe() {
        // A timed run without epoch batching stops early via the
        // cooperative flag; the safety check must hold for whatever subset
        // of rounds completed, and the wall stays near the actual finish.
        let mut spec = SimSpec::new(2, 3000, 3, 2);
        spec.seed = 17;
        spec.think_max = 4;
        spec.heap_words = 1 << 24;
        let mode = ExecMode::real_timed(2, Duration::from_millis(20));
        let r = run_random_conflict_mode(&spec, AlgoKind::Naive, &mode);
        assert!(r.safety_ok, "timed real run failed the safety check");
        assert!(r.attempts > 0, "no attempts completed in the window");
        assert!(r.attempts <= 6000);
        assert!(r.wall.is_some());
        assert_eq!(r.epochs, 1);
    }

    #[test]
    fn philosophers_run_on_real_threads() {
        for algo in [
            AlgoKind::Wfl { kappa: 2, delays: false, helping: true },
            AlgoKind::Blocking,
        ] {
            let r = run_philosophers_mode(4, 50, 7, algo, 1 << 22, &ExecMode::real(4));
            assert!(r.safety_ok, "{algo:?}: meal counters diverged on real threads");
            assert_eq!(r.attempts, 200, "{algo:?}");
        }
    }

    #[test]
    fn bank_conserves_money_on_both_backends() {
        for mode in [ExecMode::sim(SchedKind::Random, 100_000_000), ExecMode::real(3)] {
            for algo in [
                AlgoKind::Wfl { kappa: 3, delays: false, helping: true },
                AlgoKind::Tsp,
            ] {
                let r = run_bank_mode(3, 4, 12, 100, 23, algo, 1 << 22, &mode);
                assert!(r.safety_ok, "{}/{algo:?}: money not conserved", mode.label());
                assert_eq!(r.attempts, 36, "{}/{algo:?}", mode.label());
            }
        }
    }

    #[test]
    fn list_snapshot_matches_recorded_wins_on_both_backends() {
        for mode in [ExecMode::sim(SchedKind::Random, 100_000_000), ExecMode::real(3)] {
            for algo in [
                AlgoKind::Wfl { kappa: 4, delays: false, helping: true },
                AlgoKind::Naive,
            ] {
                let r = run_list_mode(3, 4, 41, algo, 1 << 22, &mode);
                assert!(r.safety_ok, "{}/{algo:?}: snapshot != recorded wins", mode.label());
                assert_eq!(r.attempts, 12, "{}/{algo:?}", mode.label());
            }
        }
    }

    #[test]
    fn graph_update_counters_match_recorded_wins_on_both_backends() {
        for mode in [ExecMode::sim(SchedKind::Random, 100_000_000), ExecMode::real(3)] {
            for algo in [
                AlgoKind::Wfl { kappa: 3, delays: false, helping: true },
                AlgoKind::WflUnknown,
            ] {
                let r = run_graph_mode(3, 6, 10, 13, algo, 1 << 22, &mode);
                assert!(r.safety_ok, "{}/{algo:?}: update counters diverged", mode.label());
                assert_eq!(r.attempts, 30, "{}/{algo:?}", mode.label());
            }
        }
    }

    #[test]
    #[should_panic(expected = "threads must equal")]
    fn real_mode_thread_mismatch_is_rejected() {
        let spec = SimSpec::new(3, 2, 3, 2);
        run_random_conflict_mode(&spec, AlgoKind::Tsp, &ExecMode::real(4));
    }

    // ----- the epoch lifecycle -----

    /// Untimed runs split into epochs must complete *exactly* the same
    /// round total as a single-epoch run — nothing lost or double-counted
    /// across the resets — and pass every epoch's safety check.
    #[test]
    fn sim_epochs_complete_exact_rounds_across_resets() {
        for epoch_rounds in [1usize, 3, 4, 10, 25] {
            let mut spec = SimSpec::new(3, 10, 4, 2);
            spec.seed = 77;
            spec.heap_words = 1 << 22;
            let mode = ExecMode::sim(SchedKind::Random, 100_000_000).with_epoch_rounds(epoch_rounds);
            let r = run_random_conflict_mode(
                &spec,
                AlgoKind::Wfl { kappa: 3, delays: false, helping: true },
                &mode,
            );
            assert!(r.safety_ok, "epoch_rounds {epoch_rounds}: safety failed");
            assert_eq!(r.attempts, 30, "epoch_rounds {epoch_rounds}: outcome lost or duplicated");
            assert_eq!(
                r.epochs,
                (10usize.div_ceil(epoch_rounds.min(10))) as u64,
                "epoch_rounds {epoch_rounds}"
            );
            assert_eq!(r.per_pid.iter().map(|p| p.1).sum::<u64>(), 30);
            assert_eq!(r.per_pid.iter().map(|p| p.0).sum::<u64>(), r.wins);
            assert_eq!(r.steps.count(), r.attempts, "one step sample per attempt");
        }
    }

    /// A zero-round run executes zero rounds on both backends (regression:
    /// the epoch driver briefly clamped every epoch to >= 1 round).
    #[test]
    fn zero_round_runs_attempt_nothing() {
        for mode in [ExecMode::sim(SchedKind::Random, 1_000_000), ExecMode::real(3)] {
            let r = run_bank_mode(3, 4, 0, 100, 1, AlgoKind::Tsp, 1 << 20, &mode);
            assert_eq!(r.attempts, 0, "{}: zero rounds must mean zero attempts", mode.label());
            assert!(r.safety_ok, "{}", mode.label());
        }
    }

    /// The epoch lifecycle is deterministic in sim mode: same seed, same
    /// split — identical aggregate results.
    #[test]
    fn sim_epochs_are_deterministic() {
        let run = || {
            let mut spec = SimSpec::new(3, 9, 3, 2);
            spec.seed = 5;
            spec.heap_words = 1 << 22;
            let mode = ExecMode::sim(SchedKind::Random, 100_000_000).with_epoch_rounds(4);
            run_random_conflict_mode(&spec, AlgoKind::WflUnknown, &mode)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.wins, b.wins);
        assert_eq!(a.per_pid, b.per_pid);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.heap_high_water, b.heap_high_water);
    }

    /// Real-threads untimed epochs: the barrier protocol must neither lose
    /// nor duplicate outcomes, for every algorithm family.
    #[test]
    fn real_epochs_complete_exact_rounds_across_resets() {
        for algo in AlgoKind::all(4) {
            let mut spec = SimSpec::new(4, 40, 4, 2);
            spec.seed = 3;
            spec.heap_words = 1 << 22;
            let mode = ExecMode::real(4).with_epoch_rounds(9); // 40 = 4 full epochs + partial
            let r = run_random_conflict_mode(&spec, algo, &mode);
            assert!(r.safety_ok, "{algo:?}: epoch-crossing safety failed");
            assert_eq!(r.attempts, 160, "{algo:?}: outcome lost or duplicated across resets");
            assert_eq!(r.epochs, 5, "{algo:?}");
        }
    }

    /// The tentpole acceptance shape: a timed real run with a small epoch
    /// length must cross several epoch boundaries under the contention-free
    /// hot path, keep every epoch's safety check green, and use the full
    /// wall budget instead of stopping at the tag space.
    #[test]
    fn timed_real_soak_crosses_epochs_under_fast_config() {
        let mut spec = SimSpec::new(4, 30, 4, 2);
        spec.seed = 41;
        spec.think_max = 2;
        spec.heap_words = 1 << 22;
        let budget = Duration::from_millis(120);
        let mode = ExecMode::real_timed(4, budget).with_epoch_rounds(30);
        let r = run_random_conflict_mode(&spec, AlgoKind::Naive, &mode);
        assert!(r.safety_ok, "soak safety failed");
        assert!(r.epochs >= 3, "only {} epochs crossed in {budget:?}", r.epochs);
        assert!(
            r.attempts > 4 * 30,
            "attempts {} never exceeded one epoch's cap — epochs not batching",
            r.attempts
        );
        let wall = r.wall.expect("real runs report wall");
        assert!(wall >= budget, "soak stopped early at {wall:?}");
        assert_eq!(r.per_pid.iter().map(|p| p.1).sum::<u64>(), r.attempts);
        assert!(r.heap_high_water <= spec.heap_words);
    }

    /// Regression (allocation lanes): a heap far too small for one epoch's
    /// worth of attempts must NOT abort the process. Allocation pressure
    /// latches `heap_low` (after the in-flight attempt completes from the
    /// reserve), the batch ends early, the quiescent boundary rewinds
    /// every lane, and the run keeps crossing epochs for its full wall
    /// budget — with every epoch's safety check still exact.
    #[test]
    fn tiny_heap_triggers_epoch_resets_instead_of_panicking() {
        let mut spec = SimSpec::new(3, 512, 4, 2);
        spec.seed = 19;
        spec.think_max = 0;
        // ~16K words: epoch roots fit, but 3x512 wfl attempts (frames,
        // descriptors, cons cells) cannot — each epoch hits the lanes' end.
        spec.heap_words = 1 << 14;
        let budget = Duration::from_millis(60);
        let mode = ExecMode::real_timed(3, budget).with_epoch_rounds(512);
        let algo = AlgoKind::Wfl { kappa: 3, delays: false, helping: true };
        let r = run_random_conflict_mode(&spec, algo, &mode);
        assert!(r.safety_ok, "recorded outcomes diverged across pressure-driven resets");
        assert!(r.attempts > 0, "no attempt ever completed");
        assert!(
            r.epochs >= 2,
            "exhaustion must end batches at epoch boundaries (got {} epochs)",
            r.epochs
        );
        assert!(r.wall.expect("real run") >= budget, "run gave up before the deadline");
        assert!(r.heap_high_water <= spec.heap_words);
    }

    /// The same pressure shape in the deterministic simulator: batches end
    /// early on `heap_low`, the host-side reset rewinds the lanes, and the
    /// fixed epoch plan still completes without a panic.
    #[test]
    fn tiny_heap_sim_epochs_survive_allocation_pressure() {
        let mut spec = SimSpec::new(3, 400, 4, 2);
        spec.seed = 23;
        spec.think_max = 0;
        spec.heap_words = 1 << 14;
        let mode = ExecMode::sim(SchedKind::Random, 400_000_000).with_epoch_rounds(100);
        let algo = AlgoKind::Wfl { kappa: 3, delays: false, helping: true };
        let r = run_random_conflict_mode(&spec, algo, &mode);
        assert!(r.safety_ok);
        assert_eq!(r.epochs, 4, "the fixed epoch plan still runs to its end");
        assert!(r.attempts > 0);
        // Pressure means not every planned round ran — but nothing was
        // double-counted either.
        assert!(r.attempts <= 3 * 400);
    }

    // ----- per-attempt deadlines and fault injection (E16 plumbing) -----

    /// Armed deadlines across a budget sweep: tight budgets abort attempts
    /// (and every abort is classified under exactly one give-up reason),
    /// generous budgets still win — and the mutual-exclusion safety check
    /// holds at every point, aborted attempts included.
    #[test]
    fn deadline_armed_runs_abort_cleanly_and_stay_safe() {
        let mut saw_abort = false;
        let mut saw_win = false;
        for budget in [40u64, 400, 40_000] {
            let mut spec = SimSpec::new(3, 12, 3, 2);
            spec.seed = 29;
            let mode =
                ExecMode::sim(SchedKind::Random, 100_000_000).with_deadline_steps(budget);
            let algo = AlgoKind::Wfl { kappa: 3, delays: true, helping: true };
            let r = run_random_conflict_mode(&spec, algo, &mode);
            assert!(r.safety_ok, "budget {budget}: aborted attempts corrupted the counters");
            assert_eq!(r.attempts, 36, "budget {budget}: every round still records an outcome");
            let classified = r.give_up[GiveUp::Deadline.index()] + r.give_up[GiveUp::Stop.index()];
            assert_eq!(classified, r.aborts, "budget {budget}: aborts must classify exactly once");
            assert!(r.rescues <= r.aborts, "budget {budget}");
            saw_abort |= r.aborts > 0;
            saw_win |= r.wins > 0;
            // Determinism: the sim fault-free deadline run must replay.
            let r2 = run_random_conflict_mode(&spec, algo, &mode);
            assert_eq!((r2.attempts, r2.wins, r2.aborts, r2.rescues), (r.attempts, r.wins, r.aborts, r.rescues));
        }
        assert!(saw_abort, "the tight budget never aborted an attempt");
        assert!(saw_win, "the generous budget never won an attempt");
    }

    /// The same knob on free-running threads: an untimed run completes
    /// every round (aborted rounds record a loss, not a hole) and stays
    /// safe.
    #[test]
    fn deadline_armed_real_threads_stay_safe() {
        for algo in [
            AlgoKind::Wfl { kappa: 3, delays: true, helping: true },
            AlgoKind::Blocking,
        ] {
            let mut spec = SimSpec::new(3, 40, 3, 2);
            spec.seed = 37;
            spec.heap_words = 1 << 22;
            let mode = ExecMode::real(3).with_deadline_steps(300);
            let r = run_random_conflict_mode(&spec, algo, &mode);
            assert!(r.safety_ok, "{algo:?}: deadline aborts corrupted the counters");
            assert_eq!(r.attempts, 120, "{algo:?}");
            assert_eq!(
                r.give_up[GiveUp::Deadline.index()] + r.give_up[GiveUp::Stop.index()],
                r.aborts,
                "{algo:?}"
            );
        }
    }

    /// The sim fault model: periodic injected stalls freeze a rotating
    /// victim (sometimes a lock holder, mid-critical-section). The helping
    /// protocol must keep every algorithm's recorded outcomes consistent,
    /// and the runs must replay exactly.
    #[test]
    fn injected_faults_keep_every_algo_safe_and_deterministic() {
        let sched = SchedKind::RandomFaults { period: 48, quantum: 24 };
        for algo in AlgoKind::all(3) {
            let mut spec = SimSpec::new(3, 8, 3, 2);
            spec.seed = 43;
            let mode = ExecMode::sim(sched, 200_000_000);
            let r = run_random_conflict_mode(&spec, algo, &mode);
            assert!(r.safety_ok, "{algo:?}: faults corrupted the counters");
            assert_eq!(r.attempts, 24, "{algo:?}");
            assert!(r.wins > 0, "{algo:?}: nothing won under finite stalls");
            let r2 = run_random_conflict_mode(&spec, algo, &mode);
            assert_eq!((r2.wins, r2.aborts), (r.wins, r.aborts), "{algo:?}: fault run must replay");
        }
    }

    /// Regression (ISSUE 6 satellite): the `heap_low` latch must be cleared
    /// at the epoch boundary **even when the batch's final attempt
    /// aborted** — an abort must not leak the latch (or a stale armed
    /// deadline) into the next epoch, which would silently end every later
    /// batch at slot 0. Tiny heap + tight deadlines: batches end on
    /// allocation pressure, attempts abort mid-flight, and the fixed epoch
    /// plan still runs to its end with exact safety accounting.
    #[test]
    fn aborting_batches_do_not_leak_the_heap_low_latch_across_epochs() {
        let mut spec = SimSpec::new(3, 400, 4, 2);
        spec.seed = 47;
        spec.think_max = 0;
        // Aborted attempts cut helping (and its allocations) short, so the
        // heap must be tighter than the fault-free tiny-heap test above to
        // still hit pressure inside a 100-round batch.
        spec.heap_words = 10_000;
        let mode = ExecMode::sim(SchedKind::Random, 400_000_000)
            .with_epoch_rounds(100)
            .with_deadline_steps(120);
        // Delays off keeps single attempts short (so allocation volume —
        // and with it the heap-pressure batch cuts — matches the
        // fault-free tiny-heap regression above), while contested rounds
        // still overrun the 120-step budget and abort.
        let algo = AlgoKind::Wfl { kappa: 3, delays: false, helping: true };
        let r = run_random_conflict_mode(&spec, algo, &mode);
        assert!(r.safety_ok);
        assert_eq!(r.epochs, 4, "the fixed epoch plan still runs to its end");
        assert!(r.attempts > 0);
        assert!(r.aborts > 0, "tight budgets under pressure must abort some attempts");
        assert!(
            r.give_up[GiveUp::HeapLow.index()] > 0,
            "the tiny heap must cut batches short on allocation pressure: {r:?}"
        );
        // A leaked latch would end epochs 2..4 at slot 0: three processes
        // over four epochs must record far more attempts than one epoch
        // could alone if the boundary reset works. (Each batch records at
        // least one attempt before pressure can latch, so a leak caps the
        // total near the first epoch's contribution.)
        assert!(
            r.attempts > r.per_pid.len() as u64 * 3,
            "later epochs recorded almost nothing — latch leaked across the boundary?"
        );
    }

    /// Per-lane high-water accounting: the vector must sum to the scalar,
    /// cover every worker lane plus the root lane, and attribute re-root
    /// allocations to the root lane.
    #[test]
    fn per_lane_high_water_sums_and_attributes_roots() {
        let mut spec = SimSpec::new(3, 10, 4, 2);
        spec.seed = 7;
        spec.heap_words = 1 << 22;
        let mode = ExecMode::real(3).with_epoch_rounds(4);
        let algo = AlgoKind::Wfl { kappa: 3, delays: false, helping: true };
        let r = run_random_conflict_mode(&spec, algo, &mode);
        assert!(r.safety_ok);
        let lanes = &r.heap_high_water_lanes;
        assert!(!lanes.is_empty());
        // Per-lane peaks may come from different epochs, so they bound the
        // single-boundary total from above.
        assert!(lanes.iter().sum::<usize>() >= r.heap_high_water, "lane peaks must cover the total");
        assert!(lanes.iter().all(|&w| w <= r.heap_high_water));
        let root = *lanes.last().unwrap();
        assert!(root > 0, "re-rooting (lock space, outcome slots) bills the root lane");
        for (pid, &w) in lanes[..3].iter().enumerate() {
            assert!(w > 0, "worker lane {pid} allocated attempt records");
        }
        for lane in &lanes[3..lanes.len() - 1] {
            assert_eq!(*lane, 0, "unused lanes must stay empty");
        }
    }

    /// The `AllocMode::Global` arena (the E13 A/B baseline) must drive the
    /// identical workload to identical safety results.
    #[test]
    fn global_alloc_mode_still_passes_the_harness_checks() {
        for mode in [ExecMode::sim(SchedKind::Random, 100_000_000), ExecMode::real(3)] {
            let mut spec = SimSpec::new(3, 20, 4, 2);
            spec.seed = 13;
            spec.heap_words = 1 << 22;
            spec.alloc = AllocMode::Global;
            let r = run_random_conflict_mode(
                &spec,
                AlgoKind::Wfl { kappa: 3, delays: false, helping: true },
                &mode,
            );
            assert!(r.safety_ok, "{}: global-cursor arena failed safety", mode.label());
            assert_eq!(r.attempts, 60, "{}", mode.label());
            assert_eq!(r.heap_high_water_lanes.len(), 1, "global mode reports one lane");
        }
    }

    /// Every workload's safety check must aggregate correctly across epoch
    /// boundaries on both backends.
    #[test]
    fn all_workloads_survive_epoch_boundaries() {
        let algo = AlgoKind::Wfl { kappa: 3, delays: false, helping: true };
        for mode in [
            ExecMode::sim(SchedKind::Random, 100_000_000).with_epoch_rounds(3),
            ExecMode::real(3).with_epoch_rounds(3),
        ] {
            let label = mode.label();
            let r = run_philosophers_mode(3, 8, 7, algo, 1 << 22, &mode);
            assert!(r.safety_ok, "{label}/philosophers");
            assert_eq!((r.attempts, r.epochs), (24, 3), "{label}/philosophers");
            let r = run_bank_mode(3, 4, 8, 100, 23, algo, 1 << 22, &mode);
            assert!(r.safety_ok, "{label}/bank");
            assert_eq!((r.attempts, r.epochs), (24, 3), "{label}/bank");
            let r = run_list_mode(3, 8, 41, algo, 1 << 22, &mode);
            assert!(r.safety_ok, "{label}/list");
            assert_eq!((r.attempts, r.epochs), (24, 3), "{label}/list");
            let r = run_graph_mode(3, 6, 8, 13, algo, 1 << 22, &mode);
            assert!(r.safety_ok, "{label}/graph");
            assert_eq!((r.attempts, r.epochs), (24, 3), "{label}/graph");
        }
    }

    /// The recorded bank history covers exactly the first epoch, win events
    /// match the heap-recorded win tokens one-to-one, and later epochs stay
    /// silent.
    #[test]
    fn bank_recorded_history_matches_first_epoch_outcomes() {
        let mode = ExecMode::real(3).with_epoch_rounds(5);
        let (r, tokens) =
            run_bank_mode_recorded(3, 4, 15, 100, 29, AlgoKind::Tsp, 1 << 22, &mode);
        assert!(r.safety_ok);
        assert_eq!(r.epochs, 3);
        assert_eq!(r.attempts, 45);
        let wins: Vec<&Event> =
            r.history.events.iter().filter(|e| e.op == BANK_HIST_WIN).collect();
        let losses = r.history.events.iter().filter(|e| e.op == BANK_HIST_LOSS).count();
        assert_eq!(wins.len() + losses, 15, "history covers exactly the first epoch");
        assert_eq!(wins.len(), tokens.len(), "history wins == heap-recorded wins");
        let mut history_tokens: Vec<u64> = wins.iter().map(|e| e.a).collect();
        history_tokens.sort_unstable();
        let mut heap_tokens = tokens.clone();
        heap_tokens.sort_unstable();
        assert_eq!(history_tokens, heap_tokens, "token sets diverge");
        for e in &r.history.events {
            assert!(e.invoke < e.response, "event interval degenerate");
        }
    }
}
