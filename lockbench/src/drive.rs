//! The closed-loop acquisition loop: one caller per worker thread, each
//! issuing its next acquisition as soon as the previous one returns.
//!
//! A run is a sequence of *segments*. Each segment builds everything from
//! scratch (heap, lock space, counters, threads), which is what `setup_s`
//! times, warms up, and then measures a fixed wall-clock window. Inside a
//! segment the work proceeds in epochs through the public epoch API: a
//! worker closes the epoch when its tag space runs low, the last worker to
//! arrive at the barrier checks every lock counter against the wins the
//! callers recorded, rewinds the heap and re-roots the lock space, and
//! everyone resumes with rewound tags.

use crate::span::{self, Kind, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};
use wfl_core::{
    lock_and_run_limited, try_locks, AttemptMetrics, GiveUp, LockConfig, LockId, LockSpace,
    RetryMetrics, Scratch, SpaceLayout, TryLockRequest,
};
use wfl_idem::{cell, IdemRun, Registry, TagSource, Thunk, ThunkId};
use wfl_obs::TraceSnapshot;
use wfl_runtime::epoch::{run_epoch_worker, EpochState, EpochSync};
use wfl_runtime::real::{run_threads_epochs, RealConfig};
use wfl_runtime::{Addr, CachePadded, Ctx, Heap};
use wfl_workloads::harness::LockPicker;

/// Closed-loop callers, one per core of the machine the figures in
/// `BENCHMARK.json` come from.
pub const THREADS: usize = 2;
/// Point contention bound: every lock is shared by at most the two callers.
pub const KAPPA: usize = 2;
/// Counted steps an attempt takes after its `T0 + T1` padding: the final
/// status read of `try_locks`.
pub const FINAL_READS: u64 = 1;
/// Arena words; one epoch of `spread` (the larger working set) peaks well
/// below this.
const HEAP_WORDS: usize = 1 << 21;
/// A caller closes the epoch once fewer than this many attempt tags are
/// left, and an acquisition gives up after this many attempts, so the tag
/// space never runs out mid-acquisition. With success probability at least
/// 1/(κL) = 1/8 per attempt, 256 straight failures has probability below
/// 1e-14.
const TAG_MARGIN: u32 = 256;
const MAX_ATTEMPTS: u64 = TAG_MARGIN as u64;
/// Spans kept per thread for the written trace (all are counted).
const SPAN_CAP: usize = 20_000;

/// One benchmark workload: the lock space and the lock-set size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub nlocks: usize,
    /// `L`, the locks per acquisition; the critical section increments one
    /// counter per lock, so `T = 2L`.
    pub l: usize,
    pub combine: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "spread",
        nlocks: 4096,
        l: 4,
        combine: false,
    },
    Workload {
        name: "hot",
        nlocks: 1,
        l: 1,
        combine: false,
    },
    Workload {
        name: "hot_combine",
        nlocks: 1,
        l: 1,
        combine: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    pub fn config(&self) -> LockConfig {
        let cfg = LockConfig::new(KAPPA, self.l, 2 * self.l);
        if self.combine {
            cfg.with_combining()
        } else {
            cfg
        }
    }

    /// The fairness floor `1/(κL)` of Theorem 6.9.
    pub fn success_floor(&self) -> f64 {
        1.0 / (KAPPA * self.l) as f64
    }
}

/// The critical section: increment the counter of every acquired lock.
/// `args[0]` is the lock count, `args[1..]` the counter addresses.
struct Touch {
    l: usize,
    traced: bool,
}

impl Thunk for Touch {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        if self.traced {
            span::open(Kind::Thunk);
        }
        let n = run.arg(0) as usize;
        for i in 0..n {
            let c = Addr::from_word(run.arg(1 + i));
            let v = run.read(c);
            run.write(c, v + 1);
        }
        if self.traced {
            span::close(Kind::Thunk);
        }
    }

    fn max_ops(&self) -> usize {
        2 * self.l
    }
}

/// The per-epoch heap roots.
struct World {
    space: LockSpace,
    counters: Addr,
}

impl World {
    fn root(heap: &Heap, wl: &Workload) -> World {
        World {
            space: LockSpace::create_root_with(heap, wl.nlocks, KAPPA, SpaceLayout::default()),
            counters: heap.alloc_root(wl.nlocks),
        }
    }
}

/// Compares each lock's counter with the wins the callers recorded for it
/// this epoch (`recorded[t][lock]` for caller `t`).
pub fn check_counters(observed: &[u32], recorded: &[&[u32]]) -> Result<(), String> {
    for (lock, &got) in observed.iter().enumerate() {
        let want: u64 = recorded.iter().map(|r| u64::from(r[lock])).sum();
        if u64::from(got) != want {
            return Err(format!(
                "lock {lock}: counter reads {got}, callers recorded {want} wins"
            ));
        }
    }
    Ok(())
}

/// Counts over the measurement window of one caller.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Acquisitions that won and completed inside the window.
    pub acqs: u64,
    /// Attempts and own steps of those acquisitions.
    pub attempts: u64,
    pub steps: u64,
    /// Acquisitions won after the window opened, including the last ones
    /// that finish after it closes (the base of `thunk_runs_per_win`).
    pub wins_all: u64,
    /// Traced runs only (they see every attempt's metrics):
    pub helped: u64,
    pub overruns: u64,
    /// Wins granted by a combining holder.
    pub combined: u64,
    /// Winning attempts that combined at least one peer, and the peers.
    pub combiners: u64,
    pub peers: u64,
}

impl Counts {
    fn note_attempt(&mut self, m: &AttemptMetrics) {
        self.helped += m.helped;
        self.overruns += u64::from(m.delay_overrun);
        self.combined += u64::from(m.combined);
        self.combiners += u64::from(m.combined_peers > 0);
        self.peers += m.combined_peers;
    }
}

/// One caller's results for one segment.
#[derive(Default)]
pub struct ThreadOut {
    pub win: Counts,
    /// Latency of every acquisition counted in `win.acqs`, in ns.
    pub lat_ns: Vec<u32>,
    /// Over the whole segment: acquisitions issued, those that gave up,
    /// and those whose steps exceeded the per-attempt bound.
    pub issued: u64,
    pub failed: u64,
    pub bound_violations: u64,
    pub first_acq: Option<Instant>,
    pub window_start: Option<Instant>,
    pub end: Option<Instant>,
    pub tracer: Option<Tracer>,
}

/// One segment's results.
pub struct Segment {
    /// Heap creation to the first acquisition.
    pub setup: Duration,
    pub window: Duration,
    pub threads: Vec<ThreadOut>,
    pub epochs: u64,
    pub high_water: usize,
    /// Failed counter checks.
    pub errors: Vec<String>,
    /// The flight recorder's rings (traced segments).
    pub rec: Option<TraceSnapshot>,
}

/// The timing of one segment.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub measure: Duration,
}

/// Runs one segment of `wl`. `seed` fixes the lock-set draws and the
/// callers' RNG streams. A traced segment retries `try_locks` in the
/// benchmark (same give-up rules as `lock_and_run_limited`) so it can time
/// each attempt, records spans, and enables the flight recorder.
///
/// `retired` is the previous segment's heap. It is freed only when this
/// segment ends, so the allocator cannot hand its already-faulted pages to
/// this segment's heap: every set-up then creates its arena from fresh
/// pages, as a starting program does, instead of the set-up time depending
/// on which earlier allocations the allocator happens to recycle. The
/// segment's own heap is returned to be retired the same way.
pub fn run_segment(
    wl: &Workload,
    seed: u64,
    plan: Plan,
    traced: bool,
    retired: Option<Heap>,
) -> (Segment, Heap) {
    let cfg = wl.config();
    let step_cap = cfg.step_bound() + FINAL_READS;
    let setup_start = Instant::now();
    let heap = Heap::new(HEAP_WORDS);
    let state = EpochState::new(&heap);
    let sync = EpochSync::new(THREADS);
    let mut registry = Registry::new();
    let thunk = registry.register(Touch { l: wl.l, traced });
    let world = RwLock::new(World::root(&heap, wl));
    let closing = CachePadded(AtomicBool::new(false));
    let recorded: Vec<Mutex<Vec<u32>>> = (0..THREADS)
        .map(|_| Mutex::new(vec![0; wl.nlocks]))
        .collect();
    let errors = Mutex::new(Vec::new());
    let outs: Mutex<Vec<Option<ThreadOut>>> = Mutex::new((0..THREADS).map(|_| None).collect());
    let warm_end = setup_start + plan.warmup;
    let end_at = warm_end + plan.measure;
    if traced {
        wfl_obs::rec::enable();
    }

    let shared = Shared {
        wl,
        cfg: &cfg,
        registry: &registry,
        thunk,
        world: &world,
        closing: &closing.0,
        recorded: &recorded,
        errors: &errors,
        state: &state,
        warm_end,
        end_at,
        step_cap,
        seed,
        traced,
    };
    let sh = &shared;
    let report = run_threads_epochs(
        &heap,
        THREADS,
        seed,
        None,
        RealConfig::fast(),
        &state,
        &sync,
        |pid| {
            let (sync, outs) = (&sync, &outs);
            move |ctx: &Ctx| {
                let out = sh.worker(ctx, sync, setup_start);
                outs.lock()
                    .expect("a worker panicked while storing its results")[pid] = Some(out);
            }
        },
    );
    report.assert_clean();
    let rec = traced.then(|| {
        wfl_obs::rec::disable();
        wfl_obs::rec::snapshot()
    });
    let threads: Vec<ThreadOut> = outs
        .into_inner()
        .expect("a worker panicked while storing its results")
        .into_iter()
        .map(|o| o.expect("every worker stores its results"))
        .collect();
    let first = threads
        .iter()
        .filter_map(|t| t.first_acq)
        .min()
        .expect("no acquisition ran");
    drop(retired);
    let seg = Segment {
        setup: first - setup_start,
        window: plan.measure,
        threads,
        epochs: state.epochs(),
        high_water: state.high_water(),
        errors: errors.into_inner().expect("the boundary panicked"),
        rec,
    };
    (seg, heap)
}

/// Everything a segment's workers share.
struct Shared<'a> {
    wl: &'a Workload,
    cfg: &'a LockConfig,
    registry: &'a Registry,
    thunk: ThunkId,
    world: &'a RwLock<World>,
    /// Raised by the first caller that must end the epoch; the leader
    /// lowers it after the reset (followers are parked then).
    closing: &'a AtomicBool,
    /// Each caller's wins per lock in the current epoch, published at the
    /// end of its batch for the leader's check.
    recorded: &'a [Mutex<Vec<u32>>],
    errors: &'a Mutex<Vec<String>>,
    state: &'a EpochState,
    warm_end: Instant,
    end_at: Instant,
    step_cap: u64,
    seed: u64,
    traced: bool,
}

impl Shared<'_> {
    fn worker(&self, ctx: &Ctx<'_>, sync: &EpochSync, origin: Instant) -> ThreadOut {
        let pid = ctx.pid();
        let l = self.wl.l;
        let mut tags = TagSource::new(pid);
        let mut scratch = Scratch::with_bounds(KAPPA, l);
        let mut picker = LockPicker::new(self.wl.nlocks);
        let mut locks: Vec<LockId> = Vec::with_capacity(l);
        let mut args = vec![0u64; 1 + l];
        let mut wins = vec![0u32; self.wl.nlocks];
        let mut out = ThreadOut::default();
        let mut round = 0usize;
        if self.traced {
            span::install(origin, pid as u32, SPAN_CAP);
        }
        run_epoch_worker(
            ctx,
            sync,
            |ctx, _epoch| {
                if span::is_open(Kind::BarrierWait) {
                    span::close(Kind::BarrierWait);
                }
                // A fresh heap lifetime: rewinding the tags is sound because
                // every other caller is past the quiescent reset.
                tags.reset();
                ctx.reset_heap_low();
                let world = self.world.read().expect("the boundary panicked");
                while !self.closing.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    if t0 >= self.end_at || tags.remaining() < TAG_MARGIN || ctx.heap_low() {
                        self.closing.store(true, Ordering::Relaxed);
                        break;
                    }
                    if out.window_start.is_none() && t0 >= self.warm_end {
                        out.window_start = Some(t0);
                        out.win = Counts::default();
                        span::clear();
                    }
                    picker.pick_into(self.seed, pid, round, l, &mut locks);
                    round += 1;
                    args[0] = l as u64;
                    for (a, lock) in args[1..].iter_mut().zip(&locks) {
                        *a = world.counters.off(lock.0).to_word();
                    }
                    let req = TryLockRequest {
                        locks: &locks,
                        thunk: self.thunk,
                        args: &args,
                    };
                    let r = if self.traced {
                        self.acquire_traced(
                            ctx,
                            &world.space,
                            &mut tags,
                            &mut scratch,
                            req,
                            &mut out.win,
                        )
                    } else {
                        lock_and_run_limited(
                            ctx,
                            &world.space,
                            self.registry,
                            self.cfg,
                            &mut tags,
                            &mut scratch,
                            req,
                            MAX_ATTEMPTS,
                        )
                    };
                    let t1 = Instant::now();
                    out.first_acq.get_or_insert(t0);
                    out.issued += 1;
                    if r.steps > r.attempts * self.step_cap {
                        out.bound_violations += 1;
                    }
                    if r.gave_up.is_some() {
                        out.failed += 1;
                        continue;
                    }
                    for lock in &locks {
                        wins[lock.0 as usize] += 1;
                    }
                    if out.window_start.is_some() {
                        out.win.wins_all += 1;
                        if t1 <= self.end_at {
                            out.win.acqs += 1;
                            out.win.attempts += r.attempts;
                            out.win.steps += r.steps;
                            out.lat_ns
                                .push((t1 - t0).as_nanos().min(u128::from(u32::MAX)) as u32);
                        }
                    }
                }
                drop(world);
                self.recorded[pid]
                    .lock()
                    .expect("the boundary panicked")
                    .copy_from_slice(&wins);
                wins.fill(0);
                span::open(Kind::BarrierWait);
            },
            |ctx, epoch| self.boundary(ctx.heap(), epoch),
        );
        if span::is_open(Kind::BarrierWait) {
            span::close(Kind::BarrierWait);
        }
        out.end = Some(Instant::now());
        out.tracer = span::take();
        out
    }

    /// The leader's boundary work, with every other caller parked: check
    /// the counters, then close the run or rewind and re-root.
    fn boundary(&self, heap: &Heap, epoch: u64) -> bool {
        span::open(Kind::Boundary);
        let mut world = self
            .world
            .write()
            .expect("a caller panicked holding the world");
        let observed: Vec<u32> = (0..self.wl.nlocks as u32)
            .map(|i| cell::value(heap.peek(world.counters.off(i))))
            .collect();
        let guards: Vec<_> = self
            .recorded
            .iter()
            .map(|r| r.lock().expect("a caller panicked publishing wins"))
            .collect();
        let recorded: Vec<&[u32]> = guards.iter().map(|g| g.as_slice()).collect();
        let mut errors = self.errors.lock().expect("a boundary panicked");
        if let Err(e) = check_counters(&observed, &recorded) {
            errors.push(format!("epoch {epoch}: {e}"));
        }
        let more = errors.is_empty() && Instant::now() < self.end_at;
        if more {
            self.state.advance(heap);
            *world = World::root(heap, self.wl);
            self.closing.store(false, Ordering::Relaxed);
        } else {
            self.state.finish(heap);
        }
        span::close(Kind::Boundary);
        more
    }

    /// Retry-until-success with the give-up rules of
    /// `lock_and_run_limited` (no deadline, no backoff), timing each
    /// `try_locks` call.
    fn acquire_traced(
        &self,
        ctx: &Ctx<'_>,
        space: &LockSpace,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        req: TryLockRequest<'_>,
        win: &mut Counts,
    ) -> RetryMetrics {
        span::open(Kind::Acquisition);
        let start = ctx.steps();
        let mut attempts = 0;
        let gave_up = loop {
            if attempts >= MAX_ATTEMPTS {
                break Some(GiveUp::Attempts);
            }
            if tags.remaining() == 0 {
                break Some(GiveUp::Tags);
            }
            if ctx.heap_low() {
                break Some(GiveUp::HeapLow);
            }
            span::open(Kind::Attempt);
            let m = try_locks(ctx, space, self.registry, self.cfg, tags, scratch, req);
            span::close(Kind::Attempt);
            attempts += 1;
            win.note_attempt(&m);
            if m.won {
                break None;
            }
            if let Some(r) = m.aborted {
                break Some(r.into());
            }
            if ctx.stop_requested() {
                break Some(GiveUp::Stop);
            }
        };
        span::close(Kind::Acquisition);
        RetryMetrics {
            attempts,
            steps: ctx.steps() - start,
            gave_up,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_check_accepts_exact_counts() {
        let a = [3u32, 0, 2];
        let b = [1u32, 4, 0];
        assert_eq!(check_counters(&[4, 4, 2], &[&a, &b]), Ok(()));
    }

    #[test]
    fn counter_check_rejects_a_miscounted_expectation() {
        // Negative control: the counters are right, the expectation is off
        // by one win on one lock, in either direction.
        let observed = [4u32, 4, 2];
        let b = [1u32, 4, 0];
        for a in [[3u32, 1, 2], [3, 0, 1]] {
            let err = check_counters(&observed, &[&a, &b]).unwrap_err();
            assert!(err.starts_with("lock "), "{err}");
        }
    }

    /// The flight recorder is process-global: segments must not overlap.
    static SEGMENTS: Mutex<()> = Mutex::new(());

    fn short(wl: &Workload, traced: bool) -> Segment {
        let _one_at_a_time = SEGMENTS.lock().unwrap_or_else(|e| e.into_inner());
        let plan = Plan {
            warmup: Duration::from_millis(20),
            measure: Duration::from_millis(150),
        };
        run_segment(wl, 7, plan, traced, None).0
    }

    #[test]
    fn every_workload_runs_and_passes_its_checks() {
        for wl in &WORKLOADS {
            for traced in [false, true] {
                let seg = short(wl, traced);
                assert!(
                    seg.errors.is_empty(),
                    "{} traced={traced}: {:?}",
                    wl.name,
                    seg.errors
                );
                assert!(seg.epochs >= 1);
                let acqs: u64 = seg.threads.iter().map(|t| t.win.acqs).sum();
                assert!(acqs > 0, "{} traced={traced}: nothing measured", wl.name);
                for t in &seg.threads {
                    assert_eq!(
                        (t.failed, t.bound_violations, t.win.overruns),
                        (0, 0, 0),
                        "{}",
                        wl.name
                    );
                    assert_eq!(t.lat_ns.len() as u64, t.win.acqs);
                    assert!(t.win.attempts >= t.win.acqs);
                }
                assert_eq!(seg.rec.is_some(), traced);
                let tracer = seg.threads[0].tracer.as_ref();
                assert_eq!(tracer.is_some(), traced);
                if let Some(tr) = tracer {
                    assert!(tr.count(Kind::Attempt) >= tr.count(Kind::Acquisition));
                }
            }
        }
    }

    #[test]
    fn spread_attempts_take_exactly_the_padded_length() {
        let wl = Workload::by_name("spread").unwrap();
        let seg = short(&wl, false);
        let t = &seg.threads[0];
        let cfg = wl.config();
        assert_eq!(cfg.step_bound() + FINAL_READS, 23_041);
        assert_eq!(t.win.steps, t.win.attempts * 23_041);
    }
}
