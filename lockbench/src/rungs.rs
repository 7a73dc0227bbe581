//! Single-layer rungs: timed loops over one public operation each, run on
//! the workloads' worker threads (same `run_threads_epochs` set-up, same
//! thread count, same κ), after a warm-up repetition.
//!
//! Each repetition is one epoch of the public epoch API, so the active-set
//! rungs (whose snapshot nodes are allocated on every insert and remove)
//! run on a rewound arena every time.

use crate::drive::{KAPPA, THREADS};
use std::sync::{Mutex, RwLock};
use std::time::Instant;
use wfl_activeset::ActiveSet;
use wfl_runtime::epoch::{run_epoch_worker, EpochState, EpochSync};
use wfl_runtime::real::{run_threads_epochs, RealConfig};
use wfl_runtime::{Addr, Ctx, Heap, Placement};

/// Measured repetitions per rung (one warm-up repetition precedes them).
const REPS: u64 = 7;
const HEAP_WORDS: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// `Ctx::stall_until_steps`: the cost of one local step, the unit of
    /// the paper's delay padding.
    LocalStep,
    /// `Ctx::cas_bool_sync` on one word both threads hit (a failed CAS is
    /// followed by a re-read, which the figure includes).
    Cas,
    /// `ActiveSet::insert` + `get_set` + `remove`, both threads on one set.
    CycleShared,
    /// The same cycle with each thread on its own set.
    CyclePrivate,
}

impl Rung {
    fn iters(self) -> u64 {
        match self {
            Rung::LocalStep => 2_000_000,
            Rung::Cas => 50_000,
            Rung::CycleShared | Rung::CyclePrivate => 10_000,
        }
    }
}

struct Roots {
    word: Addr,
    shared: ActiveSet,
    private: Vec<ActiveSet>,
}

impl Roots {
    fn root(heap: &Heap) -> Roots {
        Roots {
            word: heap.alloc_root_aligned(1),
            shared: ActiveSet::create_root_placed(heap, KAPPA, Placement::Padded),
            private: (0..THREADS)
                .map(|_| ActiveSet::create_root_placed(heap, KAPPA, Placement::Padded))
                .collect(),
        }
    }
}

/// Runs `rung` and returns the ns per operation of every measured
/// repetition on every thread (`REPS × THREADS` samples).
pub fn measure(rung: Rung, seed: u64) -> Vec<f64> {
    let heap = Heap::new(HEAP_WORDS);
    let state = EpochState::new(&heap);
    let sync = EpochSync::new(THREADS);
    let roots = RwLock::new(Roots::root(&heap));
    let samples = Mutex::new(Vec::new());
    let iters = rung.iters();
    let report = run_threads_epochs(
        &heap,
        THREADS,
        seed,
        None,
        RealConfig::fast(),
        &state,
        &sync,
        |_pid| {
            let (sync, state, roots, samples) = (&sync, &state, &roots, &samples);
            move |ctx: &Ctx| {
                let mut members = Vec::with_capacity(KAPPA + 1);
                run_epoch_worker(
                    ctx,
                    sync,
                    |ctx, epoch| {
                        ctx.reset_heap_low();
                        let r = roots.read().expect("the boundary panicked");
                        let item = ctx.pid() as u64 + 1;
                        let set = if rung == Rung::CyclePrivate {
                            r.private[ctx.pid()]
                        } else {
                            r.shared
                        };
                        let t0 = Instant::now();
                        match rung {
                            Rung::LocalStep => ctx.stall_until_steps(ctx.steps() + iters),
                            Rung::Cas => {
                                let mut v = ctx.read_acq(r.word);
                                for _ in 0..iters {
                                    if ctx.cas_bool_sync(r.word, v, v + 1) {
                                        v += 1;
                                    } else {
                                        v = ctx.read_acq(r.word);
                                    }
                                }
                            }
                            Rung::CycleShared | Rung::CyclePrivate => {
                                for _ in 0..iters {
                                    let slot = set.insert(ctx, item);
                                    set.get_set(ctx, &mut members);
                                    set.remove(ctx, slot);
                                }
                            }
                        }
                        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
                        if epoch > 0 {
                            samples.lock().expect("a rung worker panicked").push(ns);
                        }
                    },
                    |ctx, epoch| {
                        state.advance(ctx.heap());
                        *roots.write().expect("a rung worker panicked") = Roots::root(ctx.heap());
                        epoch < REPS
                    },
                );
            }
        },
    );
    report.assert_clean();
    samples.into_inner().expect("a rung worker panicked")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rung_yields_one_sample_per_thread_and_repetition() {
        for rung in [
            Rung::LocalStep,
            Rung::Cas,
            Rung::CycleShared,
            Rung::CyclePrivate,
        ] {
            let s = measure(rung, 3);
            assert_eq!(s.len() as u64, REPS * THREADS as u64, "{rung:?}");
            assert!(
                s.iter().all(|&ns| ns > 0.0 && ns.is_finite()),
                "{rung:?}: {s:?}"
            );
        }
    }
}
