//! E5 — corollary of Theorem 1.1: retry-until-success acquires the locks
//! in expected `O(κ³L³T)` steps, with the attempt count dominated by a
//! geometric distribution of mean ≤ `κL`.

use wfl_bench::{header, row};
use wfl_core::{lock_and_run, LockConfig, LockId, LockSpace, Scratch, TryLockRequest};
use wfl_idem::{IdemRun, Registry, TagSource, Thunk};
use wfl_obs::FixedHistogram;
use wfl_runtime::schedule::SeededRandom;
use wfl_runtime::sim::SimBuilder;
use wfl_runtime::{Addr, Ctx, Heap};

struct Touch;
impl Thunk for Touch {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let c = Addr::from_word(run.arg(0));
        let v = run.read(c);
        run.write(c, v + 1);
    }
    fn max_ops(&self) -> usize {
        2
    }
}

fn main() {
    println!("# E5: retry-until-success — attempts and steps to acquisition");
    header(&[
        "kappa",
        "acquisitions",
        "mean attempts",
        "p99 attempts",
        "mean kL (bound)",
        "mean steps",
        "kappa^3 L^3 T scale",
        "attempts bound held",
    ]);
    let l = 1usize;
    for &kappa in &[2usize, 4, 8] {
        let mut registry = Registry::new();
        let touch = registry.register(Touch);
        let heap = Heap::new(1 << 25);
        let space = LockSpace::create_root(&heap, l, kappa);
        let counter = heap.alloc_root(1);
        let rounds = 60usize;
        let attempts_out = heap.alloc_root(kappa * rounds);
        let steps_out = heap.alloc_root(kappa * rounds);
        let cfg = LockConfig::new(kappa, l, 2);
        let (space_ref, reg_ref, cfg_ref) = (&space, &registry, &cfg);
        let report = SimBuilder::new(&heap, kappa)
            .seed(kappa as u64)
            .schedule(SeededRandom::new(kappa, 55 + kappa as u64))
            .max_steps(3_000_000_000)
            .spawn_all(|pid| {
                move |ctx: &Ctx| {
                    let mut tags = TagSource::new(pid);
                    let mut scratch = Scratch::new();
                    for round in 0..rounds {
                        let req = TryLockRequest {
                            locks: &[LockId(0)],
                            thunk: touch,
                            args: &[counter.to_word()],
                        };
                        let m = lock_and_run(ctx, space_ref, reg_ref, cfg_ref, &mut tags, &mut scratch, req);
                        let idx = (pid * rounds + round) as u32;
                        ctx.write(attempts_out.off(idx), m.attempts);
                        ctx.write(steps_out.off(idx), m.steps);
                        let think = ctx.rand_below(64);
                        for _ in 0..think {
                            ctx.local_step();
                        }
                    }
                }
            })
            .run();
        report.assert_clean();
        let mut attempts = FixedHistogram::new();
        let mut steps = FixedHistogram::new();
        for i in 0..(kappa * rounds) as u32 {
            attempts.record(heap.peek(attempts_out.off(i)));
            steps.record(heap.peek(steps_out.off(i)));
        }
        // Wait-freedom means every lock_and_run returned; the counter must
        // equal the total number of acquisitions.
        assert_eq!(
            wfl_idem::cell::value(heap.peek(counter)) as usize,
            kappa * rounds,
            "exactly-once violation"
        );
        let bound = (kappa * l) as f64;
        let ok = attempts.mean() <= bound;
        row(&[
            kappa.to_string(),
            attempts.count().to_string(),
            format!("{:.2}", attempts.mean()),
            attempts.percentile(0.99).to_string(),
            format!("{bound:.0}"),
            format!("{:.0}", steps.mean()),
            (kappa.pow(3) * l.pow(3) * 2).to_string(),
            wfl_bench::verdict(ok).to_string(),
        ]);
    }
    println!();
    println!("every lock_and_run returned (wait-free) and ran its critical section exactly once");
}
