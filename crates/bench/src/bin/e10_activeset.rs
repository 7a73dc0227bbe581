//! E10 — Theorem 5.2: active set operations take `O(κ)` steps per set.
//!
//! κ processes concurrently cycle insert/getSet/remove on one active set;
//! per-operation step costs are measured directly and their growth in κ
//! is fitted (theorem: at most linear).

use wfl_bench::{header, row, verdict};
use wfl_activeset::ActiveSet;
use wfl_obs::FixedHistogram;
use wfl_runtime::schedule::SeededRandom;
use wfl_runtime::sim::SimBuilder;
use wfl_runtime::stats::loglog_slope;
use wfl_runtime::{Ctx, Heap};

fn main() {
    println!("# E10: active set step complexity vs contention (Theorem 5.2)");
    header(&["kappa", "ops", "insert mean", "remove mean", "getSet mean", "insert max"]);
    let mut points = Vec::new();
    for &kappa in &[2usize, 4, 8, 16] {
        let heap = Heap::new(1 << 24);
        let set = ActiveSet::create_root(&heap, kappa);
        let rounds = 40usize;
        // 3 measurements per round per proc: insert, remove, getset.
        let out = heap.alloc_root(kappa * rounds * 3);
        let report = SimBuilder::new(&heap, kappa)
            .schedule(SeededRandom::new(kappa, 5 + kappa as u64))
            .max_steps(1_000_000_000)
            .spawn_all(|pid| {
                move |ctx: &Ctx| {
                    let mut buf = Vec::new();
                    for round in 0..rounds {
                        let base = ((pid * rounds + round) * 3) as u32;
                        let s0 = ctx.steps();
                        let slot = set.insert(ctx, (pid + 1) as u64);
                        let s1 = ctx.steps();
                        set.get_set(ctx, &mut buf);
                        let s2 = ctx.steps();
                        set.remove(ctx, slot);
                        let s3 = ctx.steps();
                        ctx.write(out.off(base), s1 - s0);
                        ctx.write(out.off(base + 1), s2 - s1);
                        ctx.write(out.off(base + 2), s3 - s2);
                    }
                }
            })
            .run();
        report.assert_clean();
        let mut ins = FixedHistogram::new();
        let mut get = FixedHistogram::new();
        let mut rem = FixedHistogram::new();
        for i in 0..(kappa * rounds) as u32 {
            ins.record(heap.peek(out.off(i * 3)));
            get.record(heap.peek(out.off(i * 3 + 1)));
            rem.record(heap.peek(out.off(i * 3 + 2)));
        }
        points.push((kappa as f64, ins.mean()));
        row(&[
            kappa.to_string(),
            (kappa * rounds).to_string(),
            format!("{:.1}", ins.mean()),
            format!("{:.1}", rem.mean()),
            format!("{:.1}", get.mean()),
            ins.max().to_string(),
        ]);
    }
    let slope = loglog_slope(&points);
    println!();
    println!(
        "log-log slope of insert cost vs kappa: {slope:.2} (theorem allows <= 1) ... {}",
        verdict(slope <= 1.3)
    );
}
