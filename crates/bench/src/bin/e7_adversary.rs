//! E7 — §2/§6.1: fairness holds against an adaptive player adversary and
//! adversarial oblivious schedules.
//!
//! A victim process attempts on a fixed cadence; an omniscient controller
//! (full heap visibility, including everyone's priorities) floods
//! competitor attempts whenever the victim is in its pending phase. The
//! victim's measured success rate is compared against `1/C_p` with the
//! worst-case contention the adversary can create (κ = nprocs, L = 1).
//! Each cell is one sim run of the shared `wfl_fairness::run_adversary`
//! driver.

use wfl_bench::{fmt_success, header, row, verdict};
use wfl_fairness::{run_adversary, AdversarySpec};
use wfl_workloads::harness::{AlgoKind, ExecMode, SchedKind};

fn main() {
    println!("# E7: victim success under an adaptive player adversary (delays ON)");
    header(&["competitors", "victim attempts", "victim rate (99% lb)", "bound 1/(k*L)", "held"]);
    let mut all_ok = true;
    for nc in [1usize, 2, 3] {
        let nprocs = nc + 1;
        let mut spec = AdversarySpec::new(nprocs, 80);
        spec.heap_words = 1 << 25;
        let algo = AlgoKind::Wfl { kappa: nprocs, delays: true, helping: true };
        let r = run_adversary(&spec, algo, &ExecMode::sim(SchedKind::RoundRobin, 300_000_000));
        assert!(r.safety_ok, "counter safety violated");
        let rate = r.victim_success();
        let bound = 1.0 / nprocs as f64;
        let ok = rate.wilson_lower(2.58) >= bound;
        all_ok &= ok;
        row(&[
            nc.to_string(),
            rate.trials.to_string(),
            fmt_success(&rate),
            format!("{bound:.3}"),
            verdict(ok).to_string(),
        ]);
    }
    println!();
    println!("Theorem 6.9 under the adaptive adversary: {}", verdict(all_ok));
}
