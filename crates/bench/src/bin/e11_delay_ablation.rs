//! E11 — ablation of the fixed delays (§6 "Delays").
//!
//! The delays make a descriptor's reveal time a fixed function of its
//! start time, denying the adaptive player adversary any
//! priority-dependent timing. This experiment runs the E7 adversary
//! (one sim run of `wfl_fairness::run_adversary` per row) against the
//! victim with delays ON and OFF. With delays the victim's rate respects
//! the `1/C_p` bound. Without them the rate does not drop: the targeted
//! adversary floods only inside the victim's pre-reveal window, which
//! shrinks when the `T0` stall is gone, and it plays no priority-dependent
//! timing games — so the paper's motivation for the delays is not
//! exercised by this adversary.

use wfl_bench::{fmt_success, header, row, verdict};
use wfl_fairness::{run_adversary, AdversarySpec};
use wfl_workloads::harness::{AlgoKind, ExecMode, SchedKind};

fn main() {
    println!("# E11: delay ablation under the adaptive adversary (2 competitors)");
    header(&["delays", "victim attempts", "victim rate (99% lb)", "bound 1/3", "held"]);
    for delays in [true, false] {
        let mut spec = AdversarySpec::new(3, 70);
        spec.heap_words = 1 << 25;
        let algo = AlgoKind::Wfl { kappa: 3, delays, helping: true };
        let r = run_adversary(&spec, algo, &ExecMode::sim(SchedKind::RoundRobin, 300_000_000));
        assert!(r.safety_ok, "counter safety violated");
        let b = r.victim_success();
        let ok = b.wilson_lower(2.58) >= 1.0 / 3.0;
        row(&[
            if delays { "on" } else { "off" }.to_string(),
            b.trials.to_string(),
            fmt_success(&b),
            "0.333".to_string(),
            verdict(ok).to_string(),
        ]);
    }
    println!();
    println!("safety holds either way; only fairness is at stake. This adversary");
    println!("does not exploit the missing delays: the victim's rate with delays");
    println!("off is not lower than with them on.");
}
