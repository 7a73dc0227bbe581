//! The per-run metrics fold: counters + step histograms + calibrated
//! rates, serialized by the shared writer in `wfl_bench`.
//!
//! A [`MetricsSnapshot`] is built by the harness from a finished run
//! (the per-epoch outcome folds already happened at the epoch barriers;
//! this is their sum) and carries everything a `BENCH_*.json` row
//! reports uniformly: attempt/win/abort/rescue counters, per-reason
//! give-up tallies, step histograms, and the wall-clock rates —
//! including `steps_per_sec`, the own-step throughput calibrated from
//! the same logical clock the §2.1 leases batch, which is what converts
//! step-denominated deadlines into wall time.

use crate::hist::FixedHistogram;
use crate::json::escape;
use std::fmt::Write as _;

/// Metrics folded over one harness run (all epochs). See module docs.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub attempts: u64,
    pub wins: u64,
    pub aborts: u64,
    pub rescues: u64,
    pub combined_wins: u64,
    pub epochs: u64,
    /// Own steps per attempt.
    pub steps: FixedHistogram,
    /// Own steps to bail out, over aborted attempts.
    pub abort_steps: FixedHistogram,
    /// Per-reason give-up tallies `(stable label, count)`.
    pub give_up: Vec<(&'static str, u64)>,
    pub wall_secs: Option<f64>,
    /// Total own steps per wall second (real runs only).
    pub steps_per_sec: Option<f64>,
    pub wins_per_sec: Option<f64>,
}

impl MetricsSnapshot {
    /// Point success rate (0 when no attempts ran).
    pub fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.wins as f64 / self.attempts as f64
        }
    }

    /// The give-up tallies as a JSON object body, e.g.
    /// `{"stop": 0, "deadline": 12}`.
    pub fn give_up_json(&self) -> String {
        let body: Vec<String> =
            self.give_up.iter().map(|(label, n)| format!("\"{label}\": {n}")).collect();
        format!("{{{}}}", body.join(", "))
    }

    fn opt_json(v: Option<f64>) -> String {
        v.map_or("null".to_string(), |x| format!("{x:.3}"))
    }

    /// The snapshot as a standalone JSON document. `context` pairs
    /// (e.g. algo/backend/threads) are embedded verbatim as string
    /// fields ahead of the metrics.
    pub fn to_json(&self, context: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        for (k, v) in context {
            let _ = writeln!(out, "  \"{}\": \"{}\",", escape(k), escape(v));
        }
        let _ = writeln!(out, "  \"attempts\": {},", self.attempts);
        let _ = writeln!(out, "  \"wins\": {},", self.wins);
        let _ = writeln!(out, "  \"success_rate\": {:.4},", self.success_rate());
        let _ = writeln!(out, "  \"aborts\": {},", self.aborts);
        let _ = writeln!(out, "  \"rescues\": {},", self.rescues);
        let _ = writeln!(out, "  \"combined_wins\": {},", self.combined_wins);
        let _ = writeln!(out, "  \"epochs\": {},", self.epochs);
        let _ = writeln!(out, "  \"give_up\": {},", self.give_up_json());
        let _ = writeln!(
            out,
            "  \"steps\": {{\"count\": {}, \"mean\": {:.1}, \"p50\": {}, \"p99\": {}, \
             \"max\": {}, \"buckets\": {}}},",
            self.steps.count(),
            self.steps.mean(),
            self.steps.percentile(0.50),
            self.steps.percentile(0.99),
            self.steps.max(),
            self.steps.to_json()
        );
        let _ = writeln!(
            out,
            "  \"abort_steps\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": {}}},",
            self.abort_steps.count(),
            self.abort_steps.percentile(0.50),
            self.abort_steps.percentile(0.99),
            self.abort_steps.to_json()
        );
        let _ = writeln!(out, "  \"wall_secs\": {},", Self::opt_json(self.wall_secs));
        let _ = writeln!(out, "  \"steps_per_sec\": {},", Self::opt_json(self.steps_per_sec));
        let _ = writeln!(out, "  \"wins_per_sec\": {}", Self::opt_json(self.wins_per_sec));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn snapshot_serializes_to_parseable_json() {
        let mut s = MetricsSnapshot {
            attempts: 10,
            wins: 7,
            aborts: 2,
            rescues: 1,
            combined_wins: 0,
            epochs: 3,
            give_up: vec![("stop", 0), ("deadline", 2)],
            wall_secs: Some(0.25),
            steps_per_sec: Some(1.25e6),
            wins_per_sec: Some(28.0),
            ..Default::default()
        };
        for v in [10u64, 20, 300, 4000] {
            s.steps.record(v);
        }
        s.abort_steps.record(512);
        let doc = s.to_json(&[("algo", "wfl".to_string()), ("backend", "sim".to_string())]);
        let v = JsonValue::parse(&doc).expect("snapshot JSON parses");
        assert_eq!(v.get("algo").unwrap().as_str(), Some("wfl"));
        assert_eq!(v.get("attempts").unwrap().as_num(), Some(10.0));
        assert_eq!(v.get("give_up").unwrap().get("deadline").unwrap().as_num(), Some(2.0));
        assert_eq!(v.get("steps").unwrap().get("count").unwrap().as_num(), Some(4.0));
        assert!(v.get("steps").unwrap().get("buckets").unwrap().get("10").is_some());
        assert_eq!(v.get("steps_per_sec").unwrap().as_num(), Some(1.25e6));
        // A sim-style snapshot serializes rates as nulls.
        let sim = MetricsSnapshot::default();
        let doc = sim.to_json(&[]);
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("wall_secs"), Some(&JsonValue::Null));
        assert_eq!(v.get("success_rate").unwrap().as_num(), Some(0.0));
    }
}
