//! Closed-loop lock-acquisition benchmark.
//!
//! ```text
//! lockbench --workload <spread|hot|hot_combine> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics over segments of
//! `SEGMENT_SECONDS` each and reports each metric as its median over
//! segments, or over all acquisitions of the run for latency percentiles. `--trace 1` runs the
//! single-layer rungs, then splits the time between untraced and traced
//! segments and reports the per-layer metrics. Both check every epoch's
//! lock counters, every acquisition's step bound and the fairness floor;
//! the last line of standard output is a JSON summary, and the exit code
//! is nonzero when a check fails.

mod drive;
mod rungs;
mod span;
mod stats;

use drive::{run_segment, Plan, Segment, Workload, FINAL_READS, KAPPA, THREADS};
use rungs::Rung;
use span::Kind;
use stats::percentile;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use wfl_obs::{EventKind, TraceSnapshot, CTRL_PID};

/// Wall time of one segment, set-up excluded. Each segment starts from a
/// fresh heap, so the run reports several set-ups and a median over
/// segments that one disturbed segment cannot move.
const SEGMENT_SECONDS: f64 = 2.0;
/// The fewest segments a run (or each half of a traced run) measures.
const MIN_SEGMENTS: u32 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(0.5..=120.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 0.5..=120"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn segment_seed(seed: u64, seg: u32) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(seg) + 1)
}

/// Segments filling `seconds` of wall time, the first 10% of each being
/// warm-up. Segment `i` uses seed index `first + i`.
fn run_segments(wl: &Workload, seed: u64, first: u32, seconds: f64, traced: bool) -> Vec<Segment> {
    let segments = ((seconds / SEGMENT_SECONDS).round() as u32).max(MIN_SEGMENTS);
    let each = Duration::from_secs_f64(seconds) / segments;
    let plan = Plan {
        warmup: each / 10,
        measure: each - each / 10,
    };
    let mut retired = None;
    (first..first + segments)
        .map(|i| {
            let (seg, heap) = run_segment(wl, segment_seed(seed, i), plan, traced, retired.take());
            retired = Some(heap);
            seg
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One metric: name, unit, what its repeats are, and its value per
/// repeat, or a single value pooled over `pooled` samples.
struct Metric {
    name: &'static str,
    unit: &'static str,
    over: &'static str,
    values: Vec<f64>,
    pooled: Option<usize>,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, over: &'static str, values: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            over,
            values,
            pooled: None,
        }
    }

    fn pooled(
        name: &'static str,
        unit: &'static str,
        over: &'static str,
        value: f64,
        n: usize,
    ) -> Metric {
        Metric {
            name,
            unit,
            over,
            values: vec![value],
            pooled: Some(n),
        }
    }

    fn median(&self) -> f64 {
        stats::median(&self.values)
    }
}

fn print_metrics(wl: &Workload, title: &str, metrics: &[Metric]) {
    println!("## {} {title}", wl.name);
    for m in metrics {
        let (p25, median, p75) = stats::quartiles(&m.values);
        let stat = match m.pooled {
            Some(n) => format!("{} over n={n}", m.over),
            None => format!(
                "median of n={} {}; p25 {:.4} p75 {:.4}",
                m.values.len(),
                m.over,
                p25,
                p75
            ),
        };
        println!(
            "{:<12} {:<26} {:>16.4} {:<6} {stat}",
            wl.name, m.name, median, m.unit
        );
    }
}

/// Acquisition latencies of a segment, pooled over its callers, sorted.
fn latencies(seg: &Segment) -> Vec<u32> {
    let mut all: Vec<u32> = seg
        .threads
        .iter()
        .flat_map(|t| t.lat_ns.iter().copied())
        .collect();
    all.sort_unstable();
    all
}

fn sum(seg: &Segment, f: impl Fn(&drive::ThreadOut) -> u64) -> f64 {
    seg.threads.iter().map(f).sum::<u64>() as f64
}

fn acq_per_s(seg: &Segment) -> f64 {
    sum(seg, |t| t.win.acqs) / seg.window.as_secs_f64()
}

const PER_SEG: &str = "segments";

/// The end-to-end metrics: one value per segment, so that the median
/// ignores a disturbance confined to a few segments (the latency tail of a
/// shared machine comes in episodes), except the fairness ratio, which
/// pools the run: which caller a scheduler favours in one segment is
/// chance, an unfair lock favours the same caller in every segment.
fn end_to_end(segs: &[Segment]) -> Vec<Metric> {
    let per = |f: &dyn Fn(&Segment) -> f64| segs.iter().map(f).collect::<Vec<f64>>();
    let lats: Vec<Vec<u32>> = segs.iter().map(latencies).collect();
    let pct = |p: f64| {
        lats.iter()
            .map(|l| f64::from(percentile(l, p)))
            .collect::<Vec<f64>>()
    };
    let per_caller: Vec<u64> = (0..THREADS)
        .map(|i| segs.iter().map(|s| s.threads[i].win.acqs).sum())
        .collect();
    let fair = ratio(
        *per_caller.iter().min().expect("callers") as f64,
        *per_caller.iter().max().expect("callers") as f64,
    );
    vec![
        Metric::new("acq_per_s", "1/s", PER_SEG, per(&acq_per_s)),
        Metric::new("acq_p50_ns", "ns", "segment p50s", pct(0.50)),
        Metric::new("acq_p99_ns", "ns", "segment p99s", pct(0.99)),
        Metric::new(
            "attempt_success",
            "ratio",
            PER_SEG,
            per(&|s| ratio(sum(s, |t| t.win.acqs), sum(s, |t| t.win.attempts))),
        ),
        Metric::new(
            "steps_per_acq",
            "steps",
            PER_SEG,
            per(&|s| ratio(sum(s, |t| t.win.steps), sum(s, |t| t.win.acqs))),
        ),
        Metric::pooled(
            "fair_min_max",
            "ratio",
            "min/max acquisitions per caller, pooled",
            fair,
            THREADS,
        ),
        Metric::new(
            "heap_high_water_words",
            "words",
            PER_SEG,
            per(&|s| s.high_water as f64),
        ),
        Metric::new("setup_s", "s", "set-ups", per(&|s| s.setup.as_secs_f64())),
    ]
}

/// Mean own steps per attempt in each recorder phase (help, reveal,
/// settle, release), over the complete attempts the rings retained.
fn phase_steps(snap: &TraceSnapshot) -> [f64; 4] {
    const ORDER: [EventKind; 5] = [
        EventKind::AttemptStart,
        EventKind::HelpDone,
        EventKind::RevealDone,
        EventKind::SettleDone,
        EventKind::AttemptEnd,
    ];
    let mut sums = [0u64; 4];
    let mut n = 0u64;
    for (pid, events) in &snap.per_pid {
        if *pid == CTRL_PID {
            continue;
        }
        let mut at = [0u64; 5];
        let mut next = None;
        for e in events {
            let Some(k) = ORDER.iter().position(|&o| o == e.kind) else {
                continue;
            };
            if k == 0 {
                at[0] = e.steps;
                next = Some(1);
            } else if next == Some(k) {
                at[k] = e.steps;
                next = if k == 4 { None } else { Some(k + 1) };
                if k == 4 {
                    for (i, s) in sums.iter_mut().enumerate() {
                        *s += at[i + 1] - at[i];
                    }
                    n += 1;
                }
            } else {
                next = None;
            }
        }
    }
    sums.map(|s| ratio(s as f64, n as f64))
}

fn pooled_durations(seg: &Segment, kind: Kind) -> Vec<u32> {
    let mut all: Vec<u32> = seg
        .threads
        .iter()
        .filter_map(|t| t.tracer.as_ref())
        .flat_map(|tr| tr.durations(kind).iter().copied())
        .collect();
    all.sort_unstable();
    all
}

fn pooled_pct(seg: &Segment, kind: Kind, p: f64) -> f64 {
    let d = pooled_durations(seg, kind);
    if d.is_empty() {
        0.0
    } else {
        f64::from(percentile(&d, p))
    }
}

/// The per-layer metrics from the rungs, the untraced segments and the
/// traced segments.
fn per_layer(seed: u64, untraced: &[Segment], traced: &[Segment]) -> Vec<Metric> {
    let rung = |r: Rung| rungs::measure(r, seed);
    let local_step = Metric::new(
        "runtime.local_step_ns",
        "ns",
        "rung reps x threads",
        rung(Rung::LocalStep),
    );
    let cas = Metric::new(
        "runtime.cas_ns",
        "ns",
        "rung reps x threads",
        rung(Rung::Cas),
    );
    let shared = Metric::new(
        "activeset.cycle_ns_shared",
        "ns",
        "rung reps x threads",
        rung(Rung::CycleShared),
    );
    let private = Metric::new(
        "activeset.cycle_ns_private",
        "ns",
        "rung reps x threads",
        rung(Rung::CyclePrivate),
    );
    let step_ns = local_step.median();

    let per = |f: &dyn Fn(&Segment) -> f64| traced.iter().map(f).collect::<Vec<f64>>();
    let traced_sum = |s: &Segment, f: &dyn Fn(&span::Tracer) -> u64| {
        s.threads
            .iter()
            .filter_map(|t| t.tracer.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let attempt_p50 = per(&|s| pooled_pct(s, Kind::Attempt, 0.50));
    let steps_per_attempt = per(&|s| ratio(sum(s, |t| t.win.steps), sum(s, |t| t.win.attempts)));
    let phases: Vec<[f64; 4]> = traced
        .iter()
        .map(|s| phase_steps(s.rec.as_ref().expect("traced")))
        .collect();
    let phase = |i: usize| phases.iter().map(|p| p[i]).collect::<Vec<f64>>();
    let work: Vec<f64> = attempt_p50
        .iter()
        .zip(&steps_per_attempt)
        .map(|(ns, st)| ns - st * step_ns)
        .collect();
    let padding: Vec<f64> = attempt_p50
        .iter()
        .zip(&phases)
        .map(|(ns, p)| ratio((p[1] + p[3]) * step_ns, *ns))
        .collect();
    let untraced_rate = stats::median(&untraced.iter().map(acq_per_s).collect::<Vec<f64>>());
    let overhead: Vec<f64> = traced
        .iter()
        .map(|s| ratio(untraced_rate, acq_per_s(s)))
        .collect();
    let overruns: u64 = traced
        .iter()
        .flat_map(|s| &s.threads)
        .map(|t| t.win.overruns)
        .sum();
    let attempts = traced
        .iter()
        .flat_map(|s| &s.threads)
        .map(|t| t.win.attempts)
        .sum::<u64>() as usize;
    vec![
        local_step,
        cas,
        shared,
        private,
        Metric::new(
            "epoch.boundary_ns_p50",
            "ns",
            "traced segments",
            per(&|s| pooled_pct(s, Kind::Boundary, 0.50)),
        ),
        Metric::new(
            "epoch.wait_share",
            "ratio",
            "traced segments",
            per(&|s| {
                let wall: u64 = s
                    .threads
                    .iter()
                    .map(|t| match (t.window_start, t.end) {
                        (Some(a), Some(b)) => (b - a).as_nanos() as u64,
                        _ => 0,
                    })
                    .sum();
                ratio(
                    traced_sum(s, &|tr| tr.self_time_ns(Kind::BarrierWait)),
                    wall as f64,
                )
            }),
        ),
        Metric::new(
            "epoch.acq_per_epoch",
            "count",
            "traced segments",
            per(&|s| ratio(sum(s, |t| t.issued), s.epochs as f64)),
        ),
        Metric::new(
            "core.attempt_ns_p50",
            "ns",
            "traced segments",
            attempt_p50.clone(),
        ),
        Metric::new(
            "core.attempt_ns_p99",
            "ns",
            "traced segments",
            per(&|s| pooled_pct(s, Kind::Attempt, 0.99)),
        ),
        Metric::new(
            "core.steps_per_attempt",
            "steps",
            "traced segments",
            steps_per_attempt,
        ),
        Metric::new("core.work_ns_per_attempt", "ns", "traced segments", work),
        Metric::new("core.padding_share", "ratio", "traced segments", padding),
        Metric::new(
            "core.helped_per_attempt",
            "count",
            "traced segments",
            per(&|s| ratio(sum(s, |t| t.win.helped), sum(s, |t| t.win.attempts))),
        ),
        Metric::pooled(
            "core.delay_overruns",
            "count",
            "total over the traced segments' attempts",
            overruns as f64,
            attempts,
        ),
        Metric::new(
            "core.combined_share",
            "ratio",
            "traced segments",
            per(&|s| ratio(sum(s, |t| t.win.combined), sum(s, |t| t.win.wins_all))),
        ),
        Metric::new(
            "core.peers_per_combine",
            "count",
            "traced segments",
            per(&|s| ratio(sum(s, |t| t.win.peers), sum(s, |t| t.win.combiners))),
        ),
        Metric::new(
            "idem.thunk_runs_per_win",
            "ratio",
            "traced segments",
            per(&|s| {
                ratio(
                    traced_sum(s, &|tr| tr.count(Kind::Thunk) as u64),
                    sum(s, |t| t.win.wins_all),
                )
            }),
        ),
        Metric::new(
            "idem.thunk_ns_p50",
            "ns",
            "traced segments",
            per(&|s| pooled_pct(s, Kind::Thunk, 0.50)),
        ),
        Metric::new("obs.help_steps", "steps", "traced segments", phase(0)),
        Metric::new("obs.reveal_steps", "steps", "traced segments", phase(1)),
        Metric::new("obs.settle_steps", "steps", "traced segments", phase(2)),
        Metric::new("obs.release_steps", "steps", "traced segments", phase(3)),
        Metric::new("obs.trace_overhead", "ratio", "traced segments", overhead),
    ]
}

/// The run's correctness checks; each failure is one message.
fn check(wl: &Workload, segs: &[&Segment]) -> Vec<String> {
    let mut failures: Vec<String> = segs.iter().flat_map(|s| s.errors.iter().cloned()).collect();
    let threads = || segs.iter().flat_map(|s| &s.threads);
    let violations: u64 = threads().map(|t| t.bound_violations).sum();
    if violations > 0 {
        failures.push(format!(
            "{violations} acquisitions took more than attempts x (step_bound + {FINAL_READS}) = attempts x {} steps",
            wl.config().step_bound() + FINAL_READS
        ));
    }
    let wins: u64 = threads().map(|t| t.win.acqs).sum();
    let attempts: u64 = threads().map(|t| t.win.attempts).sum();
    let success = ratio(wins as f64, attempts as f64);
    if success < wl.success_floor() {
        failures.push(format!(
            "attempt success {success:.4} ({wins} wins / {attempts} attempts) is below 1/(kL) = {:.4}",
            wl.success_floor()
        ));
    }
    let overruns: u64 = threads().map(|t| t.win.overruns).sum();
    if overruns > 0 {
        failures.push(format!("{overruns} attempts overran their delay target"));
    }
    failures
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let v = m.median();
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Writes the last traced segment's spans as a Chrome trace next to the
/// benchmark's sources.
fn write_trace(wl: &Workload, seed: u64, seg: &Segment) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-{seed}.json", wl.name));
    let spans = seg
        .threads
        .iter()
        .filter_map(|t| t.tracer.as_ref())
        .flat_map(|tr| &tr.spans);
    std::fs::write(&path, span::chrome_json(spans))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lockbench: {e}");
            eprintln!("usage: lockbench --workload <spread|hot|hot_combine> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let cfg = wl.config();
    println!(
        "# lockbench workload={} seed={} seconds={} trace={} threads={THREADS} available_parallelism={}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wfl_runtime::available_parallelism()
    );
    println!(
        "# locks={} kappa={KAPPA} L={} T={} combining={} step_bound={} (+{FINAL_READS} final read) closed loop, zero think time",
        wl.nlocks, wl.l, cfg.t_max, cfg.combine, cfg.step_bound()
    );
    let (segs, traced, metrics): (Vec<Segment>, Vec<Segment>, Vec<Metric>) = if args.trace {
        let untraced = run_segments(&wl, args.seed, 0, args.seconds / 2.0, false);
        let traced = run_segments(
            &wl,
            args.seed,
            untraced.len() as u32,
            args.seconds / 2.0,
            true,
        );
        let layers = per_layer(args.seed, &untraced, &traced);
        (untraced, traced, layers)
    } else {
        let segs = run_segments(&wl, args.seed, 0, args.seconds, false);
        let e2e = end_to_end(&segs);
        (segs, Vec::new(), e2e)
    };

    print_metrics(&wl, "end to end (untraced)", &end_to_end(&segs));
    let all: Vec<&Segment> = segs.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().flat_map(|s| &s.threads).map(|t| t.issued).sum();
    let failed: u64 = all.iter().flat_map(|s| &s.threads).map(|t| t.failed).sum();
    println!(
        "{:<12} {:<26} {:>16.4} {:<6} total over n={} segments ({failed} of {attempted} acquisitions)",
        wl.name,
        "failed_frac",
        ratio(failed as f64, attempted as f64),
        "ratio",
        all.len()
    );
    let per_seg: Vec<usize> = segs
        .iter()
        .map(|s| s.threads.iter().map(|t| t.lat_ns.len()).sum())
        .collect();
    println!(
        "# each segment's latency percentiles are over n={}..{} acquisitions",
        per_seg.iter().min().unwrap_or(&0),
        per_seg.iter().max().unwrap_or(&0)
    );
    if args.trace {
        print_metrics(&wl, "per layer (rungs, and traced segments)", &metrics);
        let m = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map(Metric::median)
                .unwrap_or(0.0)
        };
        println!(
            "# delay padding ((obs.reveal_steps + obs.release_steps) x runtime.local_step_ns = {:.0} ns) explains {:.1}% of core.attempt_ns_p50 ({:.0} ns)",
            (m("obs.reveal_steps") + m("obs.release_steps")) * m("runtime.local_step_ns"),
            100.0 * m("core.padding_share"),
            m("core.attempt_ns_p50")
        );
        let dropped: u64 = traced
            .iter()
            .flat_map(|s| &s.threads)
            .filter_map(|t| t.tracer.as_ref())
            .map(|tr| tr.dropped)
            .sum();
        match traced.last().map(|s| write_trace(&wl, args.seed, s)) {
            Some(Ok(path)) => println!(
                "# spans of the last traced segment: {path} ({dropped} spans counted but not kept)"
            ),
            Some(Err(e)) => eprintln!("lockbench: could not write the trace: {e}"),
            None => {}
        }
    }

    let failures = check(&wl, &all);
    for f in &failures {
        eprintln!("lockbench: CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
