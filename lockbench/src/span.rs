//! Benchmark-side spans for the traced run.
//!
//! Spans are opened and closed around the calls the benchmark makes into
//! the library (nothing is recorded inside the library itself). Each
//! worker thread owns one [`Tracer`] in a thread-local, so recording
//! touches no shared memory; the segment takes the tracer back when the
//! worker ends. Parents come from the thread's open-span stack: a thunk
//! body run while this thread helps another attempt is a child of this
//! thread's attempt span, and an epoch boundary led by this thread is a
//! child of its barrier wait.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The span kinds, one per boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One acquisition: the benchmark-side retry loop.
    Acquisition,
    /// One `try_locks` call.
    Attempt,
    /// One entry into the critical-section thunk body.
    Thunk,
    /// The epoch leader's boundary closure.
    Boundary,
    /// From the end of a worker's batch to the start of its next one (or
    /// to the end of the run): parked at the epoch barrier, plus the
    /// boundary work when this worker led.
    BarrierWait,
}

const KINDS: usize = 5;

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Acquisition => "acquisition",
            Kind::Attempt => "attempt",
            Kind::Thunk => "thunk",
            Kind::Boundary => "epoch_boundary",
            Kind::BarrierWait => "barrier_wait",
        }
    }
}

/// A closed span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub id: u64,
    /// The enclosing span's id, 0 for a root span.
    pub parent: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    kind: Kind,
    id: u64,
    start_ns: u64,
    child_ns: u64,
}

/// One thread's spans and per-kind duration samples.
pub struct Tracer {
    origin: Instant,
    tid: u32,
    next_id: u64,
    stack: Vec<Open>,
    /// The first `cap` closed spans, for the written trace.
    pub spans: Vec<Span>,
    cap: usize,
    /// Spans closed after `spans` was full (counted, not kept).
    pub dropped: u64,
    /// Every closed span's duration, per kind, in ns.
    durations: [Vec<u32>; KINDS],
    /// Summed self time per kind (duration minus the time covered by
    /// child spans), in ns.
    self_ns: [u64; KINDS],
}

impl Tracer {
    fn new(origin: Instant, tid: u32, cap: usize) -> Tracer {
        Tracer {
            origin,
            tid,
            next_id: 1,
            stack: Vec::with_capacity(8),
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
            durations: Default::default(),
            self_ns: [0; KINDS],
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, kind: Kind) {
        let id = (u64::from(self.tid) << 48) | self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            kind,
            id,
            start_ns,
            child_ns: 0,
        });
    }

    fn close(&mut self, kind: Kind) {
        let end_ns = self.now_ns();
        let o = self.stack.pop().expect("span closed without an open span");
        assert_eq!(o.kind, kind, "spans must close in the order they opened");
        let dur = end_ns - o.start_ns;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        self.durations[kind as usize].push(dur.min(u64::from(u32::MAX)) as u32);
        self.self_ns[kind as usize] += dur.saturating_sub(o.child_ns);
        let span = Span {
            kind,
            id: o.id,
            parent,
            tid: self.tid,
            start_ns: o.start_ns,
            end_ns,
        };
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Forgets everything closed so far (the end of warm-up). Open spans
    /// stay open and are recorded when they close.
    fn clear(&mut self) {
        self.spans.clear();
        self.dropped = 0;
        self.durations.iter_mut().for_each(Vec::clear);
        self.self_ns = [0; KINDS];
    }

    /// Closed spans of `kind` (kept or dropped).
    pub fn count(&self, kind: Kind) -> usize {
        self.durations[kind as usize].len()
    }

    pub fn self_time_ns(&self, kind: Kind) -> u64 {
        self.self_ns[kind as usize]
    }

    pub fn durations(&self, kind: Kind) -> &[u32] {
        &self.durations[kind as usize]
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, keeping at most `cap` spans.
pub fn install(origin: Instant, tid: u32, cap: usize) {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new(origin, tid, cap)));
}

/// Stops recording on this thread and returns what it recorded.
pub fn take() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Opens a span on this thread; a no-op when no tracer is installed.
#[inline]
pub fn open(kind: Kind) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.open(kind);
        }
    });
}

/// Closes this thread's innermost span, which must be of `kind`.
#[inline]
pub fn close(kind: Kind) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.close(kind);
        }
    });
}

/// Whether this thread's innermost open span is of `kind`.
pub fn is_open(kind: Kind) -> bool {
    TRACER.with(|t| {
        t.borrow()
            .as_ref()
            .and_then(|tr| tr.stack.last())
            .is_some_and(|o| o.kind == kind)
    })
}

/// Discards this thread's closed spans and samples (end of warm-up).
pub fn clear() {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.clear();
        }
    });
}

/// Renders spans as Chrome `trace_event` JSON (complete events, times in
/// microseconds), which Perfetto and `chrome://tracing` open directly.
pub fn chrome_json<'a>(spans: impl IntoIterator<Item = &'a Span>) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.kind.label(),
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time() {
        install(Instant::now(), 3, 16);
        open(Kind::BarrierWait);
        open(Kind::Boundary);
        std::thread::sleep(std::time::Duration::from_millis(2));
        close(Kind::Boundary);
        assert!(is_open(Kind::BarrierWait));
        close(Kind::BarrierWait);
        let tr = take().expect("installed");
        assert_eq!(tr.spans.len(), 2);
        let (inner, outer) = (tr.spans[0], tr.spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.tid, 3);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        // The wait's self time excludes the boundary it contains.
        let outer_dur = outer.end_ns - outer.start_ns;
        let inner_dur = inner.end_ns - inner.start_ns;
        assert_eq!(tr.self_time_ns(Kind::BarrierWait), outer_dur - inner_dur);
        assert_eq!(tr.self_time_ns(Kind::Boundary), inner_dur);
        let json = chrome_json(&tr.spans);
        assert!(json.contains("\"name\":\"epoch_boundary\""));
    }

    #[test]
    fn cap_counts_dropped_spans_and_clear_resets() {
        install(Instant::now(), 0, 1);
        for _ in 0..3 {
            open(Kind::Attempt);
            close(Kind::Attempt);
        }
        TRACER.with(|t| {
            let b = t.borrow();
            let tr = b.as_ref().unwrap();
            assert_eq!(
                (tr.spans.len(), tr.dropped, tr.count(Kind::Attempt)),
                (1, 2, 3)
            );
        });
        clear();
        let tr = take().unwrap();
        assert_eq!(
            (tr.spans.len(), tr.dropped, tr.count(Kind::Attempt)),
            (0, 0, 0)
        );
        // Without a tracer, spans are no-ops.
        open(Kind::Thunk);
        close(Kind::Thunk);
        assert!(take().is_none());
    }
}
