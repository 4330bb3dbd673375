//! Timed calls into the measured layers, and (in traced runs) one span
//! per call: name, start, end, parent span and job id. Spans stay in
//! memory until the run ends, then render as Chrome trace-event JSON —
//! the format `tapeflow profile --trace-out` writes — so Perfetto opens
//! both.

use crate::alloc::{HeapUse, Meter};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tapeflow_sim::json::Value;

/// The measured layers: one per workspace crate. A span's layer is the
/// first dot-separated segment of its name.
pub const LAYERS: [&str; 6] = ["benchmarks", "autodiff", "core", "ir", "sim", "bench"];

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Enclosing span (0 for none).
    pub parent: u64,
    pub name: &'static str,
    pub job: u64,
    pub tid: u64,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// What one call cost: wall time and the calling thread's heap traffic.
#[derive(Clone, Copy, Debug, Default)]
pub struct Call {
    pub secs: f64,
    pub heap: HeapUse,
}

impl Call {
    pub fn ms(&self) -> f64 {
        self.secs * 1e3
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Times layer calls; records spans only when switched on.
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns span recording on or off. Timing and heap metering run
    /// either way, so traced and untraced runs do the same work apart
    /// from the span bookkeeping.
    pub fn set_recording(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn recording(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Runs `f` as the call `name` of job `job`, timing it and metering
    /// the calling thread's heap.
    pub fn call<R>(&self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> (R, Call) {
        let on = self.recording();
        let id = if on {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            STACK.with(|s| s.borrow_mut().push(id));
            id
        } else {
            0
        };
        let meter = Meter::start();
        let t = Instant::now();
        let r = f();
        let end = Instant::now();
        let heap = meter.stop();
        if on {
            let parent = STACK.with(|s| {
                let mut s = s.borrow_mut();
                s.pop();
                s.last().copied().unwrap_or(0)
            });
            let span = Span {
                id,
                parent,
                name,
                job,
                tid: tid(),
                start: (t - self.t0).as_secs_f64(),
                end: (end - self.t0).as_secs_f64(),
            };
            self.spans.lock().expect("span log poisoned").push(span);
        }
        let call = Call {
            secs: (end - t).as_secs_f64(),
            heap,
        };
        (r, call)
    }

    /// The innermost open span on this thread (0 for none); hand it to
    /// [`Tracer::adopt`] on a worker thread to parent the worker's spans.
    pub fn current(&self) -> u64 {
        STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Runs `f` with `parent` as the enclosing span on this thread.
    pub fn adopt<R>(&self, parent: u64, f: impl FnOnce() -> R) -> R {
        if !self.recording() {
            return f();
        }
        STACK.with(|s| s.borrow_mut().push(parent));
        let r = f();
        STACK.with(|s| s.borrow_mut().pop());
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span log poisoned")
    }
}

/// Length of the union of `iv`, clipped to `[lo, hi]`.
fn union_len(mut iv: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut cur) = (0.0, lo);
    for (s, e) in iv {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// Self time per span name prefix (layer): each span's duration minus
/// the part of it its child spans cover.
pub fn self_secs_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0.0, |c| union_len(c.clone(), s.start, s.end));
        *out.entry(s.layer()).or_insert(0.0) += (s.end - s.start - covered).max(0.0);
    }
    out
}

/// Seconds of the spans named `root` that their direct children from a
/// measured layer cover, and the roots' total duration. With `root` the
/// per-job span, this is the share of job time (on whichever thread ran
/// the job) that some layer call accounts for.
pub fn child_cover_secs(spans: &[Span], root: &str) -> (f64, f64) {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| LAYERS.contains(&s.layer())) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .filter(|s| s.name == root)
        .fold((0.0, 0.0), |(cover, total), r| {
            let c = children
                .get(&r.id)
                .map_or(0.0, |c| union_len(c.clone(), r.start, r.end));
            (cover + c, total + r.end - r.start)
        })
}

/// Chrome trace-event document: one complete (`X`) event per span,
/// one track per thread.
pub fn chrome_trace(spans: &[Span], process: &str) -> Value {
    let mut events = Vec::new();
    let meta = |name: &str, tid: u64, label: String| {
        let mut args = Value::object();
        args.set("name", label);
        let mut e = Value::object();
        e.set("name", name)
            .set("ph", "M")
            .set("pid", 1u64)
            .set("tid", tid)
            .set("args", args);
        e
    };
    events.push(meta("process_name", 0, process.to_string()));
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for t in tids {
        events.push(meta("thread_name", t, format!("thread {t}")));
    }
    for s in spans {
        let mut args = Value::object();
        args.set("id", s.id)
            .set("parent", s.parent)
            .set("job", s.job);
        let mut e = Value::object();
        e.set("name", s.name)
            .set("cat", s.layer())
            .set("ph", "X")
            .set("ts", s.start * 1e6)
            .set("dur", (s.end - s.start) * 1e6)
            .set("pid", 1u64)
            .set("tid", s.tid)
            .set("args", args);
        events.push(e);
    }
    let mut doc = Value::object();
    doc.set("displayTimeUnit", "ns")
        .set("traceEvents", Value::Arr(events));
    doc
}
