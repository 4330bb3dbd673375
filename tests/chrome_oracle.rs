//! Differential oracle for the compact Chrome-trace recorder: a
//! reference recorder (and sampler) that builds one `json::Value`
//! object per event and renders the tree with `Value::render` rides in
//! the *same* simulation as `TraceRecorder` / `SamplingProbe` through
//! the tuple probe, so both see one hook sequence, and the two rendered
//! documents must be equal byte for byte.
//!
//! Covered: all nine benchmarks at Tiny scale (Enzyme gradient, Tflow
//! and TflowC compilations), full and 1-in-8 sampled timelines,
//! one- and two-recorder documents (pid 1 and pid 2, as `tapeflow
//! profile` writes them), a never-started recorder, the pre-geometry
//! marker, and a process label that needs JSON escaping.

use tapeflow::benchmarks::{by_name, Scale, NAMES};
use tapeflow::core::pipeline::PipelineBuilder;
use tapeflow::core::CompileOptions;
use tapeflow::ir::trace::{trace_function, Trace, TraceOptions};
use tapeflow::ir::{ArrayId, Function, Memory, OpClass};
use tapeflow::sim::json::Value;
use tapeflow::sim::probe::CacheAccessEvent;
use tapeflow::sim::{
    simulate_probed, ProbeGeometry, SamplingProbe, SimOptions, SimProbe, SystemConfig,
    TraceRecorder,
};

/// The reference timeline recorder: one JSON object per event.
struct RefRecorder {
    pid: u64,
    name: String,
    geom: Option<ProbeGeometry>,
    lanes: Vec<u64>,
    mshr_pending: bool,
    events: Vec<Value>,
    pre_geometry_drops: u64,
    first_dropped_hook: Option<&'static str>,
}

impl RefRecorder {
    fn new(pid: u64, name: &str) -> Self {
        RefRecorder {
            pid,
            name: name.to_string(),
            geom: None,
            lanes: Vec::new(),
            mshr_pending: false,
            events: Vec::new(),
            pre_geometry_drops: 0,
            first_dropped_hook: None,
        }
    }

    fn geom_or_drop(&mut self, hook: &'static str) -> Option<ProbeGeometry> {
        if self.geom.is_none() {
            self.pre_geometry_drops += 1;
            self.first_dropped_hook.get_or_insert(hook);
        }
        self.geom
    }

    fn meta(&mut self, which: &str, tid: u64, name: &str) {
        let mut args = Value::object();
        args.set("name", name);
        let mut e = Value::object();
        e.set("name", which)
            .set("ph", "M")
            .set("pid", self.pid)
            .set("tid", tid);
        e.set("args", args);
        self.events.push(e);
    }

    fn slice(&mut self, tid: u64, name: &str, ts: u64, dur: u64, args: Option<Value>) {
        let mut e = Value::object();
        e.set("name", name)
            .set("ph", "X")
            .set("ts", ts)
            .set("dur", dur.max(1))
            .set("pid", self.pid)
            .set("tid", tid);
        if let Some(a) = args {
            e.set("args", a);
        }
        self.events.push(e);
    }

    fn instant(&mut self, tid: u64, name: &str, ts: u64, scope: &str) {
        let mut e = Value::object();
        e.set("name", name)
            .set("ph", "i")
            .set("ts", ts)
            .set("pid", self.pid)
            .set("tid", tid)
            .set("s", scope);
        self.events.push(e);
    }

    fn lane(&mut self, fin: u64) -> u64 {
        let lane = (0..self.lanes.len())
            .min_by_key(|&i| self.lanes[i])
            .unwrap_or(0);
        self.lanes[lane] = self.lanes[lane].max(fin);
        lane as u64
    }

    fn into_events(mut self) -> Vec<Value> {
        if let Some(hook) = self.first_dropped_hook {
            let mut args = Value::object();
            args.set("dropped", self.pre_geometry_drops)
                .set("first_hook", hook);
            self.events
                .push(marker("pre-geometry events dropped", self.pid, args));
        }
        self.events
    }
}

fn marker(name: &str, pid: u64, args: Value) -> Value {
    let mut e = Value::object();
    e.set("name", name)
        .set("ph", "i")
        .set("ts", 0u64)
        .set("pid", pid)
        .set("tid", 0u64)
        .set("s", "p");
    e.set("args", args);
    e
}

impl SimProbe for RefRecorder {
    fn on_start(&mut self, g: &ProbeGeometry) {
        self.geom = Some(*g);
        self.lanes = vec![0; g.pes];
        self.meta("process_name", 0, &self.name.clone());
        for p in 0..g.pes {
            self.meta("thread_name", p as u64, &format!("PE {p}"));
        }
        for c in 0..g.cache_ports {
            self.meta(
                "thread_name",
                (g.pes + c) as u64,
                &format!("cache port {c}"),
            );
        }
        for (dir, label) in ["FWD-Stream (out)", "REV-Stream (in)"].iter().enumerate() {
            self.meta("thread_name", (g.pes + g.cache_ports + dir) as u64, label);
        }
        for b in 0..g.spad_banks {
            let tid = (g.pes + g.cache_ports + 2 + b) as u64;
            self.meta("thread_name", tid, &format!("spad bank {b}"));
        }
    }

    fn on_fp_issue(&mut self, now: u64, fin: u64, class: OpClass, _node: u32) {
        if self.geom_or_drop("on_fp_issue").is_none() {
            return;
        }
        let lane = self.lane(fin);
        let name = match class {
            OpClass::FpMul => "fp-mul",
            OpClass::FpLong => "fp-long",
            _ => "fp-alu",
        };
        self.slice(lane, name, now, fin - now, None);
    }

    fn on_int_issue(&mut self, now: u64, fin: u64, _node: u32) {
        if self.geom_or_drop("on_int_issue").is_none() {
            return;
        }
        let lane = self.lane(fin);
        self.slice(lane, "int", now, fin - now, None);
    }

    fn on_cache_access(&mut self, ev: &CacheAccessEvent) {
        let Some(g) = self.geom_or_drop("on_cache_access") else {
            return;
        };
        let name = match (ev.hit, std::mem::take(&mut self.mshr_pending)) {
            (true, _) => "hit",
            (false, false) => "miss",
            (false, true) => "miss (mshr stall)",
        };
        let mut args = Value::object();
        args.set("tape", ev.is_tape)
            .set("rev", ev.is_rev)
            .set("write", ev.is_write);
        let tid = (g.pes + ev.port) as u64;
        let dur = ev.fin.saturating_sub(ev.now);
        self.slice(tid, name, ev.now, dur, Some(args));
    }

    fn on_mshr_stall(&mut self, _now: u64, _is_tape: bool, _node: u32) {
        self.mshr_pending = true;
    }

    fn on_spad_access(&mut self, now: u64, fin: u64, bank: usize, _node: u32) {
        let Some(g) = self.geom_or_drop("on_spad_access") else {
            return;
        };
        let tid = (g.pes + g.cache_ports + 2 + bank) as u64;
        self.slice(tid, "spad", now, fin - now, None);
    }

    fn on_spad_conflict(&mut self, now: u64, bank: usize, _node: u32) {
        let Some(g) = self.geom_or_drop("on_spad_conflict") else {
            return;
        };
        let tid = (g.pes + g.cache_ports + 2 + bank) as u64;
        self.instant(tid, "bank conflict", now, "t");
    }

    fn on_stream(&mut self, now: u64, _bw: u64, fin: u64, dir: usize, bytes: u64, _node: u32) {
        let Some(g) = self.geom_or_drop("on_stream") else {
            return;
        };
        let mut args = Value::object();
        args.set("bytes", bytes);
        let name = if dir == 0 { "stream-out" } else { "stream-in" };
        let tid = (g.pes + g.cache_ports + dir) as u64;
        self.slice(tid, name, now, fin - now, Some(args));
    }

    fn on_phase_barrier(&mut self, at: u64) {
        self.instant(0, "phase barrier", at, "p");
    }
}

/// The reference 1-in-`stride` window sampler over [`RefRecorder`].
struct RefSampler {
    inner: RefRecorder,
    window: u64,
    stride: u64,
    cycles: u64,
}

impl RefSampler {
    fn new(pid: u64, name: &str, window: u64, stride: u64) -> Self {
        RefSampler {
            inner: RefRecorder::new(pid, name),
            window,
            stride,
            cycles: 0,
        }
    }

    fn sampled(&self, now: u64) -> bool {
        (now / self.window).is_multiple_of(self.stride)
    }

    fn into_events(self) -> Vec<Value> {
        let period = self.window * self.stride;
        let recorded = self.cycles / period * self.window + (self.cycles % period).min(self.window);
        let fraction = if self.cycles == 0 {
            1.0
        } else {
            recorded as f64 / self.cycles as f64
        };
        let mut args = Value::object();
        args.set("window_cycles", self.window)
            .set("stride", self.stride)
            .set("recorded_fraction", fraction);
        let pid = self.inner.pid;
        let mut events = self.inner.into_events();
        events.push(marker("sampling", pid, args));
        events
    }
}

impl SimProbe for RefSampler {
    fn on_start(&mut self, g: &ProbeGeometry) {
        self.inner.on_start(g);
    }

    fn on_fp_issue(&mut self, now: u64, fin: u64, class: OpClass, node: u32) {
        if self.sampled(now) {
            self.inner.on_fp_issue(now, fin, class, node);
        }
    }

    fn on_int_issue(&mut self, now: u64, fin: u64, node: u32) {
        if self.sampled(now) {
            self.inner.on_int_issue(now, fin, node);
        }
    }

    fn on_cache_access(&mut self, ev: &CacheAccessEvent) {
        if self.sampled(ev.now) {
            self.inner.on_cache_access(ev);
        }
    }

    fn on_mshr_stall(&mut self, now: u64, is_tape: bool, node: u32) {
        if self.sampled(now) {
            self.inner.on_mshr_stall(now, is_tape, node);
        } else {
            self.inner.mshr_pending = false;
        }
    }

    fn on_spad_access(&mut self, now: u64, fin: u64, bank: usize, node: u32) {
        if self.sampled(now) {
            self.inner.on_spad_access(now, fin, bank, node);
        }
    }

    fn on_spad_conflict(&mut self, now: u64, bank: usize, node: u32) {
        if self.sampled(now) {
            self.inner.on_spad_conflict(now, bank, node);
        }
    }

    fn on_stream(&mut self, now: u64, bw: u64, fin: u64, dir: usize, bytes: u64, node: u32) {
        if self.sampled(now) {
            self.inner.on_stream(now, bw, fin, dir, bytes, node);
        }
    }

    fn on_phase_barrier(&mut self, at: u64) {
        self.inner.on_phase_barrier(at);
    }

    fn on_finish(&mut self, cycles: u64) {
        self.cycles = cycles;
    }
}

/// The reference document: every part's events in one tree, rendered by
/// the tree writer.
fn ref_document(parts: impl IntoIterator<Item = Vec<Value>>) -> String {
    let mut doc = Value::object();
    doc.set("displayTimeUnit", "ns").set(
        "traceEvents",
        Value::Arr(parts.into_iter().flatten().collect()),
    );
    doc.render()
}

/// The window `tapeflow profile --sample` uses.
const WINDOW: u64 = 256;
const STRIDE: u64 = 8;

/// One simulated program's four recordings: full and sampled, compact
/// and reference.
struct Recorded {
    full: (TraceRecorder, RefRecorder),
    sampled: (SamplingProbe, RefSampler),
}

/// Simulates `trace` once with both recorder pairs attached.
fn record(trace: &Trace, pid: u64, name: &str) -> Recorded {
    let mut probe = (
        (TraceRecorder::new(pid, name), RefRecorder::new(pid, name)),
        (
            SamplingProbe::new(pid, name, WINDOW, STRIDE),
            RefSampler::new(pid, name, WINDOW, STRIDE),
        ),
    );
    let cfg = SystemConfig::with_cache_bytes(32 * 1024);
    simulate_probed(trace, &cfg, &SimOptions::default(), &mut probe);
    let (full, sampled) = probe;
    Recorded { full, sampled }
}

/// Asserts the compact and reference renderings of the documents over
/// `runs` agree, for the full and the sampled timelines.
fn assert_same_documents(label: &str, runs: Vec<Recorded>) {
    let (mut full, mut full_ref, mut sampled, mut sampled_ref) = (vec![], vec![], vec![], vec![]);
    for r in runs {
        full.push(r.full.0);
        full_ref.push(r.full.1.into_events());
        sampled.push(r.sampled.0);
        sampled_ref.push(r.sampled.1.into_events());
    }
    let got = TraceRecorder::chrome_trace(full).render();
    assert!(
        got == ref_document(full_ref),
        "{label}: full timeline differs from the reference rendering"
    );
    let got = SamplingProbe::chrome_trace(sampled).render();
    assert!(
        got == ref_document(sampled_ref),
        "{label}: sampled timeline differs from the reference rendering"
    );
}

fn trace_of(func: &Function, mem: &Memory, barrier: tapeflow::ir::InstId) -> Trace {
    let mut mem = mem.clone();
    trace_function(
        func,
        &mut mem,
        TraceOptions {
            phase_barrier: Some(barrier),
        },
    )
    .expect("trace")
}

#[test]
fn compact_recorder_matches_reference_on_every_benchmark() {
    for name in NAMES {
        let bench = by_name(name, Scale::Tiny);
        let grad = bench.gradient();
        let seed = |func: &Function| {
            let mut mem = Memory::for_function(func);
            for i in 0..bench.func.arrays().len() {
                mem.clone_array_from(&bench.mem, ArrayId::new(i));
            }
            let shadow = grad.shadow_of(bench.loss.array).expect("loss shadow");
            mem.set_f64_at(shadow, bench.loss.index, 1.0);
            mem
        };
        let enzyme = trace_of(&grad.func, &seed(&grad.func), grad.phase_barrier);
        let compiled = |compress_tape| {
            let opts = CompileOptions {
                compress_tape,
                ..CompileOptions::default()
            };
            let c = PipelineBuilder::for_options(&opts)
                .run_gradient(&grad)
                .and_then(|run| run.into_compiled())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            trace_of(&c.func, &seed(&c.func), c.phase_barrier)
        };
        // The CLI's shape: Enzyme as pid 1, the Tapeflow build as pid 2.
        assert_same_documents(
            &format!("{name}/Enzyme+Tflow"),
            vec![
                record(&enzyme, 1, "Enzyme"),
                record(&compiled(false), 2, "Tapeflow"),
            ],
        );
        assert_same_documents(
            &format!("{name}/TflowC"),
            vec![record(&compiled(true), 1, "TflowC")],
        );
    }
}

#[test]
fn never_started_and_escaped_labels_match_reference() {
    // A never-started recorder renders an empty timeline, alone and
    // beside a started one.
    assert_eq!(
        TraceRecorder::chrome_trace([TraceRecorder::new(1, "idle")]).render(),
        ref_document([RefRecorder::new(1, "idle").into_events()])
    );
    assert_eq!(
        TraceRecorder::chrome_trace([]).render(),
        ref_document(Vec::<Vec<Value>>::new())
    );
    let bench = by_name("logsum", Scale::Tiny);
    let grad = bench.gradient();
    let trace = trace_of(
        &grad.func,
        &bench.gradient_memory(&grad),
        grad.phase_barrier,
    );
    // Quote, backslash, newline and a control character in the label.
    let label = "log\"sum\\ \n\u{1}";
    let run = record(&trace, 2, label);
    let full = TraceRecorder::chrome_trace([TraceRecorder::new(1, "idle"), run.full.0]).render();
    let want = ref_document([
        RefRecorder::new(1, "idle").into_events(),
        run.full.1.into_events(),
    ]);
    assert!(full == want, "escaped label renders differently");
    assert!(
        full.contains(r#""name": "log\"sum\\ \n\u0001""#),
        "label escaping"
    );
}

#[test]
fn pre_geometry_marker_matches_reference() {
    let access = CacheAccessEvent {
        node: 0,
        now: 1,
        fin: 4,
        port: 0,
        hit: false,
        is_tape: true,
        is_rev: false,
        is_write: true,
    };
    let mut full = (TraceRecorder::new(1, "early"), RefRecorder::new(1, "early"));
    let mut sampled = (
        SamplingProbe::new(2, "early", WINDOW, STRIDE),
        RefSampler::new(2, "early", WINDOW, STRIDE),
    );
    let geom = ProbeGeometry::of(&SystemConfig::default(), true);
    drive_early_then_started(&mut full, &geom, &access);
    drive_early_then_started(&mut sampled, &geom, &access);
    assert_eq!(full.0.pre_geometry_drops(), Some(("on_cache_access", 6)));
    let got = TraceRecorder::chrome_trace([full.0]).render();
    assert!(got.contains("pre-geometry events dropped"));
    assert_eq!(got, ref_document([full.1.into_events()]));
    let got = SamplingProbe::chrome_trace([sampled.0]).render();
    assert_eq!(got, ref_document([sampled.1.into_events()]));
}

/// Hooks before the geometry (dropped and counted), then a correctly
/// started stretch that records normally.
fn drive_early_then_started(
    p: &mut impl SimProbe,
    geom: &ProbeGeometry,
    access: &CacheAccessEvent,
) {
    p.on_cache_access(access);
    p.on_fp_issue(0, 3, OpClass::FpAlu, 0);
    p.on_int_issue(0, 1, 0);
    p.on_spad_access(0, 1, 0, 0);
    p.on_spad_conflict(0, 0, 0);
    p.on_stream(0, 1, 2, 0, 64, 0);
    p.on_phase_barrier(5);

    p.on_start(geom);
    p.on_fp_issue(2, 2, OpClass::FpMul, 0);
    p.on_fp_issue(2, 9, OpClass::FpLong, 1);
    p.on_mshr_stall(3, true, 2);
    p.on_cache_access(access);
    p.on_cache_access(&CacheAccessEvent {
        hit: true,
        is_rev: true,
        port: 1,
        ..*access
    });
    p.on_stream(4, 5, 12, 1, 1 << 40, 3);
    p.on_spad_conflict(6, 3, 4);
    p.on_finish(20);
}
