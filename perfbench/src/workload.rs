//! The three workloads: what they build in set-up, what one job does,
//! and how a job-list pass runs. Every call into a measured layer goes
//! through [`Tracer::call`], named `<layer>.<function>`.

use crate::spans::{Call, Tracer};
use crate::stats::Rng;
use std::sync::Arc;
use tapeflow_autodiff::Gradient;
use tapeflow_bench::{attr, pool};
use tapeflow_benchmarks::{by_name, Benchmark, Scale};
use tapeflow_core::pipeline::PipelineBuilder;
use tapeflow_core::{CompileMode, CompileOptions, CompiledProgram};
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_ir::{ArrayId, ArrayKind, Function, InstId, Memory, Trace};
use tapeflow_sim::{
    simulate_prepared, simulate_prepared_probed, AttributionProbe, CycleBreakdown, InstBreakdown,
    PreparedSim, SimOptions, SimReport, SweepSession, SystemConfig, TraceRecorder,
};

const KIB: usize = 1024;

/// The cache size every workload compares Enzyme and Tapeflow at.
pub const POINT_BYTES: usize = 32 * KIB;

/// Descending cache ladder the sweep draws its subset from: dense
/// around the working-set knees, power-of-two steps in the tail.
pub const LADDER: [usize; 33] = [
    2048 * KIB,
    1792 * KIB,
    1536 * KIB,
    1280 * KIB,
    1024 * KIB,
    896 * KIB,
    768 * KIB,
    640 * KIB,
    512 * KIB,
    448 * KIB,
    384 * KIB,
    320 * KIB,
    256 * KIB,
    224 * KIB,
    192 * KIB,
    160 * KIB,
    128 * KIB,
    112 * KIB,
    96 * KIB,
    80 * KIB,
    64 * KIB,
    56 * KIB,
    48 * KIB,
    40 * KIB,
    32 * KIB,
    28 * KIB,
    24 * KIB,
    20 * KIB,
    16 * KIB,
    8 * KIB,
    4 * KIB,
    2 * KIB,
    KIB,
];

/// Points of the sweep: the three fixed sizes plus one seeded pick from
/// each of 16 adjacent bands of the rest of [`LADDER`].
pub const SWEEP_POINTS: usize = 19;

/// Worker threads for `sweep-small` (never more than the machine has).
const SWEEP_JOBS: usize = 2;

/// Chained sweep configurations re-run cold per check.
pub const COLD_SAMPLE: usize = 8;

/// Hot-spot rows rendered per profiled program.
const HOT_SPOT_ROWS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OneshotLarge,
    SweepSmall,
    ProfileSmall,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OneshotLarge,
        Workload::SweepSmall,
        Workload::ProfileSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotLarge => "oneshot-large",
            Workload::SweepSmall => "sweep-small",
            Workload::ProfileSmall => "profile-small",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn default_scale(self) -> Scale {
        match self {
            Workload::OneshotLarge => Scale::Large,
            Workload::SweepSmall | Workload::ProfileSmall => Scale::Small,
        }
    }

    fn benches(self) -> &'static [&'static str] {
        match self {
            Workload::OneshotLarge => &["gravity", "lenet5"],
            Workload::SweepSmall => &tapeflow_benchmarks::NAMES,
            Workload::ProfileSmall => &["gravity", "mttkrp"],
        }
    }

    /// The workload's Tapeflow program flavour.
    fn tapeflow(self) -> Variant {
        match self {
            Workload::SweepSmall => Variant::TflowC,
            _ => Variant::Tflow,
        }
    }

    /// Whether jobs fan out over the worker pool.
    pub fn pooled(self) -> bool {
        self == Workload::SweepSmall
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    Enzyme,
    Tflow,
    TflowC,
}

impl Variant {
    pub fn label(self) -> &'static str {
        match self {
            Variant::Enzyme => "Enzyme",
            Variant::Tflow => "Tflow",
            Variant::TflowC => "TflowC",
        }
    }
}

/// One benchmark as set-up leaves it: instance, gradient, compiled program.
pub struct Subject {
    pub bench: Benchmark,
    pub grad: Gradient,
    pub compiled: CompiledProgram,
}

/// What one set-up repetition cost, summed over the workload's benchmarks.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupCost {
    pub secs: f64,
    pub build_ms: f64,
    pub differentiate_ms: f64,
    pub pipeline_ms: f64,
    pub tape_kb: f64,
    pub insts_out: f64,
    pub tape_kb_after: f64,
}

/// Builds, differentiates and compiles the workload's benchmarks.
pub fn set_up(tr: &Tracer, w: Workload, scale: Scale) -> Result<(Vec<Subject>, SetupCost), String> {
    let t = std::time::Instant::now();
    let opts = CompileOptions {
        spad_entries: 1024 / 8,
        double_buffer: true,
        mode: CompileMode::Full,
        compress_tape: w.tapeflow() == Variant::TflowC,
    };
    let mut cost = SetupCost::default();
    let mut subjects = Vec::new();
    for name in w.benches() {
        let (bench, c) = tr.call("benchmarks.by_name", 0, || by_name(name, scale));
        cost.build_ms += c.ms();
        let (grad, c) = tr.call("autodiff.differentiate", 0, || bench.gradient());
        cost.differentiate_ms += c.ms();
        let (run, c) = tr.call("core.pipeline", 0, || {
            PipelineBuilder::for_options(&opts)
                .run_gradient(&grad)
                .and_then(|r| r.into_compiled())
        });
        cost.pipeline_ms += c.ms();
        let compiled = run.map_err(|e| format!("{name}: compile failed: {e}"))?;
        cost.tape_kb += grad.func.bytes_of_kind(ArrayKind::Tape) as f64 / 1024.0;
        cost.insts_out += compiled.func.insts().len() as f64;
        cost.tape_kb_after += compiled
            .encoding
            .as_ref()
            .map_or(compiled.stats.merged_tape_bytes, |e| e.bytes_after)
            as f64
            / 1024.0;
        subjects.push(Subject {
            bench,
            grad,
            compiled,
        });
    }
    cost.secs = t.elapsed().as_secs_f64();
    Ok((subjects, cost))
}

/// One job: a program of one benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub subject: usize,
    pub variant: Variant,
}

/// Everything the workload runs, fixed for the whole process.
pub struct Plan {
    pub workload: Workload,
    pub subjects: Vec<Subject>,
    pub jobs: Vec<Job>,
    /// Cache sizes each job simulates, descending.
    pub ladder: Vec<usize>,
}

impl Plan {
    pub fn new(workload: Workload, subjects: Vec<Subject>, seed: u64) -> Plan {
        let mut jobs = Vec::new();
        for subject in 0..subjects.len() {
            for variant in [Variant::Enzyme, workload.tapeflow()] {
                jobs.push(Job { subject, variant });
            }
        }
        let ladder = match workload {
            Workload::SweepSmall => sweep_ladder(&mut Rng::new(seed)),
            _ => vec![POINT_BYTES],
        };
        Plan {
            workload,
            subjects,
            jobs,
            ladder,
        }
    }

    pub fn program(&self, job: Job) -> (&Function, InstId) {
        let s = &self.subjects[job.subject];
        match job.variant {
            Variant::Enzyme => (&s.grad.func, s.grad.phase_barrier),
            _ => (&s.compiled.func, s.compiled.phase_barrier),
        }
    }

    pub fn job_label(&self, job: Job) -> String {
        format!(
            "{}/{}",
            self.subjects[job.subject].bench.name,
            job.variant.label()
        )
    }

    /// Index of [`POINT_BYTES`] in the ladder.
    pub fn point_index(&self) -> usize {
        self.ladder
            .iter()
            .position(|&b| b == POINT_BYTES)
            .expect("the ladder always holds the comparison point")
    }
}

/// The sweep's 19 descending sizes: 2 MiB, 32 KiB and 1 KiB always,
/// plus one seeded pick from each of 16 adjacent bands of the other 30.
pub fn sweep_ladder(rng: &mut Rng) -> Vec<usize> {
    let fixed = [2048 * KIB, POINT_BYTES, KIB];
    let rest: Vec<usize> = LADDER
        .iter()
        .copied()
        .filter(|b| !fixed.contains(b))
        .collect();
    let bands = SWEEP_POINTS - fixed.len();
    let mut out = fixed.to_vec();
    for k in 0..bands {
        let (lo, hi) = (k * rest.len() / bands, (k + 1) * rest.len() / bands);
        out.push(rest[lo + rng.below(hi - lo)]);
    }
    out.sort_unstable_by(|a, b| b.cmp(a));
    out
}

/// Probed-run outputs kept for the attribution checks.
pub struct ProbeOut {
    pub report: SimReport,
    pub breakdown: CycleBreakdown,
    pub insts: Option<InstBreakdown>,
}

/// Per-layer costs of one job.
#[derive(Clone, Debug, Default)]
pub struct JobCost {
    pub secs: f64,
    pub memory: Call,
    pub trace: Call,
    pub nodes: u64,
    pub edges: u64,
    pub prep: Call,
    pub arena_bytes: u64,
    pub engine: Call,
    /// Nodes simulated by the unprobed engine calls.
    pub engine_nodes: u64,
    pub sweep_first_ms: f64,
    pub sweep_chained_ms: f64,
    pub sweep_configs: u64,
    pub probe: Call,
    pub chrome_render: Call,
    pub chrome_bytes: u64,
    pub attr: Call,
    /// Latency of every (program, system config) simulation the job ran.
    pub config_ms: Vec<f64>,
}

pub struct JobOut {
    pub job: usize,
    pub error: Option<String>,
    /// Gradient bits of every differentiated array, as the job's
    /// execution left them.
    pub grad_bits: Vec<Vec<u64>>,
    /// One report per ladder size.
    pub reports: Vec<SimReport>,
    pub probe: Option<ProbeOut>,
    pub cost: JobCost,
}

/// The memory a program starts from: the benchmark's inputs plus the
/// unit seed in the loss shadow.
pub fn seed_memory(s: &Subject, func: &Function) -> Memory {
    let mut mem = Memory::for_function(func);
    for i in 0..s.bench.func.arrays().len() {
        mem.clone_array_from(&s.bench.mem, ArrayId::new(i));
    }
    mem.set_f64_at(
        s.grad.shadow_of(s.bench.loss.array).expect("loss shadow"),
        s.bench.loss.index,
        1.0,
    );
    mem
}

/// Bits of the gradient arrays (the shadows of `wrt`) in `mem`.
pub fn gradient_bits(s: &Subject, mem: &Memory) -> Vec<Vec<u64>> {
    s.bench
        .wrt
        .iter()
        .map(|&w| {
            let shadow = s.grad.shadow_of(w).expect("wrt shadow");
            mem.get_f64(shadow).iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

/// Runs job `j` (the `job_id`-th job of the run) and drops its trace and
/// arena before returning.
pub fn run_job(tr: &Tracer, plan: &Plan, j: usize, job_id: u64) -> JobOut {
    let mut out = JobOut {
        job: j,
        error: None,
        grad_bits: Vec::new(),
        reports: Vec::new(),
        probe: None,
        cost: JobCost::default(),
    };
    let (result, call) = tr.call("perfbench.job", job_id, || {
        job_body(tr, plan, plan.jobs[j], job_id, &mut out)
    });
    out.error = result.err();
    out.cost.secs = call.secs;
    out
}

fn job_body(tr: &Tracer, plan: &Plan, job: Job, id: u64, out: &mut JobOut) -> Result<(), String> {
    let s = &plan.subjects[job.subject];
    let (func, barrier) = plan.program(job);
    let c = &mut out.cost;
    let (mut mem, call) = tr.call("ir.Memory::seed", id, || seed_memory(s, func));
    c.memory = call;
    let (trace, call) = tr.call("ir.trace_function", id, || {
        trace_function(
            func,
            &mut mem,
            TraceOptions {
                phase_barrier: Some(barrier),
            },
        )
    });
    c.trace = call;
    let trace = trace.map_err(|e| format!("trace: {e}"))?;
    out.grad_bits = gradient_bits(s, &mem);
    c.nodes = trace.len() as u64;
    c.edges = tr.call("ir.Trace::edge_count", id, || trace.edge_count()).0 as u64;
    let (prep, call) = tr.call("sim.PreparedSim::new", id, || PreparedSim::new(&trace));
    c.prep = call;
    let prep = Arc::new(prep.map_err(|e| format!("arena: {e}"))?);
    c.arena_bytes = prep.arena_bytes() as u64;
    if plan.workload == Workload::SweepSmall {
        sweep(tr, plan, &prep, id, out);
    } else {
        let cfg = SystemConfig::with_cache_bytes(POINT_BYTES);
        let (r, call) = tr.call("sim.simulate_prepared", id, || {
            simulate_prepared(&prep, &cfg, &SimOptions::default())
        });
        c.engine = call;
        c.engine_nodes = prep.len() as u64;
        out.reports.push(r);
        if plan.workload == Workload::OneshotLarge {
            out.cost.config_ms.push(call.ms());
        } else {
            profile(tr, s, job, func, &trace, &prep, id, out);
        }
    }
    tr.call("sim.drop_arena", id, || drop(prep));
    tr.call("ir.drop_trace", id, || drop((trace, mem)));
    Ok(())
}

/// Drives one session down the ladder.
fn sweep(tr: &Tracer, plan: &Plan, prep: &Arc<PreparedSim>, id: u64, out: &mut JobOut) {
    let c = &mut out.cost;
    let mut session = SweepSession::new(Arc::clone(prep), SimOptions::default());
    let n = plan.ladder.len();
    for (i, &bytes) in plan.ladder.iter().enumerate() {
        let cfg = SystemConfig::with_cache_bytes(bytes);
        let (r, call) = tr.call("sim.SweepSession::simulate_lookahead", id, || {
            session.simulate_lookahead(&cfg, n - 1 - i)
        });
        if i == 0 {
            c.sweep_first_ms += call.ms();
        } else {
            c.sweep_chained_ms += call.ms();
        }
        c.sweep_configs += 1;
        c.config_ms.push(call.ms());
        out.reports.push(r);
    }
    tr.call("sim.drop_session", id, || drop(session));
}

/// The `profile --by-inst --trace-out` path: the probed engine under
/// per-instruction attribution plus a timeline recorder, the Chrome trace
/// rendered in memory, then the hot-spot table.
#[allow(clippy::too_many_arguments)]
fn profile(
    tr: &Tracer,
    s: &Subject,
    job: Job,
    func: &Function,
    trace: &Trace,
    prep: &PreparedSim,
    id: u64,
    out: &mut JobOut,
) {
    let c = &mut out.cost;
    let label = job.variant.label();
    let cfg = SystemConfig::with_cache_bytes(POINT_BYTES);
    let (map, call) = tr.call("bench.attr::node_to_inst", id, || attr::node_to_inst(trace));
    c.attr = call;
    let ((report, probe), call) = tr.call("sim.simulate_prepared_probed", id, || {
        let mut probe = (
            AttributionProbe::with_inst_map(map, func.insts().len()),
            TraceRecorder::new(job.variant as u64 + 1, label),
        );
        let r = simulate_prepared_probed(prep, &cfg, &SimOptions::default(), &mut probe);
        (r, probe)
    });
    c.probe = call;
    c.config_ms.push(call.ms());
    let (attribution, recorder) = probe;
    let (doc, call) = tr.call("sim.TraceRecorder::chrome_trace", id, || {
        TraceRecorder::chrome_trace([recorder]).render()
    });
    c.chrome_render = call;
    c.chrome_bytes = doc.len() as u64;
    tr.call("sim.drop_chrome_trace", id, || drop(doc));
    let (breakdown, insts) = attribution.into_parts();
    if let Some(ib) = &insts {
        let (_table, call) = tr.call("bench.attr::hot_spots", id, || {
            let rows = attr::resolve(func, Some(&s.bench.func), ib);
            attr::render_hot_spots(label, &rows, breakdown.total_units(), HOT_SPOT_ROWS)
        });
        c.attr.secs += call.secs;
    }
    out.probe = Some(ProbeOut {
        report,
        breakdown,
        insts,
    });
}

/// One pass over the whole job list.
pub struct PassOut {
    pub secs: f64,
    /// Job outputs, indexed by job.
    pub outs: Vec<JobOut>,
    /// Worker threads the pass ran on.
    pub threads: usize,
}

/// Runs every job once, in `order`, and returns the outputs by job. The
/// first pass of a run is the warm-up and always runs serially, so its
/// heap peak does not depend on which jobs the shuffle paired up; later
/// passes of a pooled workload fan out over the worker pool.
pub fn run_pass(tr: &Tracer, plan: &Plan, pass: u64, order: &[usize]) -> PassOut {
    let id = |j: usize| pass * plan.jobs.len() as u64 + j as u64 + 1;
    let threads = if plan.workload.pooled() && pass > 0 {
        SWEEP_JOBS.min(pool::available_jobs())
    } else {
        1
    };
    let (mut outs, call) = tr.call("perfbench.pass", 0, || {
        if threads > 1 {
            tr.call("bench.pool::map_parallel", 0, || {
                let parent = tr.current();
                pool::map_parallel(order, threads, |_, &j| {
                    tr.adopt(parent, || run_job(tr, plan, j, id(j)))
                })
            })
            .0
        } else {
            order.iter().map(|&j| run_job(tr, plan, j, id(j))).collect()
        }
    });
    outs.sort_by_key(|o| o.job);
    PassOut {
        secs: call.secs,
        outs,
        threads,
    }
}

/// Dispatch order for the pass after `done`. The seed shuffles every
/// pass; after the warm-up, a pooled workload then starts the largest
/// traces first (by the warm-up's node counts, which are deterministic),
/// so the pool's tail and heap peak do not hinge on where the shuffle
/// put the biggest sessions.
pub fn job_order(plan: &Plan, seed: u64, done: &[PassOut]) -> Vec<usize> {
    let pass = done.len() as u64;
    let mut order: Vec<usize> = (0..plan.jobs.len()).collect();
    Rng::new(seed ^ pass.wrapping_mul(0xA24B_AED4_963E_E407)).shuffle(&mut order);
    if let (true, Some(first)) = (plan.workload.pooled(), done.first()) {
        order.sort_by_key(|&j| std::cmp::Reverse(first.outs[j].cost.nodes));
    }
    order
}
