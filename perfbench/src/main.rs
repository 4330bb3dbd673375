//! The repository benchmark: one workload, one seed, one process, run
//! as a closed loop over the workload's job list for a fixed time.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oneshot-large|sweep-small|profile-small \
//!     --seed N --seconds S --trace 0|1 \
//!     [--scale tiny|small|large] [--inject-fault] [--spans-out PATH]
//! ```
//!
//! Set-up (build, differentiate, compile) runs in this process, then
//! whole passes over the job list run until `--seconds` is spent. Before
//! each untraced pass, fresh child processes time set-up for `setup_s`
//! (each is this binary run with `--workload W [--scale S]
//! --setup-probe`, which prints only its median set-up seconds). `--trace 0` prints
//! the end-to-end metrics; `--trace 1` spends half the time untraced and
//! half recording a span per layer call, prints the per-layer metrics
//! and writes the spans as a Chrome trace. The oracle (see `check.rs`)
//! runs after the timed passes; any failure makes the exit code 1. Every
//! metric is printed by name with its unit, then the last stdout line is
//! one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! `--scale` overrides the workload's scale (the smoke test runs at
//! `tiny`); `--inject-fault` flips one gradient bit before the check, to
//! show the oracle fails.

mod alloc;
mod check;
mod spans;
mod stats;
mod workload;

use spans::{Tracer, LAYERS};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use tapeflow_bench::harness::geomean;
use tapeflow_benchmarks::Scale;
use workload::{job_order, run_pass, set_up, PassOut, Plan, SetupCost, Subject, Workload};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Set-up repetitions per block: at least [`SETUP_MIN_REPS`], more until
/// the block's time is spent, at most [`SETUP_MAX_REPS`].
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 1000;

/// Set-up speed follows the host's state, which holds for seconds and
/// then shifts (by up to 1.8x on the same input on a shared 2-vCPU VM),
/// so one block of repetitions is one draw. An untraced run therefore
/// samples set-up across the whole run: before every pass, [`SETUP_PROBES_PER_PASS`]
/// fresh child processes each repeat it for [`SETUP_PROBE_SECS`], and
/// `setup_s` is the median of their medians. Fresh processes keep the
/// samples alike whatever this process's heap holds after a pass.
const SETUP_PROBES_PER_PASS: usize = 2;
const SETUP_PROBE_SECS: f64 = 0.1;

const MB: f64 = 1024.0 * 1024.0;

/// Layers only set-up calls into; the other three only passes call.
const SETUP_LAYERS: [&str; 3] = ["benchmarks", "autodiff", "core"];

/// Self-time metric of each of [`LAYERS`], in order.
const SELF_MS: [&str; 6] = [
    "benchmarks.self_ms",
    "autodiff.self_ms",
    "core.self_ms",
    "ir.self_ms",
    "sim.self_ms",
    "bench.self_ms",
];

/// End-to-end metrics, printed on untraced runs (`failed_pct` is
/// printed but not part of the JSON metrics: it is 0 on a correct run,
/// and the JSON carries `attempted`/`failed` instead).
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("config_ms.p50", "ms"),
    ("config_ms.p97", "ms"),
    ("tflow_speedup", "x"),
    ("tflow_energy_x", "x"),
];

/// Per-layer metrics, printed on traced runs.
const PER_LAYER: [(&str, &str); 39] = [
    ("ir.memory_ms", "ms"),
    ("ir.trace_ms", "ms"),
    ("ir.trace_nodes", "count"),
    ("ir.trace_edges", "count"),
    ("ir.trace_ns_per_node", "ns"),
    ("ir.trace_alloc_mb", "MB"),
    ("ir.trace_live_mb", "MB"),
    ("sim.prep_ms", "ms"),
    ("sim.prep_arena_mb", "MB"),
    ("sim.prep_alloc_mb", "MB"),
    ("sim.engine_ms", "ms"),
    ("sim.engine_ns_per_node", "ns"),
    ("sim.cycles", "count"),
    ("sim.sweep.first_ms", "ms"),
    ("sim.sweep.chained_ms", "ms"),
    ("sim.sweep.reuse_x", "x"),
    ("sim.sweep.configs", "count"),
    ("bench.pool.busy_frac", "fraction"),
    ("bench.pool.idle_s", "s"),
    ("sim.probe_ms", "ms"),
    ("sim.probe_x", "x"),
    ("sim.chrome_render_ms", "ms"),
    ("sim.chrome_mb", "MB"),
    ("bench.attr_ms", "ms"),
    ("benchmarks.build_ms", "ms"),
    ("autodiff.differentiate_ms", "ms"),
    ("autodiff.tape_kb", "KB"),
    ("core.pipeline_ms", "ms"),
    ("core.insts_out", "count"),
    ("core.tape_kb_after", "KB"),
    ("bench.check_ms", "ms"),
    ("bench.tracing_overhead_pct", "%"),
    ("benchmarks.self_ms", "ms"),
    ("autodiff.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("ir.self_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("bench.span_cover_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    inject_fault: bool,
    spans_out: Option<PathBuf>,
    /// Only time set-up and print its median (a child of [`probe_setup`]).
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut scale, mut inject_fault, mut spans_out) = (None, false, None);
    let mut setup_probe = false;
    while let Some(flag) = argv.next() {
        if flag == "--inject-fault" {
            inject_fault = true;
            continue;
        }
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let val = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&val).ok_or_else(bad)?),
            "--seed" => seed = Some(val.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => {
                scale = Some(match val.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "large" => Scale::Large,
                    _ => return Err(bad()),
                })
            }
            "--spans-out" => spans_out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // A set-up probe needs only the workload and scale.
    fn required<T: Default>(v: Option<T>, flag: &str, probe: bool) -> Result<T, String> {
        match v {
            Some(v) => Ok(v),
            None if probe => Ok(T::default()),
            None => Err(format!("{flag} is required")),
        }
    }
    Ok(Args {
        workload,
        seed: required(seed, "--seed", setup_probe)?,
        seconds: required(seconds, "--seconds", setup_probe)?,
        trace: required(trace, "--trace", setup_probe)?,
        scale: scale.unwrap_or(workload.default_scale()),
        inject_fault,
        spans_out,
        setup_probe,
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeats set-up [`SETUP_MIN_REPS`] to [`SETUP_MAX_REPS`] times, until
/// `secs` are spent; returns the last result and every cost.
fn set_up_block(
    tr: &Tracer,
    args: &Args,
    secs: f64,
) -> Result<(Vec<Subject>, Vec<SetupCost>), String> {
    let t = Instant::now();
    let mut costs = Vec::new();
    loop {
        let (built, _) = tr.call("perfbench.setup", 0, || {
            set_up(tr, args.workload, args.scale)
        });
        let (subjects, cost) = built?;
        costs.push(cost);
        let n = costs.len();
        if n >= SETUP_MIN_REPS && (n >= SETUP_MAX_REPS || t.elapsed().as_secs_f64() >= secs) {
            return Ok((subjects, costs));
        }
    }
}

/// Median set-up seconds of each of `n` child processes, run one after
/// another; each child is this binary with `--setup-probe`.
fn probe_setup(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let scale = format!("{:?}", args.scale).to_lowercase();
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", args.workload.name(), "--scale", &scale])
                .arg("--setup-probe")
                .output()
                .map_err(|e| format!("set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            match (out.status.success(), text.trim().parse::<f64>()) {
                (true, Ok(secs)) => Ok(secs),
                _ => Err(format!(
                    "set-up probe failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

/// Appends passes over the job list until `budget` seconds are spent:
/// at least `min` run, and after that a pass starts only if the mean
/// pass so far still fits. Before each pass, `probe` set-up probes
/// append to `probes`.
#[allow(clippy::too_many_arguments)]
fn timed_passes(
    tr: &Tracer,
    plan: &Plan,
    args: &Args,
    budget: f64,
    min: usize,
    probe: usize,
    passes: &mut Vec<PassOut>,
    probes: &mut Vec<f64>,
) -> Result<(), String> {
    let t = Instant::now();
    for n in 1.. {
        probes.extend(probe_setup(args, probe)?);
        let order = job_order(plan, args.seed, passes);
        let pass = run_pass(tr, plan, passes.len() as u64, &order);
        passes.push(pass);
        let spent = t.elapsed().as_secs_f64();
        if n >= min && spent + spent / n as f64 > budget {
            break;
        }
    }
    Ok(())
}

/// The passes the timings are taken from: all but the first, which
/// warms the allocator and caches.
fn warm(passes: &[PassOut]) -> &[PassOut] {
    &passes[1..]
}

/// Latency of every (program, system config) simulation a pass runs —
/// 342 in `sweep-small`, 4 elsewhere — each the median over `warm`.
/// Medians per simulation keep `config_ms.*` from hinging on one noisy
/// call where a pass runs only a few, very unequal, simulations.
fn config_latencies(warm: &[PassOut]) -> Vec<f64> {
    let first = &warm[0].outs;
    (0..first.len())
        .flat_map(|j| (0..first[j].cost.config_ms.len()).map(move |k| (j, k)))
        .map(|(j, k)| {
            let v: Vec<f64> = warm
                .iter()
                .filter_map(|p| p.outs[j].cost.config_ms.get(k).copied())
                .collect();
            median(&v)
        })
        .collect()
}

/// Per-pass layer aggregates over every job of `p`.
fn pass_layers(p: &PassOut) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let cs = || p.outs.iter().map(|o| &o.cost);
    let sum = |f: &dyn Fn(&workload::JobCost) -> f64| cs().map(f).sum::<f64>();
    let nodes = sum(&|c| c.nodes as f64);
    let trace_ms = sum(&|c| c.trace.ms());
    let engine_ms = sum(&|c| c.engine.ms());
    let engine_nodes = sum(&|c| c.engine_nodes as f64);
    let probe_ms = sum(&|c| c.probe.ms());
    let first_ms = sum(&|c| c.sweep_first_ms);
    let chained_ms = sum(&|c| c.sweep_chained_ms);
    let configs = sum(&|c| c.sweep_configs as f64);
    let sessions = cs().filter(|c| c.sweep_configs > 0).count() as f64;
    let busy = sum(&|c| c.secs);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.insert("ir.memory_ms", sum(&|c| c.memory.ms()));
    m.insert("ir.trace_ms", trace_ms);
    m.insert("ir.trace_nodes", nodes);
    m.insert("ir.trace_edges", sum(&|c| c.edges as f64));
    m.insert("ir.trace_ns_per_node", ratio(trace_ms * 1e6, nodes));
    m.insert(
        "ir.trace_alloc_mb",
        sum(&|c| c.trace.heap.allocated as f64) / MB,
    );
    m.insert(
        "ir.trace_live_mb",
        cs().map(|c| c.trace.heap.peak_live as f64)
            .fold(0.0, f64::max)
            / MB,
    );
    m.insert("sim.prep_ms", sum(&|c| c.prep.ms()));
    m.insert("sim.prep_arena_mb", sum(&|c| c.arena_bytes as f64) / MB);
    m.insert(
        "sim.prep_alloc_mb",
        sum(&|c| c.prep.heap.allocated as f64) / MB,
    );
    m.insert("sim.engine_ms", engine_ms);
    m.insert(
        "sim.engine_ns_per_node",
        ratio(engine_ms * 1e6, engine_nodes),
    );
    m.insert(
        "sim.cycles",
        p.outs
            .iter()
            .flat_map(|o| &o.reports)
            .map(|r| r.cycles as f64)
            .sum(),
    );
    m.insert("sim.sweep.first_ms", first_ms);
    m.insert("sim.sweep.chained_ms", chained_ms);
    m.insert(
        "sim.sweep.reuse_x",
        ratio(
            ratio(first_ms, sessions),
            ratio(chained_ms, configs - sessions),
        ),
    );
    m.insert("sim.sweep.configs", configs);
    let (busy_frac, idle) = if p.threads > 1 {
        let capacity = p.threads as f64 * p.secs;
        (ratio(busy, capacity), capacity - busy)
    } else {
        (0.0, 0.0)
    };
    m.insert("bench.pool.busy_frac", busy_frac);
    m.insert("bench.pool.idle_s", idle);
    m.insert("sim.probe_ms", probe_ms);
    m.insert("sim.probe_x", ratio(probe_ms, engine_ms));
    m.insert("sim.chrome_render_ms", sum(&|c| c.chrome_render.ms()));
    m.insert("sim.chrome_mb", sum(&|c| c.chrome_bytes as f64) / MB);
    m.insert("bench.attr_ms", sum(&|c| c.attr.ms()));
    m
}

fn setup_layers(costs: &[SetupCost]) -> BTreeMap<&'static str, f64> {
    let med = |f: fn(&SetupCost) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());
    BTreeMap::from([
        ("benchmarks.build_ms", med(|c| c.build_ms)),
        ("autodiff.differentiate_ms", med(|c| c.differentiate_ms)),
        ("autodiff.tape_kb", med(|c| c.tape_kb)),
        ("core.pipeline_ms", med(|c| c.pipeline_ms)),
        ("core.insts_out", med(|c| c.insts_out)),
        ("core.tape_kb_after", med(|c| c.tape_kb_after)),
    ])
}

/// Enzyme ÷ Tapeflow geomeans of cycles and on-chip energy at the
/// comparison point, from the first pass.
fn tflow_ratios(plan: &Plan, p: &PassOut) -> (f64, f64) {
    let k = plan.point_index();
    let (mut speed, mut energy) = (Vec::new(), Vec::new());
    for s in 0..plan.subjects.len() {
        let rep = |enzyme: bool| {
            p.outs
                .iter()
                .find(|o| {
                    let j = plan.jobs[o.job];
                    j.subject == s && (j.variant == workload::Variant::Enzyme) == enzyme
                })
                .and_then(|o| o.reports.get(k))
        };
        if let (Some(e), Some(t)) = (rep(true), rep(false)) {
            speed.push(e.cycles as f64 / t.cycles.max(1) as f64);
            energy.push(e.energy.on_chip_pj() / t.energy.on_chip_pj().max(1.0));
        }
    }
    (geomean(&speed), geomean(&energy))
}

/// Per benchmark × program detail of one pass.
fn print_jobs(plan: &Plan, p: &PassOut) {
    println!(
        "{:<22} {:>10} {:>10} {:>9} {:>9} {:>8} {:>9} {:>9} {:>9} {:>12}",
        "job",
        "nodes",
        "edges",
        "trace_ms",
        "alloc_mb",
        "live_mb",
        "prep_ms",
        "arena_mb",
        "sim_ms",
        "cycles@32K"
    );
    let k = plan.point_index();
    for o in &p.outs {
        let c = &o.cost;
        let sim_ms = c.engine.ms() + c.probe.ms() + c.sweep_first_ms + c.sweep_chained_ms;
        println!(
            "{:<22} {:>10} {:>10} {:>9.1} {:>9.1} {:>8.1} {:>9.1} {:>9.1} {:>9.1} {:>12}",
            plan.job_label(plan.jobs[o.job]),
            c.nodes,
            c.edges,
            c.trace.ms(),
            c.trace.heap.allocated as f64 / MB,
            c.trace.heap.peak_live as f64 / MB,
            c.prep.ms(),
            c.arena_bytes as f64 / MB,
            sim_ms,
            o.reports.get(k).map_or(0, |r| r.cycles)
        );
    }
}

/// Prints `name value unit` lines, then the result object as the last line.
fn emit(metrics: &[(&str, f64, &str)], verdict: &check::Verdict) {
    for (name, v, unit) in metrics {
        println!("  {name:<28} {v:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.failed == 0,
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    );
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let tr = Tracer::new();
    tr.set_recording(args.trace);
    let (subjects, costs) = set_up_block(&tr, args, 0.0)?;
    let plan = Plan::new(w, subjects, args.seed);
    println!(
        "perfbench: {} seed {} scale {:?}: {} jobs/pass, {} cache size(s)",
        w.name(),
        args.seed,
        args.scale,
        plan.jobs.len(),
        plan.ladder.len(),
    );

    // Untraced passes: the warm-up plus at least one warm pass. A traced
    // run then records at least one more pass.
    let (mut passes, mut probes) = (Vec::new(), Vec::new());
    let (untraced, probe) = if args.trace {
        (args.seconds / 2.0, 0)
    } else {
        (args.seconds, SETUP_PROBES_PER_PASS)
    };
    tr.set_recording(false);
    timed_passes(
        &tr,
        &plan,
        args,
        untraced,
        2,
        probe,
        &mut passes,
        &mut probes,
    )?;
    let traced_from = passes.len();
    if args.trace {
        tr.set_recording(true);
        let budget = args.seconds / 2.0;
        timed_passes(&tr, &plan, args, budget, 1, 0, &mut passes, &mut probes)?;
    }
    let rss = peak_rss_mb();

    if args.inject_fault {
        check::inject_fault(&plan, &mut passes);
    }
    let verdict = check::check(&plan, &passes, args.seed);
    let failed_pct = 100.0 * verdict.failed as f64 / verdict.attempted.max(1) as f64;
    let pass_walls: Vec<String> = passes
        .iter()
        .map(|p| {
            let busy: f64 = p.outs.iter().map(|o| o.cost.secs).sum();
            format!("{:.3}/{busy:.3}", p.secs)
        })
        .collect();
    let probe_ms: Vec<String> = probes.iter().map(|s| format!("{:.3}", s * 1e3)).collect();
    println!(
        "set-up probes ms [{}], passes {} ({} traced), wall/busy s [{}], \
         jobs attempted {}, failed {}",
        probe_ms.join(" "),
        passes.len(),
        passes.len() - traced_from,
        pass_walls.join(" "),
        verdict.attempted,
        verdict.failed
    );
    let walls = |ps: &[PassOut]| median(&ps.iter().map(|p| p.secs).collect::<Vec<_>>());

    let metrics: Vec<(&str, f64, &str)> = if !args.trace {
        let config_ms = config_latencies(warm(&passes));
        println!(
            "config samples {} (each a median over {} warm passes)",
            config_ms.len(),
            passes.len() - 1
        );
        let (speedup, energy) = tflow_ratios(&plan, &passes[0]);
        let values = BTreeMap::from([
            ("setup_s", median(&probes)),
            ("wall_s", walls(warm(&passes))),
            ("peak_rss_mb", rss),
            ("config_ms.p50", percentile(&config_ms, 50.0)),
            ("config_ms.p97", percentile(&config_ms, 97.0)),
            ("tflow_speedup", speedup),
            ("tflow_energy_x", energy),
        ]);
        println!("  {:<28} {failed_pct:>16.6} %", "failed_pct");
        END_TO_END.iter().map(|&(n, u)| (n, values[n], u)).collect()
    } else {
        let traced = &passes[traced_from..];
        print_jobs(&plan, &traced[0]);
        let per_pass: Vec<_> = traced.iter().map(pass_layers).collect();
        let mut values: BTreeMap<&str, f64> = per_pass[0]
            .keys()
            .map(|&k| {
                (
                    k,
                    median(&per_pass.iter().map(|m| m[k]).collect::<Vec<_>>()),
                )
            })
            .collect();
        values.extend(setup_layers(&costs));
        values.insert("bench.check_ms", verdict.secs * 1e3);
        values.insert(
            "bench.tracing_overhead_pct",
            (walls(traced) / walls(warm(&passes[..traced_from])) - 1.0) * 100.0,
        );
        let spans = tr.into_spans();
        let count = |root: &str| spans.iter().filter(|s| s.name == root).count().max(1) as f64;
        let (setups, traced_passes) = (count("perfbench.setup"), count("perfbench.pass"));
        let self_secs = spans::self_secs_by_layer(&spans);
        for (layer, name) in LAYERS.into_iter().zip(SELF_MS) {
            // Set-up calls only reach the first three layers and passes
            // only the last three, so each is normalised by its own count.
            let per = if SETUP_LAYERS.contains(&layer) {
                setups
            } else {
                traced_passes
            };
            values.insert(
                name,
                self_secs.get(layer).copied().unwrap_or(0.0) / per * 1e3,
            );
        }
        let (cover, busy) = spans::child_cover_secs(&spans, "perfbench.job");
        values.insert("bench.span_cover_pct", 100.0 * cover / busy);
        let path = args.spans_out.clone().unwrap_or_else(|| {
            PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
                .join(format!("spans-{}.json", w.name()))
        });
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let doc = spans::chrome_trace(&spans, &format!("perfbench {}", w.name()));
        std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} ({} spans)", path.display(), spans.len());
        PER_LAYER.iter().map(|&(n, u)| (n, values[n], u)).collect()
    };
    emit(&metrics, &verdict);
    Ok(verdict.failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) if a.setup_probe => {
            return match set_up_block(&Tracer::new(), &a, SETUP_PROBE_SECS) {
                Ok((_, costs)) => {
                    println!(
                        "{:?}",
                        median(&costs.iter().map(|c| c.secs).collect::<Vec<_>>())
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(1)
                }
            };
        }
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload oneshot-large|sweep-small|profile-small \
                 --seed N --seconds S --trace 0|1 [--scale tiny|small|large] \
                 [--inject-fault] [--spans-out PATH]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
