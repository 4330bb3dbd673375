//! The output oracle. It never reuses the code path it checks:
//!
//! * gradients: every job's gradient bits must equal those of the plain
//!   AD gradient run by the interpreter without a tracer;
//! * sweeps: a seeded sample of chained configurations is re-run cold
//!   through `simulate_prepared` on a fresh trace and arena, and its
//!   report JSON must be byte-equal to the session's;
//! * profiles: the cycle and per-instruction attribution invariants
//!   must hold, and the probed report must equal the unprobed one;
//! * every pass must reproduce the first pass's reports byte for byte.
//!
//! All of it runs after the timed passes.

use crate::stats::Rng;
use crate::workload::{gradient_bits, seed_memory, PassOut, Plan, Variant, Workload, COLD_SAMPLE};
use std::collections::BTreeMap;
use tapeflow_ir::interp;
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_sim::{simulate_prepared, PreparedSim, SimOptions, SystemConfig};

/// Outcome of checking every job of every pass.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub secs: f64,
}

/// Flips one gradient bit of the first Tapeflow job of the first pass,
/// so the oracle can be shown to fail.
pub fn inject_fault(plan: &Plan, passes: &mut [PassOut]) {
    let Some(out) = passes.first_mut().and_then(|p| {
        p.outs
            .iter_mut()
            .find(|o| plan.jobs[o.job].variant != Variant::Enzyme && !o.grad_bits.is_empty())
    }) else {
        return;
    };
    if let Some(b) = out.grad_bits[0].first_mut() {
        *b ^= 1;
    }
}

pub fn check(plan: &Plan, passes: &[PassOut], seed: u64) -> Verdict {
    let t = std::time::Instant::now();
    let mut problems: BTreeMap<(usize, usize), Vec<String>> = BTreeMap::new();
    let mut fail = |pass: usize, job: usize, msg: String| {
        problems.entry((pass, job)).or_default().push(msg);
    };

    let reference: Vec<Result<Vec<Vec<u64>>, String>> = plan
        .subjects
        .iter()
        .map(|s| {
            let mut mem = s.bench.gradient_memory(&s.grad);
            interp::run(&s.grad.func, &mut mem).map_err(|e| e.to_string())?;
            Ok(gradient_bits(s, &mem))
        })
        .collect();

    let first = &passes[0];
    for (p, pass) in passes.iter().enumerate() {
        for out in &pass.outs {
            let j = out.job;
            let job = plan.jobs[j];
            if let Some(e) = &out.error {
                fail(p, j, e.clone());
                continue;
            }
            match &reference[job.subject] {
                Ok(bits) if *bits == out.grad_bits => {}
                Ok(_) => fail(
                    p,
                    j,
                    "gradient bits differ from the plain AD gradient".into(),
                ),
                Err(e) => fail(p, j, format!("reference gradient failed: {e}")),
            }
            if out.reports.len() != plan.ladder.len() {
                fail(
                    p,
                    j,
                    format!(
                        "{} reports for {} sizes",
                        out.reports.len(),
                        plan.ladder.len()
                    ),
                );
                continue;
            }
            if p > 0 {
                let base = &first.outs[j].reports;
                for (k, r) in out.reports.iter().enumerate() {
                    if base.get(k).map(|b| b.to_json().render()) != Some(r.to_json().render()) {
                        fail(
                            p,
                            j,
                            format!("report at {} B differs from pass 0", plan.ladder[k]),
                        );
                    }
                }
            }
            if let Some(probe) = &out.probe {
                if let Err(e) = probe.breakdown.check() {
                    fail(p, j, format!("cycle attribution: {e}"));
                }
                match &probe.insts {
                    Some(ib) => {
                        if let Err(e) = ib.check_against(&probe.breakdown) {
                            fail(p, j, format!("per-inst attribution: {e}"));
                        }
                    }
                    None => fail(p, j, "per-inst attribution missing".into()),
                }
                if probe.report.to_json().render() != out.reports[0].to_json().render() {
                    fail(p, j, "probed report differs from the unprobed one".into());
                }
            } else if plan.workload == Workload::ProfileSmall {
                fail(p, j, "probed run missing".into());
            }
        }
    }

    if plan.workload == Workload::SweepSmall {
        for (j, k) in cold_sample(plan, seed) {
            if let Err(e) = cold_check(plan, first, j, k) {
                fail(0, j, e);
            }
        }
    }

    let attempted = passes.iter().map(|p| p.outs.len() as u64).sum();
    for ((p, j), msgs) in &problems {
        for m in msgs {
            eprintln!(
                "perfbench: check failed: pass {p} job {}: {m}",
                plan.job_label(plan.jobs[*j])
            );
        }
    }
    Verdict {
        attempted,
        failed: problems.len() as u64,
        secs: t.elapsed().as_secs_f64(),
    }
}

/// Seeded (job, ladder index) pairs, distinct jobs, chained configs only.
fn cold_sample(plan: &Plan, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed ^ 0xC01D);
    let mut jobs: Vec<usize> = (0..plan.jobs.len()).collect();
    rng.shuffle(&mut jobs);
    jobs.truncate(COLD_SAMPLE);
    jobs.sort_unstable();
    jobs.into_iter()
        .map(|j| (j, 1 + rng.below(plan.ladder.len() - 1)))
        .collect()
}

/// Re-runs ladder point `k` of job `j` cold on a fresh trace and arena.
fn cold_check(plan: &Plan, first: &PassOut, j: usize, k: usize) -> Result<(), String> {
    let job = plan.jobs[j];
    let s = &plan.subjects[job.subject];
    let (func, barrier) = plan.program(job);
    let mut mem = seed_memory(s, func);
    let trace = trace_function(
        func,
        &mut mem,
        TraceOptions {
            phase_barrier: Some(barrier),
        },
    )
    .map_err(|e| format!("cold trace: {e}"))?;
    let prep = PreparedSim::new(&trace).map_err(|e| format!("cold arena: {e}"))?;
    let cold = simulate_prepared(
        &prep,
        &SystemConfig::with_cache_bytes(plan.ladder[k]),
        &SimOptions::default(),
    );
    let session = first.outs[j]
        .reports
        .get(k)
        .ok_or("session report missing")?;
    if cold.to_json().render() != session.to_json().render() {
        return Err(format!(
            "session report at {} B differs from a cold run",
            plan.ladder[k]
        ));
    }
    Ok(())
}
