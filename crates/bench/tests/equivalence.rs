//! Cross-engine equivalence: the event-driven core is a performance
//! rework, not a model change, so the legacy scalar loop is kept as the
//! reference oracle and every observable output must match it **byte
//! for byte** — rendered report JSON, stall attributions, and Chrome
//! trace timelines — across all nine paper benchmarks. A probe must
//! also never perturb the simulation it observes, and the incremental
//! re-simulation session must derive exactly the reports a cold run
//! produces.

use std::sync::Arc;
use tapeflow_bench::experiments::Lab;
use tapeflow_bench::harness::{sys_for, Config, Prepared, SweepPlanner};
use tapeflow_benchmarks::{by_name, Scale, NAMES};
use tapeflow_sim::{
    legacy, simulate_prepared, try_simulate_probed, AttributionProbe, NoProbe, SimError,
    SimOptions, SimReport, SweepSession, SystemConfig, TraceRecorder,
};

/// A fresh attribution + timeline probe. Same pid/name on both engines:
/// the Chrome traces can only differ if the simulated timelines differ.
fn probe(name: &str) -> (AttributionProbe, TraceRecorder) {
    (AttributionProbe::new(), TraceRecorder::new(1, name))
}

/// The observable artifacts of one probed run on `engine`: rendered
/// report JSON, the invariant-checked stall attribution and the Chrome
/// trace.
fn artifacts(
    label: &str,
    engine: &str,
    report: Result<SimReport, SimError>,
    probe: (AttributionProbe, TraceRecorder),
) -> (String, String, String) {
    let report = report.unwrap_or_else(|e| panic!("{label}: {engine} failed: {e}"));
    let (attr, recorder) = probe;
    let breakdown = attr.into_breakdown();
    breakdown
        .check()
        .unwrap_or_else(|e| panic!("{label}: {engine} attribution broke: {e}"));
    (
        report.to_json().render(),
        breakdown.to_json().render(),
        TraceRecorder::chrome_trace([recorder]).render(),
    )
}

/// Program variants exercised per benchmark: the Enzyme baseline and
/// the Tapeflow build at the default cache, plus a thrash-sized cache
/// so miss/writeback/MSHR paths diverge from the hit path.
fn configs() -> [Config; 3] {
    [
        Config::enzyme(32 * 1024),
        Config::tapeflow(32 * 1024),
        Config::enzyme(4 * 1024),
    ]
}

#[test]
fn reports_attributions_and_traces_match_across_engines() {
    let opts = SimOptions::default();
    let mut compared = 0usize;
    for name in NAMES {
        let mut p = Prepared::new(by_name(name, Scale::Tiny));
        for config in configs() {
            let Some(trace) = p.try_trace_shared(&config) else {
                continue;
            };
            let sys = sys_for(&config);
            let label = format!("{name}/{}", config.label());
            let mut p_event = probe(name);
            let r_event = try_simulate_probed(&trace, &sys, &opts, &mut p_event);
            let event = artifacts(&label, "event", r_event, p_event);
            let mut p_legacy = probe(name);
            let r_legacy = legacy::try_simulate_probed(&trace, &sys, &opts, &mut p_legacy);
            let legacy = artifacts(&label, "legacy", r_legacy, p_legacy);
            assert_eq!(event.0, legacy.0, "{label}: report JSON differs");
            assert_eq!(event.1, legacy.1, "{label}: stall attribution differs");
            assert_eq!(event.2, legacy.2, "{label}: chrome trace differs");
            compared += 1;
        }
    }
    // Every benchmark must contribute at least its Enzyme variants.
    assert!(
        compared >= 2 * NAMES.len(),
        "only {compared} comparisons ran"
    );
}

#[test]
fn probes_do_not_perturb_reports() {
    let opts = SimOptions::default();
    for name in NAMES {
        let mut p = Prepared::new(by_name(name, Scale::Tiny));
        let config = Config::enzyme(32 * 1024);
        let trace = p.try_trace_shared(&config).expect("gradient always traces");
        let sys = sys_for(&config);
        let bare = try_simulate_probed(&trace, &sys, &opts, &mut NoProbe).expect("bare run");
        let probed =
            try_simulate_probed(&trace, &sys, &opts, &mut probe(name)).expect("probed run");
        assert_eq!(
            bare.to_json().render(),
            probed.to_json().render(),
            "{name}: event probe perturbed the report"
        );
        let bare =
            legacy::try_simulate_probed(&trace, &sys, &opts, &mut NoProbe).expect("bare run");
        let probed =
            legacy::try_simulate_probed(&trace, &sys, &opts, &mut probe(name)).expect("probed run");
        assert_eq!(
            bare.to_json().render(),
            probed.to_json().render(),
            "{name}: legacy probe perturbed the report"
        );
    }
}

#[test]
fn cross_parameter_sweeps_derive_cold_runs_on_spad_stream_traces() {
    // The generalized session must stay invisible when the sweep
    // perturbs scratchpad and stream parameters — not just cache
    // geometry — on traces that exercise the scratchpad and stream
    // engines (the Tapeflow build). Every derived report must match a
    // cold event run and the legacy oracle byte for byte, and the
    // attribution/timeline artifacts must stay engine-equivalent on
    // every varied system.
    let opts = SimOptions::default();
    let mut exercised = 0usize;
    for name in NAMES {
        let mut p = Prepared::new(by_name(name, Scale::Tiny));
        let config = Config::tapeflow(32 * 1024);
        let Some(trace) = p.try_trace_shared(&config) else {
            continue;
        };
        let prep = p.try_prepared_sim(&config).expect("trace implies arena");
        let base = sys_for(&config);
        let mut systems = vec![base];
        {
            // Cache geometry: replay-validated, may diverge late.
            let mut s = base;
            s.cache.size_bytes = 4 * 1024;
            systems.push(s);
        }
        {
            // Bank count: chains when the bank map agrees, else re-records.
            let mut s = base;
            s.spad.banks = 32;
            systems.push(s);
        }
        {
            // Scratchpad timing: always gates chaining on a spad trace.
            let mut s = base;
            s.spad.banks = 8;
            s.spad.latency = 2;
            systems.push(s);
        }
        {
            // Stream model: gates chaining on a stream trace.
            let mut s = base;
            s.dram.bytes_per_cycle = 4.8;
            s.dram.latency = 200;
            systems.push(s);
        }
        {
            // Energy: recomputed at finalize, never forces a re-record.
            let mut s = base;
            s.energy.dram_pj_per_byte *= 2.0;
            systems.push(s);
        }
        // Return to base: replays whatever recording survived the walk.
        systems.push(base);
        let mut session = SweepSession::new(Arc::clone(&prep), opts);
        for (si, sys) in systems.iter().enumerate() {
            let label = format!("{name}/Tflow[{si}]");
            let derived = session.simulate(sys).to_json().render();
            let event = simulate_prepared(&prep, sys, &opts).to_json().render();
            assert_eq!(derived, event, "{label}: session vs cold event run");
            let mut p_event = probe(name);
            let r_event = try_simulate_probed(&trace, sys, &opts, &mut p_event);
            let probed = artifacts(&label, "event", r_event, p_event);
            let mut p_legacy = probe(name);
            let r_legacy = legacy::try_simulate_probed(&trace, sys, &opts, &mut p_legacy);
            let legacy = artifacts(&label, "legacy", r_legacy, p_legacy);
            assert_eq!(derived, legacy.0, "{label}: session vs legacy oracle");
            assert_eq!(probed.0, legacy.0, "{label}: report JSON differs");
            assert_eq!(probed.1, legacy.1, "{label}: stall attribution differs");
            assert_eq!(probed.2, legacy.2, "{label}: chrome trace differs");
            exercised += 1;
        }
    }
    assert!(exercised > 0, "no Tapeflow-feasible benchmark ran");
}

#[test]
fn planner_reports_match_cold_runs_at_any_job_count() {
    // The trace-grouped planner over the canonical mixed sweep: every
    // feasible unit's report must match a cold event run and the legacy
    // oracle byte for byte, infeasible units must stay `None` exactly
    // where the cold path finds them infeasible, and re-running with
    // any worker count must reproduce the serial bytes.
    let opts = SimOptions::default();
    for name in NAMES {
        let mut p = Prepared::new(by_name(name, Scale::Tiny));
        let units: Vec<(Config, SystemConfig)> = Lab::json_configs()
            .iter()
            .map(|c| (*c, sys_for(c)))
            .collect();
        let planner = SweepPlanner::new(&mut p, &units, false);
        assert!(
            planner.group_count() > 1,
            "{name}: canonical sweep spans several trace groups"
        );
        let serial = planner.run();
        for ((config, sys), report) in units.iter().zip(&serial) {
            let label = format!("{name}/{}", config.label());
            let cold = p
                .try_prepared_sim(config)
                .map(|prep| simulate_prepared(&prep, sys, &opts));
            match (report, cold) {
                (Some(r), Some(c)) => {
                    let derived = r.to_json().render();
                    assert_eq!(
                        derived,
                        c.to_json().render(),
                        "{label}: planner vs cold event run"
                    );
                    let trace = p
                        .try_trace_shared(config)
                        .expect("feasible unit has a trace");
                    let legacy = legacy::try_simulate_probed(&trace, sys, &opts, &mut NoProbe)
                        .expect("legacy run");
                    assert_eq!(
                        derived,
                        legacy.to_json().render(),
                        "{label}: planner vs legacy oracle"
                    );
                }
                (None, None) => {}
                (got, want) => panic!(
                    "{label}: feasibility disagrees (planner {}, cold {})",
                    got.is_some(),
                    want.is_some()
                ),
            }
        }
        let serial_bytes: Vec<Option<String>> = serial
            .iter()
            .map(|r| r.as_ref().map(|r| r.to_json().render()))
            .collect();
        for jobs in [2, 4, 7] {
            let par: Vec<Option<String>> = planner
                .run_parallel(jobs)
                .iter()
                .map(|r| r.as_ref().map(|r| r.to_json().render()))
                .collect();
            assert_eq!(
                serial_bytes, par,
                "{name}: planner results differ at jobs={jobs}"
            );
        }
    }
}

#[test]
fn sweep_session_derives_cold_run_reports() {
    // The incremental-resim path (what the harness memo routes sweeps
    // through) must be invisible: every report it derives from the
    // recorded outcome stream must match both a cold event run and the
    // legacy oracle, in an order chosen to force replay hits, late
    // divergences and full re-records.
    let sizes: [usize; 6] = [64 * 1024, 32 * 1024, 16 * 1024, 4 * 1024, 1024, 8 * 1024];
    let opts = SimOptions::default();
    for name in NAMES {
        let mut p = Prepared::new(by_name(name, Scale::Tiny));
        let config = Config::enzyme(sizes[0]);
        let trace = p.try_trace_shared(&config).expect("gradient always traces");
        let prep = p.try_prepared_sim(&config).expect("gradient always preps");
        let mut session = SweepSession::new(Arc::clone(&prep), opts);
        for bytes in sizes {
            let sys = SystemConfig::with_cache_bytes(bytes);
            let derived = session.simulate(&sys).to_json().render();
            let event = simulate_prepared(&prep, &sys, &opts).to_json().render();
            let legacy = legacy::try_simulate_probed(&trace, &sys, &opts, &mut NoProbe)
                .expect("legacy run")
                .to_json()
                .render();
            assert_eq!(derived, event, "{name}@{bytes}: session vs cold event run");
            assert_eq!(derived, legacy, "{name}@{bytes}: session vs legacy oracle");
        }
    }
}
