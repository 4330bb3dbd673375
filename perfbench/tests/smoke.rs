//! Smoke test of the benchmark binary at `Scale::Tiny`: every metric
//! `BENCHMARK.json` declares is printed with its unit, nothing fails,
//! the simulated `tflow_*` metrics repeat exactly across seeds, and a
//! flipped gradient bit is caught by the oracle.

use std::path::PathBuf;
use std::process::Command;
use tapeflow_sim::json::Value;

struct Run {
    code: Option<i32>,
    stdout: String,
    result: Value,
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let spans: PathBuf = [
        env!("CARGO_TARGET_TMPDIR"),
        &format!("spans-{workload}-{seed}.json"),
    ]
    .iter()
    .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny", "--spans-out", spans.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = Value::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    if trace {
        let doc = std::fs::read_to_string(&spans).expect("spans written");
        let doc = Value::parse(&doc).expect("spans are JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Value::as_str) == Some("X")));
    }
    Run {
        code: out.status.code(),
        stdout,
        result,
    }
}

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(doc: &Value, key: &str) -> Vec<(String, Option<String>)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Value::as_str).map(str::to_string);
            (s("name").unwrap(), s("unit"))
        })
        .collect()
}

fn metric(r: &Run, name: &str) -> (f64, String) {
    let m = r.result.get("metrics").and_then(|m| m.get(name));
    let m = m.unwrap_or_else(|| panic!("metric {name} missing:\n{}", r.stdout));
    (
        m.get("value").and_then(Value::as_f64).unwrap(),
        m.get("unit").and_then(Value::as_str).unwrap().to_string(),
    )
}

fn assert_clean(r: &Run, what: &str) {
    assert_eq!(r.code, Some(0), "{what}:\n{}", r.stdout);
    assert_eq!(r.result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(r.result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(r.result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
}

#[test]
fn every_metric_is_printed_with_its_unit_and_nothing_fails() {
    let doc = manifest();
    for (workload, _) in names(&doc, "workloads") {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = run(&workload, 1, trace, &[]);
            assert_clean(&r, &workload);
            for (name, unit) in names(&doc, key) {
                let unit = unit.unwrap();
                let (v, u) = metric(&r, &name);
                assert_eq!(u, unit, "{workload}: {name}");
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                let line = r
                    .stdout
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(&name));
                let line = line.unwrap_or_else(|| panic!("{workload}: no {name} line"));
                assert!(line.ends_with(&format!(" {unit}")), "{line}");
            }
            if !trace {
                let line = r
                    .stdout
                    .lines()
                    .find(|l| l.trim_start().starts_with("failed_pct"));
                let fields: Vec<&str> = line
                    .expect("failed_pct printed")
                    .split_whitespace()
                    .collect();
                assert_eq!(fields[1].parse::<f64>(), Ok(0.0));
                assert_eq!(fields[2], "%");
            }
        }
    }
}

#[test]
fn simulated_metrics_repeat_exactly_across_seeds() {
    for (workload, _) in names(&manifest(), "workloads") {
        let (a, b) = (run(&workload, 1, false, &[]), run(&workload, 2, false, &[]));
        assert_clean(&a, &workload);
        assert_clean(&b, &workload);
        for name in ["tflow_speedup", "tflow_energy_x"] {
            let (va, vb) = (metric(&a, name).0, metric(&b, name).0);
            assert_eq!(va.to_bits(), vb.to_bits(), "{workload}: {name}");
            assert!(va > 0.0);
        }
    }
}

#[test]
fn a_flipped_gradient_bit_is_counted_as_a_failure() {
    for (workload, _) in names(&manifest(), "workloads") {
        let r = run(&workload, 1, false, &["--inject-fault"]);
        assert_ne!(r.code, Some(0), "{workload}: exit code");
        assert_eq!(
            r.result.get("correct").and_then(Value::as_bool),
            Some(false)
        );
        assert!(r.result.get("failed").and_then(Value::as_u64).unwrap() >= 1);
    }
}
