//! End-to-end tests for `tapeflow lint`: each seeded-broken fixture under
//! `tests/lint/` proves one rule family live against a golden table
//! (regenerate with `BLESS=1 cargo test --test lint_cli`), the JSON
//! report is schema-checked and byte-stable across runs, every in-tree
//! benchmark lints clean at every scale, unknown program names and malformed
//! instructions exit with a structured error instead of a panic, and `--lint-after-all` leaves the simulate
//! output byte-identical.

use std::path::PathBuf;
use std::process::Command;
use tapeflow::sim::json::Value;

fn target_tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create target tmpdir");
    dir.join(name)
}

fn tapeflow(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tapeflow"))
        .args(args)
        .output()
        .expect("run tapeflow")
}

/// (fixture stem, expected exit code). Error findings exit 1; the
/// warning-only bank-stride fixture stays 0, as do the two clean
/// programs a less precise range analysis would flag falsely.
const FIXTURES: [(&str, i32); 7] = [
    ("oob_tape_index", 1),
    ("spad_overflow", 1),
    ("stream_cycle", 1),
    ("bank_stride", 0),
    ("float_nonfinite", 1),
    ("zero_trip_loop", 0),
    ("correlated_index", 0),
];

#[test]
fn seeded_fixture_tables_are_golden() {
    for (stem, want_code) in FIXTURES {
        let file = format!("tests/lint/{stem}.tf");
        let out = tapeflow(&["lint", &file]);
        assert_eq!(
            out.status.code(),
            Some(want_code),
            "{stem}: exit code (stderr: {})",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let path = format!("tests/golden/lint_{stem}.txt");
        if std::env::var_os("BLESS").is_some() {
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e} (regenerate with BLESS=1)"));
        assert_eq!(
            got, want,
            "{stem}: lint table drifted from {path} \
             (intentional? regenerate with BLESS=1 cargo test --test lint_cli)"
        );
    }
}

#[test]
fn every_benchmark_lints_clean_at_default_config() {
    // `--lint-after-all` also lints every pass boundary: the streams
    // terminal form still carries `tape.load`s indexed by partial-tile
    // induction variables, whose bounds must be proven there too.
    for scale in ["tiny", "small", "large"] {
        for name in tapeflow::benchmarks::NAMES {
            let out = tapeflow(&["lint", name, "--scale", scale, "--lint-after-all"]);
            assert!(
                out.status.success(),
                "{name} at {scale}: lint found errors:\n{}{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.contains("0 error(s)"),
                "{name} at {scale}: unexpected summary: {stdout}"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            let banners: Vec<&str> = stderr
                .lines()
                .filter(|l| l.starts_with("// ===== lint after pass"))
                .collect();
            assert!(!banners.is_empty(), "{name} at {scale}: no lint banners");
            for banner in banners {
                assert!(
                    banner.contains("(0 error(s)"),
                    "{name} at {scale}: {banner}\n{stderr}"
                );
            }
        }
    }
}

#[test]
fn json_report_matches_schema_and_is_deterministic() {
    let docs: Vec<String> = (0..3)
        .map(|i| {
            let path = target_tmp(&format!("lint_oob_{i}.json"));
            let out = tapeflow(&[
                "lint",
                "tests/lint/oob_tape_index.tf",
                "--json",
                path.to_str().unwrap(),
            ]);
            assert_eq!(out.status.code(), Some(1));
            std::fs::read_to_string(&path).expect("json written")
        })
        .collect();
    assert_eq!(docs[0], docs[1], "lint JSON differs across runs");
    assert_eq!(docs[1], docs[2], "lint JSON differs across runs");

    let doc = Value::parse(&docs[0]).expect("lint JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("tapeflow.cli.lint/v2")
    );
    assert_eq!(
        doc.get("program").and_then(Value::as_str),
        Some("tests/lint/oob_tape_index.tf")
    );
    for key in ["spad_entries", "spad_banks", "errors", "warnings"] {
        assert!(
            doc.get(key).and_then(Value::as_u64).is_some(),
            "missing or non-numeric {key}"
        );
    }
    assert_eq!(doc.get("errors").and_then(Value::as_u64), Some(2));
    let diags = doc
        .get("diagnostics")
        .and_then(Value::as_arr)
        .expect("diagnostics array");
    assert_eq!(diags.len(), 2);
    for d in diags {
        assert_eq!(
            d.get("rule").and_then(Value::as_str),
            Some("tape-index-oob")
        );
        assert_eq!(d.get("severity").and_then(Value::as_str), Some("error"));
        assert!(d.get("inst").and_then(Value::as_u64).is_some(), "inst");
        assert!(d.get("array").and_then(Value::as_u64).is_some(), "array");
        assert!(
            d.get("message")
                .and_then(Value::as_str)
                .is_some_and(|m| m.contains("8 elements")),
            "message"
        );
    }
    // v2 range census: bounded/total value counts plus per-array
    // content ranges, even on the direct (already-lowered) lint path.
    let ranges = doc.get("ranges").expect("v2 carries a ranges section");
    for key in ["bounded_i64", "total_i64", "bounded_f64", "total_f64"] {
        assert!(
            ranges.get(key).and_then(Value::as_u64).is_some(),
            "missing or non-numeric ranges.{key}"
        );
    }
    let arrays = ranges
        .get("arrays")
        .and_then(Value::as_arr)
        .expect("ranges.arrays");
    assert!(!arrays.is_empty());
    for a in arrays {
        assert!(a.get("name").and_then(Value::as_str).is_some());
        assert!(a.get("content").and_then(Value::as_str).is_some());
    }
}

#[test]
fn compressed_benchmark_json_reports_narrowing_decisions() {
    let path = target_tmp("lint_matdescent_v2.json");
    let out = tapeflow(&[
        "lint",
        "matdescent",
        "--scale",
        "tiny",
        "--compress-tape",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let ranges = doc.get("ranges").expect("ranges section");
    let narrowing = ranges
        .get("narrowing")
        .and_then(Value::as_arr)
        .expect("narrowing decisions under --compress-tape");
    assert!(!narrowing.is_empty());
    // matdescent's A·x product slot narrows to a single byte; the input
    // copies are elided outright.
    let encodings: Vec<&str> = narrowing
        .iter()
        .filter_map(|n| n.get("encoding").and_then(Value::as_str))
        .collect();
    assert!(encodings.contains(&"remat"), "{encodings:?}");
    assert!(encodings.contains(&"keep"), "{encodings:?}");
    assert!(narrowing
        .iter()
        .any(|n| n.get("width_bytes").and_then(Value::as_u64) == Some(1)));
}

#[test]
fn check_dynamic_is_green_on_benchmarks() {
    for name in ["matdescent", "pathfinder"] {
        let out = tapeflow(&[
            "lint",
            name,
            "--scale",
            "tiny",
            "--compress-tape",
            "--check-dynamic",
        ]);
        assert!(
            out.status.success(),
            "{name}: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("=== dynamic range oracle ==="), "{stdout}");
        assert!(stdout.contains("dynamic oracle: 0 escape(s)"), "{stdout}");
        // Both the source program and its gradient function ran under
        // the recorder.
        assert!(stdout.contains("source"), "{stdout}");
        assert!(stdout.contains("gradient"), "{stdout}");
    }
}

#[test]
fn explain_prints_catalog_entries_and_rejects_unknown_rules() {
    let out = tapeflow(&["lint", "--explain", "unsound-narrow"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("unsound-narrow (error, plan level)"),
        "{stdout}"
    );
    assert!(stdout.contains("its own checker"), "{stdout}");

    let out = tapeflow(&["lint", "--explain", "float-nonfinite"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("NaN"), "{stdout}");

    let out = tapeflow(&["lint", "--explain", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no lint rule named") && stderr.contains("tape-index-oob"),
        "the error should list the catalog: {stderr}"
    );
}

#[test]
fn benchmark_json_runs_are_byte_identical() {
    let runs: Vec<String> = (0..2)
        .map(|i| {
            let path = target_tmp(&format!("lint_logsum_{i}.json"));
            let out = tapeflow(&[
                "lint",
                "logsum",
                "--scale",
                "tiny",
                "--json",
                path.to_str().unwrap(),
            ]);
            assert!(out.status.success());
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            stdout + &std::fs::read_to_string(&path).expect("json written")
        })
        .collect();
    assert_eq!(runs[0], runs[1], "lint output differs across runs");
}

#[test]
fn unknown_program_name_is_a_structured_error() {
    for cmd in ["lint", "simulate", "profile"] {
        let out = tapeflow(&[cmd, "nosuch_program"]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{cmd}: expected usage-error exit"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("neither a readable IR file nor a registered benchmark"),
            "{cmd}: stderr: {stderr}"
        );
        assert!(
            stderr.contains("logsum") && stderr.contains("mass_spring"),
            "{cmd}: error should list the registry: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd}: panicked: {stderr}");
    }
}

#[test]
fn wrong_operand_count_is_a_parse_error_not_a_panic() {
    // Dropping one operand of a binary op used to reach
    // `Function::add_inst`'s arity assertion and abort with exit 101.
    let src = std::fs::read_to_string("programs/pathfinder_mini.tf").expect("read program");
    assert!(src.contains("%7 = fmin %4 %5"));
    let file = target_tmp("pathfinder_mini_arity.tf");
    std::fs::write(&file, src.replace("%7 = fmin %4 %5", "%7 = fmin %4")).unwrap();
    let out = tapeflow(&["lint", file.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("fmin takes 2 value operand(s), found 1"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
}

#[test]
fn lint_after_all_leaves_simulate_output_byte_identical() {
    let json_a = target_tmp("sim_plain.json");
    let json_b = target_tmp("sim_linted.json");
    let plain = tapeflow(&[
        "simulate",
        "logsum",
        "--scale",
        "tiny",
        "--json",
        json_a.to_str().unwrap(),
    ]);
    let linted = tapeflow(&[
        "simulate",
        "logsum",
        "--scale",
        "tiny",
        "--lint-after-all",
        "--json",
        json_b.to_str().unwrap(),
    ]);
    assert!(plain.status.success() && linted.status.success());
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&linted.stdout),
        "--lint-after-all changed simulate stdout"
    );
    // The report embeds per-pass wall-clock timings that differ between
    // any two runs; everything else must match byte for byte.
    let strip_timings = |text: String| -> String {
        text.lines()
            .filter(|l| !l.trim_start().starts_with("\"seconds\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_timings(std::fs::read_to_string(&json_a).unwrap()),
        strip_timings(std::fs::read_to_string(&json_b).unwrap()),
        "--lint-after-all changed the simulate JSON report"
    );
}

#[test]
fn lint_after_all_reports_pass_boundaries_on_stderr() {
    // Compiling a source program with --lint-after-all banners every
    // pass boundary on stderr, even when each comes back clean.
    let out = tapeflow(&[
        "lint",
        "programs/sumexp.tf",
        "--wrt",
        "x",
        "--loss",
        "loss",
        "--lint-after-all",
    ]);
    assert!(
        out.status.success(),
        "lint failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for pass in [
        "opt",
        "ad",
        "regions",
        "layering",
        "value-ranges",
        "streams",
        "spad-index",
    ] {
        assert!(
            stderr.contains(&format!(": {pass} (")),
            "missing lint banner for pass {pass:?} on stderr: {stderr}"
        );
    }
}
