//! End-to-end guarantees for Pass 5 (`tape-compress`) across the nine
//! paper benchmarks: the compressed build must compute **byte-identical**
//! gradient shadows (the pass only changes how taped values are encoded,
//! never what flows through the REV phase), must never grow the tape,
//! must lint clean, and must cut modeled tape DRAM traffic on at least
//! three benchmarks (the input-rematerialization and width-narrowing
//! opportunities the value-range analysis (`ir::vra`) finds under the
//! Enzyme-realistic conservative tape policy).

use tapeflow_bench::harness::{Config, Prepared};
use tapeflow_benchmarks::{by_name, Scale, NAMES};
use tapeflow_ir::lint::{self, LintConfig};
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_ir::{ArrayId, ArrayKind, Memory};
use tapeflow_sim::SystemConfig;

/// Interprets the compiled build on the benchmark's own inputs and
/// returns every shadow array as raw bits, plus the compiled function
/// for further checks.
fn shadow_bits(p: &mut Prepared, cfg: &Config) -> Vec<(String, Vec<u64>)> {
    let name = p.bench.name;
    let c = p
        .try_compiled(cfg)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .clone();
    let mut mem = Memory::for_function(&c.func);
    for i in 0..p.bench.func.arrays().len() {
        mem.clone_array_from(&p.bench.mem, ArrayId::new(i));
    }
    mem.set_f64_at(
        p.grad.shadow_of(p.bench.loss.array).expect("loss shadow"),
        p.bench.loss.index,
        1.0,
    );
    trace_function(
        &c.func,
        &mut mem,
        TraceOptions {
            phase_barrier: Some(c.phase_barrier),
        },
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    c.func
        .arrays_of_kind(ArrayKind::Shadow)
        .map(|a| {
            (
                mem.name_of(a).to_string(),
                mem.get_f64(a).into_iter().map(f64::to_bits).collect(),
            )
        })
        .collect()
}

#[test]
fn compressed_gradients_are_byte_identical_and_cut_tape_traffic() {
    let off_cfg = Config::tapeflow(32 * 1024);
    let on_cfg = Config::tapeflow_compressed(32 * 1024);
    let lint_cfg = LintConfig {
        spad_entries: 128, // the configs' 1 KB scratchpad
        spad_banks: SystemConfig::default().spad.banks,
    };
    let mut compressed = Vec::new();
    let mut reduced = Vec::new();
    for name in NAMES {
        let mut p = Prepared::new(by_name(name, Scale::Tiny));
        let base = shadow_bits(&mut p, &off_cfg);
        let comp = shadow_bits(&mut p, &on_cfg);
        assert_eq!(base, comp, "{name}: compressed gradient drifted");

        let c = p.try_compiled(&on_cfg).expect("feasible").clone();
        let enc = c.encoding.as_ref().expect("compressed build has encoding");
        assert!(
            enc.bytes_after <= enc.bytes_before,
            "{name}: compression grew the tape ({} -> {})",
            enc.bytes_before,
            enc.bytes_after
        );
        if enc.bytes_after < enc.bytes_before {
            compressed.push(name);
        }
        let diags = lint::lint_function(&c.func, &lint_cfg);
        let (errors, _) = lint::counts(&diags);
        assert_eq!(errors, 0, "{name}: compressed build lints dirty: {diags:?}");

        let off = p.sim(&off_cfg, false).dram_bytes();
        let on = p.sim(&on_cfg, false).dram_bytes();
        if on < off {
            reduced.push((name, off, on));
        }
    }
    assert!(
        compressed.len() >= 3,
        "tape-compress shrank the encoded tape on only {compressed:?}"
    );
    assert!(
        reduced.len() >= 3,
        "tape-compress cut DRAM traffic on only {reduced:?} (need >= 3 of {})",
        NAMES.len()
    );
}
