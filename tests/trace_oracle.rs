//! Differential oracle for the columnar tracer: a reference tracer —
//! one owning node struct per dynamic instruction with its own `deps`
//! vector, memory dependences tracked in a `HashMap` keyed by byte
//! address — must produce exactly the columns and the sorted dependence
//! lists `ir::trace::trace_function` records, node for node. The
//! programs are all nine benchmarks at Tiny scale (Enzyme gradient,
//! Tflow and TflowC compilations) plus the `sumexp` and
//! `pathfinder_mini` sample programs (gradient and both compilations).

use std::collections::HashMap;
use tapeflow::autodiff::{differentiate, AdOptions, TapePolicy};
use tapeflow::benchmarks::{by_name, Scale, NAMES};
use tapeflow::core::pipeline::PipelineBuilder;
use tapeflow::core::CompileOptions;
use tapeflow::ir::interp::{execute, ExecError, ExecHook, MemEffect};
use tapeflow::ir::trace::{trace_function, Phase, TraceOptions, FLAG_STREAM_IN, NO_LAYER};
use tapeflow::ir::{parse, ArrayId, ArrayKind, Function, InstId, Memory, Op, OpClass};

/// One dynamic instruction as the reference tracer records it.
#[derive(Clone, Debug)]
struct RefNode {
    inst: InstId,
    op: Op,
    phase: Phase,
    layer: u32,
    addr: u64,
    bytes: u32,
    is_tape: bool,
    deps: Vec<u32>,
}

#[derive(Default)]
struct AddrState {
    last_writer: Option<u32>,
    readers: Vec<u32>,
}

const SPAD_SPACE: u64 = 1 << 63;

/// The reference tracer: the straightforward per-node-struct,
/// per-address-map formulation of the DDG rules.
struct RefTracer {
    nodes: Vec<RefNode>,
    val_node: Vec<Option<u32>>,
    mem_state: HashMap<u64, AddrState>,
    last_barrier: Option<u32>,
    since_barrier: Vec<u32>,
    phase: Phase,
    phase_barrier: Option<InstId>,
    layer: u32,
    layer_count: u32,
}

impl RefTracer {
    fn new(func: &Function, phase_barrier: InstId) -> Self {
        RefTracer {
            nodes: Vec::new(),
            val_node: vec![None; func.values().len()],
            mem_state: HashMap::new(),
            last_barrier: None,
            since_barrier: Vec::new(),
            phase: Phase::Fwd,
            phase_barrier: Some(phase_barrier),
            layer: NO_LAYER,
            layer_count: 0,
        }
    }

    fn read_addr(&mut self, addr: u64, me: u32, deps: &mut Vec<u32>) {
        let st = self.mem_state.entry(addr).or_default();
        if let Some(w) = st.last_writer {
            deps.push(w);
        }
        st.readers.push(me);
    }

    fn write_addr(&mut self, addr: u64, me: u32, deps: &mut Vec<u32>) {
        let st = self.mem_state.entry(addr).or_default();
        if let Some(w) = st.last_writer {
            deps.push(w);
        }
        deps.append(&mut st.readers);
        st.last_writer = Some(me);
    }
}

impl ExecHook for RefTracer {
    fn on_inst(
        &mut self,
        inst: InstId,
        func: &Function,
        effect: &MemEffect,
    ) -> Result<(), ExecError> {
        let me = self.nodes.len() as u32;
        let decl = func.inst(inst);
        if self.phase_barrier == Some(inst) {
            self.phase = Phase::Rev;
        }
        if let Op::SAlloc { .. } = decl.op {
            self.layer = self.layer_count;
            self.layer_count += 1;
        }
        let mut deps = Vec::new();
        for &a in &decl.args {
            if let Some(n) = self.val_node[a.index()] {
                deps.push(n);
            }
        }
        let is_stream = matches!(
            decl.op,
            Op::StreamOut(_) | Op::StreamIn(_) | Op::StreamOutC { .. } | Op::StreamInC { .. }
        );
        let is_sync = matches!(decl.op, Op::Barrier | Op::SAlloc { .. });
        let is_addr = decl.op.class() == OpClass::Int;
        if !is_stream && !is_sync && !is_addr {
            if let Some(b) = self.last_barrier {
                deps.push(b);
            }
        }
        let (addr, bytes, is_tape) = match effect {
            MemEffect::None => (0u64, 0u32, false),
            MemEffect::Load { addr, array } => {
                self.read_addr(*addr, me, &mut deps);
                (*addr, 8, func.array(*array).kind.is_tape())
            }
            MemEffect::Store { addr, array } => {
                self.write_addr(*addr, me, &mut deps);
                (*addr, 8, func.array(*array).kind.is_tape())
            }
            MemEffect::SpadLoad { entry } => {
                self.read_addr(SPAD_SPACE | entry, me, &mut deps);
                (*entry, 8, true)
            }
            MemEffect::SpadStore { entry } => {
                self.write_addr(SPAD_SPACE | entry, me, &mut deps);
                (*entry, 8, true)
            }
            MemEffect::Stream {
                spad,
                dram_start,
                elems,
                to_dram,
                ..
            } => {
                for e in spad.clone() {
                    if *to_dram {
                        self.read_addr(SPAD_SPACE | e, me, &mut deps);
                    } else {
                        self.write_addr(SPAD_SPACE | e, me, &mut deps);
                    }
                }
                for k in 0..*elems {
                    let a = dram_start + 8 * k;
                    if *to_dram {
                        self.write_addr(a, me, &mut deps);
                    } else {
                        self.read_addr(a, me, &mut deps);
                    }
                }
                let bytes = match decl.op {
                    Op::StreamOutC {
                        struct_elems,
                        struct_bytes,
                        ..
                    }
                    | Op::StreamInC {
                        struct_elems,
                        struct_bytes,
                        ..
                    } => (elems.div_ceil(struct_elems as u64) * struct_bytes as u64) as u32,
                    _ => (*elems as u32) * 8,
                };
                (*dram_start, bytes, true)
            }
        };
        if let Op::Barrier = decl.op {
            deps.append(&mut self.since_barrier);
            if let Some(b) = self.last_barrier {
                deps.push(b);
            }
            self.last_barrier = Some(me);
        }
        deps.sort_unstable();
        deps.dedup();
        if let Some(r) = decl.result {
            self.val_node[r.index()] = Some(me);
        }
        if !matches!(decl.op, Op::Barrier) && !is_stream {
            self.since_barrier.push(me);
        }
        self.nodes.push(RefNode {
            inst,
            op: decl.op,
            phase: self.phase,
            layer: self.layer,
            addr,
            bytes,
            is_tape,
            deps,
        });
        Ok(())
    }
}

/// Traces `func` from `mem` with both tracers and asserts identical
/// graphs, node for node, and identical final memory.
fn check(label: &str, func: &Function, barrier: InstId, mem: &Memory) {
    let mut ref_mem = mem.clone();
    let (want, _) = execute(func, &mut ref_mem, RefTracer::new(func, barrier))
        .unwrap_or_else(|e| panic!("{label}: reference trace: {e}"));
    let mut got_mem = mem.clone();
    let got = trace_function(
        func,
        &mut got_mem,
        TraceOptions {
            phase_barrier: Some(barrier),
        },
    )
    .unwrap_or_else(|e| panic!("{label}: trace: {e}"));

    assert_eq!(got.len(), want.nodes.len(), "{label}: node count");
    assert_eq!(got.layer_count(), want.layer_count, "{label}: layer count");
    let edges: usize = want.nodes.iter().map(|n| n.deps.len()).sum();
    assert_eq!(got.edge_count(), edges, "{label}: edge count");
    assert_eq!(got.insts().len(), got.len(), "{label}: inst column");
    for (i, w) in want.nodes.iter().enumerate() {
        let at = |what: &str| format!("{label}: node {i} ({:?}) {what}", w.op);
        assert_eq!(got.inst(i), w.inst, "{}", at("inst"));
        assert_eq!(got.op(i), w.op, "{}", at("op"));
        assert_eq!(got.class(i), w.op.class(), "{}", at("class"));
        assert_eq!(got.phase(i), w.phase, "{}", at("phase"));
        assert_eq!(got.is_tape(i), w.is_tape, "{}", at("tape flag"));
        assert_eq!(
            got.flags()[i] & FLAG_STREAM_IN != 0,
            matches!(w.op, Op::StreamIn(_) | Op::StreamInC { .. }),
            "{}",
            at("stream-in flag")
        );
        assert_eq!(got.layer(i), w.layer, "{}", at("layer"));
        assert_eq!(got.addr(i), w.addr, "{}", at("addr"));
        assert_eq!(got.bytes(i), w.bytes, "{}", at("bytes"));
        assert_eq!(got.deps(i), &w.deps[..], "{}", at("deps"));
    }
    for a in 0..func.arrays().len() {
        let a = ArrayId::new(a);
        for k in 0..got_mem.len_of(a) {
            assert_eq!(
                got_mem.load(a, k).to_bits(),
                ref_mem.load(a, k).to_bits(),
                "{label}: final memory differs"
            );
        }
    }
}

fn compile_options(compress: bool) -> CompileOptions {
    CompileOptions {
        compress_tape: compress,
        ..CompileOptions::default()
    }
}

#[test]
fn columnar_tracer_matches_reference_on_every_benchmark() {
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
        check(
            &format!("{name}/Enzyme"),
            &grad.func,
            grad.phase_barrier,
            &seed(&grad.func),
        );
        for (variant, compress) in [("Tflow", false), ("TflowC", true)] {
            let c = PipelineBuilder::for_options(&compile_options(compress))
                .run_gradient(&grad)
                .and_then(|run| run.into_compiled())
                .unwrap_or_else(|e| panic!("{name}/{variant}: {e}"));
            check(
                &format!("{name}/{variant}"),
                &c.func,
                c.phase_barrier,
                &seed(&c.func),
            );
        }
    }
}

#[test]
fn columnar_tracer_matches_reference_on_sample_programs() {
    for (file, wrt) in [
        ("programs/sumexp.tf", &["x"][..]),
        ("programs/pathfinder_mini.tf", &["w", "src"][..]),
    ] {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file}: {e}"));
        let src = parse::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let wrt = wrt.iter().map(|n| src.array_by_name(n).unwrap()).collect();
        let loss = src.array_by_name("loss").expect("loss array");
        let ad = AdOptions::new(wrt, vec![loss]).with_policy(TapePolicy::Conservative);
        let grad = differentiate(&src, &ad).unwrap_or_else(|e| panic!("{file}: {e}"));
        // Deterministic, non-constant inputs; the loss shadow seeds 1.
        let seed = |func: &Function| {
            let mut mem = Memory::for_function(func);
            for (i, a) in src.arrays().iter().enumerate() {
                if a.kind == ArrayKind::Input {
                    let vals: Vec<f64> = (0..a.len).map(|k| ((k * 7) % 13) as f64 / 8.0).collect();
                    mem.set_f64(ArrayId::new(i), &vals);
                }
            }
            mem.set_f64_at(grad.shadow_of(loss).expect("loss shadow"), 0, 1.0);
            mem
        };
        check(
            &format!("{file}/gradient"),
            &grad.func,
            grad.phase_barrier,
            &seed(&grad.func),
        );
        for (variant, compress) in [("Tflow", false), ("TflowC", true)] {
            let c = PipelineBuilder::for_options(&compile_options(compress))
                .run_gradient(&grad)
                .and_then(|run| run.into_compiled())
                .unwrap_or_else(|e| panic!("{file}/{variant}: {e}"));
            check(
                &format!("{file}/{variant}"),
                &c.func,
                c.phase_barrier,
                &seed(&c.func),
            );
        }
    }
}
