//! Dynamic dataflow graph (DDG) extraction.
//!
//! Tracing executes a function (with full numeric fidelity — the final
//! [`Memory`] holds the gradients) while recording one node per dynamic
//! instruction and the dependence edges between nodes:
//!
//! * SSA edges — operand produced by an earlier dynamic instruction;
//! * memory edges — RAW, WAR and WAW on every 8-byte DRAM word, which is
//!   what carries the FWD → REV tape dependences the paper characterizes;
//! * scratchpad edges — the same, per scratchpad entry, which is how
//!   double-buffered streams naturally serialize against buffer reuse;
//! * barrier edges — layer barriers order compute (but *not* stream
//!   engines, which run ahead, as in the paper's §3.5).
//!
//! The trace is the unrolled dataflow the paper's Chapter 2 figures
//! characterize and the object `tapeflow-sim` schedules cycle by cycle.
//!
//! # Layout
//!
//! The trace is columnar, laid out in the order its consumers read it:
//! one array per node field and one predecessor CSR (`dep_off` with
//! `len + 1` offsets into `dep_dat`) for the dependences, so recording a
//! node is a handful of appends — no per-node heap allocation. A node
//! costs 22 bytes (inst 4, class 1, flags 1, addr 8, bytes 4, CSR offset
//! 4) and an edge 4. Two columns are stored compressed: the opcode is
//! dictionary-encoded through `inst` (one [`Op`] per static instruction)
//! and the layer is run-length encoded (layers change only at `salloc`
//! nodes, whose ids are kept). The scheduling columns (class, flags,
//! addr, bytes) and the CSR offsets sit behind [`Arc`]s so the
//! simulator's arena shares them instead of copying.
//!
//! Memory dependences come from flat shadow state: one slot per 8-byte
//! DRAM word from [`DRAM_BASE`] to [`Memory::end_addr`] and one per
//! scratchpad entry up to the highest `salloc` extent. A slot holds its
//! last writer and the head of its readers-since-that-write list; the
//! lists are threaded through one pool whose entries a write recycles.

use crate::function::Function;
use crate::ids::InstId;
use crate::interp::{execute, ExecError, ExecHook, MemEffect};
use crate::memory::{Memory, DRAM_BASE};
use crate::ops::{Op, OpClass};
use std::sync::Arc;

/// Which half of the gradient program a node belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward phase: the original function plus tape stores.
    Fwd,
    /// Reverse phase: adjoint computation plus tape loads.
    Rev,
}

/// Sentinel for "not inside any layer".
pub const NO_LAYER: u32 = u32::MAX;

/// Node flag: a tape access (tape-array load/store, any scratchpad
/// access, or a stream command).
pub const FLAG_TAPE: u8 = 1 << 0;
/// Node flag: the node belongs to the reverse phase.
pub const FLAG_REV: u8 = 1 << 1;
/// Node flag: a stream command moving data inward (`stream.in`,
/// `stream.inc`).
pub const FLAG_STREAM_IN: u8 = 1 << 2;

/// Most nodes a trace may hold: node ids are `u32` in the CSR payload and
/// the simulator's event heap, with `u32::MAX` kept as a sentinel.
pub const NODE_LIMIT: usize = u32::MAX as usize - 1;
/// Most dependence edges a trace may hold: CSR offsets are cumulative
/// `u32` edge counts.
pub const EDGE_LIMIT: usize = u32::MAX as usize;

/// Node and edge bounds the tracer enforces as it records.
#[derive(Clone, Copy, Debug)]
struct Limits {
    nodes: usize,
    edges: usize,
}

impl Limits {
    const U32: Limits = Limits {
        nodes: NODE_LIMIT,
        edges: EDGE_LIMIT,
    };

    fn check(self, nodes: usize, edges: usize) -> Result<(), ExecError> {
        if nodes > self.nodes {
            return Err(ExecError::TraceTooLarge {
                what: "nodes",
                count: nodes,
                limit: self.nodes,
            });
        }
        if edges > self.edges {
            return Err(ExecError::TraceTooLarge {
                what: "dependence edges",
                count: edges,
                limit: self.edges,
            });
        }
        Ok(())
    }
}

/// The per-node columns the simulator's arena shares with the trace.
#[derive(Clone, Debug)]
pub struct SchedColumns {
    /// Predecessor CSR offsets (`len + 1` entries); their deltas are the
    /// indegrees.
    pub dep_off: Arc<Vec<u32>>,
    /// Scheduling class per node.
    pub class: Arc<Vec<OpClass>>,
    /// `FLAG_*` bits per node.
    pub flags: Arc<Vec<u8>>,
    /// Byte address for DRAM accesses, entry index for scratchpad
    /// accesses, start byte address for streams; 0 otherwise.
    pub addr: Arc<Vec<u64>>,
    /// Bytes moved (8 for scalar accesses, the modeled transfer size for
    /// streams, 0 for compute).
    pub bytes: Arc<Vec<u32>>,
}

/// The dynamic dataflow graph of one execution. Nodes are numbered in
/// execution order, which is a valid topological order.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Name of the traced function.
    pub name: String,
    /// Opcode per static instruction.
    ops: Vec<Op>,
    /// Static instruction per node.
    inst: Vec<u32>,
    /// Node id of each `salloc`, ascending: layer `k` starts at
    /// `layer_starts[k]`.
    layer_starts: Vec<u32>,
    cols: SchedColumns,
    /// Predecessor CSR payload: each node's deps, sorted and deduped.
    dep_dat: Vec<u32>,
}

impl Trace {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.inst.len()
    }

    /// True when the trace recorded nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inst.is_empty()
    }

    /// Number of layers (SAlloc count); 0 for unlayered programs.
    #[inline]
    pub fn layer_count(&self) -> u32 {
        self.layer_starts.len() as u32
    }

    /// Total dependence edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.dep_dat.len()
    }

    /// The nodes node `i` must wait for, ascending.
    #[inline]
    pub fn deps(&self, i: usize) -> &[u32] {
        let off = &self.cols.dep_off;
        &self.dep_dat[off[i] as usize..off[i + 1] as usize]
    }

    /// The predecessor CSR: `len + 1` offsets and the edge payload.
    #[inline]
    pub fn dep_csr(&self) -> (&[u32], &[u32]) {
        (&self.cols.dep_off, &self.dep_dat)
    }

    /// The static instruction node `i` executed.
    #[inline]
    pub fn inst(&self, i: usize) -> InstId {
        InstId(self.inst[i])
    }

    /// The static instruction of every node, as raw indices.
    #[inline]
    pub fn insts(&self) -> &[u32] {
        &self.inst
    }

    /// Opcode of node `i`.
    #[inline]
    pub fn op(&self, i: usize) -> Op {
        self.ops[self.inst[i] as usize]
    }

    /// Scheduling class of node `i`.
    #[inline]
    pub fn class(&self, i: usize) -> OpClass {
        self.cols.class[i]
    }

    /// `FLAG_*` bits of every node.
    #[inline]
    pub fn flags(&self) -> &[u8] {
        &self.cols.flags
    }

    /// FWD or REV phase of node `i`.
    #[inline]
    pub fn phase(&self, i: usize) -> Phase {
        if self.cols.flags[i] & FLAG_REV != 0 {
            Phase::Rev
        } else {
            Phase::Fwd
        }
    }

    /// True when node `i` is a tape access (tape-array load/store, any
    /// scratchpad access, or a stream command).
    #[inline]
    pub fn is_tape(&self, i: usize) -> bool {
        self.cols.flags[i] & FLAG_TAPE != 0
    }

    /// Layer index of node `i`, or [`NO_LAYER`].
    #[inline]
    pub fn layer(&self, i: usize) -> u32 {
        match self.layer_starts.partition_point(|&s| s as usize <= i) {
            0 => NO_LAYER,
            k => k as u32 - 1,
        }
    }

    /// Address of node `i` (see [`SchedColumns::addr`]).
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        self.cols.addr[i]
    }

    /// Bytes moved by node `i` (see [`SchedColumns::bytes`]).
    #[inline]
    pub fn bytes(&self, i: usize) -> u32 {
        self.cols.bytes[i]
    }

    /// The scheduling columns, shared (`Arc`) rather than copied.
    #[inline]
    pub fn sched_columns(&self) -> &SchedColumns {
        &self.cols
    }
}

/// Options controlling trace construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceOptions {
    /// The barrier instruction separating FWD from REV (emitted by
    /// `tapeflow-autodiff`). Nodes executed at or after it are classified
    /// [`Phase::Rev`]; with `None`, everything is FWD.
    pub phase_barrier: Option<InstId>,
}

/// "No node" in the tracer's `u32` node and pool links.
const NONE: u32 = u32::MAX;

/// Shadow state of one DRAM word or scratchpad entry: the last writer
/// and the head of the readers-since-that-write list in the pool.
#[derive(Clone, Copy)]
struct Slot {
    writer: u32,
    readers: u32,
}

const EMPTY_SLOT: Slot = Slot {
    writer: NONE,
    readers: NONE,
};

struct Tracer {
    inst: Vec<u32>,
    layer_starts: Vec<u32>,
    class: Vec<OpClass>,
    flags: Vec<u8>,
    addr: Vec<u64>,
    bytes: Vec<u32>,
    dep_off: Vec<u32>,
    dep_dat: Vec<u32>,
    /// Producing node per SSA value, or [`NONE`].
    val_node: Vec<u32>,
    /// DRAM word slots, then scratchpad entry slots from `spad0`.
    slots: Vec<Slot>,
    spad0: usize,
    /// Reader-list entries: `[node, next]`, recycled through `free`.
    pool: Vec<[u32; 2]>,
    free: u32,
    last_barrier: u32,
    since_barrier: Vec<u32>,
    rev: bool,
    phase_barrier: Option<InstId>,
    /// The current node's deps, gathered, sorted and deduped in place.
    scratch: Vec<u32>,
    limits: Limits,
}

impl Tracer {
    fn new(func: &Function, mem: &Memory, opts: TraceOptions, limits: Limits) -> Self {
        let words = ((mem.end_addr() - DRAM_BASE) / 8) as usize;
        let spad = func
            .insts()
            .iter()
            .filter_map(|inst| match inst.op {
                Op::SAlloc { size, base } => Some(base as usize + size as usize),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        Tracer {
            inst: Vec::new(),
            layer_starts: Vec::new(),
            class: Vec::new(),
            flags: Vec::new(),
            addr: Vec::new(),
            bytes: Vec::new(),
            dep_off: vec![0],
            dep_dat: Vec::new(),
            val_node: vec![NONE; func.values().len()],
            slots: vec![EMPTY_SLOT; words + spad],
            spad0: words,
            pool: Vec::new(),
            free: NONE,
            last_barrier: NONE,
            since_barrier: Vec::new(),
            rev: false,
            phase_barrier: opts.phase_barrier,
            scratch: Vec::new(),
            limits,
        }
    }

    #[inline]
    fn dram_slot(addr: u64) -> usize {
        ((addr - DRAM_BASE) / 8) as usize
    }

    /// Records a read of slot `s` by node `me`: RAW on the last writer,
    /// and `me` joins the slot's readers.
    #[inline]
    fn read(&mut self, s: usize, me: u32) -> Result<(), ExecError> {
        let slot = &mut self.slots[s];
        if slot.writer != NONE {
            self.scratch.push(slot.writer);
        }
        let entry = [me, slot.readers];
        if self.free != NONE {
            let e = self.free;
            self.free = self.pool[e as usize][1];
            self.pool[e as usize] = entry;
            slot.readers = e;
        } else {
            if self.pool.len() >= NONE as usize {
                return Err(ExecError::TraceTooLarge {
                    what: "pending reads",
                    count: self.pool.len() + 1,
                    limit: NONE as usize,
                });
            }
            slot.readers = self.pool.len() as u32;
            self.pool.push(entry);
        }
        Ok(())
    }

    /// Records a write of slot `s` by node `me`: WAW on the last writer,
    /// WAR on every reader since, whose pool entries are recycled.
    #[inline]
    fn write(&mut self, s: usize, me: u32) {
        let Slot { writer, readers } = self.slots[s];
        if writer != NONE {
            self.scratch.push(writer);
        }
        let mut e = readers;
        while e != NONE {
            let [node, next] = self.pool[e as usize];
            self.scratch.push(node);
            if next == NONE {
                self.pool[e as usize][1] = self.free;
                self.free = readers;
            }
            e = next;
        }
        self.slots[s] = Slot {
            writer: me,
            readers: NONE,
        };
    }
}

impl ExecHook for Tracer {
    fn on_inst(
        &mut self,
        inst: InstId,
        func: &Function,
        effect: &MemEffect,
    ) -> Result<(), ExecError> {
        let n = self.inst.len();
        let me = n as u32;
        let decl = func.inst(inst);
        if self.phase_barrier == Some(inst) {
            self.rev = true;
        }

        self.scratch.clear();
        // SSA operand dependences.
        for &a in &decl.args {
            let p = self.val_node[a.index()];
            if p != NONE {
                self.scratch.push(p);
            }
        }

        let class = decl.op.class();
        let is_stream = class == OpClass::Stream;
        // Integer address generation is the decoupled access slice
        // (paper §2.2.3): it runs ahead of layer barriers so the stream
        // engines can prefetch the next layer's tile. Compute serializes
        // behind the latest barrier; stream engines, address generation
        // and allocation pseudo-ops (`OpClass::Sync`) run ahead (double
        // buffering), ordered only by their data dependences.
        if !matches!(class, OpClass::Stream | OpClass::Sync | OpClass::Int)
            && self.last_barrier != NONE
        {
            self.scratch.push(self.last_barrier);
        }

        let (addr, bytes, is_tape) = match effect {
            MemEffect::None => (0u64, 0u32, false),
            MemEffect::Load { addr, array } => {
                self.read(Self::dram_slot(*addr), me)?;
                (*addr, 8, func.array(*array).kind.is_tape())
            }
            MemEffect::Store { addr, array } => {
                self.write(Self::dram_slot(*addr), me);
                (*addr, 8, func.array(*array).kind.is_tape())
            }
            MemEffect::SpadLoad { entry } => {
                self.read(self.spad0 + *entry as usize, me)?;
                (*entry, 8, true)
            }
            MemEffect::SpadStore { entry } => {
                self.write(self.spad0 + *entry as usize, me);
                (*entry, 8, true)
            }
            MemEffect::Stream {
                spad,
                dram_start,
                elems,
                to_dram,
                ..
            } => {
                let spad_slots = self.spad0 + spad.start as usize..self.spad0 + spad.end as usize;
                let dram_slots = if *elems == 0 {
                    0..0
                } else {
                    let d = Self::dram_slot(*dram_start);
                    d..d + *elems as usize
                };
                if *to_dram {
                    for s in spad_slots {
                        self.read(s, me)?;
                    }
                    for s in dram_slots {
                        self.write(s, me);
                    }
                } else {
                    for s in spad_slots {
                        self.write(s, me);
                    }
                    for s in dram_slots {
                        self.read(s, me)?;
                    }
                }
                let bytes = match decl.op {
                    // Width-compressed streams move `struct_bytes` bytes per
                    // group of `struct_elems` entries instead of 8 per entry.
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
            // The barrier completes when everything since the previous
            // barrier (and that barrier itself) has.
            self.scratch.append(&mut self.since_barrier);
            if self.last_barrier != NONE {
                self.scratch.push(self.last_barrier);
            }
            self.last_barrier = me;
        } else if !is_stream {
            // Streams are decoupled engines: they neither wait for
            // barriers nor hold them back (buffer reuse is ordered by the
            // per-entry scratchpad dependences); everything else joins
            // the barrier set.
            self.since_barrier.push(me);
        }

        self.scratch.sort_unstable();
        self.scratch.dedup();
        self.limits
            .check(n + 1, self.dep_dat.len() + self.scratch.len())?;
        self.dep_dat.extend_from_slice(&self.scratch);
        self.dep_off.push(self.dep_dat.len() as u32);

        if let Some(r) = decl.result {
            self.val_node[r.index()] = me;
        }
        let stream_in = matches!(decl.op, Op::StreamIn(_) | Op::StreamInC { .. });
        let flags = (FLAG_TAPE * u8::from(is_tape))
            | (FLAG_REV * u8::from(self.rev))
            | (FLAG_STREAM_IN * u8::from(stream_in));
        if let Op::SAlloc { .. } = decl.op {
            self.layer_starts.push(me);
        }
        self.inst.push(inst.0);
        self.class.push(class);
        self.flags.push(flags);
        self.addr.push(addr);
        self.bytes.push(bytes);
        Ok(())
    }
}

/// Executes `func` against `mem`, producing its dynamic dataflow graph.
///
/// `mem` is left holding the final memory state (outputs and gradients),
/// so a single call serves both numerical checking and simulation.
///
/// # Errors
///
/// Propagates any [`ExecError`] from execution, and stops with
/// [`ExecError::TraceTooLarge`] once the trace would outgrow its `u32`
/// node ids or CSR offsets ([`NODE_LIMIT`], [`EDGE_LIMIT`]).
pub fn trace_function(
    func: &Function,
    mem: &mut Memory,
    opts: TraceOptions,
) -> Result<Trace, ExecError> {
    trace_with_limits(func, mem, opts, Limits::U32)
}

fn trace_with_limits(
    func: &Function,
    mem: &mut Memory,
    opts: TraceOptions,
    limits: Limits,
) -> Result<Trace, ExecError> {
    let hook = Tracer::new(func, mem, opts, limits);
    let (t, _count) = execute(func, mem, hook)?;
    Ok(Trace {
        name: func.name.clone(),
        ops: func.insts().iter().map(|i| i.op).collect(),
        inst: t.inst,
        layer_starts: t.layer_starts,
        cols: SchedColumns {
            dep_off: Arc::new(t.dep_off),
            class: Arc::new(t.class),
            flags: Arc::new(t.flags),
            addr: Arc::new(t.addr),
            bytes: Arc::new(t.bytes),
        },
        dep_dat: t.dep_dat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::ArrayKind;
    use crate::types::Scalar;

    fn simple_func() -> Function {
        let mut b = FunctionBuilder::new("t");
        let x = b.array("x", 4, ArrayKind::Input, Scalar::F64);
        let y = b.array("y", 4, ArrayKind::Output, Scalar::F64);
        b.for_loop("i", 0, 4, |b, i| {
            let v = b.load(x, i);
            let w = b.fmul(v, v);
            b.store(y, i, w);
        });
        b.finish()
    }

    fn simple_trace() -> (Function, Trace) {
        let f = simple_func();
        let (x, y) = (crate::ArrayId::new(0), crate::ArrayId::new(1));
        let mut mem = Memory::for_function(&f);
        mem.set_f64(x, &[1.0, 2.0, 3.0, 4.0]);
        let t = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        assert_eq!(mem.get_f64(y), vec![1.0, 4.0, 9.0, 16.0]);
        (f, t)
    }

    #[test]
    fn node_per_dynamic_inst() {
        let (_, t) = simple_trace();
        // 4 iterations × (load, fmul, store); the iv indexes directly,
        // so there is no index arithmetic.
        assert_eq!(t.len(), 12);
        assert!(!t.is_empty());
        assert_eq!(t.layer_count(), 0);
        assert_eq!(t.layer(0), NO_LAYER);
        // O(1) edge count agrees with the CSR.
        let (off, dat) = t.dep_csr();
        assert_eq!(off.len(), t.len() + 1);
        assert_eq!(t.edge_count(), dat.len());
        assert_eq!((0..t.len()).map(|i| t.deps(i).len()).sum::<usize>(), 8);
    }

    #[test]
    fn ssa_deps_within_iteration() {
        let (_, t) = simple_trace();
        // Node order per iteration: load, fmul, store.
        assert_eq!(t.deps(1), &[0]);
        assert_eq!(t.deps(2), &[1]);
        // Loads of iteration 1 do not depend on iteration 0 (different
        // addresses, no barrier).
        assert!(t.deps(3).is_empty());
        assert!(matches!(t.op(0), Op::Load(_)));
        assert_eq!(t.class(1), OpClass::FpMul);
        assert_eq!(t.inst(3), t.inst(0));
        assert_eq!(t.insts().len(), t.len());
    }

    #[test]
    fn raw_dep_through_memory() {
        let mut b = FunctionBuilder::new("m");
        let c = b.cell_f64("c", 0.0);
        let one = b.f64(1.0);
        let v0 = b.load_cell(c);
        let v1 = b.fadd(v0, one);
        b.store_cell(c, v1);
        let v2 = b.load_cell(c);
        let _ = b.fadd(v2, one);
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let t = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        // Nodes: load, fadd, store, load, fadd.
        assert!(matches!(t.op(3), Op::Load(_)));
        assert!(t.deps(3).contains(&2), "RAW through cell");
        // WAR: the store depends on the earlier load of the same address.
        assert!(t.deps(2).contains(&0));
        assert_eq!(t.addr(0), t.addr(3));
        assert_eq!(t.bytes(2), 8);
    }

    #[test]
    fn readers_since_the_last_write_all_feed_the_next_write() {
        // Three loads of one cell, then a store, then a load and a second
        // store: the first store waits on all three readers, the second
        // only on the reader after the first store (its pool entries were
        // recycled) and on the first store itself.
        let mut b = FunctionBuilder::new("war");
        let c = b.cell_f64("c", 0.0);
        b.for_loop("i", 0, 3, |b, _| {
            let _ = b.load_cell(c);
        });
        let two = b.f64(2.0);
        b.store_cell(c, two);
        let r4 = b.load_cell(c);
        b.store_cell(c, r4);
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let t = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        assert_eq!(t.deps(3), &[0, 1, 2]);
        assert_eq!(t.deps(4), &[3]);
        assert_eq!(t.deps(5), &[3, 4]);
    }

    #[test]
    fn phase_split_at_barrier() {
        let mut f = Function::new("p");
        let a = f.add_const(crate::Const::F64(1.0));
        let (i1, _) = f.add_inst(Op::FNeg, vec![a]);
        let (bar, _) = f.add_inst(Op::Barrier, vec![]);
        let (i2, _) = f.add_inst(Op::FNeg, vec![a]);
        f.body = vec![
            crate::Stmt::Inst(i1),
            crate::Stmt::Inst(bar),
            crate::Stmt::Inst(i2),
        ];
        let mut mem = Memory::for_function(&f);
        let t = trace_function(
            &f,
            &mut mem,
            TraceOptions {
                phase_barrier: Some(bar),
            },
        )
        .unwrap();
        assert_eq!(t.phase(0), Phase::Fwd);
        assert_eq!(t.phase(2), Phase::Rev);
        // Post-barrier compute depends on the barrier; the barrier depends
        // on everything before it.
        assert!(t.deps(2).contains(&1));
        assert!(t.deps(1).contains(&0));
    }

    #[test]
    fn compressed_stream_bytes() {
        // A stream.outc of 4 elements at 2 entries / 6 bytes per struct
        // models 12 bytes of traffic instead of 32.
        let mut f = Function::new("c");
        let tape = f.add_array("R0", 4, ArrayKind::Tape, Scalar::F64);
        let mut sched = Vec::new();
        let (al, base) = f.add_inst(Op::SAlloc { size: 4, base: 0 }, vec![]);
        sched.push(crate::Stmt::Inst(al));
        let base = base.unwrap();
        let c0 = f.add_const(crate::Const::I64(0));
        let c4 = f.add_const(crate::Const::I64(4));
        let (so, _) = f.add_inst(
            Op::StreamOutC {
                array: tape,
                struct_elems: 2,
                struct_bytes: 6,
            },
            vec![base, c0, c4],
        );
        sched.push(crate::Stmt::Inst(so));
        f.body = sched;
        let mut mem = Memory::for_function(&f);
        let t = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let sn = (0..t.len())
            .find(|&i| matches!(t.op(i), Op::StreamOutC { .. }))
            .unwrap();
        assert_eq!(t.bytes(sn), 12);
        assert!(t.is_tape(sn));
        assert_eq!(t.flags()[sn] & FLAG_STREAM_IN, 0);
        assert_eq!(t.layer(sn), 0);
        assert_eq!(t.layer_count(), 1);
    }

    #[test]
    fn tape_accesses_flagged() {
        let mut b = FunctionBuilder::new("tape");
        let tape = b.array("T0", 4, ArrayKind::Tape, Scalar::F64);
        let x = b.array("x", 4, ArrayKind::Input, Scalar::F64);
        b.for_loop("i", 0, 4, |b, i| {
            let v = b.load(x, i);
            b.store(tape, i, v);
        });
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let t = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let tape_nodes = (0..t.len()).filter(|&i| t.is_tape(i)).count();
        assert_eq!(tape_nodes, 4);
    }

    #[test]
    fn limits_reject_oversized_counts() {
        let check = |n, e| Limits::U32.check(n, e);
        assert_eq!(check(0, 0), Ok(()));
        assert_eq!(check(NODE_LIMIT, EDGE_LIMIT), Ok(()));
        assert!(matches!(
            check(NODE_LIMIT + 1, 0),
            Err(ExecError::TraceTooLarge { what: "nodes", .. })
        ));
        assert!(matches!(
            check(16, EDGE_LIMIT + 1),
            Err(ExecError::TraceTooLarge {
                what: "dependence edges",
                ..
            })
        ));
    }

    #[test]
    fn tracer_stops_cleanly_at_its_limits() {
        // The same guard the `u32` limits use, scaled down: the tracer
        // returns a structured error instead of wrapping offsets or
        // panicking in an id conversion.
        let f = simple_func();
        let run = |nodes, edges| {
            let mut mem = Memory::for_function(&f);
            trace_with_limits(
                &f,
                &mut mem,
                TraceOptions::default(),
                Limits { nodes, edges },
            )
        };
        assert_eq!(run(12, 8).unwrap().len(), 12);
        assert_eq!(
            run(11, 8).unwrap_err(),
            ExecError::TraceTooLarge {
                what: "nodes",
                count: 12,
                limit: 11
            }
        );
        assert_eq!(
            run(12, 7).unwrap_err(),
            ExecError::TraceTooLarge {
                what: "dependence edges",
                count: 8,
                limit: 7
            }
        );
    }
}
