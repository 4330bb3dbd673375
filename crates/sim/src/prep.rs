//! Config-independent simulation arena.
//!
//! Everything the scheduler needs from a [`Trace`] that does not depend
//! on the [`crate::SystemConfig`] lives here: the successor CSR, the
//! root set, and the per-node scheduling columns (class, flags, address,
//! byte count, predecessor offsets). The columns are the trace's own,
//! shared through `Arc` rather than copied; the successor CSR is one
//! counting-sort transpose of the trace's predecessor CSR, and the
//! indegrees each run starts from are that CSR's offset deltas. Beyond
//! the shared columns a node costs 4 arena bytes (successor offset) plus
//! 4 per root, and an edge 4. A parameter sweep that only perturbs
//! cache/scratchpad/DRAM settings re-simulates from this shared prefix
//! instead of rebuilding it per configuration (the bench harness keys the
//! arena by program and the simulation result by the
//! `SystemConfig::fingerprint` memo).

use crate::error::SimError;
use std::sync::Arc;
use tapeflow_ir::trace::{SchedColumns, EDGE_LIMIT, NODE_LIMIT};
use tapeflow_ir::{OpClass, Trace};

pub(crate) use tapeflow_ir::trace::{FLAG_REV, FLAG_STREAM_IN, FLAG_TAPE};

/// Per-node mutable scheduling state, fused into one 16-byte entry so the
/// completion walk touches a single cache line per successor (the old
/// layout split `ready_time` and `indeg` across two arrays and paid two
/// random accesses per dependence edge). A run starts from
/// [`PreparedSim::pend0`].
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub(crate) struct NodeState {
    /// Latest dependence finish time seen so far.
    pub(crate) ready: u64,
    /// Dependences still outstanding.
    pub(crate) indeg: u32,
}

/// A [`Trace`] preprocessed for simulation: successor CSR plus
/// struct-of-arrays node metadata, independent of any `SystemConfig`.
///
/// Build once with [`PreparedSim::new`], then run any number of
/// configurations through [`crate::engine::simulate_prepared`].
#[derive(Clone, Debug)]
pub struct PreparedSim {
    pub(crate) n: usize,
    /// Scheduling class per node (shared with the trace).
    pub(crate) class: Arc<Vec<OpClass>>,
    /// `FLAG_*` bits per node (shared with the trace).
    pub(crate) flags: Arc<Vec<u8>>,
    /// DRAM byte address or scratchpad entry per node (shared with the
    /// trace).
    pub(crate) addr: Arc<Vec<u64>>,
    /// Transfer size per node (shared with the trace).
    pub(crate) bytes: Arc<Vec<u32>>,
    /// Predecessor CSR offsets (`n + 1` entries, shared with the trace):
    /// node `i` has `dep_off[i + 1] - dep_off[i]` dependences.
    pub(crate) dep_off: Arc<Vec<u32>>,
    /// CSR successor offsets (`n + 1` entries).
    pub(crate) succ_off: Vec<u32>,
    /// CSR successor payload.
    pub(crate) succ_dat: Vec<u32>,
    /// Nodes with no dependences, in id order.
    pub(crate) roots: Vec<u32>,
    /// Index of the FWD/REV phase barrier, if the trace has one.
    pub(crate) phase_barrier_idx: Option<usize>,
    /// Whether any node touches the scratchpad. Together with
    /// [`PreparedSim::has_stream`] this decides which engine backend
    /// applies and which `SystemConfig` parameter classes are relevant
    /// to the trace at all (a sweep session chains across changes to a
    /// subsystem the trace never exercises).
    pub(crate) has_spad: bool,
    /// Whether any node is a stream-engine command.
    pub(crate) has_stream: bool,
    /// Number of cache-access nodes (`MemLoad`/`MemStore`) — the length
    /// of a sweep recording's outcome stream, precomputed so sessions
    /// don't rescan the class array.
    pub(crate) n_mem: usize,
}

impl PreparedSim {
    /// Rejects traces whose node or edge count would overflow the
    /// scheduler's 32-bit indices (event heap ids, CSR offsets) — the
    /// same [`NODE_LIMIT`]/[`EDGE_LIMIT`] the tracer stops at. Kept
    /// separate from [`PreparedSim::new`] so the guard is testable
    /// without materializing a four-billion-node trace.
    pub fn check_limits(nodes: usize, edges: usize) -> Result<(), SimError> {
        if nodes > NODE_LIMIT {
            return Err(SimError::TraceTooLarge {
                what: "nodes",
                count: nodes,
                limit: NODE_LIMIT,
            });
        }
        if edges > EDGE_LIMIT {
            return Err(SimError::TraceTooLarge {
                what: "dependence edges",
                count: edges,
                limit: EDGE_LIMIT,
            });
        }
        Ok(())
    }

    /// Builds the arena over `trace`'s columns. Fails (instead of
    /// silently truncating ids) when the trace exceeds the 32-bit index
    /// limits.
    pub fn new(trace: &Trace) -> Result<Self, SimError> {
        let n = trace.len();
        Self::check_limits(n, trace.edge_count())?;
        let (dep_off, dep_dat) = trace.dep_csr();
        let roots = (0..n as u32)
            .filter(|&i| dep_off[i as usize] == dep_off[i as usize + 1])
            .collect();

        // Counting-sort transpose. Counts land two slots up, so after the
        // prefix sum `succ_off[d + 1]` is `d`'s start and serves as its
        // fill cursor; once filled it has advanced to `d + 1`'s start.
        let mut succ_off = vec![0u32; n + 2];
        for &d in dep_dat {
            succ_off[d as usize + 2] += 1;
        }
        for k in 2..n + 2 {
            succ_off[k] += succ_off[k - 1];
        }
        let mut succ_dat = vec![0u32; dep_dat.len()];
        for (i, w) in dep_off.windows(2).enumerate() {
            for &d in &dep_dat[w[0] as usize..w[1] as usize] {
                let cur = &mut succ_off[d as usize + 1];
                succ_dat[*cur as usize] = i as u32;
                *cur += 1;
            }
        }
        succ_off.pop();

        let SchedColumns {
            dep_off,
            class,
            flags,
            addr,
            bytes,
        } = trace.sched_columns().clone();
        let (mut has_spad, mut has_stream, mut n_mem) = (false, false, 0usize);
        for c in class.iter() {
            has_spad |= matches!(c, OpClass::SpadLoad | OpClass::SpadStore);
            has_stream |= matches!(c, OpClass::Stream);
            n_mem += usize::from(matches!(c, OpClass::MemLoad | OpClass::MemStore));
        }
        let phase_barrier_idx = flags.iter().position(|f| f & FLAG_REV != 0);
        Ok(PreparedSim {
            n,
            class,
            flags,
            addr,
            bytes,
            dep_off,
            succ_off,
            succ_dat,
            roots,
            phase_barrier_idx,
            has_spad,
            has_stream,
            n_mem,
        })
    }

    /// Initial scheduling state per node: `ready = 0` and the indegree.
    pub(crate) fn pend0(&self) -> Vec<NodeState> {
        self.dep_off
            .windows(2)
            .map(|w| NodeState {
                ready: 0,
                indeg: w[1] - w[0],
            })
            .collect()
    }

    /// Whether any node touches the scratchpad or a stream engine. When
    /// none do, the engine's pure event loop applies (no per-cycle
    /// iteration; see `engine::run_dataflow`).
    pub(crate) fn spad_or_stream(&self) -> bool {
        self.has_spad || self.has_stream
    }

    /// Number of nodes in the prepared trace.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the prepared trace is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Approximate heap footprint in bytes (for capacity planning),
    /// counting the columns shared with the trace.
    pub fn arena_bytes(&self) -> usize {
        self.class.len() * std::mem::size_of::<OpClass>()
            + self.flags.len()
            + self.addr.len() * 8
            + self.bytes.len() * 4
            + (self.dep_off.len() + self.succ_off.len() + self.succ_dat.len() + self.roots.len())
                * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapeflow_ir::trace::{trace_function, TraceOptions};
    use tapeflow_ir::{FunctionBuilder, Memory};

    #[test]
    fn limits_reject_oversized_counts_without_building() {
        assert_eq!(PreparedSim::check_limits(0, 0), Ok(()));
        assert_eq!(PreparedSim::check_limits(1 << 20, 1 << 22), Ok(()));
        let huge = u32::MAX as usize;
        assert!(matches!(
            PreparedSim::check_limits(huge, 0),
            Err(SimError::TraceTooLarge { what: "nodes", .. })
        ));
        assert!(matches!(
            PreparedSim::check_limits(16, huge + 1),
            Err(SimError::TraceTooLarge {
                what: "dependence edges",
                ..
            })
        ));
    }

    #[test]
    fn arena_mirrors_the_trace() {
        let mut b = FunctionBuilder::new("t");
        let one = b.f64(1.0);
        let mut v = b.f64(0.0);
        for _ in 0..5 {
            v = b.fadd(v, one);
        }
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let prep = PreparedSim::new(&trace).unwrap();
        assert_eq!(prep.len(), trace.len());
        assert_eq!(prep.succ_dat.len(), trace.edge_count());
        assert_eq!(prep.phase_barrier_idx, None);
        // Every root really has indegree zero and the CSR covers all edges.
        let pend0 = prep.pend0();
        for &r in &prep.roots {
            assert_eq!(pend0[r as usize].indeg, 0);
        }
        assert_eq!(prep.succ_off[prep.len()] as usize, trace.edge_count());
        assert!(prep.arena_bytes() > 0);
    }
}
