//! Static tape-safety, scratchpad-hazard and stream-schedule lints.
//!
//! `ir::verify` proves a function is *structurally* well-formed (SSA,
//! types, scheduling); this module proves the properties TapeFlow's whole
//! design rests on: tape accesses stay in bounds of their statically-sized
//! arrays, the FWD pass writes every tape element the REV pass reads,
//! layer allocations fit the scratchpad, and the fill/drain handshake
//! between the compute core and the stream engines cannot deadlock.
//!
//! The analyses are deliberately conservative: an `error` diagnostic means
//! the property is provably violated on some iteration of the (fully
//! static) loop nest; silence means the analysis could not prove a
//! violation, not that none exists. Integer value ranges come from the
//! whole-program value-range analysis ([`crate::vra`]) run on the function
//! being linted. The only refinement kept here is a linear expansion of
//! index arithmetic (`iadd`/`isub`/`imul`-by-constant chains): it cancels
//! correlated terms in a transfer's end bound, splits on `imin`/`imax`,
//! bounds induction variables by their own loop bounds, and its
//! induction-variable coefficients are the bank-conflict strides.
//!
//! Entry point: [`lint_function`]. Diagnostics are deterministically
//! ordered (severity, then rule, then span) so table and JSON renderings
//! are byte-stable across runs.

use crate::function::{ArrayKind, Bound, Function, Stmt};
use crate::ids::{ArrayId, InstId, LoopId, ValueId};
use crate::ops::Op;
use crate::types::Const;
use crate::vra::{self, IntRange};
use crate::ValueDef;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A provable violation of a safety property: the compiled program
    /// would read garbage, corrupt state or hang.
    Error,
    /// A likely performance or hygiene problem that does not threaten
    /// correctness (e.g. a taped value never restored in REV).
    Warning,
}

impl Severity {
    /// Lower-case label used in tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where in the function a diagnostic points: an instruction, an array, or
/// both. Purely positional — human-readable names go in the message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// Index of the offending instruction, if any.
    pub inst: Option<usize>,
    /// Index of the array involved, if any.
    pub array: Option<usize>,
}

impl Span {
    /// Span pointing at one instruction.
    pub fn at_inst(id: InstId) -> Self {
        Span {
            inst: Some(id.index()),
            array: None,
        }
    }

    /// Span pointing at an instruction touching an array.
    pub fn at_inst_array(id: InstId, a: ArrayId) -> Self {
        Span {
            inst: Some(id.index()),
            array: Some(a.index()),
        }
    }

    /// Span pointing at an array declaration.
    pub fn at_array(a: ArrayId) -> Self {
        Span {
            inst: None,
            array: Some(a.index()),
        }
    }

    /// Compact rendering, e.g. `inst12 @3`, `@3`, or `-`.
    pub fn render(&self) -> String {
        match (self.inst, self.array) {
            (Some(i), Some(a)) => format!("inst{i} @{a}"),
            (Some(i), None) => format!("inst{i}"),
            (None, Some(a)) => format!("@{a}"),
            (None, None) => "-".to_string(),
        }
    }
}

/// One finding, tied to a rule from the catalog in DESIGN.md.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier (kebab-case), e.g. `"tape-index-oob"`.
    pub rule: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Program location.
    pub span: Span,
    /// Human-readable description with names and concrete numbers.
    pub message: String,
}

impl Diagnostic {
    /// Total order used everywhere diagnostics are emitted: errors first,
    /// then rule name, then span, then message.
    pub fn sort_key(&self) -> (Severity, &'static str, Span, &str) {
        (self.severity, self.rule, self.span, &self.message)
    }
}

/// Sorts a batch of diagnostics into the canonical deterministic order.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

/// Machine parameters the lints check against. Defaults mirror the paper
/// baseline (`CompileOptions::default()` and the simulator's scratchpad):
/// 128 eight-byte entries across 16 banks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LintConfig {
    /// Scratchpad capacity in 8 B entries.
    pub spad_entries: usize,
    /// Number of scratchpad banks (bank = entry index mod banks).
    pub spad_banks: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            spad_entries: 128,
            spad_banks: 16,
        }
    }
}

/// Count of `(errors, warnings)` in a batch of diagnostics.
pub fn counts(diags: &[Diagnostic]) -> (usize, usize) {
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    (errors, diags.len() - errors)
}

// ---------------------------------------------------------------------------
// The analysis
// ---------------------------------------------------------------------------

/// Per-function analysis facts shared by all rules: the `i64` value ranges
/// [`crate::vra`] proves, and the linearized program order with loop
/// context.
struct Analysis {
    /// Per-value integer range (`None`: unbounded, or never executed).
    ints: Vec<Option<IntRange>>,
    /// Scheduled instructions in program order, each with the stack of
    /// enclosing loops (outermost first).
    order: Vec<(InstId, Vec<LoopId>)>,
    /// Nesting depth of every loop (outermost loops are 1).
    depth: Vec<usize>,
}

/// `konst + Σ coeff · leaf`: leaves sorted by value id, like terms merged,
/// coefficients non-zero.
type Linear = (Vec<(ValueId, i64)>, i64);

/// Expands `konst + Σ coeff · v` through `iadd`/`isub`/`imul`-by-constant
/// definitions to a fixpoint, folding the values `point` knows to be
/// constant. Arithmetic is checked; `None` on overflow.
fn linear(
    func: &Function,
    mut terms: Vec<(ValueId, i64)>,
    mut konst: i64,
    point: &dyn Fn(ValueId) -> Option<i64>,
) -> Option<Linear> {
    // SSA definitions are acyclic, so this terminates.
    loop {
        terms.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(ValueId, i64)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            match merged.last_mut() {
                Some(last) if last.0 == v => last.1 = last.1.checked_add(c)?,
                _ => merged.push((v, c)),
            }
        }
        merged.retain(|&(_, c)| c != 0);
        let mut changed = false;
        let mut next: Vec<(ValueId, i64)> = Vec::with_capacity(merged.len());
        for &(v, c) in &merged {
            if let Some(p) = point(v) {
                konst = konst.checked_add(c.checked_mul(p)?)?;
                changed = true;
                continue;
            }
            if let ValueDef::Inst(id) = func.values()[v.index()].def {
                let inst = func.inst(id);
                match inst.op {
                    Op::IAdd => {
                        next.push((inst.args[0], c));
                        next.push((inst.args[1], c));
                        changed = true;
                        continue;
                    }
                    Op::ISub => {
                        next.push((inst.args[0], c));
                        next.push((inst.args[1], c.checked_neg()?));
                        changed = true;
                        continue;
                    }
                    Op::IMul => {
                        if let Some(k) = point(inst.args[1]) {
                            next.push((inst.args[0], c.checked_mul(k)?));
                            changed = true;
                            continue;
                        }
                        if let Some(k) = point(inst.args[0]) {
                            next.push((inst.args[1], c.checked_mul(k)?));
                            changed = true;
                            continue;
                        }
                    }
                    _ => {}
                }
            }
            next.push((v, c));
        }
        terms = next;
        if !changed {
            return Some((terms, konst));
        }
    }
}

/// The constants of the bank-stride rule: `i64` literals and `salloc`
/// bases. Values VRA merely proves constant stay leaves, so an index
/// through, say, `irem` of a one-trip tile loop is not an affine stride.
fn literal(func: &Function, v: ValueId) -> Option<i64> {
    match func.values()[v.index()].def {
        ValueDef::Const(Const::I64(c)) => Some(c),
        ValueDef::Inst(id) => match func.inst(id).op {
            Op::SAlloc { base, .. } => Some(base.into()),
            _ => None,
        },
        _ => None,
    }
}

impl Analysis {
    fn run(func: &Function) -> Analysis {
        let mut a = Analysis {
            ints: vra::value_ranges(func).ints,
            order: Vec::new(),
            depth: vec![0; func.loops().len()],
        };
        a.walk(&func.body, &mut Vec::new());
        a
    }

    fn walk(&mut self, stmts: &[Stmt], path: &mut Vec<LoopId>) {
        for s in stmts {
            match s {
                Stmt::Inst(id) => self.order.push((*id, path.clone())),
                Stmt::For { loop_id, body } => {
                    path.push(*loop_id);
                    self.depth[loop_id.index()] = path.len();
                    self.walk(body, path);
                    path.pop();
                }
            }
        }
    }

    fn range(&self, v: ValueId) -> Option<IntRange> {
        self.ints[v.index()]
    }

    fn point(&self, v: ValueId) -> Option<i64> {
        self.range(v).filter(|r| r.lo == r.hi).map(|r| r.lo)
    }

    /// `konst + Σ c·v` bounded term by term with value ranges.
    fn range_hi(&self, terms: &[(ValueId, i64)], konst: i64) -> Option<i64> {
        terms.iter().try_fold(konst, |hi, &(v, c)| {
            let r = self.range(v)?;
            hi.checked_add(c.checked_mul(if c > 0 { r.hi } else { r.lo })?)
        })
    }

    /// Upper bound on `konst + Σ c·v`: the tighter of the term-by-term
    /// range bound and [`Analysis::bound_sum`]. `None` when neither
    /// applies.
    fn upper(&self, func: &Function, terms: Vec<(ValueId, i64)>, konst: i64) -> Option<i64> {
        let direct = self.range_hi(&terms, konst);
        [direct, self.bound_sum(func, terms, konst, 8)]
            .into_iter()
            .flatten()
            .min()
    }

    /// Upper bound on `konst + Σ c·v`, sharper than the term-by-term
    /// bound: the sum is expanded by [`linear`], so like terms cancel, and
    /// an `imin`/`imax` leaf branches the evaluation. This recovers the
    /// correlation in the streaming pass's partial-tile transfers
    /// (`base = start·k`, `elems = min(tile, total − start)·k`), where
    /// independent range bounds of base and length over-approximate.
    /// Arithmetic is checked; `None` on overflow.
    fn bound_sum(
        &self,
        func: &Function,
        terms: Vec<(ValueId, i64)>,
        konst: i64,
        fuel: u32,
    ) -> Option<i64> {
        let (terms, konst) = linear(func, terms, konst, &|v| self.point(v))?;
        // A min with positive weight (or max with negative weight) splits
        // the bound: `u + min(p, q) = min(u + p, u + q)` pointwise.
        if fuel > 0 {
            for (i, &(v, c)) in terms.iter().enumerate() {
                if let ValueDef::Inst(id) = func.values()[v.index()].def {
                    let inst = func.inst(id);
                    if matches!(inst.op, Op::IMin | Op::IMax) {
                        let mut ta = terms.clone();
                        ta[i] = (inst.args[0], c);
                        let mut tb = terms;
                        tb[i] = (inst.args[1], c);
                        let ra = self.bound_sum(func, ta, konst, fuel - 1)?;
                        let rb = self.bound_sum(func, tb, konst, fuel - 1)?;
                        let take_min = (inst.op == Op::IMin) == (c > 0);
                        return Some(if take_min { ra.min(rb) } else { ra.max(rb) });
                    }
                }
            }
        }
        // Residual leaves: bound each with its range, or bound the
        // innermost induction variable by its own loop's bounds, which
        // keeps a partial tile's trip count correlated with the enclosing
        // tile index (`i.in < min(32, 200 − 32·i.tile)`).
        let by_range = self.range_hi(&terms, konst);
        let by_loop = self
            .innermost_iv_bound(func, &terms, konst)
            .and_then(|(terms, konst)| self.bound_sum(func, terms, konst, fuel));
        [by_range, by_loop].into_iter().flatten().min()
    }

    /// Replaces the innermost induction-variable leaf `c·iv` by the bound of
    /// its loop that caps it: `end − step.signum()` when `c` and the step
    /// agree in sign, `start` otherwise. Enclosing induction variables stay
    /// symbolic, so they can cancel against the bound they appear in.
    /// `None` when no induction variable is left (or on overflow). A bound
    /// is defined outside its loop, so repeated replacement terminates.
    fn innermost_iv_bound(
        &self,
        func: &Function,
        terms: &[(ValueId, i64)],
        konst: i64,
    ) -> Option<Linear> {
        let (i, l) = terms
            .iter()
            .enumerate()
            .filter_map(|(i, &(v, _))| match func.values()[v.index()].def {
                ValueDef::Iv(l) => Some((i, l)),
                _ => None,
            })
            .max_by_key(|&(_, l)| self.depth[l.index()])?;
        let c = terms[i].1;
        let info = func.loop_info(l);
        let (bound, adjust) = if (c > 0) == (info.step > 0) {
            (info.end, -info.step.signum())
        } else {
            (info.start, 0)
        };
        let mut terms = terms.to_vec();
        let mut konst = konst.checked_add(c.checked_mul(adjust)?)?;
        match bound {
            Bound::Const(k) => {
                terms.remove(i);
                konst = konst.checked_add(c.checked_mul(k)?)?;
            }
            Bound::Value(b) => terms[i].0 = b,
        }
        Some((terms, konst))
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Runs every function-level rule and returns the findings in canonical
/// order. The function must already pass [`crate::verify::verify`].
pub fn lint_function(func: &Function, cfg: &LintConfig) -> Vec<Diagnostic> {
    let a = Analysis::run(func);
    let mut diags = Vec::new();
    tape_index_oob(func, &a, &mut diags);
    tape_read_before_write(func, &a, &mut diags);
    spad_capacity(func, &a, cfg, &mut diags);
    spad_oob(func, &a, cfg, &mut diags);
    spad_bank_conflict(func, &a, cfg, &mut diags);
    stream_deadlock(func, &a, cfg, &mut diags);
    tape_never_loaded(func, &a, &mut diags);
    sort_diagnostics(&mut diags);
    diags
}

fn arr_label(func: &Function, a: ArrayId) -> String {
    format!("{a} `{}`", func.array(a).name)
}

/// `tape-index-oob` (error): a tape load/store or stream transfer whose
/// DRAM element range provably leaves `[0, len)`.
fn tape_index_oob(func: &Function, a: &Analysis, diags: &mut Vec<Diagnostic>) {
    for &(id, _) in &a.order {
        let inst = func.inst(id);
        let (arr, range, what) = match inst.op {
            Op::Load(arr) | Op::Store(arr) if func.array(arr).kind.is_tape() => {
                let Some(r) = a.range(inst.args[0]) else {
                    continue;
                };
                let what = if matches!(inst.op, Op::Load(_)) {
                    "load"
                } else {
                    "store"
                };
                (arr, r, what)
            }
            Op::TapeLoad {
                array: arr,
                rsize,
                off,
            } => {
                let Some(lin) = a.range(inst.args[0]) else {
                    continue;
                };
                let slot = |i: i64| i.saturating_mul(rsize.into()).saturating_add(off.into());
                let hi = a
                    .upper(func, vec![(inst.args[0], rsize.into())], off.into())
                    .unwrap_or(slot(lin.hi));
                let r = IntRange {
                    lo: slot(lin.lo),
                    hi,
                };
                (arr, r, "tape.load")
            }
            Op::StreamIn(arr)
            | Op::StreamOut(arr)
            | Op::StreamInC { array: arr, .. }
            | Op::StreamOutC { array: arr, .. } => {
                let (Some(base), Some(elems)) = (a.range(inst.args[1]), a.range(inst.args[2]))
                else {
                    continue;
                };
                if elems.hi <= 0 {
                    continue;
                }
                let hi = match a.upper(func, vec![(inst.args[1], 1), (inst.args[2], 1)], 0) {
                    Some(end) => end - 1,
                    None => base.hi.saturating_add(elems.hi - 1),
                };
                let r = IntRange {
                    lo: base.lo,
                    hi: hi.max(base.lo),
                };
                let what = if matches!(inst.op, Op::StreamIn(_) | Op::StreamInC { .. }) {
                    "stream.in"
                } else {
                    "stream.out"
                };
                (arr, r, what)
            }
            _ => continue,
        };
        let len = func.array(arr).len as i64;
        if range.lo < 0 || range.hi >= len {
            diags.push(Diagnostic {
                rule: "tape-index-oob",
                severity: Severity::Error,
                span: Span::at_inst_array(id, arr),
                message: format!(
                    "{what} touches elements [{}, {}] of tape {} which has {} elements",
                    range.lo,
                    range.hi,
                    arr_label(func, arr),
                    func.array(arr).len
                ),
            });
        }
    }
}

/// `tape-read-before-write` (error): in linear program order, a tape array
/// is read (load / stream.in) before anything has written it.
fn tape_read_before_write(func: &Function, a: &Analysis, diags: &mut Vec<Diagnostic>) {
    let mut written: HashSet<ArrayId> = HashSet::new();
    let mut flagged: HashSet<ArrayId> = HashSet::new();
    for &(id, _) in &a.order {
        let inst = func.inst(id);
        match inst.op {
            Op::Store(arr) | Op::StreamOut(arr) | Op::StreamOutC { array: arr, .. }
                if func.array(arr).kind.is_tape() =>
            {
                written.insert(arr);
            }
            Op::Load(arr)
            | Op::StreamIn(arr)
            | Op::StreamInC { array: arr, .. }
            | Op::TapeLoad { array: arr, .. }
                if func.array(arr).kind.is_tape()
                    && !written.contains(&arr)
                    && flagged.insert(arr) =>
            {
                diags.push(Diagnostic {
                    rule: "tape-read-before-write",
                    severity: Severity::Error,
                    span: Span::at_inst_array(id, arr),
                    message: format!(
                        "tape {} is read before any FWD write reaches it",
                        arr_label(func, arr)
                    ),
                });
            }
            _ => {}
        }
    }
}

/// `spad-capacity` (error): a layer allocation extends past the end of the
/// scratchpad.
fn spad_capacity(func: &Function, a: &Analysis, cfg: &LintConfig, diags: &mut Vec<Diagnostic>) {
    for &(id, _) in &a.order {
        if let Op::SAlloc { size, base } = func.inst(id).op {
            let end = base as usize + size as usize;
            if end > cfg.spad_entries {
                diags.push(Diagnostic {
                    rule: "spad-capacity",
                    severity: Severity::Error,
                    span: Span::at_inst(id),
                    message: format!(
                        "salloc of {size} entries at base {base} ends at {end}, \
                         past the {}-entry scratchpad",
                        cfg.spad_entries
                    ),
                });
            }
        }
    }
}

/// Scratchpad entry range an instruction touches, when provable.
fn spad_range(func: &Function, a: &Analysis, id: InstId) -> Option<IntRange> {
    let inst = func.inst(id);
    match inst.op {
        Op::SpadLoad | Op::SpadStore | Op::TapeStore { .. } => a.range(inst.args[0]),
        Op::TapeLoad { .. } => a.range(inst.args[1]),
        Op::StreamIn(_) | Op::StreamOut(_) | Op::StreamInC { .. } | Op::StreamOutC { .. } => {
            let base = a.range(inst.args[0])?;
            let elems = a.range(inst.args[2])?;
            let hi = match a.upper(func, vec![(inst.args[0], 1), (inst.args[2], 1)], 0) {
                Some(end) => end - 1,
                None => base.hi.saturating_add(elems.hi.max(1) - 1),
            };
            Some(IntRange {
                lo: base.lo,
                hi: hi.max(base.lo),
            })
        }
        _ => None,
    }
}

/// `spad-oob` (error): a scratchpad access or stream transfer provably
/// leaves the scratchpad.
fn spad_oob(func: &Function, a: &Analysis, cfg: &LintConfig, diags: &mut Vec<Diagnostic>) {
    for &(id, _) in &a.order {
        let inst = func.inst(id);
        if !matches!(
            inst.op,
            Op::SpadLoad
                | Op::SpadStore
                | Op::TapeStore { .. }
                | Op::TapeLoad { .. }
                | Op::StreamIn(_)
                | Op::StreamOut(_)
                | Op::StreamInC { .. }
                | Op::StreamOutC { .. }
        ) {
            continue;
        }
        let Some(r) = spad_range(func, a, id) else {
            continue;
        };
        if r.lo < 0 || r.hi >= cfg.spad_entries as i64 {
            diags.push(Diagnostic {
                rule: "spad-oob",
                severity: Severity::Error,
                span: Span::at_inst(id),
                message: format!(
                    "{} touches scratchpad entries [{}, {}], outside the \
                     {}-entry scratchpad",
                    func.inst(id).op.mnemonic(),
                    r.lo,
                    r.hi,
                    cfg.spad_entries
                ),
            });
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `spad-bank-conflict` (warning): consecutive iterations of the innermost
/// enclosing loop hit a strict subset of the banks (stride shares a factor
/// with the bank count), serializing accesses on those banks.
fn spad_bank_conflict(
    func: &Function,
    a: &Analysis,
    cfg: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) {
    if cfg.spad_banks <= 1 {
        return;
    }
    for (id, path) in &a.order {
        let inst = func.inst(*id);
        // TapeStore/TapeLoad carry their (future) scratchpad entry in the
        // same operand Pass 4 redirects them to, so the stride warning is
        // already meaningful on the streams terminal form.
        let entry_arg = match inst.op {
            Op::SpadLoad | Op::SpadStore | Op::TapeStore { .. } => inst.args[0],
            Op::TapeLoad { .. } => inst.args[1],
            _ => continue,
        };
        let Some(innermost) = path.last() else {
            continue;
        };
        // The entry must be affine in the enclosing induction variables.
        let Some((terms, _)) = linear(func, vec![(entry_arg, 1)], 0, &|v| literal(func, v)) else {
            continue;
        };
        if !terms
            .iter()
            .all(|&(v, _)| matches!(func.values()[v.index()].def, ValueDef::Iv(_)))
        {
            continue;
        }
        let info = func.loop_info(*innermost);
        let coeff = terms.iter().find(|t| t.0 == info.iv).map_or(0, |t| t.1);
        let stride = coeff.saturating_mul(info.step);
        if stride == 0 {
            continue;
        }
        let g = gcd(stride.unsigned_abs(), cfg.spad_banks as u64);
        if g > 1 {
            diags.push(Diagnostic {
                rule: "spad-bank-conflict",
                severity: Severity::Warning,
                span: Span::at_inst(*id),
                message: format!(
                    "{} strides by {} per iteration of loop `{}`, hitting only \
                     {} of {} banks",
                    inst.op.mnemonic(),
                    stride,
                    info.name,
                    cfg.spad_banks as u64 / g,
                    cfg.spad_banks
                ),
            });
        }
    }
}

/// `stream-deadlock` (error): within one barrier-delimited section, the
/// wait-for graph between the compute core and the stream engines has a
/// cycle.
///
/// The graph has one node per scratchpad access or stream command and four
/// edge kinds, modelling the full/empty handshake bits: (1) the in-order
/// core chains its scratchpad accesses; (2) each stream engine executes its
/// commands in order; (3) a `spad.load` waits on the `stream.in` filling an
/// overlapping range (full bit set by the fill); (4) a `stream.out` waits
/// on the `spad.store` producing an overlapping range. Ranges the value-range
/// analysis cannot bound are treated as covering the whole scratchpad.
fn stream_deadlock(func: &Function, a: &Analysis, cfg: &LintConfig, diags: &mut Vec<Diagnostic>) {
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Fill,  // stream.in
        Drain, // stream.out
        Load,  // spad.load
        Store, // spad.store
    }
    let full = IntRange {
        lo: 0,
        hi: cfg.spad_entries.saturating_sub(1) as i64,
    };
    let mut section: Vec<(InstId, Kind, IntRange)> = Vec::new();
    let mut sections: Vec<Vec<(InstId, Kind, IntRange)>> = Vec::new();
    for &(id, _) in &a.order {
        let kind = match func.inst(id).op {
            Op::StreamIn(_) | Op::StreamInC { .. } => Kind::Fill,
            Op::StreamOut(_) | Op::StreamOutC { .. } => Kind::Drain,
            Op::SpadLoad | Op::TapeLoad { .. } => Kind::Load,
            Op::SpadStore | Op::TapeStore { .. } => Kind::Store,
            Op::Barrier => {
                sections.push(std::mem::take(&mut section));
                continue;
            }
            _ => continue,
        };
        let range = spad_range(func, a, id).unwrap_or(full);
        section.push((id, kind, range));
    }
    sections.push(section);

    let overlap = |x: IntRange, y: IntRange| x.lo <= y.hi && y.lo <= x.hi;
    for nodes in &sections {
        let n = nodes.len();
        if n < 2 {
            continue;
        }
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut prev_core: Option<usize> = None;
        let mut prev_stream: Option<usize> = None;
        for (i, (_, kind, range)) in nodes.iter().enumerate() {
            match kind {
                Kind::Load | Kind::Store => {
                    if let Some(p) = prev_core {
                        succ[p].push(i);
                    }
                    prev_core = Some(i);
                }
                Kind::Fill | Kind::Drain => {
                    if let Some(p) = prev_stream {
                        succ[p].push(i);
                    }
                    prev_stream = Some(i);
                }
            }
            for (j, (_, jkind, jrange)) in nodes.iter().enumerate() {
                if i == j || !overlap(*range, *jrange) {
                    continue;
                }
                match (kind, jkind) {
                    // A load blocks until the overlapping fill lands.
                    (Kind::Fill, Kind::Load) => succ[i].push(j),
                    // A drain blocks until the overlapping store lands.
                    (Kind::Store, Kind::Drain) => succ[i].push(j),
                    _ => {}
                }
            }
        }
        if let Some(cycle) = find_cycle(&succ) {
            let names: Vec<String> = cycle
                .iter()
                .map(|&i| {
                    let (id, _, _) = nodes[i];
                    format!("inst{} ({})", id.index(), func.inst(id).op.mnemonic())
                })
                .collect();
            let first = cycle.iter().map(|&i| nodes[i].0).min().unwrap();
            diags.push(Diagnostic {
                rule: "stream-deadlock",
                severity: Severity::Error,
                span: Span::at_inst(first),
                message: format!(
                    "fill/drain handshake cycle: {} -> back to start",
                    names.join(" -> ")
                ),
            });
        }
    }
}

/// First cycle in a successor graph, as node indices in order, or `None`.
fn find_cycle(succ: &[Vec<usize>]) -> Option<Vec<usize>> {
    // 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; succ.len()];
    let mut stack: Vec<usize> = Vec::new();
    fn dfs(
        v: usize,
        succ: &[Vec<usize>],
        color: &mut [u8],
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        color[v] = 1;
        stack.push(v);
        for &w in &succ[v] {
            match color[w] {
                0 => {
                    if let Some(c) = dfs(w, succ, color, stack) {
                        return Some(c);
                    }
                }
                1 => {
                    let from = stack.iter().position(|&x| x == w).unwrap();
                    return Some(stack[from..].to_vec());
                }
                _ => {}
            }
        }
        stack.pop();
        color[v] = 2;
        None
    }
    for v in 0..succ.len() {
        if color[v] == 0 {
            if let Some(c) = dfs(v, succ, &mut color, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

/// `tape-never-loaded` (warning): a tape array the FWD pass writes but no
/// REV code ever reads — the min-tape heuristic missed a recompute/reload
/// opportunity, and the stores are pure overhead.
fn tape_never_loaded(func: &Function, a: &Analysis, diags: &mut Vec<Diagnostic>) {
    let mut written: HashMap<ArrayId, InstId> = HashMap::new();
    let mut read: HashSet<ArrayId> = HashSet::new();
    for &(id, _) in &a.order {
        match func.inst(id).op {
            Op::Store(arr)
            | Op::StreamOut(arr)
            | Op::StreamOutC { array: arr, .. }
            | Op::TapeStore { array: arr, .. }
                if func.array(arr).kind.is_tape() =>
            {
                written.entry(arr).or_insert(id);
            }
            Op::Load(arr)
            | Op::StreamIn(arr)
            | Op::StreamInC { array: arr, .. }
            | Op::TapeLoad { array: arr, .. }
                if func.array(arr).kind.is_tape() =>
            {
                read.insert(arr);
            }
            _ => {}
        }
    }
    for arr in func.arrays_of_kind(ArrayKind::Tape) {
        if let Some(&site) = written.get(&arr) {
            if !read.contains(&arr) {
                diags.push(Diagnostic {
                    rule: "tape-never-loaded",
                    severity: Severity::Warning,
                    span: Span {
                        inst: Some(site.index()),
                        array: Some(arr.index()),
                    },
                    message: format!(
                        "tape {} is stored in FWD but never loaded in REV",
                        arr_label(func, arr)
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Renders diagnostics as an aligned text table (empty string for none).
pub fn render_table(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return String::new();
    }
    let rows: Vec<[String; 4]> = diags
        .iter()
        .map(|d| {
            [
                d.severity.label().to_string(),
                d.rule.to_string(),
                d.span.render(),
                d.message.clone(),
            ]
        })
        .collect();
    let header = ["severity", "rule", "span", "message"];
    let mut width = [0usize; 3];
    for c in 0..3 {
        width[c] = header[c].len();
        for r in &rows {
            width[c] = width[c].max(r[c].len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<w0$}  {:<w1$}  {:<w2$}  {}\n",
        header[0],
        header[1],
        header[2],
        header[3],
        w0 = width[0],
        w1 = width[1],
        w2 = width[2]
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<w0$}  {:<w1$}  {:<w2$}  {}\n",
            r[0],
            r[1],
            r[2],
            r[3],
            w0 = width[0],
            w1 = width[1],
            w2 = width[2]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Scalar;
    use crate::verify::verify;

    fn cfg() -> LintConfig {
        LintConfig::default()
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_function_has_no_findings() {
        let mut b = FunctionBuilder::new("clean");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.for_loop("i", 0, 8, |b, i| {
            let v = b.f64(1.0);
            b.store(t, i, v);
        });
        b.for_loop("r", 0, 8, |b, i| {
            let _ = b.load(t, i);
        });
        let f = b.finish();
        verify(&f).unwrap();
        assert!(lint_function(&f, &cfg()).is_empty());
    }

    #[test]
    fn flags_out_of_bounds_tape_indices() {
        let mut b = FunctionBuilder::new("oob");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.for_loop("i", 0, 16, |b, i| {
            let v = b.f64(1.0);
            b.store(t, i, v);
        });
        b.for_loop("r", 0, 16, |b, i| {
            let _ = b.load(t, i);
        });
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert_eq!(rules(&diags), ["tape-index-oob", "tape-index-oob"]);
        assert!(diags[0].message.contains("[0, 15]"), "{}", diags[0].message);
    }

    #[test]
    fn clamped_indices_are_in_bounds() {
        // min/max clamping must be understood by the range analysis.
        let mut b = FunctionBuilder::new("clamp");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.for_loop("i", 0, 16, |b, i| {
            let hi = b.i64(7);
            let idx = b.imin(i, hi);
            let v = b.f64(1.0);
            b.store(t, idx, v);
            let _ = b.load(t, idx);
        });
        let f = b.finish();
        verify(&f).unwrap();
        assert!(lint_function(&f, &cfg()).is_empty());
    }

    #[test]
    fn reversed_loops_get_correct_iv_interval() {
        let mut b = FunctionBuilder::new("rev");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.for_loop("i", 0, 8, |b, i| {
            let v = b.f64(1.0);
            b.store(t, i, v);
        });
        b.for_loop_step("r", 7, -1, -1, |b, i| {
            let _ = b.load(t, i);
        });
        let f = b.finish();
        verify(&f).unwrap();
        assert!(lint_function(&f, &cfg()).is_empty());
    }

    #[test]
    fn partial_tile_streams_are_in_bounds() {
        // The streaming pass's last-tile shape: base = tile·2·28 with
        // elems = min(2, 3 − tile·2)·28 over tile in 0..2. Independent
        // interval bounds give end ≤ 56 + 56 = 112 > 84; the correlated
        // sum bound proves end ≤ 84.
        let mut b = FunctionBuilder::new("tiles");
        let t = b.array("t", 84, ArrayKind::Tape, Scalar::F64);
        b.push_inst(Op::SAlloc { size: 64, base: 0 }, vec![]);
        let z = b.i64(0);
        b.for_loop("tile", 0, 2, |b, tile| {
            let two = b.i64(2);
            let three = b.i64(3);
            let k = b.i64(28);
            let start = b.imul(tile, two);
            let left = b.isub(three, start);
            let iters = b.imin(two, left);
            let base = b.imul(start, k);
            let elems = b.imul(iters, k);
            b.push_inst(Op::StreamOut(t), vec![z, base, elems]);
            b.push_inst(Op::Barrier, vec![]);
        });
        b.for_loop("r", 0, 84, |b, i| {
            let _ = b.load(t, i);
        });
        let f = b.finish();
        verify(&f).unwrap();
        assert!(lint_function(&f, &cfg()).is_empty());
    }

    #[test]
    fn inner_trip_counts_stay_correlated_with_the_tile_index() {
        // Row tiles as the streaming pass emits them: 200 rows in tiles
        // of 32 (the last one partial), two elements per row streamed at
        // (32·t + i)·2, in a FWD loop and in the reversed REV loop.
        // Bounding `i` by its hull [0, 31] gives end 448 > 400; bounding
        // it by its own loop's bound `min(32, 200 − 32·t)` gives 400.
        fn row_start(b: &mut FunctionBuilder, tile: ValueId) -> (ValueId, ValueId) {
            let tile_rows = b.i64(32);
            let rows = b.i64(200);
            let first = b.imul(tile, tile_rows);
            let left = b.isub(rows, first);
            (first, b.imin(tile_rows, left))
        }
        fn row_base(b: &mut FunctionBuilder, first: ValueId, i: ValueId) -> ValueId {
            let row = b.iadd(first, i);
            let two = b.i64(2);
            b.imul(row, two)
        }
        let mut b = FunctionBuilder::new("rows");
        let t = b.array("t", 400, ArrayKind::Tape, Scalar::F64);
        b.push_inst(Op::SAlloc { size: 64, base: 0 }, vec![]);
        let z = b.i64(0);
        let two = b.i64(2);
        b.for_loop("t", 0, 7, |b, tile| {
            let (first, n) = row_start(b, tile);
            b.for_loop_step("i", 0, n, 1, |b, i| {
                let base = row_base(b, first, i);
                b.push_inst(Op::StreamOut(t), vec![z, base, two]);
            });
        });
        b.push_inst(Op::Barrier, vec![]);
        b.for_loop_step("rt", 6, -1, -1, |b, tile| {
            let (first, n) = row_start(b, tile);
            let one = b.i64(1);
            let last = b.isub(n, one);
            b.for_loop_step("ri", last, -1, -1, |b, i| {
                let base = row_base(b, first, i);
                b.push_inst(Op::StreamIn(t), vec![z, base, two]);
            });
        });
        b.push_inst(Op::Barrier, vec![]);
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn flags_read_before_write() {
        let mut b = FunctionBuilder::new("rbw");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.for_loop("r", 0, 8, |b, i| {
            let _ = b.load(t, i);
        });
        b.for_loop("i", 0, 8, |b, i| {
            let v = b.f64(1.0);
            b.store(t, i, v);
        });
        let f = b.finish();
        verify(&f).unwrap();
        assert_eq!(
            rules(&lint_function(&f, &cfg())),
            ["tape-read-before-write"]
        );
    }

    #[test]
    fn flags_salloc_past_capacity_and_oob_access() {
        let mut b = FunctionBuilder::new("cap");
        b.push_inst(Op::SAlloc { size: 192, base: 0 }, vec![]);
        let idx = b.i64(191);
        let v = b.f64(1.0);
        b.push_inst(Op::SpadStore, vec![idx, v]);
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert_eq!(rules(&diags), ["spad-capacity", "spad-oob"]);
    }

    #[test]
    fn flags_power_of_two_stride_bank_conflict() {
        let mut b = FunctionBuilder::new("banks");
        b.push_inst(Op::SAlloc { size: 128, base: 0 }, vec![]);
        b.for_loop("i", 0, 8, |b, i| {
            let k = b.i64(16);
            let idx = b.imul(i, k);
            let _ = b.push_inst(Op::SpadLoad, vec![idx]);
        });
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert_eq!(rules(&diags), ["spad-bank-conflict"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("1 of 16"), "{}", diags[0].message);
    }

    #[test]
    fn coprime_stride_has_no_bank_conflict() {
        let mut b = FunctionBuilder::new("banks_ok");
        b.push_inst(Op::SAlloc { size: 128, base: 0 }, vec![]);
        b.for_loop("i", 0, 8, |b, i| {
            let k = b.i64(3);
            let idx = b.imul(i, k);
            let _ = b.push_inst(Op::SpadLoad, vec![idx]);
        });
        let f = b.finish();
        verify(&f).unwrap();
        assert!(lint_function(&f, &cfg()).is_empty());
    }

    #[test]
    fn flags_fill_drain_cycle() {
        // stream.out waits on a spad.store that waits (via the core's
        // program order) on a spad.load that waits on a stream.in queued
        // behind the stream.out: classic circular handshake.
        let mut b = FunctionBuilder::new("cycle");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.push_inst(Op::SAlloc { size: 8, base: 0 }, vec![]);
        let z = b.i64(0);
        let one = b.i64(1);
        let n = b.i64(8);
        b.push_inst(Op::StreamOut(t), vec![z, z, n]);
        let v = b.push_inst(Op::SpadLoad, vec![z]).unwrap();
        b.push_inst(Op::SpadStore, vec![one, v]);
        b.push_inst(Op::StreamIn(t), vec![z, z, n]);
        b.push_inst(Op::Barrier, vec![]);
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert_eq!(rules(&diags), ["stream-deadlock"]);
    }

    #[test]
    fn well_ordered_streams_do_not_deadlock() {
        // FWD layer (stores then drain), barrier, REV layer (fill then
        // loads): the shapes the pipeline actually emits.
        let mut b = FunctionBuilder::new("ok");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.push_inst(Op::SAlloc { size: 8, base: 0 }, vec![]);
        let z = b.i64(0);
        let n = b.i64(8);
        b.for_loop("i", 0, 8, |b, i| {
            let v = b.f64(2.0);
            b.push_inst(Op::SpadStore, vec![i, v]);
        });
        b.push_inst(Op::StreamOut(t), vec![z, z, n]);
        b.push_inst(Op::Barrier, vec![]);
        b.push_inst(Op::StreamIn(t), vec![z, z, n]);
        b.for_loop("r", 0, 8, |b, i| {
            let _ = b.push_inst(Op::SpadLoad, vec![i]);
        });
        b.push_inst(Op::Barrier, vec![]);
        let f = b.finish();
        verify(&f).unwrap();
        assert!(lint_function(&f, &cfg()).is_empty());
    }

    #[test]
    fn flags_tape_never_loaded() {
        let mut b = FunctionBuilder::new("dead");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.for_loop("i", 0, 8, |b, i| {
            let v = b.f64(1.0);
            b.store(t, i, v);
        });
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert_eq!(rules(&diags), ["tape-never-loaded"]);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn streamed_tape_form_lints_clean() {
        // The Pass-3 terminal shape: FWD tape.store + stream.out, barrier,
        // REV stream.in + tape.load.
        let mut b = FunctionBuilder::new("st");
        let t = b.array("R0", 16, ArrayKind::Tape, Scalar::F64);
        b.push_inst(Op::SAlloc { size: 16, base: 0 }, vec![]);
        let z = b.i64(0);
        let n = b.i64(16);
        b.for_loop("i", 0, 16, |b, i| {
            let v = b.f64(1.0);
            b.push_inst(Op::TapeStore { array: t, off: 0 }, vec![i, v]);
        });
        b.push_inst(Op::StreamOut(t), vec![z, z, n]);
        b.push_inst(Op::Barrier, vec![]);
        b.push_inst(
            Op::StreamInC {
                array: t,
                struct_elems: 1,
                struct_bytes: 4,
            },
            vec![z, z, n],
        );
        b.for_loop("r", 0, 16, |b, i| {
            let _ = b.push_inst(
                Op::TapeLoad {
                    array: t,
                    rsize: 1,
                    off: 0,
                },
                vec![i, i],
            );
        });
        b.push_inst(Op::Barrier, vec![]);
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn flags_tape_load_oob() {
        let mut b = FunctionBuilder::new("tl_oob");
        let t = b.array("R0", 16, ArrayKind::Tape, Scalar::F64);
        b.for_loop("i", 0, 16, |b, i| {
            let v = b.f64(1.0);
            b.store(t, i, v);
        });
        b.for_loop("r", 0, 16, |b, i| {
            // lin reaches 15, rsize 2 -> element 30 past the 16-entry tape.
            let _ = b.push_inst(
                Op::TapeLoad {
                    array: t,
                    rsize: 2,
                    off: 0,
                },
                vec![i, i],
            );
        });
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert!(rules(&diags).contains(&"tape-index-oob"), "{diags:?}");
    }

    #[test]
    fn diagnostics_sort_stably() {
        let mk = |rule: &'static str, sev, inst| Diagnostic {
            rule,
            severity: sev,
            span: Span {
                inst: Some(inst),
                array: None,
            },
            message: String::from("m"),
        };
        let mut a = vec![
            mk("b-rule", Severity::Warning, 0),
            mk("a-rule", Severity::Error, 9),
            mk("a-rule", Severity::Error, 2),
        ];
        let mut b = a.clone();
        b.reverse();
        sort_diagnostics(&mut a);
        sort_diagnostics(&mut b);
        assert_eq!(a, b);
        assert_eq!(a[0].span.inst, Some(2));
        assert_eq!(a[2].rule, "b-rule");
    }

    #[test]
    fn table_renders_aligned_columns() {
        let diags = vec![Diagnostic {
            rule: "spad-capacity",
            severity: Severity::Error,
            span: Span::at_inst(InstId::new(3)),
            message: String::from("boom"),
        }];
        let t = render_table(&diags);
        assert!(t.starts_with("severity"), "{t}");
        assert!(t.contains("spad-capacity"), "{t}");
        assert!(t.contains("inst3"), "{t}");
        assert!(render_table(&[]).is_empty());
    }
}
