//! Textual IR parser — the inverse of [`crate::pretty`].
//!
//! The format is exactly what [`crate::pretty::pretty`] prints, so
//! functions round-trip: write tests and fixtures as text, feed programs
//! to the `tapeflow` CLI, or diff compiled output.
//!
//! ```text
//! func @saxpy {
//!   array @0 x : f64[8] (Input)
//!   array @1 y : f64[8] (InOut)
//!   for i in 0..8 step 1 {
//!     %0 = load @0 i
//!     %1 = load @1 i
//!     %2 = fmul 2 %0
//!     %3 = fadd %2 %1
//!     store @1 i %3
//!   }
//! }
//! ```
//!
//! Operands are `%N` (instruction results), loop names (induction
//! variables), or literal constants (`2` is the `f64` 2.0, `2i` the
//! `i64` 2).

use crate::function::{ArrayKind, Bound, Function, Stmt};
use crate::ids::{ArrayId, ValueId};
use crate::ops::{CmpKind, Op};
use crate::types::{Const, Scalar};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A parse failure, with a 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Line the error was detected on.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

struct Parser<'s> {
    lines: Vec<(usize, &'s str)>,
    pos: usize,
    func: Function,
    /// `%N` in the text → actual value id.
    results: HashMap<u32, ValueId>,
    /// open loop name → induction value (stacked by scope).
    ivs: Vec<(String, ValueId)>,
    consts: HashMap<(bool, u64), ValueId>,
}

impl<'s> Parser<'s> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        // `pos` has usually advanced past the offending line already.
        let idx = self
            .pos
            .saturating_sub(1)
            .min(self.lines.len().saturating_sub(1));
        let line = self.lines.get(idx).map_or(0, |(n, _)| *n);
        Err(ParseError {
            line,
            message: msg.into(),
        })
    }

    fn peek(&self) -> Option<&'s str> {
        self.lines.get(self.pos).map(|(_, l)| *l)
    }

    fn next_line(&mut self) -> Option<&'s str> {
        let l = self.peek()?;
        self.pos += 1;
        Some(l)
    }

    fn cf(&mut self, v: f64) -> ValueId {
        let key = (true, v.to_bits());
        if let Some(&id) = self.consts.get(&key) {
            return id;
        }
        let id = self.func.add_const(Const::F64(v));
        self.consts.insert(key, id);
        id
    }

    fn ci(&mut self, v: i64) -> ValueId {
        let key = (false, v as u64);
        if let Some(&id) = self.consts.get(&key) {
            return id;
        }
        let id = self.func.add_const(Const::I64(v));
        self.consts.insert(key, id);
        id
    }

    fn operand(&mut self, tok: &str) -> Result<ValueId, ParseError> {
        if let Some(num) = tok.strip_prefix('%') {
            let n: u32 = match num.parse() {
                Ok(n) => n,
                Err(_) => return self.err(format!("bad value reference {tok:?}")),
            };
            return match self.results.get(&n) {
                Some(&v) => Ok(v),
                None => self.err(format!("use of undefined value %{n}")),
            };
        }
        if let Some((_, iv)) = self.ivs.iter().rev().find(|(name, _)| name == tok) {
            return Ok(*iv);
        }
        if let Some(int) = tok.strip_suffix('i') {
            if let Ok(v) = int.parse::<i64>() {
                return Ok(self.ci(v));
            }
        }
        if let Ok(v) = tok.parse::<f64>() {
            return Ok(self.cf(v));
        }
        self.err(format!("unknown operand {tok:?}"))
    }

    fn array_ref(&mut self, tok: &str) -> Result<ArrayId, ParseError> {
        let Some(num) = tok.strip_prefix('@') else {
            return self.err(format!("expected array reference, found {tok:?}"));
        };
        let n: usize = match num.parse() {
            Ok(n) => n,
            Err(_) => return self.err(format!("bad array reference {tok:?}")),
        };
        if n >= self.func.arrays().len() {
            return self.err(format!("array @{n} not declared"));
        }
        Ok(ArrayId::new(n))
    }

    fn parse_header(&mut self) -> Result<(), ParseError> {
        let Some(line) = self.next_line() else {
            return self.err("empty input");
        };
        let line = line.trim();
        let Some(rest) = line.strip_prefix("func @") else {
            return self.err("expected `func @<name> {`");
        };
        let Some(name) = rest.strip_suffix('{').map(str::trim) else {
            return self.err("expected `{` after function name");
        };
        self.func.name = name.to_string();
        Ok(())
    }

    fn parse_array_decl(&mut self, line: &str) -> Result<(), ParseError> {
        // array @0 x : f64[8] (Input)
        // array @0 x : f64[8] (Input) in[0,9] quantized
        let rest = line.trim().strip_prefix("array ").expect("caller checked");
        let toks: Vec<&str> = rest.split_whitespace().collect();
        // toks: [@N, name, :, ty[len], (Kind)] + optional [in[lo,hi], quantized]
        if !(5..=7).contains(&toks.len()) || toks[2] != ":" {
            return self.err(format!("malformed array declaration {line:?}"));
        }
        let name = toks[1];
        let tylen = toks[3];
        let (ty, len) = if let Some(r) = tylen.strip_prefix("f64[") {
            (Scalar::F64, r.strip_suffix(']'))
        } else if let Some(r) = tylen.strip_prefix("i64[") {
            (Scalar::I64, r.strip_suffix(']'))
        } else {
            return self.err(format!("bad element type in {tylen:?}"));
        };
        let Some(len) = len.and_then(|l| l.parse::<usize>().ok()) else {
            return self.err(format!("bad array length in {tylen:?}"));
        };
        let kind = match toks[4].trim_start_matches('(').trim_end_matches(')') {
            "Input" => ArrayKind::Input,
            "Output" => ArrayKind::Output,
            "InOut" => ArrayKind::InOut,
            "Temp" => ArrayKind::Temp,
            "Tape" => ArrayKind::Tape,
            "Shadow" => ArrayKind::Shadow,
            other => return self.err(format!("unknown array kind {other:?}")),
        };
        let id = self.func.add_array(name, len, kind, ty);
        if toks.len() > 5 {
            let range = self.parse_range_annotation(&toks[5..], ty, line)?;
            self.func.set_array_range(id, range);
        }
        Ok(())
    }

    /// Parses the optional trailing `in[lo,hi]` (+ `quantized`) clause of
    /// an array declaration. Syntax and numeric-literal errors surface
    /// here; semantic constraints (input-only, non-empty, finite) are
    /// enforced by [`crate::verify::verify`] after parsing.
    fn parse_range_annotation(
        &mut self,
        toks: &[&str],
        ty: Scalar,
        line: &str,
    ) -> Result<crate::function::DeclRange, ParseError> {
        use crate::function::DeclRange;
        let Some(body) = toks[0]
            .strip_prefix("in[")
            .and_then(|s| s.strip_suffix(']'))
        else {
            return self.err(format!("malformed range annotation in {line:?}"));
        };
        let Some((lo_s, hi_s)) = body.split_once(',') else {
            return self.err(format!(
                "malformed range annotation in {line:?} (expected `in[lo,hi]`)"
            ));
        };
        let quantized = match toks.get(1) {
            None => false,
            Some(&"quantized") => true,
            Some(other) => {
                return self.err(format!(
                    "unexpected token {other:?} after range annotation in {line:?}"
                ));
            }
        };
        match ty {
            Scalar::I64 => {
                if quantized {
                    return self.err(format!(
                        "`quantized` is only valid on f64 ranges in {line:?}"
                    ));
                }
                let (Ok(lo), Ok(hi)) = (lo_s.parse::<i64>(), hi_s.parse::<i64>()) else {
                    return self.err(format!("bad integer range bound in {line:?}"));
                };
                Ok(DeclRange::Int { lo, hi })
            }
            Scalar::F64 => {
                let (Ok(lo), Ok(hi)) = (lo_s.parse::<f64>(), hi_s.parse::<f64>()) else {
                    return self.err(format!("bad float range bound in {line:?}"));
                };
                Ok(DeclRange::Float { lo, hi, quantized })
            }
        }
    }

    fn parse_stmts(&mut self, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        while let Some(raw) = self.peek() {
            let line = raw.trim();
            if line == "}" {
                self.pos += 1;
                return Ok(());
            }
            if line.is_empty() {
                self.pos += 1;
                continue;
            }
            if line.starts_with("for ") {
                self.pos += 1;
                self.parse_for(line, out)?;
                continue;
            }
            self.pos += 1;
            self.parse_inst(line, out)?;
        }
        self.err("unexpected end of input (missing `}`)")
    }

    fn parse_for(&mut self, line: &str, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        // for i in 0..8 step 1 {
        let body_line = line
            .strip_prefix("for ")
            .and_then(|l| l.strip_suffix('{'))
            .map(str::trim);
        let Some(spec) = body_line else {
            return self.err(format!("malformed for loop {line:?}"));
        };
        let toks: Vec<&str> = spec.split_whitespace().collect();
        // [name, in, LO..HI, step, N]
        if toks.len() != 5 || toks[1] != "in" || toks[3] != "step" {
            return self.err(format!("malformed for loop {line:?}"));
        }
        let name = toks[0].to_string();
        let Some((lo, hi)) = toks[2].split_once("..") else {
            return self.err(format!("malformed loop range {:?}", toks[2]));
        };
        let bound = |p: &mut Self, tok: &str| -> Result<Bound, ParseError> {
            if let Ok(c) = tok.parse::<i64>() {
                Ok(Bound::Const(c))
            } else {
                Ok(Bound::Value(p.operand(tok)?))
            }
        };
        let lo = bound(self, lo)?;
        let hi = bound(self, hi)?;
        let Ok(step) = toks[4].parse::<i64>() else {
            return self.err(format!("bad loop step {:?}", toks[4]));
        };
        let (loop_id, iv) = self.func.add_loop(name.clone(), lo, hi, step);
        self.ivs.push((name, iv));
        let mut body = Vec::new();
        self.parse_stmts(&mut body)?;
        self.ivs.pop();
        out.push(Stmt::For { loop_id, body });
        Ok(())
    }

    fn parse_inst(&mut self, line: &str, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        // Optional `%N = ` prefix.
        let (result_num, rest) = match line.split_once('=') {
            Some((lhs, rhs)) if lhs.trim_start().starts_with('%') => {
                let n: u32 = match lhs.trim().trim_start_matches('%').parse() {
                    Ok(n) => n,
                    Err(_) => return self.err(format!("bad result name {lhs:?}")),
                };
                (Some(n), rhs.trim())
            }
            _ => (None, line),
        };
        let mut toks = rest.split_whitespace();
        let Some(mn) = toks.next() else {
            return self.err("empty instruction");
        };
        let args: Vec<&str> = toks.collect();
        let (op, operand_toks) = self.decode_op(mn, &args)?;
        if operand_toks.len() != op.arity() {
            return self.err(format!(
                "{mn} takes {} value operand(s), found {}",
                op.arity(),
                operand_toks.len()
            ));
        }
        let mut vals = Vec::with_capacity(operand_toks.len());
        for t in operand_toks {
            vals.push(self.operand(t)?);
        }
        let (inst, res) = self.func.add_inst(op, vals);
        out.push(Stmt::Inst(inst));
        match (result_num, res) {
            (Some(n), Some(v)) => {
                self.results.insert(n, v);
            }
            (Some(_), None) => return self.err(format!("{mn} produces no result")),
            _ => {}
        }
        Ok(())
    }

    /// Maps a mnemonic + raw args to an opcode and its operand tokens.
    fn decode_op<'a>(
        &mut self,
        mn: &str,
        args: &[&'a str],
    ) -> Result<(Op, Vec<&'a str>), ParseError> {
        use Op::*;
        let cmp = |k: &str| -> Option<CmpKind> {
            Some(match k {
                "eq" => CmpKind::Eq,
                "ne" => CmpKind::Ne,
                "lt" => CmpKind::Lt,
                "le" => CmpKind::Le,
                "gt" => CmpKind::Gt,
                "ge" => CmpKind::Ge,
                _ => return None,
            })
        };
        let simple = |op: Op| Ok((op, args.to_vec()));
        match mn {
            "fadd" => simple(FAdd),
            "fsub" => simple(FSub),
            "fmul" => simple(FMul),
            "fdiv" => simple(FDiv),
            "fmin" => simple(FMin),
            "fmax" => simple(FMax),
            "fneg" => simple(FNeg),
            "fabs" => simple(FAbs),
            "sqrt" => simple(Sqrt),
            "sin" => simple(Sin),
            "cos" => simple(Cos),
            "exp" => simple(Exp),
            "ln" => simple(Ln),
            "tanh" => simple(Tanh),
            "fpow" => simple(FPow),
            "select" => simple(Select),
            "iadd" => simple(IAdd),
            "isub" => simple(ISub),
            "imul" => simple(IMul),
            "idiv" => simple(IDiv),
            "irem" => simple(IRem),
            "imin" => simple(IMin),
            "imax" => simple(IMax),
            "itof" => simple(IToF),
            "ftoi" => simple(FToI),
            "barrier" => simple(Barrier),
            "spad.load" => simple(SpadLoad),
            "spad.store" => simple(SpadStore),
            "load" | "store" | "stream.out" | "stream.in" => {
                let Some((&arr, rest)) = args.split_first() else {
                    return self.err(format!("{mn} needs an array operand"));
                };
                let a = self.array_ref(arr)?;
                let op = match mn {
                    "load" => Load(a),
                    "store" => Store(a),
                    "stream.out" => StreamOut(a),
                    _ => StreamIn(a),
                };
                Ok((op, rest.to_vec()))
            }
            "tape.store" => {
                // tape.store @A +OFF <spad_idx> <value>
                let Some((&arr, rest)) = args.split_first() else {
                    return self.err("tape.store needs an array operand");
                };
                let array = self.array_ref(arr)?;
                let Some((&off_tok, rest)) = rest.split_first() else {
                    return self.err("tape.store needs `+<off>` after the array");
                };
                let Some(off) = off_tok.strip_prefix('+').and_then(|o| o.parse().ok()) else {
                    return self.err(format!("bad tape.store offset {off_tok:?}"));
                };
                Ok((TapeStore { array, off }, rest.to_vec()))
            }
            "tape.load" => {
                // tape.load @A xRSIZE +OFF <lin> <spad_idx>
                if args.len() < 3 {
                    return self.err("tape.load needs `@<array> x<rsize> +<off>`");
                }
                let array = self.array_ref(args[0])?;
                let Some(rsize) = args[1].strip_prefix('x').and_then(|r| r.parse().ok()) else {
                    return self.err(format!("bad tape.load struct size {:?}", args[1]));
                };
                let Some(off) = args[2].strip_prefix('+').and_then(|o| o.parse().ok()) else {
                    return self.err(format!("bad tape.load offset {:?}", args[2]));
                };
                Ok((TapeLoad { array, rsize, off }, args[3..].to_vec()))
            }
            "stream.outc" | "stream.inc" => {
                // stream.outc @A ELEMSxBYTES <spad_base> <dram_base> <elems>
                if args.len() < 2 {
                    return self.err(format!("{mn} needs `@<array> <elems>x<bytes>`"));
                }
                let array = self.array_ref(args[0])?;
                let enc = args[1]
                    .split_once('x')
                    .and_then(|(e, b)| Some((e.parse().ok()?, b.parse().ok()?)));
                let Some((struct_elems, struct_bytes)) = enc else {
                    return self.err(format!("bad stream encoding {:?}", args[1]));
                };
                let op = if mn == "stream.outc" {
                    StreamOutC {
                        array,
                        struct_elems,
                        struct_bytes,
                    }
                } else {
                    StreamInC {
                        array,
                        struct_elems,
                        struct_bytes,
                    }
                };
                Ok((op, args[2..].to_vec()))
            }
            "salloc" => {
                // salloc SIZE @BASE
                if args.len() != 2 {
                    return self.err("salloc needs `<size> @<base>`");
                }
                let size: u32 = match args[0].parse() {
                    Ok(s) => s,
                    Err(_) => return self.err(format!("bad salloc size {:?}", args[0])),
                };
                let base: u32 = match args[1].trim_start_matches('@').parse() {
                    Ok(b) => b,
                    Err(_) => return self.err(format!("bad salloc base {:?}", args[1])),
                };
                Ok((SAlloc { size, base }, Vec::new()))
            }
            other => {
                if let Some(k) = other.strip_prefix("fcmp.").and_then(cmp) {
                    return simple(FCmp(k));
                }
                if let Some(k) = other.strip_prefix("icmp.").and_then(cmp) {
                    return simple(ICmp(k));
                }
                self.err(format!("unknown mnemonic {other:?}"))
            }
        }
    }
}

/// Parses a function in the [`crate::pretty`] text format.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line. The result is
/// verified before being returned.
pub fn parse(text: &str) -> Result<Function, ParseError> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .filter(|(_, l)| !l.trim().is_empty() && !l.trim().starts_with("//"))
        .collect();
    let mut p = Parser {
        lines,
        pos: 0,
        func: Function::new(""),
        results: HashMap::new(),
        ivs: Vec::new(),
        consts: HashMap::new(),
    };
    p.parse_header()?;
    // Array declarations come first.
    while let Some(line) = p.peek() {
        if line.trim().starts_with("array ") {
            p.pos += 1;
            p.parse_array_decl(line)?;
        } else {
            break;
        }
    }
    let mut body = Vec::new();
    p.parse_stmts(&mut body)?;
    p.func.body = body;
    if let Err(e) = crate::verify::verify(&p.func) {
        return Err(ParseError {
            line: 0,
            message: format!("parsed function fails verification: {e}"),
        });
    }
    Ok(p.func)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::memory::Memory;
    use crate::pretty::pretty;

    const SAXPY: &str = r"func @saxpy {
  array @0 x : f64[8] (Input)
  array @1 y : f64[8] (InOut)
  for i in 0..8 step 1 {
    %0 = load @0 i
    %1 = load @1 i
    %2 = fmul 2 %0
    %3 = fadd %2 %1
    store @1 i %3
  }
}";

    #[test]
    fn parses_and_executes() {
        let f = parse(SAXPY).unwrap();
        assert_eq!(f.name, "saxpy");
        let mut mem = Memory::for_function(&f);
        mem.set_f64(ArrayId::new(0), &[1.0; 8]);
        mem.set_f64(ArrayId::new(1), &[3.0; 8]);
        crate::interp::run(&f, &mut mem).unwrap();
        assert_eq!(mem.get_f64(ArrayId::new(1)), vec![5.0; 8]);
    }

    #[test]
    fn pretty_parse_roundtrip() {
        let mut b = FunctionBuilder::new("rt");
        let x = b.array("x", 6, ArrayKind::Input, Scalar::F64);
        let idx = b.array("perm", 6, ArrayKind::Input, Scalar::I64);
        let out = b.array("out", 6, ArrayKind::Output, Scalar::F64);
        b.for_loop("i", 0, 6, |b, i| {
            let j = b.load(idx, i);
            let v = b.load(x, j);
            let e = b.exp(v);
            let t = b.tanh(e);
            let c = b.fcmp(CmpKind::Gt, t, e);
            let half = b.f64(0.5);
            let sel = b.select(c, t, half);
            b.store(out, i, sel);
        });
        let f = b.finish();
        // Value numbering may shift once (the parser interns constants in
        // encounter order), after which pretty → parse → pretty is a
        // fixpoint.
        let text1 = pretty(&f).to_string();
        let text2 = pretty(&parse(&text1).unwrap()).to_string();
        let text3 = pretty(&parse(&text2).unwrap()).to_string();
        assert_eq!(text2, text3, "pretty → parse → pretty is a fixpoint");
    }

    #[test]
    fn roundtrip_executes_identically() {
        let mut b = FunctionBuilder::new("exec");
        let x = b.array("x", 5, ArrayKind::Input, Scalar::F64);
        let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
        b.for_loop_step("i", 1i64, 5i64, 2, |b, i| {
            let v = b.load(x, i);
            let s = b.sin(v);
            let c = b.load_cell(loss);
            let a = b.fadd(c, s);
            b.store_cell(loss, a);
        });
        let f = b.finish();
        let g = parse(&pretty(&f).to_string()).unwrap();
        let data = [0.3, 0.6, 0.9, 1.2, 1.5];
        let run = |f: &Function| {
            let mut mem = Memory::for_function(f);
            mem.set_f64(ArrayId::new(0), &data);
            crate::interp::run(f, &mut mem).unwrap();
            mem.get_f64_at(ArrayId::new(1), 0)
        };
        assert_eq!(run(&f), run(&g));
    }

    #[test]
    fn streamed_tape_form_roundtrips() {
        let text = r"func @st {
  array @0 x : f64[8] (Input)
  array @1 R0 : f64[8] (Tape)
  for i in 0..4 step 1 {
    %0 = load @0 i
    tape.store @1 +0 i %0
    stream.outc @1 2x8 i i 2i
  }
  barrier
  for r in 0..4 step 1 {
    %1 = tape.load @1 x2 +0 r r
    stream.inc @1 2x8 r r 2i
  }
}";
        let f = parse(text).unwrap();
        let ops: Vec<_> = f.insts().iter().map(|i| i.op).collect();
        assert!(ops.contains(&crate::Op::TapeStore {
            array: ArrayId::new(1),
            off: 0
        }));
        assert!(ops.contains(&crate::Op::TapeLoad {
            array: ArrayId::new(1),
            rsize: 2,
            off: 0
        }));
        assert!(ops.contains(&crate::Op::StreamOutC {
            array: ArrayId::new(1),
            struct_elems: 2,
            struct_bytes: 8
        }));
        let text2 = pretty(&f).to_string();
        let text3 = pretty(&parse(&text2).unwrap()).to_string();
        assert_eq!(text2, text3, "pretty → parse → pretty is a fixpoint");
    }

    #[test]
    fn reports_undefined_value() {
        let bad = "func @f {\n  %0 = fadd %7 %7\n}";
        let err = parse(bad).unwrap_err();
        assert!(err.message.contains("undefined value"), "{err}");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn reports_unknown_mnemonic() {
        let bad = "func @f {\n  %0 = warp 1 2\n}";
        let err = parse(bad).unwrap_err();
        assert!(err.message.contains("unknown mnemonic"), "{err}");
    }

    #[test]
    fn reports_wrong_operand_counts() {
        // One missing and one extra operand per arity class (0 to 3),
        // across the op families that take an array or encoding prefix.
        let decls = "  array @0 x : f64[4] (Input)\n  array @1 t : f64[4] (Tape)\n";
        let setup = "  %0 = fadd 1.0 2.0\n  %1 = salloc 4 @0\n";
        let cases = [
            ("barrier %0", "barrier takes 0 value operand(s), found 1"),
            ("%2 = tanh", "tanh takes 1 value operand(s), found 0"),
            ("%2 = tanh %0 %0", "tanh takes 1 value operand(s), found 2"),
            ("%2 = load @0", "load takes 1 value operand(s), found 0"),
            (
                "%2 = spad.load %1 %1",
                "spad.load takes 1 value operand(s), found 2",
            ),
            ("%2 = fmin %0", "fmin takes 2 value operand(s), found 1"),
            (
                "%2 = icmp.lt %1 %1 %1",
                "icmp.lt takes 2 value operand(s), found 3",
            ),
            ("store @0 %1", "store takes 2 value operand(s), found 1"),
            (
                "spad.store %1",
                "spad.store takes 2 value operand(s), found 1",
            ),
            (
                "tape.store @1 +0 %1 %0 %0",
                "tape.store takes 2 value operand(s), found 3",
            ),
            (
                "%2 = tape.load @1 x1 +0 %1",
                "tape.load takes 2 value operand(s), found 1",
            ),
            (
                "%2 = select %1 %0",
                "select takes 3 value operand(s), found 2",
            ),
            (
                "stream.in @1 %1 %1",
                "stream.in takes 3 value operand(s), found 2",
            ),
            (
                "stream.outc @1 2x8 %1 %1 %1 %1",
                "stream.outc takes 3 value operand(s), found 4",
            ),
        ];
        for (inst, want) in cases {
            let text = format!("func @f {{\n{decls}{setup}  {inst}\n}}");
            let err = parse(&text).unwrap_err();
            assert_eq!(err.message, want, "{inst}");
            assert_eq!(err.line, 6, "{inst}");
        }
    }

    #[test]
    fn reports_missing_brace() {
        let bad = "func @f {\n  barrier\n";
        let err = parse(bad).unwrap_err();
        assert!(err.message.contains("missing"), "{err}");
    }

    #[test]
    fn range_annotations_roundtrip() {
        let text = r"func @r {
  array @0 x : f64[4] (Input) in[-1,1] quantized
  array @1 t : f64[4] (Input) in[-0.5,0.5]
  array @2 k : i64[4] (Input) in[0,9]
  array @3 out : f64[4] (Output)
  for i in 0..4 step 1 {
    %0 = load @0 i
    store @3 i %0
  }
}";
        let f = parse(text).unwrap();
        use crate::function::DeclRange;
        assert_eq!(
            f.arrays()[0].range,
            Some(DeclRange::Float {
                lo: -1.0,
                hi: 1.0,
                quantized: true
            })
        );
        assert_eq!(
            f.arrays()[1].range,
            Some(DeclRange::Float {
                lo: -0.5,
                hi: 0.5,
                quantized: false
            })
        );
        assert_eq!(f.arrays()[2].range, Some(DeclRange::Int { lo: 0, hi: 9 }));
        assert_eq!(f.arrays()[3].range, None);
        let text2 = pretty(&f).to_string();
        let text3 = pretty(&parse(&text2).unwrap()).to_string();
        assert_eq!(text2, text3, "ranges survive the pretty/parse fixpoint");
    }

    #[test]
    fn malformed_range_annotations_are_rejected() {
        let cases = [
            (
                "array @0 x : f64[4] (Input) in[1]",
                "malformed range annotation",
            ),
            (
                "array @0 x : f64[4] (Input) in(1,2)",
                "malformed range annotation",
            ),
            (
                "array @0 x : f64[4] (Input) in[a,b]",
                "bad float range bound",
            ),
            (
                "array @0 k : i64[4] (Input) in[a,b]",
                "bad integer range bound",
            ),
            (
                "array @0 k : i64[4] (Input) in[0,9] quantized",
                "only valid on f64",
            ),
            (
                "array @0 x : f64[4] (Input) in[0,1] bogus",
                "unexpected token",
            ),
            (
                "array @0 x : f64[4] (Input) in[0,1] quantized extra",
                "malformed array declaration",
            ),
        ];
        for (decl, want) in cases {
            let text = format!("func @bad {{\n  {decl}\n}}");
            let err = parse(&text).unwrap_err();
            assert!(
                err.message.contains(want),
                "{decl:?}: expected {want:?} in {err}"
            );
            assert_eq!(err.line, 2, "{decl:?}");
        }
    }

    #[test]
    fn nested_loops_and_value_bounds() {
        let text = r"func @n {
  array @0 x : f64[16] (Input)
  %0 = iadd 2i 2i
  for i in 0..4 step 1 {
    for j in 0..%0 step 1 {
      %1 = imul i 4i
      %2 = iadd %1 j
      %3 = load @0 %2
    }
  }
}";
        let f = parse(text).unwrap();
        assert_eq!(f.loops().len(), 2);
        let mut mem = Memory::for_function(&f);
        mem.set_f64(ArrayId::new(0), &[1.0; 16]);
        assert!(crate::interp::run(&f, &mut mem).is_ok());
    }
}
