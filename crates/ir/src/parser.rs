//! Parser for the textual IR format emitted by [`crate::printer`].
//!
//! Two-pass per function: the first pass creates instructions with operand
//! *tokens* and records the mapping from printed value numbers to arena ids;
//! the second pass resolves tokens (including forward references from phis)
//! into [`Operand`]s.

use crate::function::{BlockId, Function, FunctionKind};
use crate::instr::{Instr, InstrId, Operand};
use crate::module::Module;
use crate::printer::opcode_from_mnemonic;
use crate::types::Ty;
use std::collections::HashMap;
use std::fmt;

/// Parse failure with a 1-based line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, msg: msg.into() })
}

/// Parse a whole module from its textual form.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut module: Option<Module> = None;
    let mut lines = text.lines().enumerate().peekable();

    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("module ") {
            let name = rest.trim().trim_matches('"');
            if module.is_some() {
                return err(lineno, "duplicate module header");
            }
            module = Some(Module::new(name));
        } else if let Some(rest) = line.strip_prefix("global @") {
            let m = module
                .as_mut()
                .ok_or(ParseError { line: lineno, msg: "global before module header".into() })?;
            // `name ty x count`
            let mut it = rest.split_whitespace();
            let name =
                it.next().ok_or(ParseError { line: lineno, msg: "missing global name".into() })?;
            let ty = it
                .next()
                .and_then(Ty::from_keyword)
                .ok_or(ParseError { line: lineno, msg: "bad global type".into() })?;
            if it.next() != Some("x") {
                return err(lineno, "expected `x` in global");
            }
            let count: u64 = it
                .next()
                .and_then(|c| c.parse().ok())
                .ok_or(ParseError { line: lineno, msg: "bad global count".into() })?;
            m.add_global(name, ty, count);
        } else if let Some(rest) = line.strip_prefix("declare @") {
            let m = module
                .as_mut()
                .ok_or(ParseError { line: lineno, msg: "declare before module header".into() })?;
            let (name, params, ret) = parse_signature(rest, lineno)?;
            m.add_function(Function::new(name, params, ret, FunctionKind::Declaration));
        } else if let Some(rest) = line.strip_prefix("func @") {
            let m = module
                .as_mut()
                .ok_or(ParseError { line: lineno, msg: "func before module header".into() })?;
            let body_open = rest.trim_end();
            let body_open = body_open
                .strip_suffix('{')
                .ok_or(ParseError {
                    line: lineno,
                    msg: "expected `{` at end of func header".into(),
                })?
                .trim_end();
            let (sig, kind) = match body_open.strip_suffix("outlined") {
                Some(s) => (s.trim_end(), FunctionKind::OmpOutlined),
                None => (body_open, FunctionKind::Normal),
            };
            let (name, params, ret) = parse_signature(sig, lineno)?;
            // Collect the body lines until the closing `}`.
            let mut body = Vec::new();
            let mut closed = false;
            for (bidx, braw) in lines.by_ref() {
                let bline = strip_comment(braw).trim().to_string();
                if bline == "}" {
                    closed = true;
                    break;
                }
                if !bline.is_empty() {
                    body.push((bidx + 1, bline));
                }
            }
            if !closed {
                return err(lineno, "unterminated function body");
            }
            let f = parse_body(m, name, params, ret, kind, &body)?;
            m.add_function(f);
        } else {
            return err(lineno, format!("unrecognized line: {line}"));
        }
    }

    module.ok_or(ParseError { line: 0, msg: "missing module header".into() })
}

fn strip_comment(s: &str) -> &str {
    match s.find(';') {
        Some(i) => &s[..i],
        None => s,
    }
}

/// Parse `name(ty, ty) -> ret` (without the leading `@`).
fn parse_signature(s: &str, lineno: usize) -> Result<(String, Vec<Ty>, Ty), ParseError> {
    let open = s.find('(').ok_or(ParseError { line: lineno, msg: "missing `(`".into() })?;
    let close = s.find(')').ok_or(ParseError { line: lineno, msg: "missing `)`".into() })?;
    if close < open {
        return err(lineno, "`)` before `(`");
    }
    let name = s[..open].trim().to_string();
    let params: Vec<Ty> = s[open + 1..close]
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| {
            Ty::from_keyword(p)
                .ok_or(ParseError { line: lineno, msg: format!("bad param type {p}") })
        })
        .collect::<Result<_, _>>()?;
    let arrow =
        s[close..].find("->").ok_or(ParseError { line: lineno, msg: "missing `->`".into() })?;
    let ret_str = s[close + arrow + 2..].trim();
    let ret = Ty::from_keyword(ret_str)
        .ok_or(ParseError { line: lineno, msg: format!("bad return type {ret_str}") })?;
    Ok((name, params, ret))
}

struct PendingInstr {
    id: InstrId,
    line: usize,
    tokens: Vec<String>,
}

fn parse_body(
    m: &Module,
    name: String,
    params: Vec<Ty>,
    ret: Ty,
    kind: FunctionKind,
    body: &[(usize, String)],
) -> Result<Function, ParseError> {
    let mut f = Function::new(name, params, ret, kind);
    // The builder-created entry block is reused as bb0; further `bbN:` labels
    // create blocks on demand. Labels must appear in increasing order.
    let mut cur: Option<BlockId> = None;
    let mut numbers: HashMap<u32, InstrId> = HashMap::new();
    let mut pending: Vec<PendingInstr> = Vec::new();

    for (lineno, line) in body {
        let lineno = *lineno;
        if let Some(lbl) = line.strip_suffix(':') {
            let n: u32 = lbl
                .strip_prefix("bb")
                .and_then(|x| x.parse().ok())
                .ok_or(ParseError { line: lineno, msg: format!("bad block label {lbl}") })?;
            while (f.blocks.len() as u32) <= n {
                f.add_block();
            }
            cur = Some(BlockId(n));
            continue;
        }
        let cur_b = cur.ok_or(ParseError {
            line: lineno,
            msg: "instruction before first block label".into(),
        })?;

        // Optional `%N = ` prefix.
        let (num, rest) = match line.strip_prefix('%') {
            Some(r) if !r.starts_with('a') => {
                let eq =
                    r.find('=').ok_or(ParseError { line: lineno, msg: "missing `=`".into() })?;
                let n: u32 = r[..eq]
                    .trim()
                    .parse()
                    .map_err(|_| ParseError { line: lineno, msg: "bad value number".into() })?;
                (Some(n), r[eq + 1..].trim())
            }
            _ => (None, line.as_str()),
        };

        let mut parts = rest.splitn(2, ' ');
        let mnemonic = parts.next().unwrap_or_default();
        let op = opcode_from_mnemonic(mnemonic)
            .ok_or(ParseError { line: lineno, msg: format!("unknown opcode {mnemonic}") })?;
        let mut rest2 = parts.next().unwrap_or("").trim();

        // Value-producing instructions carry a type keyword next.
        let ty = if num.is_some() {
            let mut it = rest2.splitn(2, ' ');
            let tk = it.next().unwrap_or_default();
            let t = Ty::from_keyword(tk)
                .ok_or(ParseError { line: lineno, msg: format!("bad type {tk}") })?;
            rest2 = it.next().unwrap_or("").trim();
            t
        } else {
            Ty::Void
        };

        let tokens: Vec<String> =
            rest2.split(',').map(str::trim).filter(|t| !t.is_empty()).map(String::from).collect();

        let id = f.push_instr(cur_b, Instr::new(op, ty, Vec::new()));
        if let Some(n) = num {
            if numbers.insert(n, id).is_some() {
                return err(lineno, format!("duplicate value number %{n}"));
            }
        }
        pending.push(PendingInstr { id, line: lineno, tokens });
    }

    // Second pass: resolve operand tokens.
    for p in pending {
        let mut ops = Vec::with_capacity(p.tokens.len());
        for t in &p.tokens {
            ops.push(parse_operand(m, &f, &numbers, t, p.line)?);
        }
        f.instr_mut(p.id).operands = ops;
    }
    Ok(f)
}

fn parse_operand(
    m: &Module,
    f: &Function,
    numbers: &HashMap<u32, InstrId>,
    t: &str,
    line: usize,
) -> Result<Operand, ParseError> {
    if let Some(rest) = t.strip_prefix("%a") {
        let i: u32 = rest.parse().map_err(|_| ParseError { line, msg: format!("bad arg {t}") })?;
        if i as usize >= f.params.len() {
            return err(line, format!("arg index {i} out of range"));
        }
        return Ok(Operand::Arg(i));
    }
    if let Some(rest) = t.strip_prefix('%') {
        let n: u32 =
            rest.parse().map_err(|_| ParseError { line, msg: format!("bad value ref {t}") })?;
        return numbers
            .get(&n)
            .map(|&id| Operand::Instr(id))
            .ok_or(ParseError { line, msg: format!("undefined value %{n}") });
    }
    if let Some(rest) = t.strip_prefix("bb") {
        let n: u32 =
            rest.parse().map_err(|_| ParseError { line, msg: format!("bad block ref {t}") })?;
        if n as usize >= f.blocks.len() {
            return err(line, format!("block bb{n} out of range"));
        }
        return Ok(Operand::Block(BlockId(n)));
    }
    if let Some(rest) = t.strip_prefix('@') {
        return m
            .global_by_name(rest)
            .map(Operand::Global)
            .ok_or(ParseError { line, msg: format!("unknown global @{rest}") });
    }
    if let Some(rest) = t.strip_prefix("0f") {
        let bits = u64::from_str_radix(rest, 16)
            .map_err(|_| ParseError { line, msg: format!("bad float literal {t}") })?;
        return Ok(Operand::ConstFloat(bits));
    }
    t.parse::<i64>()
        .map(Operand::ConstInt)
        .map_err(|_| ParseError { line, msg: format!("bad operand {t}") })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{fconst, iconst, FunctionBuilder};
    use crate::instr::Opcode;
    use crate::printer::print_module;
    use crate::verify::verify_module;

    fn sample_module() -> Module {
        let mut m = Module::new("sample");
        let g = m.add_global("data", Ty::F64, 4096);
        m.add_function(Function::new(
            "omp_get_thread_num",
            vec![],
            Ty::I32,
            FunctionKind::Declaration,
        ));
        let mut b = FunctionBuilder::new(
            ".omp_outlined.k",
            vec![Ty::I64, Ty::I64],
            Ty::Void,
            FunctionKind::OmpOutlined,
        );
        let tid32 = b.call("omp_get_thread_num", Ty::I32, vec![]);
        let tid = b.cast(crate::instr::CastKind::Sext, Ty::I64, tid32);
        let lo = b.mul(Ty::I64, tid, b.arg(0));
        let hi = b.add(Ty::I64, lo, b.arg(0));
        b.counted_loop(lo, hi, iconst(1), |b, i| {
            let p = b.gep(Ty::F64, Operand::Global(g), i);
            let v = b.load(Ty::F64, p);
            let w = b.fmuladd(Ty::F64, v, fconst(1.5), fconst(-0.25));
            b.store(w, p);
        });
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn round_trip_print_parse_print() {
        let m = sample_module();
        let t1 = print_module(&m);
        let parsed = parse_module(&t1).expect("parses");
        verify_module(&parsed).expect("parsed module verifies");
        let t2 = print_module(&parsed);
        assert_eq!(t1, t2, "print→parse→print is a fixpoint");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "module \"m\"\nglobal @g f64 x nope\n";
        let e = parse_module(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("count"));
    }

    #[test]
    fn unknown_opcode_is_reported() {
        let bad = "module \"m\"\nfunc @f() -> void {\nbb0:\n  frobnicate\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.msg.contains("unknown opcode"), "{e}");
    }

    #[test]
    fn undefined_value_reference_is_reported() {
        let bad = "module \"m\"\nfunc @f() -> void {\nbb0:\n  %0 = add i64 %3, 1\n  ret\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.msg.contains("undefined value %3"), "{e}");
    }

    #[test]
    fn forward_phi_references_resolve() {
        // Phi in bb1 refers to %2 defined later in bb2 (valid SSA: bb2
        // dominates nothing here, but the incoming is from bb2's edge).
        let text = "module \"m\"\n\
            func @f() -> void {\n\
            bb0:\n  br bb1\n\
            bb1:\n  %0 = phi i64 bb0, 0, bb2, %1\n  condbr 1, bb2, bb3\n\
            bb2:\n  %1 = add i64 %0, 1\n  br bb1\n\
            bb3:\n  ret\n}\n";
        let m = parse_module(text).expect("parses");
        let f = m.function("f").unwrap();
        let phi = f.blocks[1].instrs[0];
        assert!(matches!(f.instr(phi).op, Opcode::Phi));
        assert_eq!(f.instr(phi).phi_incomings().count(), 2);
    }

    #[test]
    fn declarations_round_trip() {
        let m = sample_module();
        let text = print_module(&m);
        assert!(text.contains("declare @omp_get_thread_num() -> i32"));
        let parsed = parse_module(&text).unwrap();
        assert!(parsed.function("omp_get_thread_num").unwrap().is_declaration());
    }

    #[test]
    fn close_paren_before_open_paren_is_a_parse_error() {
        // A `)` ahead of the `(` once sliced the parameter list backwards
        // and panicked.
        for header in
            ["declare @f)(i64) -> i64", "func @f)(i64) -> i64 {\n}", "declare @f)i64 -> i64"]
        {
            let text = format!("module \"m\"\n{header}\n");
            let e = parse_module(&text).unwrap_err();
            assert_eq!(e.line, 2, "{header}: {e}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "module \"m\" ; the module\n\n; nothing here\nfunc @f() -> void {\nbb0:\n  ret ; done\n}\n";
        let m = parse_module(text).expect("parses with comments");
        assert_eq!(m.function("f").unwrap().num_attached(), 1);
    }
}
