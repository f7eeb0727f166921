//! Function fingerprints: normalized instruction-sequence shingles plus
//! callgraph-context features.
//!
//! A fingerprint must be *stable under renaming and reordering* — the
//! transformations propagated code actually undergoes (paper §II: shared
//! code is copied, then drifts) — while still changing under semantic
//! edits. Three normalizations deliver that:
//!
//! 1. The instruction stream is taken from the **canonical** form of the
//!    function ([`octo_ir::canonicalize_function`]): entry-first DFS
//!    block order, positional labels, definition-order registers.
//! 2. Shingle hashes renumber registers **window-locally** (first
//!    occurrence inside the k-gram), so embedding a clone after extra
//!    prologue code (the "inlined callee" case) shifts no shingle.
//! 3. Block targets hash as **relative offsets** in canonical order, so
//!    a uniform shift of the block list leaves branch shingles intact.
//!
//! Call instructions hash as `call:<arity>` without the callee name —
//! cross-program function ids are meaningless and callee names may be
//! renamed. Callee identity is instead captured by the context features
//! (out-degree, reachable-set size, …) computed from `octo-lint`'s call
//! graph.

use octo_codec::Fnv;
use octo_ir::{canonicalize_function, Function, Inst, Operand, Program, Terminator};

/// Shingle width: hashes cover `K` consecutive tokens (instructions or
/// terminators). Streams shorter than `K` contribute one whole-stream
/// shingle.
pub const SHINGLE_K: usize = 4;

/// One normalized token: an instruction or terminator stripped to its
/// shape. Register identity is resolved at hash time (globally for the
/// exact hash, window-locally for shingles).
#[derive(Debug, Clone)]
struct Token {
    /// Opcode + static shape, e.g. `bin:add`, `load:4`, `call:2:r`.
    op: String,
    /// Registers in positional order (defs first, then uses).
    regs: Vec<u16>,
    /// Immediate values (constants, offsets, switch cases).
    imms: Vec<u64>,
    /// Referenced blocks as canonical-position deltas from this token's
    /// own block.
    blk_deltas: Vec<i64>,
}

fn op_token(op: &Operand, regs: &mut Vec<u16>, imms: &mut Vec<u64>) -> &'static str {
    match op {
        Operand::Reg(r) => {
            regs.push(r.0);
            "r"
        }
        Operand::Imm(v) => {
            imms.push(*v);
            "i"
        }
    }
}

/// Flattens the canonical function into its token stream. `canon` must
/// already be canonical: block position == block id.
fn tokenize(canon: &Function) -> Vec<Token> {
    let mut toks = Vec::new();
    for (bi, block) in canon.blocks.iter().enumerate() {
        let bi = bi as i64;
        let delta = |b: &octo_ir::BlockId| i64::from(b.0) - bi;
        for inst in &block.insts {
            let mut regs = Vec::new();
            let mut imms = Vec::new();
            let mut blk_deltas = Vec::new();
            if let Some(d) = inst.def() {
                regs.push(d.0);
            }
            let op = match inst {
                Inst::Const { value, .. } => {
                    imms.push(*value);
                    "const".to_string()
                }
                Inst::Move { src, .. } => format!("move:{}", op_token(src, &mut regs, &mut imms)),
                Inst::Bin { op, lhs, rhs, .. } => {
                    let l = op_token(lhs, &mut regs, &mut imms);
                    let r = op_token(rhs, &mut regs, &mut imms);
                    format!("bin:{}:{l}{r}", op.mnemonic())
                }
                Inst::Un { op, src, .. } => {
                    format!(
                        "un:{}:{}",
                        op.mnemonic(),
                        op_token(src, &mut regs, &mut imms)
                    )
                }
                Inst::CheckedBin {
                    op,
                    width,
                    lhs,
                    rhs,
                    ..
                } => {
                    let l = op_token(lhs, &mut regs, &mut imms);
                    let r = op_token(rhs, &mut regs, &mut imms);
                    format!("chk:{}:{width}:{l}{r}", op.mnemonic())
                }
                Inst::Load {
                    addr,
                    offset,
                    width,
                    ..
                } => {
                    imms.push(*offset);
                    format!("load:{width}:{}", op_token(addr, &mut regs, &mut imms))
                }
                Inst::Store {
                    addr,
                    offset,
                    src,
                    width,
                } => {
                    imms.push(*offset);
                    let a = op_token(addr, &mut regs, &mut imms);
                    let s = op_token(src, &mut regs, &mut imms);
                    format!("store:{width}:{a}{s}")
                }
                Inst::Alloc { size, region, .. } => {
                    format!("alloc:{region:?}:{}", op_token(size, &mut regs, &mut imms))
                }
                Inst::Call { dst, args, .. } => {
                    for a in args {
                        op_token(a, &mut regs, &mut imms);
                    }
                    format!(
                        "call:{}:{}",
                        args.len(),
                        if dst.is_some() { "r" } else { "v" }
                    )
                }
                Inst::CallIndirect { dst, target, args } => {
                    op_token(target, &mut regs, &mut imms);
                    for a in args {
                        op_token(a, &mut regs, &mut imms);
                    }
                    format!(
                        "icall:{}:{}",
                        args.len(),
                        if dst.is_some() { "r" } else { "v" }
                    )
                }
                // Function identity is context, not shape.
                Inst::FuncAddr { .. } => "faddr".to_string(),
                Inst::BlockAddr { block, .. } => {
                    blk_deltas.push(delta(block));
                    "baddr".to_string()
                }
                Inst::FileOpen { .. } => "open".to_string(),
                Inst::FileRead { fd, buf, len, .. } => {
                    let f = op_token(fd, &mut regs, &mut imms);
                    let b = op_token(buf, &mut regs, &mut imms);
                    let l = op_token(len, &mut regs, &mut imms);
                    format!("read:{f}{b}{l}")
                }
                Inst::FileGetc { fd, .. } => {
                    format!("getc:{}", op_token(fd, &mut regs, &mut imms))
                }
                Inst::FileSeek { fd, pos } => {
                    let f = op_token(fd, &mut regs, &mut imms);
                    let p = op_token(pos, &mut regs, &mut imms);
                    format!("seek:{f}{p}")
                }
                Inst::FileTell { fd, .. } => {
                    format!("tell:{}", op_token(fd, &mut regs, &mut imms))
                }
                Inst::FileSize { fd, .. } => {
                    format!("fsize:{}", op_token(fd, &mut regs, &mut imms))
                }
                Inst::MemMap { fd, .. } => {
                    format!("mmap:{}", op_token(fd, &mut regs, &mut imms))
                }
                Inst::Trap { code } => {
                    imms.push(*code);
                    "trap".to_string()
                }
                Inst::Nop => "nop".to_string(),
            };
            toks.push(Token {
                op,
                regs,
                imms,
                blk_deltas,
            });
        }

        let mut regs = Vec::new();
        let mut imms = Vec::new();
        let mut blk_deltas = Vec::new();
        let op = match &block.term {
            Terminator::Jmp(b) => {
                blk_deltas.push(delta(b));
                "jmp".to_string()
            }
            Terminator::Br {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = op_token(cond, &mut regs, &mut imms);
                blk_deltas.push(delta(then_bb));
                blk_deltas.push(delta(else_bb));
                format!("br:{c}")
            }
            Terminator::Switch {
                scrut,
                cases,
                default,
            } => {
                let s = op_token(scrut, &mut regs, &mut imms);
                for (v, b) in cases {
                    imms.push(*v);
                    blk_deltas.push(delta(b));
                }
                blk_deltas.push(delta(default));
                format!("switch:{}:{s}", cases.len())
            }
            Terminator::JmpIndirect { target } => {
                format!("ijmp:{}", op_token(target, &mut regs, &mut imms))
            }
            Terminator::Ret(None) => "ret".to_string(),
            Terminator::Ret(Some(v)) => {
                format!("ret:{}", op_token(v, &mut regs, &mut imms))
            }
            Terminator::Halt { code } => {
                format!("halt:{}", op_token(code, &mut regs, &mut imms))
            }
        };
        toks.push(Token {
            op,
            regs,
            imms,
            blk_deltas,
        });
    }
    toks
}

/// Hashes `window` with window-local register numbering.
fn hash_window(window: &[Token]) -> u64 {
    let mut local: Vec<u16> = Vec::new();
    let mut h = Fnv::new();
    for tok in window {
        h.write(tok.op.as_bytes());
        h.write_u64(0x5eed); // separator
        for r in &tok.regs {
            let id = match local.iter().position(|x| x == r) {
                Some(i) => i,
                None => {
                    local.push(*r);
                    local.len() - 1
                }
            };
            h.write_u64(id as u64);
        }
        for v in &tok.imms {
            h.write_u64(*v);
        }
        for d in &tok.blk_deltas {
            h.write_u64(*d as u64);
        }
    }
    h.finish()
}

/// Callgraph-context features of one function, compared by ratio in
/// [`context_similarity`]. All counts come from
/// [`octo_lint::build_call_graph`] over the whole program, so they see
/// through the function body to its interprocedural role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextFeatures {
    /// Distinct direct callees.
    pub out_degree: u64,
    /// Distinct direct callers.
    pub in_degree: u64,
    /// Functions reachable from this one (proven edges only).
    pub reach_count: u64,
    /// Whether the function's address is taken (`faddr`).
    pub addr_taken: bool,
    /// Declared parameter count.
    pub n_params: u64,
}

impl ContextFeatures {
    fn ratios(&self) -> [u64; 4] {
        [
            self.out_degree,
            self.in_degree,
            self.reach_count,
            self.n_params,
        ]
    }
}

/// Similarity of two context-feature vectors in `[0, 1]`: the mean of
/// per-feature `min+1 / max+1` ratios, with address-takenness as an
/// exact-match feature.
pub fn context_similarity(a: &ContextFeatures, b: &ContextFeatures) -> f64 {
    let mut total = 0.0;
    for (x, y) in a.ratios().iter().zip(b.ratios().iter()) {
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        total += (*lo as f64 + 1.0) / (*hi as f64 + 1.0);
    }
    total += if a.addr_taken == b.addr_taken {
        1.0
    } else {
        0.0
    };
    total / 5.0
}

/// The fingerprint of one function.
#[derive(Debug, Clone)]
pub struct FuncFingerprint {
    /// Function name (as spelled in its program).
    pub name: String,
    /// Non-terminator instruction count (size guard for retrieval).
    pub insts: usize,
    /// Basic-block count.
    pub blocks: usize,
    /// FNV-1a over the full canonical token stream with global register
    /// ids — equal exactly when the canonical bodies are identical.
    pub exact: u64,
    /// Sorted, deduplicated k-gram shingle hashes.
    pub shingles: Vec<u64>,
    /// Interprocedural context.
    pub ctx: ContextFeatures,
}

/// Fingerprints of every function in a program, in function-id order.
#[derive(Debug, Clone)]
pub struct ProgramFingerprints {
    /// One fingerprint per function, indexed by `FuncId`.
    pub funcs: Vec<FuncFingerprint>,
    /// Index of the program entry function.
    pub entry: usize,
}

/// Fingerprints one function. `ctx` is supplied by the caller (it needs
/// whole-program callgraph knowledge).
pub fn fingerprint_function(f: &Function, ctx: ContextFeatures) -> FuncFingerprint {
    let canon = canonicalize_function(f);
    let toks = tokenize(&canon);

    let mut exact = Fnv::new();
    for t in &toks {
        exact.write(t.op.as_bytes());
        exact.write_u64(0x5eed);
        for r in &t.regs {
            exact.write_u64(u64::from(*r));
        }
        for v in &t.imms {
            exact.write_u64(*v);
        }
        for d in &t.blk_deltas {
            exact.write_u64(*d as u64);
        }
    }

    let mut shingles: Vec<u64> = if toks.len() <= SHINGLE_K {
        vec![hash_window(&toks)]
    } else {
        toks.windows(SHINGLE_K).map(hash_window).collect()
    };
    shingles.sort_unstable();
    shingles.dedup();

    FuncFingerprint {
        name: f.name.clone(),
        insts: f.inst_count(),
        blocks: f.blocks.len(),
        exact: exact.finish(),
        shingles,
        ctx,
    }
}

/// Fingerprints every function of `p`, deriving context features from
/// `octo-lint`'s call graph (proven edges only — unknown indirect calls
/// widen reachability for *scoring paths*, not for context identity).
pub fn fingerprint_program(p: &Program) -> ProgramFingerprints {
    let cg = octo_lint::build_call_graph(p);
    let n = p.function_count();
    let mut in_degree = vec![0u64; n];
    for caller in 0..n {
        let mut seen: Vec<usize> = Vec::new();
        for c in cg.direct[caller]
            .iter()
            .chain(cg.resolved_icalls[caller].iter())
        {
            let c = c.0 as usize;
            if !seen.contains(&c) {
                seen.push(c);
                in_degree[c] += 1;
            }
        }
    }

    let funcs = p
        .iter()
        .map(|(fid, f)| {
            let fi = fid.0 as usize;
            let reach_count = cg
                .reach_kinds_from(fid)
                .iter()
                .filter(|k| matches!(k, octo_lint::ReachKind::Direct))
                .count() as u64
                - 1; // exclude self
            let ctx = ContextFeatures {
                out_degree: cg.direct[fi].len() as u64 + cg.resolved_icalls[fi].len() as u64,
                in_degree: in_degree[fi],
                reach_count,
                addr_taken: cg.addr_taken[fi],
                n_params: u64::from(f.n_params),
            };
            fingerprint_function(f, ctx)
        })
        .collect();

    ProgramFingerprints {
        funcs,
        entry: p.entry().0 as usize,
    }
}

/// `|a ∩ b| / |a|` over sorted shingle vectors: how much of `a` survives
/// in `b`. Containment (not Jaccard) keeps the score high when the
/// clone is *embedded* in a larger function — the inlined-callee case.
pub fn containment(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut shared = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_ir::parse::parse_program;

    fn ctx0() -> ContextFeatures {
        ContextFeatures {
            out_degree: 0,
            in_degree: 0,
            reach_count: 0,
            addr_taken: false,
            n_params: 0,
        }
    }

    #[test]
    fn renamed_registers_share_the_fingerprint() {
        let a = parse_program(
            "func main() {\nentry:\n fd = open\n v = getc fd\n w = add v, 2\n halt w\n}\n",
        )
        .unwrap();
        let b = parse_program(
            "func main() {\nentry:\n handle = open\n x = getc handle\n y = add x, 2\n halt y\n}\n",
        )
        .unwrap();
        let fa = fingerprint_function(a.func(a.entry()), ctx0());
        let fb = fingerprint_function(b.func(b.entry()), ctx0());
        assert_eq!(fa.exact, fb.exact);
        assert_eq!(fa.shingles, fb.shingles);
    }

    #[test]
    fn constant_change_alters_the_fingerprint() {
        let a = parse_program("func main() {\nentry:\n v = 5\n halt v\n}\n").unwrap();
        let b = parse_program("func main() {\nentry:\n v = 6\n halt v\n}\n").unwrap();
        let fa = fingerprint_function(a.func(a.entry()), ctx0());
        let fb = fingerprint_function(b.func(b.entry()), ctx0());
        assert_ne!(fa.exact, fb.exact);
        assert_ne!(fa.shingles, fb.shingles);
    }

    #[test]
    fn embedded_clone_has_full_containment() {
        // The same loop body, once bare and once behind a prologue block:
        // every original shingle must survive verbatim.
        let bare = parse_program(
            "func main() {\nentry:\n fd = open\n i = 0\n jmp loop\n\
             loop:\n done = uge i, 4\n br done, fin, body\n\
             body:\n v = getc fd\n i = add i, 1\n jmp loop\n\
             fin:\n ret i\n}\n",
        )
        .unwrap();
        let embedded = parse_program(
            "func main() {\nentry:\n pad = 123\n scratch = alloc 8\n store.4 scratch, pad\n \
             jmp inner\n\
             inner:\n fd = open\n i = 0\n jmp loop\n\
             loop:\n done = uge i, 4\n br done, fin, body\n\
             body:\n v = getc fd\n i = add i, 1\n jmp loop\n\
             fin:\n ret i\n}\n",
        )
        .unwrap();
        let fa = fingerprint_function(bare.func(bare.entry()), ctx0());
        let fb = fingerprint_function(embedded.func(embedded.entry()), ctx0());
        let c = containment(&fa.shingles, &fb.shingles);
        assert!((c - 1.0).abs() < 1e-12, "containment {c} < 1.0");
        assert_ne!(
            fa.exact, fb.exact,
            "embedding must still change the exact hash"
        );
    }

    #[test]
    fn context_similarity_is_one_for_equal_and_decays() {
        let a = ContextFeatures {
            out_degree: 2,
            in_degree: 1,
            reach_count: 3,
            addr_taken: false,
            n_params: 1,
        };
        assert!((context_similarity(&a, &a) - 1.0).abs() < 1e-12);
        let b = ContextFeatures { out_degree: 9, ..a };
        let s = context_similarity(&a, &b);
        assert!(s < 1.0 && s > 0.5, "{s}");
    }
}
