//! Tape translation validation — the `T*` rules.
//!
//! `csfma-hls` lowers a checked CDFG through an optimizer (fold / CSE /
//! DCE / pressure reordering) and a slot-reusing linear-scan register
//! allocator into a flat instruction tape. Every one of those rewrites
//! is a chance to miscompile, and the `W*`/`D*` gate only ever saw the
//! *source* graph. This pass is the second verification layer: given a
//! normalized view of the compiled tape and of the source graph it
//! claims to implement, [`check_tape`] re-derives what each instruction
//! *must* compute from its recorded provenance and reports any
//! divergence as a structured diagnostic instead of wrong bits.
//!
//! The shape follows Cranelift's `verify_function`: an independent
//! checker that trusts neither the optimizer nor the lowering, only the
//! source graph and the per-instruction provenance table. Because this
//! crate sits *below* `csfma-hls` in the dependency graph it cannot see
//! the real `Tape`/`Cdfg` types; the hls crate adapts them into
//! [`TapeView`]/[`SourceView`] (same pattern as [`crate::graph`]).
//!
//! What is checked, and which rule fires:
//!
//! * **T001** — every register slot is written before it is read and
//!   all slot indices stay inside the declared register files (catches
//!   def-before-use breaks under the dead-slot reuse of the allocator).
//! * **T002** — every instruction's provenance names an in-range source
//!   node of a compatible operation class (an `Add` instruction must
//!   descend from an `Add` node; a `LoadConst` may descend from a
//!   foldable arithmetic node, but never from an `Input`).
//! * **T003** — the tape's positional input/output layout (names,
//!   declared order, arity) matches the source graph, and every output
//!   is stored exactly once.
//! * **T004** — carry-save values are consumed in the CS format (PCS vs
//!   FCS) they were produced in, and instruction format tags agree with
//!   their source nodes.
//! * **T005** — symbolic replay: each operand's *value ancestry* (a
//!   structural hash of the source subtree it should carry) matches the
//!   hash actually sitting in the register slot. Operand swaps, slot
//!   clobbers and read-after-free under slot reuse all surface here.
//! * **T006** — a folded constant is bit-identical to re-evaluating the
//!   all-constant source subtree its provenance points at.

use crate::diag::{Diagnostic, Rule, Span};
pub use crate::graph::CsKind;

/// Normalized source-graph operation (mirrors `csfma_hls::Op`).
#[derive(Clone, Debug, PartialEq)]
pub enum SrcOp {
    /// Named external input.
    Input(String),
    /// Literal constant.
    Const(f64),
    /// IEEE addition.
    Add,
    /// IEEE subtraction.
    Sub,
    /// IEEE multiplication.
    Mul,
    /// IEEE division.
    Div,
    /// IEEE negation.
    Neg,
    /// Carry-save fused multiply-add: `acc + (±b) * mulc`.
    Fma {
        /// Transport format of the unit.
        kind: CsKind,
        /// Negate the IEEE `B` input.
        negate_b: bool,
    },
    /// IEEE → carry-save conversion.
    IeeeToCs(CsKind),
    /// Carry-save → IEEE resolution (normalize + round).
    CsToIeee(CsKind),
    /// Named external output (value pass-through).
    Output(String),
}

/// One normalized source-graph node.
#[derive(Clone, Debug, PartialEq)]
pub struct SrcNode {
    /// The operation.
    pub op: SrcOp,
    /// Argument node ids (producers, earlier in the vector).
    pub args: Vec<usize>,
}

/// Normalized view of the source CDFG a tape claims to implement.
/// `csfma-hls` adapts its `Cdfg` into this.
#[derive(Clone, Debug, Default)]
pub struct SourceView {
    /// Nodes in topological (definition) order.
    pub nodes: Vec<SrcNode>,
}

/// Normalized tape instruction (mirrors `csfma_hls::Instr`). Register
/// operands index the binary64 bank (`r*`) or the carry-save bank
/// (`c*`); both banks reuse slots once values die.
#[derive(Clone, Debug, PartialEq)]
pub enum TapeInstr {
    /// `r[dst] = row[input]`
    LoadInput {
        /// Destination binary64 slot.
        dst: u32,
        /// Positional input index.
        input: u32,
    },
    /// `r[dst] = consts[idx]`
    LoadConst {
        /// Destination binary64 slot.
        dst: u32,
        /// Constant-pool index.
        idx: u32,
    },
    /// `r[dst] = r[a] + r[b]`
    Add {
        /// Destination slot.
        dst: u32,
        /// Left operand.
        a: u32,
        /// Right operand.
        b: u32,
    },
    /// `r[dst] = r[a] - r[b]`
    Sub {
        /// Destination slot.
        dst: u32,
        /// Left operand.
        a: u32,
        /// Right operand.
        b: u32,
    },
    /// `r[dst] = r[a] * r[b]`
    Mul {
        /// Destination slot.
        dst: u32,
        /// Left operand.
        a: u32,
        /// Right operand.
        b: u32,
    },
    /// `r[dst] = r[a] / r[b]`
    Div {
        /// Destination slot.
        dst: u32,
        /// Dividend.
        a: u32,
        /// Divisor.
        b: u32,
    },
    /// `r[dst] = -r[a]`
    Neg {
        /// Destination slot.
        dst: u32,
        /// Operand.
        a: u32,
    },
    /// `c[dst] = fma(c[acc], ±r[b], c[mulc])`
    Fma {
        /// Transport format of the unit.
        kind: CsKind,
        /// Negate the IEEE `B` input.
        negate_b: bool,
        /// Destination carry-save slot.
        dst: u32,
        /// Addend (carry-save).
        acc: u32,
        /// `B` multiplicand (binary64).
        b: u32,
        /// Chained multiplicand (carry-save).
        mulc: u32,
    },
    /// `c[dst] = ieee_to_cs(r[src])`
    IeeeToCs {
        /// Target transport format.
        kind: CsKind,
        /// Destination carry-save slot.
        dst: u32,
        /// Source binary64 slot.
        src: u32,
    },
    /// `r[dst] = cs_to_ieee(c[src])`
    CsToIeee {
        /// Destination binary64 slot.
        dst: u32,
        /// Source carry-save slot.
        src: u32,
    },
    /// `out[output] = r[src]`
    Store {
        /// Positional output index.
        output: u32,
        /// Source binary64 slot.
        src: u32,
    },
}

/// Normalized view of a compiled tape. `csfma-hls` adapts its `Tape`
/// into this.
#[derive(Clone, Debug, Default)]
pub struct TapeView {
    /// Instructions in execution order.
    pub instrs: Vec<TapeInstr>,
    /// Per-instruction provenance: the **source-graph** node each
    /// instruction was lowered from (already mapped back through the
    /// optimizer's origin map).
    pub provenance: Vec<u32>,
    /// Positional input names.
    pub inputs: Vec<String>,
    /// Positional output names.
    pub outputs: Vec<String>,
    /// Constant pool (raw, non-canonicalized bits).
    pub consts: Vec<f64>,
    /// Size of the binary64 register file.
    pub n_f64_regs: usize,
    /// Size of the carry-save register file.
    pub n_cs_regs: usize,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Incremental FNV-1a, used for the structural value-ancestry hashes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Structural value hash of every source node, computed in one forward
/// pass. Two nodes hash equal iff their value-producing subtrees are
/// structurally identical — exactly the CSE merge criterion — so a
/// replayed tape operand can be compared against the hash of the source
/// argument it must carry, and CSE/folding never cause false alarms.
/// `Output` nodes hash as their argument (they are pass-throughs), so
/// raw argument ids can be hashed without resolving chains.
///
/// All-constant subtrees (per `consts`) hash as a `Const` of their
/// folded value instead of structurally: constant folding can collapse
/// *structurally different* subtrees (`c - c` and `d - d` both fold to
/// `0.0`) onto one representative via CSE, and only value identity — not
/// structure — is preserved for them. The `T006` check separately pins
/// pool bits to the re-evaluated subtree, so this loses no detection for
/// constants that actually differ.
fn value_hashes(nodes: &[SrcNode], consts: &[Option<f64>]) -> Vec<u64> {
    let mut h = vec![0u64; nodes.len()];
    for id in 0..nodes.len() {
        let node = &nodes[id];
        // only consider backward edges; a malformed forward edge hashes
        // as 0 (the gate rejects such graphs before a tape ever exists)
        let arg_hash = |k: usize| -> u64 {
            node.args
                .get(k)
                .and_then(|&a| (a < id).then(|| h[a]))
                .unwrap_or(0)
        };
        if let SrcOp::Output(_) = node.op {
            h[id] = arg_hash(0);
            continue;
        }
        if let Some(v) = consts[id] {
            let mut f = Fnv::new();
            f.byte(1);
            f.u64(v.to_bits());
            h[id] = f.0;
            continue;
        }
        let mut f = Fnv::new();
        match &node.op {
            SrcOp::Input(name) => {
                f.byte(0);
                f.bytes(name.as_bytes());
            }
            SrcOp::Const(v) => {
                f.byte(1);
                f.u64(v.to_bits());
            }
            SrcOp::Add => f.byte(2),
            SrcOp::Sub => f.byte(3),
            SrcOp::Mul => f.byte(4),
            SrcOp::Div => f.byte(5),
            SrcOp::Neg => f.byte(6),
            SrcOp::Fma { kind, negate_b } => {
                f.byte(7);
                f.byte(*kind as u8);
                f.byte(*negate_b as u8);
            }
            SrcOp::IeeeToCs(kind) => {
                f.byte(8);
                f.byte(*kind as u8);
            }
            SrcOp::CsToIeee(kind) => {
                f.byte(9);
                f.byte(*kind as u8);
            }
            SrcOp::Output(_) => unreachable!("handled above"),
        }
        for k in 0..node.args.len() {
            f.u64(arg_hash(k));
        }
        h[id] = f.0;
    }
    h
}

/// Host-double evaluation of every all-constant subtree, forward pass.
/// `None` where any transitive leaf is an `Input` (or the op is not
/// foldable). The optimizer only folds when the host result bit-equals
/// the hosted soft-float result, and it folds *with* host arithmetic, so
/// replaying host arithmetic over the full subtree reproduces the folded
/// value bit-for-bit.
fn const_values(nodes: &[SrcNode]) -> Vec<Option<f64>> {
    let mut c: Vec<Option<f64>> = vec![None; nodes.len()];
    for id in 0..nodes.len() {
        let node = &nodes[id];
        let arg =
            |k: usize| -> Option<f64> { node.args.get(k).and_then(|&a| (a < id).then(|| c[a])?) };
        let val = (|| {
            Some(match &node.op {
                SrcOp::Const(v) => *v,
                SrcOp::Add => arg(0)? + arg(1)?,
                SrcOp::Sub => arg(0)? - arg(1)?,
                SrcOp::Mul => arg(0)? * arg(1)?,
                SrcOp::Div => arg(0)? / arg(1)?,
                SrcOp::Neg => -arg(0)?,
                SrcOp::Output(_) => arg(0)?,
                _ => return None,
            })
        })();
        c[id] = val;
    }
    c
}

/// Replay state of one register bank: the structural value hash each
/// slot currently holds (plus the CS format for the carry-save bank).
struct Bank<T: Copy> {
    slots: Vec<Option<T>>,
    name: &'static str,
}

impl<T: Copy> Bank<T> {
    fn new(n: usize, name: &'static str) -> Self {
        Bank {
            slots: vec![None; n],
            name,
        }
    }

    /// Read a slot; `None` (with a T001 diagnostic) when the slot is
    /// out of range or was never written.
    fn read(&self, slot: u32, i: usize, diags: &mut Vec<Diagnostic>) -> Option<T> {
        match self.slots.get(slot as usize) {
            Some(Some(v)) => Some(*v),
            Some(None) => {
                diags.push(Diagnostic::error(
                    Rule::TapeUninitializedSlot,
                    Span::Instr(i),
                    format!("reads {} slot {slot} before any write", self.name),
                ));
                None
            }
            None => {
                diags.push(Diagnostic::error(
                    Rule::TapeUninitializedSlot,
                    Span::Instr(i),
                    format!(
                        "{} slot {slot} out of range (register file holds {})",
                        self.name,
                        self.slots.len()
                    ),
                ));
                None
            }
        }
    }

    fn write(&mut self, slot: u32, v: T, i: usize, diags: &mut Vec<Diagnostic>) {
        match self.slots.get_mut(slot as usize) {
            Some(s) => *s = Some(v),
            None => diags.push(Diagnostic::error(
                Rule::TapeUninitializedSlot,
                Span::Instr(i),
                format!(
                    "writes {} slot {slot} out of range (register file holds {})",
                    self.name,
                    self.slots.len()
                ),
            )),
        }
    }
}

/// Short human name of a source op, for diagnostics.
fn src_op_name(op: &SrcOp) -> &'static str {
    match op {
        SrcOp::Input(_) => "Input",
        SrcOp::Const(_) => "Const",
        SrcOp::Add => "Add",
        SrcOp::Sub => "Sub",
        SrcOp::Mul => "Mul",
        SrcOp::Div => "Div",
        SrcOp::Neg => "Neg",
        SrcOp::Fma { .. } => "Fma",
        SrcOp::IeeeToCs(_) => "IeeeToCs",
        SrcOp::CsToIeee(_) => "CsToIeee",
        SrcOp::Output(_) => "Output",
    }
}

/// Validate a compiled tape against the source graph it claims to
/// implement. Returns structured findings (`T001`–`T006`); an empty
/// vector means the translation is provably layout- and
/// ancestry-preserving. Never panics, even on adversarial views.
pub fn check_tape(tape: &TapeView, src: &SourceView) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let nodes = &src.nodes;

    // ---- T003: positional input/output layout --------------------------
    let mut want_inputs: Vec<&str> = Vec::new();
    let mut want_outputs: Vec<&str> = Vec::new();
    for n in nodes {
        match &n.op {
            // lowering dedups repeated input names at first use
            SrcOp::Input(name) if !want_inputs.contains(&name.as_str()) => {
                want_inputs.push(name);
            }
            SrcOp::Output(name) => want_outputs.push(name),
            _ => {}
        }
    }
    let got_inputs: Vec<&str> = tape.inputs.iter().map(String::as_str).collect();
    if got_inputs != want_inputs {
        diags.push(Diagnostic::error(
            Rule::TapeIoMismatch,
            Span::Global,
            format!("tape inputs {got_inputs:?} != source declaration order {want_inputs:?}"),
        ));
    }
    let got_outputs: Vec<&str> = tape.outputs.iter().map(String::as_str).collect();
    if got_outputs != want_outputs {
        diags.push(Diagnostic::error(
            Rule::TapeIoMismatch,
            Span::Global,
            format!("tape outputs {got_outputs:?} != source declaration order {want_outputs:?}"),
        ));
    }

    // ---- T002: the provenance table must cover the instruction stream --
    if tape.provenance.len() != tape.instrs.len() {
        diags.push(Diagnostic::error(
            Rule::TapeProvenanceBroken,
            Span::Global,
            format!(
                "provenance table covers {} of {} instructions",
                tape.provenance.len(),
                tape.instrs.len()
            ),
        ));
        // without a usable provenance table the replay below would
        // mis-attribute every instruction; the layout findings stand
        return diags;
    }

    let consts = const_values(nodes);
    let hashes = value_hashes(nodes, &consts);

    let mut f64_bank: Bank<u64> = Bank::new(tape.n_f64_regs, "f64");
    let mut cs_bank: Bank<(u64, CsKind)> = Bank::new(tape.n_cs_regs, "cs");
    let mut stored = vec![0usize; tape.outputs.len()];

    for (i, ins) in tape.instrs.iter().enumerate() {
        let p = tape.provenance[i] as usize;
        let Some(node) = nodes.get(p) else {
            diags.push(Diagnostic::error(
                Rule::TapeProvenanceBroken,
                Span::Instr(i),
                format!(
                    "provenance node {p} out of range ({} source nodes)",
                    nodes.len()
                ),
            ));
            continue;
        };
        // structural hash the destination will carry; on any local
        // mismatch the slot still receives the *expected* hash so one
        // defect does not cascade into every consumer
        let result_hash = hashes[p];
        // hash each operand position must carry, per the source node
        let want = |k: usize| -> u64 {
            node.args
                .get(k)
                .and_then(|&a| hashes.get(a).copied())
                .unwrap_or(0)
        };
        let op_mismatch = |diags: &mut Vec<Diagnostic>, got: &str| {
            diags.push(Diagnostic::error(
                Rule::TapeProvenanceBroken,
                Span::Instr(i),
                format!(
                    "{got} instruction descends from node {p} ({})",
                    src_op_name(&node.op)
                ),
            ));
        };
        // compare a read operand's ancestry hash against the source edge
        let ancestry = |diags: &mut Vec<Diagnostic>, got: Option<u64>, wanted: u64, what: &str| {
            if let Some(g) = got {
                if g != wanted {
                    diags.push(Diagnostic::error(
                        Rule::TapeValueFlowMismatch,
                        Span::Instr(i),
                        format!(
                            "{what} operand carries a different value ancestry than \
                             source node {p} requires (operand swap, clobbered slot, \
                             or read-after-free)"
                        ),
                    ));
                }
            }
        };

        match ins {
            TapeInstr::LoadInput { dst, input } => {
                match &node.op {
                    SrcOp::Input(name) => match tape.inputs.get(*input as usize) {
                        Some(n) if n == name => {}
                        Some(n) => diags.push(Diagnostic::error(
                            Rule::TapeIoMismatch,
                            Span::Instr(i),
                            format!(
                                "loads input {input} ({n:?}) but source node {p} reads {name:?}"
                            ),
                        )),
                        None => diags.push(Diagnostic::error(
                            Rule::TapeIoMismatch,
                            Span::Instr(i),
                            format!("input index {input} out of range"),
                        )),
                    },
                    _ => op_mismatch(&mut diags, "LoadInput"),
                }
                f64_bank.write(*dst, result_hash, i, &mut diags);
            }
            TapeInstr::LoadConst { dst, idx } => {
                match &node.op {
                    SrcOp::Const(_)
                    | SrcOp::Add
                    | SrcOp::Sub
                    | SrcOp::Mul
                    | SrcOp::Div
                    | SrcOp::Neg => match (tape.consts.get(*idx as usize), consts[p]) {
                        (Some(got), Some(wanted)) => {
                            if got.to_bits() != wanted.to_bits() {
                                diags.push(Diagnostic::error(
                                    Rule::TapeConstMismatch,
                                    Span::Instr(i),
                                    format!(
                                        "constant pool entry {idx} is {got:?} but the \
                                         all-constant subtree at source node {p} \
                                         evaluates to {wanted:?}"
                                    ),
                                ));
                            }
                        }
                        (None, _) => diags.push(Diagnostic::error(
                            Rule::TapeConstMismatch,
                            Span::Instr(i),
                            format!(
                                "constant index {idx} out of range (pool holds {})",
                                tape.consts.len()
                            ),
                        )),
                        (_, None) => diags.push(Diagnostic::error(
                            Rule::TapeProvenanceBroken,
                            Span::Instr(i),
                            format!(
                                "LoadConst descends from node {p} ({}) whose subtree \
                                 is not all-constant — nothing could have folded it",
                                src_op_name(&node.op)
                            ),
                        )),
                    },
                    _ => op_mismatch(&mut diags, "LoadConst"),
                }
                f64_bank.write(*dst, result_hash, i, &mut diags);
            }
            TapeInstr::Add { dst, a, b }
            | TapeInstr::Sub { dst, a, b }
            | TapeInstr::Mul { dst, a, b }
            | TapeInstr::Div { dst, a, b } => {
                let (instr_name, matches) = match ins {
                    TapeInstr::Add { .. } => ("Add", matches!(node.op, SrcOp::Add)),
                    TapeInstr::Sub { .. } => ("Sub", matches!(node.op, SrcOp::Sub)),
                    TapeInstr::Mul { .. } => ("Mul", matches!(node.op, SrcOp::Mul)),
                    _ => ("Div", matches!(node.op, SrcOp::Div)),
                };
                if !matches {
                    op_mismatch(&mut diags, instr_name);
                }
                let ha = f64_bank.read(*a, i, &mut diags);
                let hb = f64_bank.read(*b, i, &mut diags);
                if matches {
                    ancestry(&mut diags, ha, want(0), "left");
                    ancestry(&mut diags, hb, want(1), "right");
                }
                f64_bank.write(*dst, result_hash, i, &mut diags);
            }
            TapeInstr::Neg { dst, a } => {
                let matches = matches!(node.op, SrcOp::Neg);
                if !matches {
                    op_mismatch(&mut diags, "Neg");
                }
                let ha = f64_bank.read(*a, i, &mut diags);
                if matches {
                    ancestry(&mut diags, ha, want(0), "single");
                }
                f64_bank.write(*dst, result_hash, i, &mut diags);
            }
            TapeInstr::Fma {
                kind,
                negate_b,
                dst,
                acc,
                b,
                mulc,
            } => {
                let src_kind = match &node.op {
                    SrcOp::Fma {
                        kind: sk,
                        negate_b: sn,
                    } => {
                        if sn != negate_b {
                            op_mismatch(&mut diags, "Fma (negate_b differs)");
                            None
                        } else {
                            Some(*sk)
                        }
                    }
                    _ => {
                        op_mismatch(&mut diags, "Fma");
                        None
                    }
                };
                if let Some(sk) = src_kind {
                    if sk != *kind {
                        diags.push(Diagnostic::error(
                            Rule::TapeCsKindMismatch,
                            Span::Instr(i),
                            format!("Fma tagged {kind} but source node {p} targets the {sk} unit"),
                        ));
                    }
                }
                let hacc = cs_bank.read(*acc, i, &mut diags);
                let hb = f64_bank.read(*b, i, &mut diags);
                let hmulc = cs_bank.read(*mulc, i, &mut diags);
                for (got, what) in [(hacc, "acc"), (hmulc, "mulc")] {
                    if let Some((_, k)) = got {
                        if k != *kind {
                            diags.push(Diagnostic::error(
                                Rule::TapeCsKindMismatch,
                                Span::Instr(i),
                                format!("{what} operand holds a {k} value but the unit is {kind}"),
                            ));
                        }
                    }
                }
                if src_kind.is_some() {
                    ancestry(&mut diags, hacc.map(|(h, _)| h), want(0), "acc");
                    ancestry(&mut diags, hb, want(1), "b");
                    ancestry(&mut diags, hmulc.map(|(h, _)| h), want(2), "mulc");
                }
                cs_bank.write(*dst, (result_hash, *kind), i, &mut diags);
            }
            TapeInstr::IeeeToCs { kind, dst, src: s } => {
                let matches = match &node.op {
                    SrcOp::IeeeToCs(sk) => {
                        if sk != kind {
                            diags.push(Diagnostic::error(
                                Rule::TapeCsKindMismatch,
                                Span::Instr(i),
                                format!(
                                    "IeeeToCs tagged {kind} but source node {p} converts into {sk}"
                                ),
                            ));
                        }
                        true
                    }
                    _ => {
                        op_mismatch(&mut diags, "IeeeToCs");
                        false
                    }
                };
                let hs = f64_bank.read(*s, i, &mut diags);
                if matches {
                    ancestry(&mut diags, hs, want(0), "source");
                }
                cs_bank.write(*dst, (result_hash, *kind), i, &mut diags);
            }
            TapeInstr::CsToIeee { dst, src: s } => {
                let src_kind = match &node.op {
                    SrcOp::CsToIeee(sk) => Some(*sk),
                    _ => {
                        op_mismatch(&mut diags, "CsToIeee");
                        None
                    }
                };
                let hs = cs_bank.read(*s, i, &mut diags);
                if let (Some((_, k)), Some(sk)) = (hs, src_kind) {
                    if k != sk {
                        diags.push(Diagnostic::error(
                            Rule::TapeCsKindMismatch,
                            Span::Instr(i),
                            format!(
                                "CsToIeee resolves a {k} value but source node {p} expects {sk}"
                            ),
                        ));
                    }
                }
                if src_kind.is_some() {
                    ancestry(&mut diags, hs.map(|(h, _)| h), want(0), "source");
                }
                f64_bank.write(*dst, result_hash, i, &mut diags);
            }
            TapeInstr::Store { output, src: s } => {
                let matches = matches!(node.op, SrcOp::Output(_));
                if !matches {
                    op_mismatch(&mut diags, "Store");
                }
                match stored.get_mut(*output as usize) {
                    Some(count) => {
                        *count += 1;
                        if *count > 1 {
                            diags.push(Diagnostic::error(
                                Rule::TapeIoMismatch,
                                Span::Instr(i),
                                format!("output {output} stored more than once"),
                            ));
                        }
                    }
                    None => diags.push(Diagnostic::error(
                        Rule::TapeIoMismatch,
                        Span::Instr(i),
                        format!("output index {output} out of range"),
                    )),
                }
                let hs = f64_bank.read(*s, i, &mut diags);
                if matches {
                    // an Output node's hash is its (resolved) argument's
                    ancestry(&mut diags, hs, result_hash, "stored");
                }
            }
        }
    }

    for (o, &count) in stored.iter().enumerate() {
        if count == 0 {
            diags.push(Diagnostic::error(
                Rule::TapeIoMismatch,
                Span::Global,
                format!("output {o} ({:?}) is never stored", tape.outputs[o]),
            ));
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `out y = a*b + a;` — nodes: Input a, Input b, Mul, Add, Output.
    fn small_src() -> SourceView {
        SourceView {
            nodes: vec![
                SrcNode {
                    op: SrcOp::Input("a".into()),
                    args: vec![],
                },
                SrcNode {
                    op: SrcOp::Input("b".into()),
                    args: vec![],
                },
                SrcNode {
                    op: SrcOp::Mul,
                    args: vec![0, 1],
                },
                SrcNode {
                    op: SrcOp::Add,
                    args: vec![2, 0],
                },
                SrcNode {
                    op: SrcOp::Output("y".into()),
                    args: vec![3],
                },
            ],
        }
    }

    /// The linear-scan lowering of [`small_src`] with slot reuse: `b`'s
    /// slot is reclaimed by the product, then both die into the sum.
    fn small_tape() -> TapeView {
        TapeView {
            instrs: vec![
                TapeInstr::LoadInput { dst: 0, input: 0 },
                TapeInstr::LoadInput { dst: 1, input: 1 },
                TapeInstr::Mul { dst: 1, a: 0, b: 1 },
                TapeInstr::Add { dst: 0, a: 1, b: 0 },
                TapeInstr::Store { output: 0, src: 0 },
            ],
            provenance: vec![0, 1, 2, 3, 4],
            inputs: vec!["a".into(), "b".into()],
            outputs: vec!["y".into()],
            consts: vec![],
            n_f64_regs: 2,
            n_cs_regs: 0,
        }
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn clean_lowering_verifies() {
        let diags = check_tape(&small_tape(), &small_src());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn uninitialized_read_is_t001() {
        let mut t = small_tape();
        // drop the definition of r1; the product now reads garbage
        t.instrs.remove(1);
        t.provenance.remove(1);
        let diags = check_tape(&t, &small_src());
        assert!(rules_of(&diags).contains(&"T001"), "{diags:?}");
    }

    #[test]
    fn out_of_range_slot_is_t001() {
        let mut t = small_tape();
        t.instrs[2] = TapeInstr::Mul { dst: 1, a: 0, b: 9 };
        let diags = check_tape(&t, &small_src());
        assert!(rules_of(&diags).contains(&"T001"), "{diags:?}");
    }

    #[test]
    fn op_class_mismatch_is_t002() {
        let mut t = small_tape();
        t.provenance[2] = 0; // Mul claims to descend from an Input
        let diags = check_tape(&t, &small_src());
        assert!(rules_of(&diags).contains(&"T002"), "{diags:?}");
    }

    #[test]
    fn truncated_provenance_is_t002() {
        let mut t = small_tape();
        t.provenance.pop();
        let diags = check_tape(&t, &small_src());
        assert_eq!(rules_of(&diags), vec!["T002"], "{diags:?}");
    }

    #[test]
    fn input_order_swap_is_t003() {
        let mut t = small_tape();
        t.inputs.swap(0, 1);
        let diags = check_tape(&t, &small_src());
        assert!(rules_of(&diags).contains(&"T003"), "{diags:?}");
    }

    #[test]
    fn dropped_store_is_t003() {
        let mut t = small_tape();
        t.instrs.pop();
        t.provenance.pop();
        let diags = check_tape(&t, &small_src());
        assert!(rules_of(&diags).contains(&"T003"), "{diags:?}");
    }

    #[test]
    fn operand_swap_is_t005() {
        let mut t = small_tape();
        // swap the product's operands: ancestry differs per position
        t.instrs[2] = TapeInstr::Mul { dst: 1, a: 1, b: 0 };
        let diags = check_tape(&t, &small_src());
        assert!(rules_of(&diags).contains(&"T005"), "{diags:?}");
        assert!(!rules_of(&diags).contains(&"T001"), "{diags:?}");
    }

    #[test]
    fn read_after_free_clobber_is_t005() {
        let mut t = small_tape();
        // the sum writes r1 (clobbering the product's slot is legal);
        // mis-pointing the Store at the *stale* r0 input value is not
        t.instrs[3] = TapeInstr::Add { dst: 1, a: 1, b: 0 };
        t.instrs[4] = TapeInstr::Store { output: 0, src: 0 };
        let diags = check_tape(&t, &small_src());
        assert!(rules_of(&diags).contains(&"T005"), "{diags:?}");
    }

    /// A CS-domain fixture: `y = cs_to_ieee(fma(to_cs(a), a, to_cs(a)))`.
    fn cs_src() -> SourceView {
        SourceView {
            nodes: vec![
                SrcNode {
                    op: SrcOp::Input("a".into()),
                    args: vec![],
                },
                SrcNode {
                    op: SrcOp::IeeeToCs(CsKind::Pcs),
                    args: vec![0],
                },
                SrcNode {
                    op: SrcOp::Fma {
                        kind: CsKind::Pcs,
                        negate_b: false,
                    },
                    args: vec![1, 0, 1],
                },
                SrcNode {
                    op: SrcOp::CsToIeee(CsKind::Pcs),
                    args: vec![2],
                },
                SrcNode {
                    op: SrcOp::Output("y".into()),
                    args: vec![3],
                },
            ],
        }
    }

    fn cs_tape() -> TapeView {
        TapeView {
            instrs: vec![
                TapeInstr::LoadInput { dst: 0, input: 0 },
                TapeInstr::IeeeToCs {
                    kind: CsKind::Pcs,
                    dst: 0,
                    src: 0,
                },
                TapeInstr::Fma {
                    kind: CsKind::Pcs,
                    negate_b: false,
                    dst: 1,
                    acc: 0,
                    b: 0,
                    mulc: 0,
                },
                TapeInstr::CsToIeee { dst: 0, src: 1 },
                TapeInstr::Store { output: 0, src: 0 },
            ],
            provenance: vec![0, 1, 2, 3, 4],
            inputs: vec!["a".into()],
            outputs: vec!["y".into()],
            consts: vec![],
            n_f64_regs: 1,
            n_cs_regs: 2,
        }
    }

    #[test]
    fn clean_cs_lowering_verifies() {
        let diags = check_tape(&cs_tape(), &cs_src());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn mistagged_conversion_is_t004() {
        let mut t = cs_tape();
        t.instrs[1] = TapeInstr::IeeeToCs {
            kind: CsKind::Fcs,
            dst: 0,
            src: 0,
        };
        let diags = check_tape(&t, &cs_src());
        assert!(rules_of(&diags).contains(&"T004"), "{diags:?}");
    }

    #[test]
    fn folded_const_mismatch_is_t006() {
        // source: out y = 2.0 * 3.0;  tape: LoadConst of the *wrong* fold
        let src = SourceView {
            nodes: vec![
                SrcNode {
                    op: SrcOp::Const(2.0),
                    args: vec![],
                },
                SrcNode {
                    op: SrcOp::Const(3.0),
                    args: vec![],
                },
                SrcNode {
                    op: SrcOp::Mul,
                    args: vec![0, 1],
                },
                SrcNode {
                    op: SrcOp::Output("y".into()),
                    args: vec![2],
                },
            ],
        };
        let mut t = TapeView {
            instrs: vec![
                TapeInstr::LoadConst { dst: 0, idx: 0 },
                TapeInstr::Store { output: 0, src: 0 },
            ],
            provenance: vec![2, 3],
            inputs: vec![],
            outputs: vec!["y".into()],
            consts: vec![6.0],
            n_f64_regs: 1,
            n_cs_regs: 0,
        };
        assert!(check_tape(&t, &src).is_empty());
        t.consts[0] = 6.5;
        let diags = check_tape(&t, &src);
        assert!(rules_of(&diags).contains(&"T006"), "{diags:?}");
    }

    #[test]
    fn load_const_from_input_subtree_is_t002() {
        let mut t = small_tape();
        // replace the product with a LoadConst claiming node 2 folded —
        // but node 2's subtree reads inputs, so no fold was possible
        t.instrs[2] = TapeInstr::LoadConst { dst: 1, idx: 0 };
        t.consts = vec![1.0];
        let diags = check_tape(&t, &small_src());
        assert!(rules_of(&diags).contains(&"T002"), "{diags:?}");
    }
}
