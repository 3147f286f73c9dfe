//! Adapter from the [`Cdfg`] IR to `csfma-verify`'s normalized view,
//! plus convenience entry points that run the checker passes.
//!
//! `csfma-verify` sits below this crate in the dependency graph, so its
//! passes cannot see [`Cdfg`] directly; this module translates a graph
//! (with its operator timing and resource classes) into a
//! [`verify::Graph`] and a [`Schedule`] into a [`verify::ScheduleView`].
//! The fusion and cleanup passes re-run the checker through these entry
//! points after every rewrite in debug builds, and the `csfma-lint` CLI
//! uses them to lint textual datapaths.

use crate::cdfg::{Cdfg, Domain, FmaKind, Op};
use crate::compile::{Instr, Tape};
use crate::interp::format_of;
use crate::sched::{resource_kind, OpTiming, ResourceKind, ResourceLimits, Schedule};
use csfma_verify as verify;
use csfma_verify::Diagnostic;

/// Stable resource-class tag used in `verify` capacity checks.
pub fn resource_tag(kind: ResourceKind) -> &'static str {
    match kind {
        ResourceKind::Mul => "mul",
        ResourceKind::Add => "add",
        ResourceKind::Div => "div",
        ResourceKind::Fma => "fma",
        ResourceKind::Convert => "convert",
        ResourceKind::Free => "free",
    }
}

fn check_domain(d: Domain) -> verify::Domain {
    match d {
        Domain::Ieee => verify::Domain::Ieee,
        Domain::Cs(k) => verify::Domain::Cs(cs_kind(k)),
    }
}

/// Expected domain of each argument port of `op` — the contract
/// `Cdfg::validate` enforces. Carry-save ports expect the node's own
/// FMA kind.
pub fn port_domains(op: &Op) -> Vec<Domain> {
    match *op {
        Op::Input(_) | Op::Const(_) => vec![],
        Op::Neg | Op::Output(_) | Op::IeeeToCs(_) => vec![Domain::Ieee],
        Op::CsToIeee(k) => vec![Domain::Cs(k)],
        Op::Add | Op::Sub | Op::Mul | Op::Div => vec![Domain::Ieee, Domain::Ieee],
        Op::Fma { kind, .. } => vec![Domain::Cs(kind), Domain::Ieee, Domain::Cs(kind)],
    }
}

fn label(op: &Op) -> String {
    match op {
        Op::Input(n) => format!("Input({n})"),
        Op::Const(v) => format!("Const({v})"),
        Op::Add => "Add".into(),
        Op::Sub => "Sub".into(),
        Op::Mul => "Mul".into(),
        Op::Div => "Div".into(),
        Op::Neg => "Neg".into(),
        Op::Fma { kind, negate_b } => format!("Fma({kind:?}, negate_b={negate_b})"),
        Op::IeeeToCs(k) => format!("IeeeToCs({k:?})"),
        Op::CsToIeee(k) => format!("CsToIeee({k:?})"),
        Op::Output(n) => format!("Output({n})"),
    }
}

/// Translate a [`Cdfg`] into the checker's normalized view.
pub fn to_check_graph(g: &Cdfg, t: &OpTiming) -> verify::Graph {
    let mut out = verify::Graph::new();
    for n in g.nodes() {
        let role = match n.op {
            Op::Input(_) | Op::Const(_) => verify::Role::Source,
            Op::Output(_) => verify::Role::Sink,
            _ => verify::Role::Interior,
        };
        let mut node = verify::Node::new(label(&n.op), check_domain(n.op.domain()))
            .with_args(
                n.args.clone(),
                port_domains(&n.op).into_iter().map(check_domain).collect(),
            )
            .with_latency(t.latency(&n.op))
            .with_resource(resource_tag(resource_kind(&n.op)))
            .with_role(role);
        node = match &n.op {
            Op::IeeeToCs(k) => {
                node.with_conversion(format_of(*k).name, verify::Domain::Cs(cs_kind(*k)))
            }
            Op::CsToIeee(k) => node.with_conversion(format_of(*k).name, verify::Domain::Ieee),
            _ => node,
        };
        out.push(node);
    }
    out
}

/// Translate a [`Schedule`] into the checker's view.
pub fn schedule_view(s: &Schedule) -> verify::ScheduleView {
    verify::ScheduleView {
        start: s.start.iter().map(|&c| Some(c)).collect(),
        length: s.length,
    }
}

/// Capacity list for [`verify::check_schedule`] from [`ResourceLimits`].
pub fn capacity_list(limits: &ResourceLimits) -> Vec<(&'static str, usize)> {
    [
        ("mul", limits.mul),
        ("add", limits.add),
        ("div", limits.div),
        ("fma", limits.fma),
    ]
    .into_iter()
    .filter_map(|(tag, cap)| cap.map(|c| (tag, c)))
    .collect()
}

/// Run the dataflow pass over a [`Cdfg`].
pub fn lint_dataflow(g: &Cdfg, t: &OpTiming) -> Vec<Diagnostic> {
    verify::check_dataflow(&to_check_graph(g, t))
}

/// Run the schedule hazard pass over a computed [`Schedule`].
pub fn lint_schedule(
    g: &Cdfg,
    t: &OpTiming,
    s: &Schedule,
    limits: &ResourceLimits,
) -> Vec<Diagnostic> {
    verify::check_schedule(
        &to_check_graph(g, t),
        &schedule_view(s),
        &capacity_list(limits),
    )
}

/// Debug-build guard used by the rewrite passes: panic with a rendered
/// report if `g` has dataflow *errors* (warnings pass).
#[track_caller]
pub fn debug_assert_dataflow_clean(g: &Cdfg, t: &OpTiming, context: &str) {
    if cfg!(debug_assertions) {
        let diags = lint_dataflow(g, t);
        if verify::has_errors(&diags) {
            panic!(
                "{context}: dataflow check failed\n{}",
                verify::render_report(&diags)
            );
        }
    }
}

fn cs_kind(k: FmaKind) -> verify::CsKind {
    match k {
        FmaKind::Pcs => verify::CsKind::Pcs,
        FmaKind::Fcs => verify::CsKind::Fcs,
    }
}

/// Translate a [`Cdfg`] into the tape validator's normalized source
/// view (same adapter pattern as [`to_check_graph`], for the `T*`/`R*`
/// passes which need the actual operations, not timing metadata).
pub fn to_source_view(g: &Cdfg) -> verify::SourceView {
    let nodes = g
        .nodes()
        .iter()
        .map(|n| {
            let op = match &n.op {
                Op::Input(name) => verify::SrcOp::Input(name.clone()),
                Op::Const(v) => verify::SrcOp::Const(*v),
                Op::Add => verify::SrcOp::Add,
                Op::Sub => verify::SrcOp::Sub,
                Op::Mul => verify::SrcOp::Mul,
                Op::Div => verify::SrcOp::Div,
                Op::Neg => verify::SrcOp::Neg,
                Op::Fma { kind, negate_b } => verify::SrcOp::Fma {
                    kind: cs_kind(*kind),
                    negate_b: *negate_b,
                },
                Op::IeeeToCs(k) => verify::SrcOp::IeeeToCs(cs_kind(*k)),
                Op::CsToIeee(k) => verify::SrcOp::CsToIeee(cs_kind(*k)),
                Op::Output(name) => verify::SrcOp::Output(name.clone()),
            };
            verify::SrcNode {
                op,
                args: n.args.clone(),
            }
        })
        .collect();
    verify::SourceView { nodes }
}

/// Translate a compiled [`Tape`] into the validator's normalized view.
pub fn to_tape_view(tape: &Tape) -> verify::TapeView {
    let instrs = tape
        .instrs
        .iter()
        .map(|ins| match *ins {
            Instr::LoadInput { dst, input } => verify::TapeInstr::LoadInput { dst, input },
            Instr::LoadConst { dst, idx } => verify::TapeInstr::LoadConst { dst, idx },
            Instr::Add { dst, a, b } => verify::TapeInstr::Add { dst, a, b },
            Instr::Sub { dst, a, b } => verify::TapeInstr::Sub { dst, a, b },
            Instr::Mul { dst, a, b } => verify::TapeInstr::Mul { dst, a, b },
            Instr::Div { dst, a, b } => verify::TapeInstr::Div { dst, a, b },
            Instr::Neg { dst, a } => verify::TapeInstr::Neg { dst, a },
            Instr::Fma {
                kind,
                negate_b,
                dst,
                acc,
                b,
                mulc,
            } => verify::TapeInstr::Fma {
                kind: cs_kind(kind),
                negate_b,
                dst,
                acc,
                b,
                mulc,
            },
            Instr::IeeeToCs { kind, dst, src } => verify::TapeInstr::IeeeToCs {
                kind: cs_kind(kind),
                dst,
                src,
            },
            Instr::CsToIeee { dst, src } => verify::TapeInstr::CsToIeee { dst, src },
            Instr::Store { output, src } => verify::TapeInstr::Store { output, src },
        })
        .collect();
    verify::TapeView {
        instrs,
        provenance: tape.instr_nodes.clone(),
        inputs: tape.inputs.clone(),
        outputs: tape.outputs.clone(),
        consts: tape.consts.clone(),
        n_f64_regs: tape.n_f64_regs,
        n_cs_regs: tape.n_cs_regs,
    }
}

/// Run the tape translation validator (`T*` rules): check that `tape`
/// is a faithful lowering of the **source** graph `g` it was compiled
/// from. An empty result proves slot def-before-use, positional I/O
/// layout, CS-format consistency, provenance integrity and per-operand
/// value ancestry all survived the optimizer and the slot-reusing
/// register allocator.
pub fn verify_tape(tape: &Tape, g: &Cdfg) -> Vec<Diagnostic> {
    verify::check_tape(&to_tape_view(tape), &to_source_view(g))
}

/// Run the value-range abstract interpretation (`R*` rules) over `g`
/// with the declared input ranges `decls` (from
/// `in x [lo, hi];` declarations; an empty slice analyzes every input
/// as unbounded, which reports nothing).
pub fn lint_ranges(g: &Cdfg, decls: &[verify::RangeDecl]) -> verify::RangeReport {
    verify::analyze_ranges(&to_source_view(g), decls)
}

/// Derive a fast-path promotion mask for `tape` from a range analysis
/// of its source graph: instruction `i` is promotable when it is an
/// IEEE `Add`/`Sub`/`Mul`/`Div`/`Neg` and the [`RangeReport`] proved
/// the soft-float guard can never fire on the source node named by the
/// tape's provenance (`tape.source_node_of(i)`). Feed the result to
/// [`Tape::set_promoted`].
///
/// [`RangeReport`]: verify::RangeReport
pub fn promotion_mask(tape: &Tape, report: &verify::RangeReport) -> Vec<bool> {
    tape.instrs()
        .iter()
        .enumerate()
        .map(|(i, ins)| {
            let promotable_op = matches!(
                ins,
                Instr::Add { .. }
                    | Instr::Sub { .. }
                    | Instr::Mul { .. }
                    | Instr::Div { .. }
                    | Instr::Neg { .. }
            );
            promotable_op
                && tape
                    .source_node_of(i)
                    .and_then(|n| report.fast_path_safe.get(n).copied())
                    .unwrap_or(false)
        })
        .collect()
}

/// Debug-build guard mirroring [`debug_assert_dataflow_clean`] for the
/// translation layer: panic with a rendered report if the compiled
/// tape fails the `T*` validator. The compiler calls this on every
/// tape it builds (debug builds only), so optimizer or lowering
/// miscompiles abort at compile time instead of computing wrong bits.
#[track_caller]
pub fn debug_assert_tape_clean(tape: &Tape, g: &Cdfg, context: &str) {
    if cfg!(debug_assertions) {
        let diags = verify_tape(tape, g);
        if verify::has_errors(&diags) {
            panic!(
                "{context}: tape translation check failed\n{}",
                verify::render_report(&diags)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::{fuse_critical_paths, FusionConfig};
    use crate::parser::parse_program;
    use crate::sched::{asap_schedule, list_schedule};
    use csfma_verify::{has_errors, Rule};

    const LISTING1: &str = "x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;";

    #[test]
    fn parsed_and_fused_graphs_lint_clean() {
        let g = parse_program(LISTING1).unwrap();
        let t = OpTiming::default();
        assert!(lint_dataflow(&g, &t).is_empty());
        for kind in [FmaKind::Pcs, FmaKind::Fcs] {
            let rep = fuse_critical_paths(&g, &FusionConfig::new(kind));
            let diags = lint_dataflow(&rep.fused, &t);
            assert!(diags.is_empty(), "{}", csfma_verify::render_report(&diags));
        }
    }

    #[test]
    fn schedules_lint_clean_under_their_own_limits() {
        let g = parse_program(LISTING1).unwrap();
        let t = OpTiming::default();
        let unbounded = ResourceLimits::default();
        let s = asap_schedule(&g, &t);
        assert!(lint_schedule(&g, &t, &s, &unbounded).is_empty());

        let limits = ResourceLimits {
            mul: Some(2),
            add: Some(1),
            ..Default::default()
        };
        let ls = list_schedule(&g, &t, &limits);
        let diags = lint_schedule(&g, &t, &ls, &limits);
        assert!(diags.is_empty(), "{}", csfma_verify::render_report(&diags));
    }

    #[test]
    fn asap_schedule_overflows_tight_limits() {
        // Listing 1 starts six multiplies at cycle 0 under ASAP; telling
        // the checker only one multiplier exists must trip S003.
        let g = parse_program(LISTING1).unwrap();
        let t = OpTiming::default();
        let s = asap_schedule(&g, &t);
        let limits = ResourceLimits {
            mul: Some(1),
            ..Default::default()
        };
        let diags = lint_schedule(&g, &t, &s, &limits);
        assert!(has_errors(&diags));
        assert!(diags.iter().any(|d| d.rule == Rule::ResourceOverflow));
    }

    #[test]
    fn conversion_metadata_survives_translation() {
        let g = parse_program(LISTING1).unwrap();
        let rep = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs));
        let cg = to_check_graph(&rep.fused, &OpTiming::default());
        let convs = cg.nodes.iter().filter(|n| n.conv.is_some()).count();
        assert!(convs > 0);
        assert!(cg
            .nodes
            .iter()
            .filter_map(|n| n.conv.as_ref())
            .all(|c| c.unit.contains("PCS")));
    }
}
