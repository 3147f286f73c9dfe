//! End-to-end tests of the fusion pass: schedule shortening (the Fig. 15
//! effect in miniature) and semantic preservation via the bit-accurate
//! interpreter.

use crate::cdfg::{Cdfg, FmaKind, NodeId, Op};
use crate::fuse::{domains_consistent, fuse_critical_paths, FusionConfig};
use crate::interp::{eval_bit_accurate, eval_f64};
use crate::sched::{asap_schedule, list_schedule, OpTiming, ResourceLimits};
use proptest::prelude::*;
use std::collections::HashMap;

/// Listing 1 of the paper: a three-link multiply-add chain.
fn listing1() -> Cdfg {
    let mut g = Cdfg::new();
    let v: Vec<NodeId> = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "k"]
        .iter()
        .map(|s| g.input(*s))
        .collect();
    let m1 = g.mul(v[0], v[1]);
    let m2 = g.mul(v[2], v[3]);
    let x1 = g.add(m1, m2);
    let m3 = g.mul(v[4], v[5]);
    let m4 = g.mul(v[6], x1);
    let x2 = g.add(m3, m4);
    let m5 = g.mul(v[7], v[8]);
    let m6 = g.mul(v[9], x2);
    let x3 = g.add(m5, m6);
    g.output("x3", x3);
    g
}

/// A deep multiply-add chain: `x[n] = coef[n] * x[n-1] + inc[n]`.
fn deep_chain(links: usize) -> Cdfg {
    let mut g = Cdfg::new();
    let mut x = g.input("x0");
    for i in 0..links {
        let coef = g.input(format!("c{i}"));
        let inc = g.input(format!("d{i}"));
        let m = g.mul(coef, x);
        x = g.add(inc, m);
    }
    g.output("y", x);
    g
}

fn chain_inputs(links: usize) -> HashMap<String, f64> {
    let mut m = HashMap::new();
    m.insert("x0".into(), 0.37);
    for i in 0..links {
        m.insert(format!("c{i}"), 1.0 + 0.03 * i as f64);
        m.insert(format!("d{i}"), -0.2 + 0.01 * i as f64);
    }
    m
}

#[test]
fn listing1_fusion_shortens_schedule() {
    let g = listing1();
    // PCS fuses two links (fusing the chain head would lengthen the
    // A-path: 11 vs 9 cycles, so the trial-based pass keeps it discrete);
    // the faster FCS unit profitably fuses all three
    for (kind, expect_max, expect_fmas) in [(FmaKind::Pcs, 23, 2), (FmaKind::Fcs, 18, 3)] {
        let rep = fuse_critical_paths(&g, &FusionConfig::new(kind));
        assert_eq!(rep.initial_length, 27);
        assert!(
            rep.final_length <= expect_max,
            "{kind:?}: {} -> {}",
            rep.initial_length,
            rep.final_length
        );
        assert_eq!(rep.fma_nodes, expect_fmas, "{kind:?}");
        assert!(domains_consistent(&rep.fused));
        // chained FMAs: intermediate conversions eliminated
        let i2c = rep.fused.count_ops(|o| matches!(o, Op::IeeeToCs(_)));
        let c2i = rep.fused.count_ops(|o| matches!(o, Op::CsToIeee(_)));
        assert_eq!(c2i, 1, "only the final result converts back");
        assert!(i2c <= 4, "A-inputs plus the chain head: got {i2c}");
    }
}

#[test]
fn deep_chain_reduction_approaches_per_link_ratio() {
    // 20 links: 20*(5+4) = 180 cycles discrete; fused ~ 20*fma + edges
    let g = deep_chain(20);
    let t = OpTiming::default();
    assert_eq!(asap_schedule(&g, &t).length, 180);
    let pcs = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs));
    let fcs = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs));
    // Fig. 15 territory: 26%-50% reduction at the application level;
    // a pure chain shows the asymptotic per-link gain
    let red_pcs = 1.0 - pcs.final_length as f64 / 180.0;
    let red_fcs = 1.0 - fcs.final_length as f64 / 180.0;
    assert!(red_pcs > 0.38, "PCS reduction {red_pcs:.2}");
    assert!(red_fcs > 0.60, "FCS reduction {red_fcs:.2}");
    assert!(red_fcs > red_pcs, "FCS gains more (3 vs 5 cycles per link)");
}

#[test]
fn fusion_preserves_semantics_listing1() {
    let g = listing1();
    let mut ins = HashMap::new();
    for (i, name) in ["a", "b", "c", "d", "e", "f", "g", "h", "i", "k"]
        .iter()
        .enumerate()
    {
        ins.insert(
            name.to_string(),
            0.1 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.3 },
        );
    }
    let want = eval_f64(&g, &ins)["x3"];
    for kind in [FmaKind::Pcs, FmaKind::Fcs] {
        let rep = fuse_critical_paths(&g, &FusionConfig::new(kind));
        let got = eval_bit_accurate(&rep.fused, &ins)["x3"];
        let tol = want.abs().max(1.0) * 1e-12;
        assert!((got - want).abs() <= tol, "{kind:?}: {got} vs {want}");
    }
}

#[test]
fn subtraction_patterns_fuse() {
    // x - m and m - x both fold into the FMA via sign flips
    let mut g = Cdfg::new();
    let a = g.input("a");
    let b = g.input("b");
    let c = g.input("c");
    let d = g.input("d");
    let m1 = g.mul(a, b);
    let s1 = g.sub(c, m1); // c - a*b
    let m2 = g.mul(s1, d);
    let s2 = g.sub(m2, a); // (s1*d) - a
    g.output("y", s2);
    let rep = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs));
    assert_eq!(rep.fma_nodes, 2);
    let ins: HashMap<String, f64> = [("a", 1.7), ("b", -0.4), ("c", 2.9), ("d", 0.55)]
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    let want = eval_f64(&g, &ins)["y"];
    let got = eval_bit_accurate(&rep.fused, &ins)["y"];
    assert!(
        (got - want).abs() <= want.abs().max(1.0) * 1e-12,
        "{got} vs {want}"
    );
}

#[test]
fn division_is_never_fused() {
    let mut g = Cdfg::new();
    let a = g.input("a");
    let b = g.input("b");
    let d = g.div(a, b);
    let m = g.mul(d, a);
    let s = g.add(b, m);
    g.output("y", s);
    let rep = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs));
    assert_eq!(rep.fused.count_ops(|o| matches!(o, Op::Div)), 1);
    assert_eq!(rep.fma_nodes, 1);
}

#[test]
fn off_critical_pairs_stay_discrete() {
    // a long divider chain dominates; the mul+add side branch has slack
    // and must not be fused (selective use — the whole point, Sec. I)
    let mut g = Cdfg::new();
    let a = g.input("a");
    let b = g.input("b");
    let mut d = a;
    for _ in 0..3 {
        d = g.div(d, b); // 84 cycles of divider chain
    }
    let m = g.mul(a, b);
    let s = g.add(m, b); // 9-cycle side branch
    let j = g.mul(s, d);
    g.output("y", j);
    let rep = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs));
    assert_eq!(rep.fma_nodes, 0, "side branch has slack; nothing to fuse");
    assert_eq!(rep.initial_length, rep.final_length);
}

#[test]
fn resource_limited_schedule_still_gains() {
    let g = deep_chain(12);
    let t = OpTiming::default();
    let rep = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs));
    let limited = list_schedule(
        &rep.fused,
        &t,
        &ResourceLimits {
            fma: Some(2),
            ..Default::default()
        },
    );
    let discrete = asap_schedule(&g, &t);
    assert!(
        limited.length < discrete.length,
        "{} vs {}",
        limited.length,
        discrete.length
    );
}

/// One step of [`random_fusion_dag`]: an op selector and two operand picks.
type DagStep = (usize, prop::sample::Index, prop::sample::Index);

fn dag_steps() -> impl Strategy<Value = Vec<DagStep>> {
    prop::collection::vec(
        (
            0usize..4,
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
        ),
        4..40,
    )
}

/// Random multiply-add DAG over inputs `v0..v7`: each step appends an
/// add, a sub, a mul or a mul→add pair over earlier values; the last
/// value is the one output, so earlier values may be dead.
fn random_fusion_dag(steps: &[DagStep]) -> Cdfg {
    let mut g = Cdfg::new();
    let mut pool: Vec<NodeId> = (0..8).map(|i| g.input(format!("v{i}"))).collect();
    for (op, i1, i2) in steps {
        let x = pool[i1.index(pool.len())];
        let y = pool[i2.index(pool.len())];
        let id = match op {
            0 => g.add(x, y),
            1 => g.sub(x, y),
            2 => g.mul(x, y),
            _ => {
                let m = g.mul(x, y);
                g.add(m, x)
            }
        };
        pool.push(id);
    }
    let last = *pool.last().unwrap();
    g.output("y", last);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random multiply-add DAGs: fusion preserves values within a tight
    /// relative envelope and never lengthens the dataflow schedule.
    #[test]
    fn prop_fusion_correct_on_random_dags(
        ops in dag_steps(),
        vals in prop::collection::vec(-3.0f64..3.0, 8),
    ) {
        let g = random_fusion_dag(&ops);
        let ins: HashMap<String, f64> =
            vals.iter().enumerate().map(|(i, v)| (format!("v{i}"), *v)).collect();
        let want = eval_f64(&g, &ins)["y"];
        prop_assume!(want.is_finite());
        let t = OpTiming::default();
        let before = asap_schedule(&g, &t).length;
        for kind in [FmaKind::Pcs, FmaKind::Fcs] {
            let rep = fuse_critical_paths(&g, &FusionConfig::new(kind));
            prop_assert!(rep.final_length <= before, "{:?} lengthened the schedule", kind);
            let got = eval_bit_accurate(&rep.fused, &ins)["y"];
            let tol = want.abs().max(1e-3) * 1e-10;
            prop_assert!((got - want).abs() <= tol, "{:?}: {} vs {}", kind, got, want);
        }
    }
}

mod scheduling_contracts {
    use super::*;
    use crate::sched::{critical_path, ResourceLimits};

    /// Random DAG generator shared by the contract tests.
    fn random_dag(ops: &[(usize, usize, usize)]) -> Cdfg {
        let mut g = Cdfg::new();
        let mut pool: Vec<NodeId> = (0..4).map(|i| g.input(format!("v{i}"))).collect();
        for &(op, i1, i2) in ops {
            let x = pool[i1 % pool.len()];
            let y = pool[i2 % pool.len()];
            let id = match op % 4 {
                0 => g.add(x, y),
                1 => g.sub(x, y),
                2 => g.mul(x, y),
                _ => g.div(x, y),
            };
            pool.push(id);
        }
        g.output("y", *pool.last().unwrap());
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every node on the reported critical path has zero slack, and
        /// the path's latencies sum to the schedule length.
        #[test]
        fn prop_critical_path_contract(
            ops in prop::collection::vec((0usize..4, 0usize..64, 0usize..64), 3..24),
        ) {
            let g = random_dag(&ops);
            let t = OpTiming::default();
            let s = asap_schedule(&g, &t);
            let path = critical_path(&g, &t, &s);
            prop_assert!(!path.is_empty());
            // consecutive path nodes are data-dependent
            for w in path.windows(2) {
                prop_assert!(g.nodes()[w[1]].args.contains(&w[0]));
            }
            // the path end finishes at the schedule length
            let last = *path.last().unwrap();
            let sink_finish = s.start[last] + t.latency(&g.nodes()[last].op);
            prop_assert!(sink_finish <= s.length);
        }

        /// List scheduling never starts a node before its inputs finish,
        /// never exceeds resource caps, and never beats ASAP.
        #[test]
        fn prop_list_schedule_contract(
            ops in prop::collection::vec((0usize..4, 0usize..64, 0usize..64), 3..24),
            mul_cap in 1usize..3,
            add_cap in 1usize..3,
        ) {
            let g = random_dag(&ops);
            let t = OpTiming::default();
            let limits = ResourceLimits {
                mul: Some(mul_cap),
                add: Some(add_cap),
                ..Default::default()
            };
            let s = list_schedule(&g, &t, &limits);
            let asap = asap_schedule(&g, &t);
            prop_assert!(s.length >= asap.length);
            // dependences respected
            for (id, n) in g.nodes().iter().enumerate() {
                for &a in &n.args {
                    prop_assert!(
                        s.start[a] + t.latency(&g.nodes()[a].op) <= s.start[id],
                        "node {} starts before arg {} finishes", id, a
                    );
                }
            }
            // per-cycle caps respected
            let mut mul_starts = std::collections::HashMap::new();
            let mut add_starts = std::collections::HashMap::new();
            for (id, n) in g.nodes().iter().enumerate() {
                match n.op {
                    Op::Mul => *mul_starts.entry(s.start[id]).or_insert(0usize) += 1,
                    Op::Add | Op::Sub => *add_starts.entry(s.start[id]).or_insert(0usize) += 1,
                    _ => {}
                }
            }
            prop_assert!(mul_starts.values().all(|&c| c <= mul_cap));
            prop_assert!(add_starts.values().all(|&c| c <= add_cap));
        }
    }
}

#[test]
fn fusion_is_idempotent() {
    // running the pass on its own output changes nothing: no IEEE
    // multiply/add pairs remain on critical paths
    let g = deep_chain(8);
    for kind in [FmaKind::Pcs, FmaKind::Fcs] {
        let once = fuse_critical_paths(&g, &FusionConfig::new(kind));
        let twice = fuse_critical_paths(&once.fused, &FusionConfig::new(kind));
        assert_eq!(twice.passes, 0, "{kind:?}: second pass must be a no-op");
        assert_eq!(twice.final_length, once.final_length);
        assert_eq!(twice.fma_nodes, once.fma_nodes);
    }
}

#[test]
fn chain_inputs_helper_used() {
    // evaluate the deep chain end to end through both interpreters
    let links = 6;
    let g = deep_chain(links);
    let ins = chain_inputs(links);
    let want = eval_f64(&g, &ins)["y"];
    let rep = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs));
    let got = eval_bit_accurate(&rep.fused, &ins)["y"];
    assert!(
        (got - want).abs() <= 1e-12 * want.abs().max(1.0),
        "{got} vs {want}"
    );
}

#[test]
fn fused_solver_source_dump_is_consistent() {
    use crate::printer::to_source;
    let g = deep_chain(3);
    let rep = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs));
    let src = to_source(&rep.fused);
    // op-count fingerprint of the dump matches the graph
    assert_eq!(
        src.matches("fma_fcs(").count(),
        rep.fused.count_ops(|o| matches!(o, Op::Fma { .. }))
    );
    assert_eq!(
        src.matches("from_cs_fcs(").count(),
        rep.fused.count_ops(|o| matches!(o, Op::CsToIeee(_)))
    );
    assert_eq!(src.matches("out y =").count(), 1);
}

/// A graph that, fused with PCS and then fused again with FCS, gives a
/// new FCS `Fma` a `C` operand that already has an `IeeeToCs(Pcs)`.
/// Unused nodes are kept on purpose.
fn mixed_kind_reproducer() -> Cdfg {
    let mut g = Cdfg::new();
    let v: Vec<NodeId> = (0..8).map(|i| g.input(format!("v{i}"))).collect();
    let n8 = g.sub(v[4], v[3]);
    g.sub(v[6], v[6]);
    let n10 = g.sub(v[7], v[0]);
    let m = g.mul(v[4], v[5]);
    g.add(m, v[4]);
    let m = g.mul(v[3], v[0]);
    g.add(m, v[3]);
    let n15 = g.mul(v[3], v[5]);
    g.mul(v[5], v[0]);
    let n17 = g.mul(n10, v[6]);
    let m = g.mul(v[6], n8);
    g.add(m, v[6]);
    let m = g.mul(v[2], n10);
    let n21 = g.add(m, v[2]);
    let n22 = g.sub(n15, n17);
    g.sub(v[4], v[2]);
    let y = g.mul(n21, n22);
    g.output("y", y);
    g
}

/// A graph fused with PCS and then fused again with FCS: every FMA must
/// be fed and read back by conversions of its own kind. Deduplicating
/// conversions by source alone once handed a new FCS `Fma` an existing
/// `IeeeToCs(Pcs)` as its `C` port, which the checker accepted (its
/// domains match) and the bit-accurate interpreter then refused.
#[test]
fn fusing_again_with_the_other_kind_keeps_conversions_per_kind() {
    let g = mixed_kind_reproducer();
    let pcs = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused;
    let both = fuse_critical_paths(&pcs, &FusionConfig::new(FmaKind::Fcs)).fused;
    let kinds_of = |k: FmaKind| both.count_ops(|o| matches!(o, Op::Fma { kind, .. } if *kind == k));
    assert!(kinds_of(FmaKind::Pcs) > 0 && kinds_of(FmaKind::Fcs) > 0);
    let cs_kind = |id: NodeId| match both.nodes()[id].op {
        Op::IeeeToCs(k) | Op::Fma { kind: k, .. } => k,
        ref op => panic!("node {id} ({op:?}) is not a carry-save value"),
    };
    for (id, n) in both.nodes().iter().enumerate() {
        match n.op {
            Op::Fma { kind, .. } => {
                assert_eq!(cs_kind(n.args[0]), kind, "A port of node {id}");
                assert_eq!(cs_kind(n.args[2]), kind, "C port of node {id}");
            }
            Op::CsToIeee(kind) => assert_eq!(cs_kind(n.args[0]), kind, "node {id}"),
            _ => {}
        }
    }
    let ins: HashMap<String, f64> = (0..8)
        .map(|i| (format!("v{i}"), 0.25 * i as f64 - 0.8))
        .collect();
    let want = eval_f64(&g, &ins)["y"];
    let got = eval_bit_accurate(&both, &ins)["y"];
    assert!(
        (got - want).abs() <= want.abs().max(1e-3) * 1e-10,
        "{got} vs {want}"
    );
}

/// The Fig. 12 loop as it ran on [`Cdfg`] before the pass moved to a
/// flat working graph: every trial rebuilds the whole graph three
/// times (rewrite, conversion elimination, dead-node elimination).
/// Kept only as the differential reference of the production pass.
mod reference {
    use super::*;
    use crate::fuse::FusionReport;
    use crate::sched::alap_schedule;

    struct Candidate {
        add_id: NodeId,
        a_arg: NodeId,
        negate_a: bool,
        b_arg: NodeId,
        negate_b: bool,
        c_arg: NodeId,
    }

    fn find_candidates(g: &Cdfg, t: &OpTiming) -> Vec<Candidate> {
        let s = asap_schedule(g, t);
        let alap = alap_schedule(g, t);
        let critical = |id: NodeId| s.start[id] == alap.start[id];
        let finish = |id: NodeId| s.start[id] + t.latency(&g.nodes()[id].op);
        let mut out = Vec::new();
        for add_id in 0..g.len() {
            let n = &g.nodes()[add_id];
            let is_sub = match n.op {
                Op::Add => false,
                Op::Sub => true,
                _ => continue,
            };
            if !critical(add_id) {
                continue;
            }
            for (pos, &mul_id) in n.args.iter().enumerate() {
                if !matches!(g.nodes()[mul_id].op, Op::Mul) || !critical(mul_id) {
                    continue;
                }
                let (negate_a, negate_b) = match (is_sub, pos) {
                    (false, _) => (false, false),
                    (true, 1) => (false, true),
                    (true, _) => (true, false),
                };
                let (u, w) = (g.nodes()[mul_id].args[0], g.nodes()[mul_id].args[1]);
                let (b_arg, c_arg) = if finish(u) >= finish(w) {
                    (w, u)
                } else {
                    (u, w)
                };
                out.push(Candidate {
                    add_id,
                    a_arg: n.args[1 - pos],
                    negate_a,
                    b_arg,
                    negate_b,
                    c_arg,
                });
            }
        }
        out
    }

    fn apply(g: &Cdfg, cand: &Candidate, kind: FmaKind) -> Cdfg {
        let mut out = Cdfg::new();
        let mut map: Vec<NodeId> = Vec::with_capacity(g.len());
        for (id, n) in g.nodes().iter().enumerate() {
            if id == cand.add_id {
                let mut a = map[cand.a_arg];
                if cand.negate_a {
                    a = out.push(Op::Neg, vec![a]);
                }
                let a_cs = out.push(Op::IeeeToCs(kind), vec![a]);
                let c_cs = out.push(Op::IeeeToCs(kind), vec![map[cand.c_arg]]);
                let fma = out.push(
                    Op::Fma {
                        kind,
                        negate_b: cand.negate_b,
                    },
                    vec![a_cs, map[cand.b_arg], c_cs],
                );
                map.push(out.push(Op::CsToIeee(kind), vec![fma]));
            } else {
                let args = n.args.iter().map(|&a| map[a]).collect();
                map.push(out.push(n.op.clone(), args));
            }
        }
        out
    }

    fn eliminate_conversions(g: &Cdfg) -> Cdfg {
        let mut out = Cdfg::new();
        let mut map: Vec<NodeId> = Vec::with_capacity(g.len());
        let mut conv_cache: HashMap<(NodeId, bool, FmaKind), NodeId> = HashMap::new();
        for n in g.nodes() {
            let mapped: Vec<NodeId> = n.args.iter().map(|&a| map[a]).collect();
            let id = match &n.op {
                Op::IeeeToCs(k) => {
                    let src = mapped[0];
                    if out.nodes()[src].op == Op::CsToIeee(*k) {
                        map.push(out.nodes()[src].args[0]);
                        continue;
                    }
                    *conv_cache
                        .entry((src, true, *k))
                        .or_insert_with(|| out.push(Op::IeeeToCs(*k), vec![src]))
                }
                Op::CsToIeee(k) => *conv_cache
                    .entry((mapped[0], false, *k))
                    .or_insert_with(|| out.push(Op::CsToIeee(*k), vec![mapped[0]])),
                _ => out.push(n.op.clone(), mapped),
            };
            map.push(id);
        }
        out
    }

    pub(super) fn fuse(g: &Cdfg, cfg: &FusionConfig) -> FusionReport {
        let t = &cfg.timing;
        let initial_length = asap_schedule(g, t).length;
        let mut cur = g.clone();
        let mut cur_length = initial_length;
        let mut passes = 0;
        'outer: while passes < cfg.max_passes {
            for cand in find_candidates(&cur, t) {
                let trial = eliminate_conversions(&apply(&cur, &cand, cfg.kind))
                    .eliminate_dead()
                    .0;
                let len = asap_schedule(&trial, t).length;
                if len <= cur_length {
                    cur = trial;
                    cur_length = len;
                    passes += 1;
                    continue 'outer;
                }
            }
            break;
        }
        FusionReport {
            final_length: asap_schedule(&cur, t).length,
            fma_nodes: cur.count_ops(|o| matches!(o, Op::Fma { .. })),
            fused: cur,
            initial_length,
            passes,
        }
    }
}

/// Fuse `g` with the production pass and with [`reference::fuse`] and
/// require the same graph, node for node, and the same report.
fn fuse_like_reference(g: &Cdfg, kind: FmaKind) -> crate::fuse::FusionReport {
    let cfg = FusionConfig::new(kind);
    let got = fuse_critical_paths(g, &cfg);
    let want = reference::fuse(g, &cfg);
    prop_assert_eq!(
        got.fused.nodes(),
        want.fused.nodes(),
        "{:?} fused graph",
        kind
    );
    prop_assert_eq!(got.passes, want.passes, "{:?} passes", kind);
    prop_assert_eq!(got.initial_length, want.initial_length);
    prop_assert_eq!(got.final_length, want.final_length);
    prop_assert_eq!(got.fma_nodes, want.fma_nodes);
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat-graph pass picks the same candidates and builds the same
    /// graph as the `Cdfg`-rebuilding loop, for either kind and when a
    /// fused graph is fused again with the other kind (mixed kinds are
    /// where conversion cancellation and deduplication must respect the
    /// kind).
    #[test]
    fn prop_flat_fusion_matches_the_cdfg_loop(ops in dag_steps()) {
        let g = random_fusion_dag(&ops);
        for (first, second) in [(FmaKind::Pcs, FmaKind::Fcs), (FmaKind::Fcs, FmaKind::Pcs)] {
            let once = fuse_like_reference(&g, first);
            fuse_like_reference(&once.fused, second);
        }
    }
}

/// The random DAGs rarely give a new FMA an operand that already has a
/// conversion of the other kind; the reproducer does.
#[test]
fn flat_fusion_matches_the_cdfg_loop_on_the_mixed_kind_reproducer() {
    let once = fuse_like_reference(&mixed_kind_reproducer(), FmaKind::Pcs);
    fuse_like_reference(&once.fused, FmaKind::Fcs);
}
