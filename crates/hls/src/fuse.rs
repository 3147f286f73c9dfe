//! The automatic FMA insertion pass (Sec. III-I, Fig. 12).
//!
//! Starting from a scheduled IEEE-754 datapath, the pass repeatedly:
//!
//! 1. finds a multiply→add pair where **both** nodes lie on a critical
//!    path (zero slack between ASAP and ALAP schedules),
//! 2. replaces the pair with a carry-save FMA surrounded by the required
//!    `IEEE ↔ CS` conversions (Fig. 12b) — subtractions fold into the
//!    unit via the free sign flip of the `B` input or the addend,
//! 3. cancels back-to-back `CS → IEEE → CS` conversion pairs between
//!    chained FMAs (Fig. 12c) and drops dead nodes,
//! 4. reschedules,
//!
//! until no zero-slack multiply→add pair remains.
//!
//! The loop runs on a flat working graph, not on [`Cdfg`]: the input is
//! converted once into `Copy` nodes (an op tag that keeps every FMA and
//! conversion kind, `u32` argument ids, the latency) and converted back
//! once at the end. A pass computes ASAP and ALAP in reused buffers; a
//! trial is one forward sweep that rewrites the candidate (step 2) and
//! cancels and deduplicates conversions (step 3) while it schedules,
//! then one reverse liveness sweep that yields the trial's length. So a
//! trial costs O(nodes) with no allocation, and only an accepted trial
//! is compacted into the next working graph. Debug builds additionally
//! materialize every trial as a [`Cdfg`] and run the dataflow checker
//! on it.

use crate::cdfg::{Cdfg, Domain, FmaKind, NodeId, Op};
use crate::lint::{debug_assert_dataflow_clean, lint_schedule};
use crate::sched::{asap_schedule, OpTiming, ResourceLimits};

/// Configuration of the fusion pass.
#[derive(Clone, Copy, Debug)]
pub struct FusionConfig {
    /// Which FMA unit to insert.
    pub kind: FmaKind,
    /// Operator timing used for the schedules.
    pub timing: OpTiming,
    /// Safety bound on fusion iterations.
    pub max_passes: usize,
}

impl FusionConfig {
    /// Default pass for a unit kind.
    pub fn new(kind: FmaKind) -> Self {
        FusionConfig {
            kind,
            timing: OpTiming::default(),
            max_passes: 100_000,
        }
    }
}

/// Outcome of the pass.
#[derive(Clone, Debug)]
pub struct FusionReport {
    /// The transformed datapath.
    pub fused: Cdfg,
    /// Dataflow schedule length before any fusion.
    pub initial_length: u32,
    /// Dataflow schedule length after the pass.
    pub final_length: u32,
    /// Number of FMA nodes inserted (before time-multiplexing).
    pub fma_nodes: usize,
    /// Fusion iterations performed.
    pub passes: usize,
}

/// Operation of a working-graph node: [`Op`] without its payloads.
/// `Input`, `Const` and `Output` are cloned from the pass's input graph
/// when the result is materialized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tag {
    Input,
    Const,
    Output,
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Fma { kind: FmaKind, negate_b: bool },
    IeeeToCs(FmaKind),
    CsToIeee(FmaKind),
}

/// Marks "no node": an inserted node's `src`, an empty conversion slot.
const NONE: u32 = u32::MAX;

/// One node of the working graph.
#[derive(Clone, Copy, Debug)]
struct Node {
    tag: Tag,
    /// Id in the pass's input graph (what `Input`, `Const` and `Output`
    /// are cloned from); `NONE` for nodes the pass inserted.
    src: u32,
    args: [u32; 3],
    arity: u8,
    lat: u32,
}

impl Node {
    fn args(&self) -> &[u32] {
        &self.args[..usize::from(self.arity)]
    }
}

/// One fusible candidate: an add/sub consuming a multiply, both critical.
#[derive(Clone, Copy)]
struct Candidate {
    add_id: u32,
    /// Addend (IEEE), to be converted; `negate_a` folds `m - x` patterns.
    a_arg: u32,
    negate_a: bool,
    /// IEEE multiplier input `B`; `negate_b` folds `x - m` patterns.
    b_arg: u32,
    negate_b: bool,
    /// Critical multiplier input `C` (goes through the CS port).
    c_arg: u32,
}

/// The working graph and every buffer the loop reuses.
struct Work<'g> {
    /// The pass's input graph (source of `Input`/`Const`/`Output` ops).
    g: &'g Cdfg,
    t: OpTiming,
    cur: Vec<Node>,
    asap: Vec<u32>,
    alap: Vec<u32>,
    cands: Vec<Candidate>,
    /// The current trial: `cur` with one candidate rewritten, conversions
    /// cancelled and deduplicated, dead nodes still in place.
    trial: Vec<Node>,
    /// ASAP finish time (start + latency) of each trial node.
    finish: Vec<u32>,
    /// Trial liveness (some `Output` depends on the node).
    live: Vec<bool>,
    /// `cur` id → trial id; reused as trial id → compacted id.
    map: Vec<u32>,
    /// Per trial node, the conversion of it already emitted, by
    /// [`conv_slot`]: conversions are deduplicated by (source,
    /// direction, kind).
    conv: Vec<[u32; 4]>,
    /// Compaction target, swapped with `cur` on acceptance.
    next: Vec<Node>,
}

fn tag_of(op: &Op) -> Tag {
    match op {
        Op::Input(_) => Tag::Input,
        Op::Const(_) => Tag::Const,
        Op::Output(_) => Tag::Output,
        Op::Add => Tag::Add,
        Op::Sub => Tag::Sub,
        Op::Mul => Tag::Mul,
        Op::Div => Tag::Div,
        Op::Neg => Tag::Neg,
        &Op::Fma { kind, negate_b } => Tag::Fma { kind, negate_b },
        &Op::IeeeToCs(k) => Tag::IeeeToCs(k),
        &Op::CsToIeee(k) => Tag::CsToIeee(k),
    }
}

/// Slot of a conversion in [`Work::conv`].
fn conv_slot(to_cs: bool, kind: FmaKind) -> usize {
    usize::from(to_cs) * 2 + usize::from(kind == FmaKind::Fcs)
}

fn id(x: usize) -> u32 {
    u32::try_from(x).expect("fusion graphs have fewer than 2^32 nodes")
}

impl<'g> Work<'g> {
    fn new(g: &'g Cdfg, t: &OpTiming) -> Self {
        let cur = g
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let mut args = [0; 3];
                for (slot, &a) in args.iter_mut().zip(&n.args) {
                    *slot = id(a);
                }
                Node {
                    tag: tag_of(&n.op),
                    src: id(i),
                    args,
                    arity: n.args.len() as u8,
                    lat: t.latency(&n.op),
                }
            })
            .collect();
        Work {
            g,
            t: *t,
            cur,
            asap: Vec::new(),
            alap: Vec::new(),
            cands: Vec::new(),
            trial: Vec::new(),
            finish: Vec::new(),
            live: Vec::new(),
            map: Vec::new(),
            conv: Vec::new(),
            next: Vec::new(),
        }
    }

    /// The operation a node with this tag and input-graph id stands for.
    fn op(&self, tag: Tag, src: u32) -> Op {
        match tag {
            Tag::Input | Tag::Const | Tag::Output => self.g.nodes()[src as usize].op.clone(),
            Tag::Add => Op::Add,
            Tag::Sub => Op::Sub,
            Tag::Mul => Op::Mul,
            Tag::Div => Op::Div,
            Tag::Neg => Op::Neg,
            Tag::Fma { kind, negate_b } => Op::Fma { kind, negate_b },
            Tag::IeeeToCs(k) => Op::IeeeToCs(k),
            Tag::CsToIeee(k) => Op::CsToIeee(k),
        }
    }

    /// ASAP schedule of `cur` into `asap`; returns its length.
    fn schedule(&mut self) -> u32 {
        self.asap.clear();
        let mut length = 0;
        for n in &self.cur {
            let s = n
                .args()
                .iter()
                .map(|&a| self.asap[a as usize] + self.cur[a as usize].lat)
                .max()
                .unwrap_or(0);
            self.asap.push(s);
            length = length.max(s + n.lat);
        }
        length
    }

    /// Every add/sub of `cur` fed by a multiply, both on a critical path,
    /// in node order, into `cands`.
    fn find_candidates(&mut self) {
        let length = self.schedule();
        // ALAP as a reverse sweep: a node's users all come after it, so
        // its start is final when the sweep reaches it
        self.alap.clear();
        self.alap.extend(self.cur.iter().map(|n| length - n.lat));
        for id in (0..self.cur.len()).rev() {
            let s = self.alap[id];
            for &a in self.cur[id].args() {
                let a = a as usize;
                self.alap[a] = self.alap[a].min(s.saturating_sub(self.cur[a].lat));
            }
        }
        let Work {
            cur,
            asap,
            alap,
            cands,
            ..
        } = self;
        let critical = |id: u32| asap[id as usize] == alap[id as usize];
        let finish = |id: u32| asap[id as usize] + cur[id as usize].lat;

        cands.clear();
        for (add_id, n) in cur.iter().enumerate() {
            let add_id = id(add_id);
            let is_sub = match n.tag {
                Tag::Add => false,
                Tag::Sub => true,
                _ => continue,
            };
            if !critical(add_id) {
                continue;
            }
            // find a critical multiply among the arguments
            for pos in 0..2 {
                let mul_id = n.args[pos];
                let mul = &cur[mul_id as usize];
                if mul.tag != Tag::Mul || !critical(mul_id) {
                    continue;
                }
                let (negate_a, negate_b) = if !is_sub {
                    (false, false)
                } else if pos == 1 {
                    (false, true) // x - m  =  x + (-b)*c
                } else {
                    (true, false) // m - x  =  (-x) + b*c
                };
                // pick the critical (later-finishing) multiplier input as C
                let (u, w) = (mul.args[0], mul.args[1]);
                let (b_arg, c_arg) = if finish(u) >= finish(w) {
                    (w, u)
                } else {
                    (u, w)
                };
                cands.push(Candidate {
                    add_id,
                    a_arg: n.args[1 - pos],
                    negate_a,
                    b_arg,
                    negate_b,
                    c_arg,
                });
            }
        }
    }

    /// Append a node (its arguments already trial ids) to the trial,
    /// scheduling it as soon as possible.
    fn emit(&mut self, n: Node) -> u32 {
        let ready = n
            .args()
            .iter()
            .map(|&a| self.finish[a as usize])
            .max()
            .unwrap_or(0);
        self.trial.push(n);
        self.finish.push(ready + n.lat);
        self.conv.push([NONE; 4]);
        id(self.trial.len() - 1)
    }

    /// Append a node the pass inserts.
    fn insert(&mut self, tag: Tag, args: &[u32]) -> u32 {
        let mut n = Node {
            tag,
            src: NONE,
            args: [0; 3],
            arity: args.len() as u8,
            lat: self.t.latency(&self.op(tag, NONE)),
        };
        n.args[..args.len()].copy_from_slice(args);
        self.emit(n)
    }

    /// `IEEE → CS` conversion of trial node `x`: the CS value itself when
    /// `x` is a `CS → IEEE` conversion of the same kind (Fig. 12c), else
    /// the one conversion of `x` to `kind`.
    fn cs_value(&mut self, x: u32, kind: FmaKind) -> u32 {
        let n = &self.trial[x as usize];
        if n.tag == Tag::CsToIeee(kind) {
            return n.args[0];
        }
        self.convert(x, true, kind)
    }

    /// The one conversion of trial node `x` in the given direction and
    /// kind, emitted on first use.
    fn convert(&mut self, x: u32, to_cs: bool, kind: FmaKind) -> u32 {
        let slot = conv_slot(to_cs, kind);
        let have = self.conv[x as usize][slot];
        if have != NONE {
            return have;
        }
        let tag = if to_cs {
            Tag::IeeeToCs(kind)
        } else {
            Tag::CsToIeee(kind)
        };
        let made = self.insert(tag, &[x]);
        self.conv[x as usize][slot] = made;
        made
    }

    /// Build the trial for one candidate (Fig. 12b + 12c in one forward
    /// sweep), mark its live nodes, and return its ASAP length.
    fn run_trial(&mut self, c: Candidate, kind: FmaKind) -> u32 {
        self.trial.clear();
        self.finish.clear();
        self.conv.clear();
        self.map.clear();
        for i in 0..self.cur.len() {
            let mut n = self.cur[i];
            let mapped = if i == c.add_id as usize {
                let mut a = self.map[c.a_arg as usize];
                if c.negate_a {
                    a = self.insert(Tag::Neg, &[a]);
                }
                let a_cs = self.cs_value(a, kind);
                let c_cs = self.cs_value(self.map[c.c_arg as usize], kind);
                let fma = self.insert(
                    Tag::Fma {
                        kind,
                        negate_b: c.negate_b,
                    },
                    &[a_cs, self.map[c.b_arg as usize], c_cs],
                );
                // the multiply stays; the liveness sweep drops it if unused
                self.convert(fma, false, kind)
            } else {
                for a in &mut n.args[..usize::from(n.arity)] {
                    *a = self.map[*a as usize];
                }
                match n.tag {
                    Tag::IeeeToCs(k) => self.cs_value(n.args[0], k),
                    Tag::CsToIeee(k) => self.convert(n.args[0], false, k),
                    _ => self.emit(n),
                }
            };
            self.map.push(mapped);
        }
        // liveness, and the length as the latest finish of a live node
        self.live.clear();
        self.live.resize(self.trial.len(), false);
        let mut length = 0;
        for i in (0..self.trial.len()).rev() {
            let n = &self.trial[i];
            if n.tag == Tag::Output {
                self.live[i] = true;
            }
            if self.live[i] {
                length = length.max(self.finish[i]);
                for &a in n.args() {
                    self.live[a as usize] = true;
                }
            }
        }
        length
    }

    /// Compact the live trial nodes into `next`.
    fn compact_trial(&mut self) {
        self.next.clear();
        self.map.clear();
        for (n, &live) in self.trial.iter().zip(&self.live) {
            if live {
                let mut n = *n;
                for a in &mut n.args[..usize::from(n.arity)] {
                    *a = self.map[*a as usize];
                }
                self.map.push(id(self.next.len()));
                self.next.push(n);
            } else {
                self.map.push(NONE);
            }
        }
    }

    /// Make the last trial the working graph.
    fn accept_trial(&mut self) {
        self.compact_trial();
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    fn to_cdfg(&self, nodes: &[Node]) -> Cdfg {
        let mut out = Cdfg::new();
        for n in nodes {
            let args = n.args().iter().map(|&a| a as NodeId).collect();
            out.push(self.op(n.tag, n.src), args);
        }
        out
    }
}

/// Run the full Fig. 12 pass.
///
/// ```
/// use csfma_hls::{fuse_critical_paths, parse_program, FmaKind, FusionConfig};
/// let g = parse_program("x1 = a*b + c*d; x2 = e*f + g*x1; out y = h*i + k*x2;").unwrap();
/// let rep = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs));
/// assert!(rep.final_length < rep.initial_length);
/// assert_eq!(rep.fma_nodes, 3); // all three chain links fuse
/// ```
pub fn fuse_critical_paths(g: &Cdfg, cfg: &FusionConfig) -> FusionReport {
    g.validate();
    let t = &cfg.timing;
    let mut w = Work::new(g, t);
    let initial_length = w.schedule();
    let mut cur_length = initial_length;
    let mut passes = 0;
    'outer: while passes < cfg.max_passes {
        // try candidates in discovery order; accept the first that does
        // not lengthen the dataflow schedule (neutral fusions are kept:
        // they become profitable once neighboring links fuse and the
        // conversions between them cancel)
        w.find_candidates();
        for i in 0..w.cands.len() {
            let len = w.run_trial(w.cands[i], cfg.kind);
            if cfg!(debug_assertions) {
                // every trial rewrite must leave the graph
                // domain-consistent, whether or not it is accepted
                w.compact_trial();
                let trial = w.to_cdfg(&w.next);
                debug_assert_dataflow_clean(&trial, t, "fusion trial rewrite");
                assert_eq!(asap_schedule(&trial, t).length, len, "trial length");
            }
            if len <= cur_length {
                w.accept_trial();
                cur_length = len;
                passes += 1;
                continue 'outer;
            }
        }
        break;
    }
    let cur = w.to_cdfg(&w.cur);
    cur.validate();
    debug_assert_dataflow_clean(&cur, t, "fusion result");
    if cfg!(debug_assertions) {
        // the dataflow schedule of the fused graph must be hazard-free
        let s = asap_schedule(&cur, t);
        assert_eq!(s.length, cur_length, "fused schedule length");
        let diags = lint_schedule(&cur, t, &s, &ResourceLimits::default());
        assert!(
            diags.is_empty(),
            "fused schedule has hazards:\n{}",
            csfma_verify::render_report(&diags)
        );
    }
    let fma_nodes = cur.count_ops(|o| matches!(o, Op::Fma { .. }));
    FusionReport {
        fused: cur,
        initial_length,
        final_length: cur_length,
        fma_nodes,
        passes,
    }
}

/// Sanity helper for tests and reports: domains of all nodes are
/// consistent and every FMA is conversion-wrapped or chained.
pub fn domains_consistent(g: &Cdfg) -> bool {
    g.nodes().iter().all(|n| match &n.op {
        Op::Fma { kind, .. } => {
            g.nodes()[n.args[0]].op.domain() == Domain::Cs(*kind)
                && g.nodes()[n.args[1]].op.domain() == Domain::Ieee
                && g.nodes()[n.args[2]].op.domain() == Domain::Cs(*kind)
        }
        _ => true,
    })
}
