//! Normalized graph view the analysis passes operate on.
//!
//! `csfma-verify` sits below `csfma-hls`, so it cannot see the `Cdfg`
//! type directly. Instead the passes consume this small, explicit view:
//! one [`Node`] per operation carrying exactly the facts the checkers
//! need — argument edges, per-port and result domains, latency, a
//! resource class tag, and (for conversion ops) what the conversion
//! does. `csfma-hls` provides the `Cdfg → Graph` adapter; tests can
//! also build views by hand to seed specific violations.

/// Value domain carried on an edge: IEEE 754 binary interchange or the
/// redundant carry-save transport format of one FMA kind. Carry-save
/// values of different kinds are different domains: PCS and FCS
/// operands have different carry geometries and widths, so an edge
/// between them is as wrong as an unconverted IEEE word.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Domain {
    /// IEEE 754 packed operand.
    Ieee,
    /// Carry-save / partial-carry-save redundant operand of one kind.
    Cs(CsKind),
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Domain::Ieee => write!(f, "IEEE"),
            Domain::Cs(k) => write!(f, "CS({k})"),
        }
    }
}

/// Carry-save transport family of a value or instruction. Mirrors
/// `csfma_hls::FmaKind` without depending on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CsKind {
    /// Packed carry-save (explicit carries at fixed spacing).
    Pcs,
    /// Full carry-save (one carry per digit).
    Fcs,
}

impl std::fmt::Display for CsKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsKind::Pcs => write!(f, "PCS"),
            CsKind::Fcs => write!(f, "FCS"),
        }
    }
}

/// Structural role of a node, used by the dead-code and sink rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// External input; having no users is legal.
    Source,
    /// Ordinary operation; must be transitively used by a sink.
    Interior,
    /// Output; anchors liveness.
    Sink,
}

/// What a conversion node converts *to* — used to spot conversion pairs
/// that cancel (`IeeeToCs` feeding `CsToIeee` of the same unit format).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Conversion {
    /// Name of the unit format involved (e.g. `"pcs-55-zd"`).
    pub unit: String,
    /// Domain the conversion produces.
    pub to: Domain,
}

/// One operation in the normalized view.
#[derive(Clone, Debug)]
pub struct Node {
    /// Short operation label for diagnostics (e.g. `Mul`, `Fma(Pcs)`).
    pub label: String,
    /// Indices of argument-producing nodes, in port order.
    pub args: Vec<usize>,
    /// Domain each argument port expects; length defines the arity.
    pub ports: Vec<Domain>,
    /// Domain of the produced value.
    pub result: Domain,
    /// Cycles from start until the result is available.
    pub latency: u32,
    /// Resource class tag (`"mul"`, `"add"`, …) or `"free"` when the
    /// operation consumes no limited unit.
    pub resource: &'static str,
    /// Present iff this node is a format conversion.
    pub conv: Option<Conversion>,
    /// Source / interior / sink.
    pub role: Role,
}

impl Node {
    /// A node with no arguments, no latency and the `free` resource
    /// class; callers adjust fields from there.
    pub fn new(label: impl Into<String>, result: Domain) -> Self {
        Node {
            label: label.into(),
            args: Vec::new(),
            ports: Vec::new(),
            result,
            latency: 0,
            resource: "free",
            conv: None,
            role: Role::Interior,
        }
    }

    /// Set argument edges and the domains their ports expect.
    pub fn with_args(mut self, args: Vec<usize>, ports: Vec<Domain>) -> Self {
        self.args = args;
        self.ports = ports;
        self
    }

    /// Set the latency in cycles.
    pub fn with_latency(mut self, latency: u32) -> Self {
        self.latency = latency;
        self
    }

    /// Set the resource class tag.
    pub fn with_resource(mut self, resource: &'static str) -> Self {
        self.resource = resource;
        self
    }

    /// Mark the node as a conversion.
    pub fn with_conversion(mut self, unit: impl Into<String>, to: Domain) -> Self {
        self.conv = Some(Conversion {
            unit: unit.into(),
            to,
        });
        self
    }

    /// Set the structural role.
    pub fn with_role(mut self, role: Role) -> Self {
        self.role = role;
        self
    }
}

/// A whole datapath in normalized form. Nodes are expected in
/// topological order (argument indices smaller than user indices);
/// violations of that expectation are themselves reported by the
/// dataflow pass rather than assumed away.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// The operations, in (claimed) topological order.
    pub nodes: Vec<Node>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Append a node, returning its index.
    pub fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }
}

/// A schedule as the hazard pass sees it: a start cycle per node (or
/// `None` where the scheduler left a node out) plus the claimed total
/// length in cycles.
#[derive(Clone, Debug)]
pub struct ScheduleView {
    /// Start cycle per node, parallel to `Graph::nodes`.
    pub start: Vec<Option<u32>>,
    /// Claimed makespan in cycles.
    pub length: u32,
}
