//! The datapath programs the workloads submit, as source text, with a
//! stimulus generator each.

use std::collections::HashMap;

use csfma_hls::to_source;
use csfma_solvers::{generate_ldlsolve, solver_suite, KktSystem, LdlFactors, LdlSolveProgram};

use crate::common::{mixed_value, Rng};

/// The four programs under `examples/datapaths`, by name.
pub const EXAMPLES: [(&str, &str); 4] = [
    (
        "listing1",
        include_str!("../../examples/datapaths/listing1.csfma"),
    ),
    (
        "horner8",
        include_str!("../../examples/datapaths/horner8.csfma"),
    ),
    ("dot6", include_str!("../../examples/datapaths/dot6.csfma")),
    (
        "dot6_bounded",
        include_str!("../../examples/datapaths/dot6_bounded.csfma"),
    ),
];

pub struct Program {
    pub name: String,
    pub text: String,
    /// The `ldlsolve` kernel and its factorization, for solver programs.
    ldl: Option<(LdlSolveProgram, LdlFactors)>,
}

impl Program {
    /// `n` rows for a tape with inputs `names`. Example datapaths get
    /// mixed-sign, mixed-exponent values; an `ldlsolve` kernel gets its
    /// problem's real factors and a seeded right-hand side, the traffic a
    /// solver would send.
    pub fn rows(&self, rng: &mut Rng, names: &[String], n: usize) -> Vec<f64> {
        let mut data = Vec::with_capacity(n * names.len());
        for _ in 0..n {
            match &self.ldl {
                None => data.extend(names.iter().map(|_| mixed_value(rng))),
                Some((prog, factors)) => {
                    let rhs: Vec<f64> = (0..prog.dim).map(|_| mixed_value(rng)).collect();
                    let bound: HashMap<String, f64> = prog.inputs_for(factors, &rhs);
                    data.extend(names.iter().map(|n| bound[n]));
                }
            }
        }
        data
    }
}

pub fn examples() -> Vec<Program> {
    EXAMPLES
        .iter()
        .map(|&(name, text)| Program {
            name: name.to_string(),
            text: text.to_string(),
            ldl: None,
        })
        .collect()
}

/// The `ldlsolve` kernels of the first `count` `solver_suite()`
/// problems (540, 1140 and 1740 nodes), rendered to text.
pub fn solvers(count: usize) -> Vec<Program> {
    solver_suite()
        .iter()
        .take(count)
        .enumerate()
        .map(|(i, problem)| {
            let kkt = KktSystem::assemble(problem);
            let factors = LdlFactors::factor(&kkt.matrix);
            let prog = generate_ldlsolve(&factors);
            Program {
                name: format!("ldlsolve-s{}", i + 1),
                text: to_source(&prog.cdfg),
                ldl: Some((prog, factors)),
            }
        })
        .collect()
}
