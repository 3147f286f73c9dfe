//! Golden-vector regression suite: pinned bit patterns for the FMA units
//! and the compiled datapaths.
//!
//! The differential suites (`exec_differential.rs`, the in-crate matrix
//! tests) prove *internal* consistency — tape vs oracle, optimized vs
//! unoptimized. They cannot catch a change that shifts every evaluator
//! the same way. The corpus under `tests/golden/*.json` pins the actual
//! output bits of
//!
//! * the behavioral FMA units (classic, PCS, FCS; single operations and
//!   three-link carry-save chains) on recorded operands, including IEEE
//!   special values,
//! * the batch engine's outputs for every example datapath ×
//!   fusion mode × backend on recorded input rows, and
//! * the bit-plane chunk kernel (DESIGN.md §13): full packed transport
//!   words for 64-lane chained chunks on every carry-save format — a
//!   companion mutation test arms a thread-local plane strike and
//!   proves this corpus catches a single flipped plane word, and
//! * the fusion pass (Sec. III-I, Fig. 12): the fused graph's
//!   fingerprint, node count, pass count, schedule lengths and FMA count
//!   for every example datapath and the first three `ldlsolve` kernels,
//!   per FMA kind,
//!
//! so any change to rounding, normalization, transport-format geometry,
//! fusion or tape lowering that alters even one result bit or one fused
//! node fails here with the exact case identified.
//!
//! Regenerate after an *intentional* semantics change with:
//!
//! ```sh
//! cargo test --test golden_vectors -- --ignored regenerate_golden_files
//! ```
//!
//! and review the resulting JSON diff like any other code change. Values
//! are stored as hex `f64` bit patterns — the files survive any
//! formatting of decimal floats.

use csfma::core::{plane_fma_chunk, ClassicFma, CsFmaFormat, CsFmaUnit, CsOperand, PlaneScratch};
use csfma::hls::{
    compile, fuse_critical_paths, graph_fingerprint, parse_program, Cdfg, FmaKind, FusionConfig,
    TapeBackend,
};
use csfma::obs::Json;
use csfma::softfloat::{FpFormat, Round, SoftFloat};
use csfma::solvers::{generate_ldlsolve, solver_suite, KktSystem, LdlFactors};
use std::path::PathBuf;

const F: FpFormat = FpFormat::BINARY64;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn example_source(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/datapaths")
        .join(format!("{name}.csfma"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

// Panicking lookups: a malformed corpus fails the test, naming the piece.

fn field<'a>(case: &'a Json, key: &str) -> &'a Json {
    case.get(key)
        .unwrap_or_else(|| panic!("missing {key:?} in {case}"))
}

fn items(v: &Json) -> &[Json] {
    v.as_arr()
        .unwrap_or_else(|| panic!("expected an array, got {v}"))
}

fn text(v: &Json) -> &str {
    v.as_str()
        .unwrap_or_else(|| panic!("expected a string, got {v}"))
}

/// Decode a `"0x…"` hex bit-pattern string into the f64 it encodes.
fn bits(v: &Json) -> f64 {
    let s = text(v);
    let hex = s
        .strip_prefix("0x")
        .unwrap_or_else(|| panic!("bad bits {s:?}"));
    f64::from_bits(u64::from_str_radix(hex, 16).unwrap_or_else(|e| panic!("bad bits {s:?}: {e}")))
}

fn load(file: &str) -> Json {
    let path = golden_dir().join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden corpus {}: {e}\n\
             regenerate with: cargo test --test golden_vectors -- --ignored regenerate_golden_files",
            path.display()
        )
    });
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Write one regenerated corpus file.
fn store(file: &str, doc: Json) {
    std::fs::write(golden_dir().join(file), format!("{doc}\n"))
        .unwrap_or_else(|e| panic!("write {file}: {e}"));
}

fn hex(v: f64) -> String {
    format!("0x{:016x}", v.to_bits())
}

// ---------------------------------------------------------------------
// The functions under pin
// ---------------------------------------------------------------------

const UNIT_KINDS: &[&str] = &["classic", "pcs", "fcs", "pcs-chain3", "fcs-chain3"];

fn cs_format(unit: &str) -> CsFmaFormat {
    if unit.starts_with("pcs") {
        CsFmaFormat::PCS_55_ZD
    } else {
        CsFmaFormat::FCS_29_LZA
    }
}

/// Evaluate one unit-level golden case: `r = a + b*c` through the named
/// unit, rounded back to binary64 at the end (after three chained links
/// for the `*-chain3` variants, which keep the accumulator in the
/// carry-save transport format in between, Sec. III-C).
fn run_unit_case(unit: &str, a: f64, b: f64, c: f64) -> f64 {
    if unit == "classic" {
        let fma = ClassicFma::new(Round::NearestEven);
        return fma
            .fma(
                &SoftFloat::from_f64(F, a),
                &SoftFloat::from_f64(F, b),
                &SoftFloat::from_f64(F, c),
            )
            .to_f64();
    }
    let fmt = cs_format(unit);
    let cs_unit = CsFmaUnit::new(fmt);
    let bv = SoftFloat::from_f64(F, b);
    let mulc = CsOperand::from_f64(c, fmt);
    let mut acc = CsOperand::from_f64(a, fmt);
    let links = if unit.ends_with("chain3") { 3 } else { 1 };
    for _ in 0..links {
        acc = cs_unit.fma(&acc, &bv, &mulc);
    }
    acc.to_ieee(F, Round::NearestEven).to_f64()
}

const DATAPATHS: &[&str] = &["listing1", "horner8", "dot6"];
const FUSIONS: &[&str] = &["none", "pcs", "fcs"];
const GOLDEN_ROWS: usize = 8;

fn build_graph(name: &str, fuse: &str) -> Cdfg {
    let g = parse_program(&example_source(name)).expect("example programs parse");
    match fuse {
        "none" => g,
        "pcs" => fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused,
        "fcs" => fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs)).fused,
        other => panic!("unknown fusion {other:?}"),
    }
}

fn backend_of(name: &str) -> TapeBackend {
    match name {
        "bit" => TapeBackend::BitAccurate,
        "f64" => TapeBackend::F64,
        other => panic!("unknown backend {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Fusion corpus: what the Fig. 12 pass makes of every program, per kind
// ---------------------------------------------------------------------

const FUSION_EXAMPLES: &[&str] = &["listing1", "horner8", "dot6", "dot6_bounded"];
/// Leading `solver_suite()` problems whose `ldlsolve` kernels (540, 1140
/// and 1740 nodes) are pinned.
const FUSION_SOLVERS: usize = 3;
const FUSION_KINDS: &[(&str, FmaKind)] = &[("pcs", FmaKind::Pcs), ("fcs", FmaKind::Fcs)];

/// The unfused programs of the fusion corpus, by name.
fn fusion_programs() -> Vec<(String, Cdfg)> {
    let mut progs: Vec<(String, Cdfg)> = FUSION_EXAMPLES
        .iter()
        .map(|&name| (name.to_string(), build_graph(name, "none")))
        .collect();
    for (i, problem) in solver_suite().iter().take(FUSION_SOLVERS).enumerate() {
        let factors = LdlFactors::factor(&KktSystem::assemble(problem).matrix);
        progs.push((
            format!("ldlsolve-s{}", i + 1),
            generate_ldlsolve(&factors).cdfg,
        ));
    }
    progs
}

/// Fuse `g` with `kind` and record the outcome's structure.
fn fusion_record(name: &str, kind: (&str, FmaKind), g: &Cdfg) -> Json {
    let rep = fuse_critical_paths(g, &FusionConfig::new(kind.1));
    Json::obj([
        ("name", name.into()),
        ("kind", kind.0.into()),
        (
            "graph_fingerprint",
            format!("0x{:016x}", graph_fingerprint(&rep.fused)).into(),
        ),
        ("nodes", rep.fused.len().into()),
        ("passes", rep.passes.into()),
        ("initial_length", u64::from(rep.initial_length).into()),
        ("final_length", u64::from(rep.final_length).into()),
        ("fma_nodes", rep.fma_nodes.into()),
    ])
}

// ---------------------------------------------------------------------
// Bit-plane kernel vectors: 64-lane chunks chained through two links,
// full packed transport words pinned per lane (DESIGN.md §13)
// ---------------------------------------------------------------------

const PLANE_FORMATS: &[(&str, CsFmaFormat)] = &[
    ("pcs-55-zd", CsFmaFormat::PCS_55_ZD),
    ("pcs-58-lza", CsFmaFormat::PCS_58_LZA),
    ("fcs-29-lza", CsFmaFormat::FCS_29_LZA),
    ("pcs-27-sp", CsFmaFormat::PCS_27_SP),
    ("fcs-15-sp", CsFmaFormat::FCS_15_SP),
];
const PLANE_CHUNK: usize = 64;
const PLANE_LINKS: usize = 2;
/// Word selector of the mutation test's plane strike: a product-sum
/// plane whose flip survives rounding on lane 0 as a single changed bit
/// of the packed result (see `golden_suite_catches_plane_word_corruption`).
const STRIKE_SEL: u64 = 16;

fn plane_format(name: &str) -> CsFmaFormat {
    PLANE_FORMATS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| *f)
        .unwrap_or_else(|| panic!("unknown plane format {name:?}"))
}

fn plane_b_format(fmt: &CsFmaFormat) -> FpFormat {
    if fmt.b_sig_bits == 24 {
        FpFormat::BINARY32
    } else {
        FpFormat::BINARY64
    }
}

/// Hex-encode a packed transport word (arbitrary width), MSB nibble
/// first — the pinned representation of a whole lane result.
fn bits_hex(b: &csfma::bits::Bits) -> String {
    let w = b.width();
    let mut s = String::from("0x");
    for n in (0..w.div_ceil(4)).rev() {
        let mut v = 0u32;
        for i in 0..4 {
            let pos = n * 4 + i;
            if pos < w && b.bit(pos) {
                v |= 1 << i;
            }
        }
        s.push(char::from_digit(v, 16).unwrap());
    }
    s
}

/// Evaluate one plane-kernel golden case: a 64-lane chunk chained
/// through the bit-plane kernel (results feed back as the accumulator),
/// returning the packed transport word of every lane after the final
/// link plus the lane exponents.
fn run_plane_case(fmt: CsFmaFormat, a: &[f64], b: &[f64], c: &[f64]) -> Vec<String> {
    let unit = CsFmaUnit::new(fmt);
    let bfmt = plane_b_format(&fmt);
    // bank layout: slot 0 = acc, slot 1 = mulc, slot 2 = dst
    let mut bank = vec![CsOperand::zero(fmt, false); 3 * PLANE_CHUNK];
    for k in 0..PLANE_CHUNK {
        bank[k] = CsOperand::from_ieee(&SoftFloat::from_f64(bfmt, a[k]), fmt);
        bank[PLANE_CHUNK + k] = CsOperand::from_ieee(&SoftFloat::from_f64(bfmt, c[k]), fmt);
    }
    let bv: Vec<SoftFloat> = b.iter().map(|&v| SoftFloat::from_f64(bfmt, v)).collect();
    let mut scratch = PlaneScratch::default();
    for _ in 0..PLANE_LINKS {
        plane_fma_chunk(
            &unit,
            &mut bank,
            0,
            PLANE_CHUNK,
            2 * PLANE_CHUNK,
            &bv,
            PLANE_CHUNK,
            &mut scratch,
        );
        for k in 0..PLANE_CHUNK {
            bank[k] = bank[2 * PLANE_CHUNK + k].clone();
        }
    }
    (0..PLANE_CHUNK)
        .map(|k| {
            let r = &bank[2 * PLANE_CHUNK + k];
            format!("{}|e{}", bits_hex(&r.pack()), r.exp().unbiased())
        })
        .collect()
}

/// Recompute every plane-kernel case and report mismatches against the
/// pinned corpus (empty = corpus holds). Factored out so the mutation
/// test below can assert the corpus *fails* under a seeded defect.
fn plane_golden_mismatches(doc: &Json) -> Vec<String> {
    let mut mismatches = Vec::new();
    for case in items(field(doc, "cases")) {
        let name = text(field(case, "format"));
        let fmt = plane_format(name);
        let a: Vec<f64> = items(field(case, "a")).iter().map(bits).collect();
        let b: Vec<f64> = items(field(case, "b")).iter().map(bits).collect();
        let c: Vec<f64> = items(field(case, "c")).iter().map(bits).collect();
        let want: Vec<&str> = items(field(case, "packed")).iter().map(text).collect();
        let got = run_plane_case(fmt, &a, &b, &c);
        assert_eq!(got.len(), want.len(), "{name}: lane count drifted");
        for (k, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            if g != w {
                mismatches.push(format!("{name} lane {k}: got {g}, pinned {w}"));
            }
        }
    }
    mismatches
}

/// Deterministic per-format stimulus for the plane corpus: lane 0 stays
/// a plain normal triple (the mutation test strikes a lane-0 product
/// plane, which must never be masked by the exception path), the rest mix
/// specials, subnormals and wide-exponent normals.
fn plane_stimulus(fmt_name: &str) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut state = 0x91a9_e000_0000_0000u64 ^ fmt_name.len() as u64;
    let mut lane = |fixed: f64| -> Vec<f64> {
        let mut v = vec![fixed];
        v.extend((1..PLANE_CHUNK).map(|_| gen_f64(&mut state)));
        v
    };
    (lane(1.5), lane(-2.25), lane(3.0625))
}

// ---------------------------------------------------------------------
// Deterministic stimulus for regeneration (recorded into the corpus, so
// the checks never depend on this generator staying fixed)
// ---------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn gen_f64(state: &mut u64) -> f64 {
    let r = splitmix(state);
    match r % 12 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::from_bits(splitmix(state) % (1u64 << 52)), // +subnormal
        6 => -f64::from_bits(splitmix(state) % (1u64 << 52)), // -subnormal
        7 => f64::MIN_POSITIVE * ((r >> 32) % 7 + 1) as f64, // underflow border
        _ => {
            // finite normal in a ±2^100 exponent band
            let m = splitmix(state);
            let sign = m & (1u64 << 63);
            let exp = 923 + splitmix(state) % 200;
            let frac = m & ((1u64 << 52) - 1);
            f64::from_bits(sign | (exp << 52) | frac)
        }
    }
}

// ---------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------

#[test]
fn golden_fma_unit_vectors_hold() {
    let doc = load("fma_units.json");
    let cases = items(field(&doc, "cases"));
    assert!(
        cases.len() >= 100,
        "suspiciously small corpus: {}",
        cases.len()
    );
    for (i, case) in cases.iter().enumerate() {
        let unit = text(field(case, "unit"));
        let (a, b, c) = (
            bits(field(case, "a")),
            bits(field(case, "b")),
            bits(field(case, "c")),
        );
        let want = bits(field(case, "r"));
        let got = run_unit_case(unit, a, b, c);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "golden case {i} ({unit}): fma(a={a:e}, b={b:e}, c={c:e}) = {got:e}, pinned {want:e}"
        );
    }
}

#[test]
fn golden_datapath_vectors_hold() {
    let doc = load("datapaths.json");
    for case in items(field(&doc, "cases")) {
        let name = text(field(case, "name"));
        let fuse = text(field(case, "fuse"));
        let backend = backend_of(text(field(case, "backend")));
        let tape = compile(&build_graph(name, fuse)).expect("examples are checker-clean");
        let inputs: Vec<f64> = items(field(case, "inputs")).iter().map(bits).collect();
        let want: Vec<f64> = items(field(case, "outputs")).iter().map(bits).collect();
        assert_eq!(
            inputs.len(),
            GOLDEN_ROWS * tape.num_inputs(),
            "{name}/{fuse}: row layout drifted"
        );
        let got = tape.eval_batch(backend, &inputs, 1);
        assert_eq!(got.len(), want.len(), "{name}/{fuse}: output arity drifted");
        for (k, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{name} fuse={fuse} backend={backend:?}: flat output {k} = {g:e}, pinned {w:e}"
            );
        }
    }
}

#[test]
fn golden_plane_kernel_vectors_hold() {
    let doc = load("plane_kernel.json");
    let mismatches = plane_golden_mismatches(&doc);
    assert!(
        mismatches.is_empty(),
        "plane-kernel corpus violated:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn golden_fusion_corpus_holds() {
    let doc = load("fusion.json");
    let cases = items(field(&doc, "cases"));
    let progs = fusion_programs();
    assert_eq!(
        cases.len(),
        progs.len() * FUSION_KINDS.len(),
        "fusion corpus size drifted"
    );
    for case in cases {
        let name = text(field(case, "name"));
        let kind_name = text(field(case, "kind"));
        let kind = *FUSION_KINDS
            .iter()
            .find(|(k, _)| *k == kind_name)
            .unwrap_or_else(|| panic!("unknown fusion kind {kind_name:?}"));
        let (_, g) = progs
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("unknown fusion program {name:?}"));
        assert_eq!(
            &fusion_record(name, kind, g),
            case,
            "fusion of {name} with {kind_name} drifted from the pinned record"
        );
    }
}

/// Mutation coverage of the corpus itself: arm one plane strike (a
/// single flipped product-sum plane word, lane 0) on this thread — the
/// first kernel call of the corpus consumes it — and require the golden
/// suite to notice. If this test fails, the corpus has a blind spot.
#[test]
fn golden_suite_catches_plane_word_corruption() {
    use csfma::core::fault::FaultSite;
    use csfma::core::{arm_plane_strikes, disarm_plane_strikes, PlaneStrike};
    let doc = load("plane_kernel.json");
    arm_plane_strikes(&[PlaneStrike {
        site: FaultSite::PlaneCsaWord,
        lane: 0,
        sel: STRIKE_SEL,
    }]);
    let mismatches = plane_golden_mismatches(&doc);
    assert_eq!(disarm_plane_strikes(), 0, "plane strike was never consumed");
    assert!(
        !mismatches.is_empty(),
        "golden plane corpus failed to catch a flipped bit-plane word"
    );
    assert!(
        mismatches.iter().any(|m| m.contains("lane 0")),
        "the strike flips lane 0, but the mismatch landed elsewhere: {mismatches:?}"
    );
}

/// Rebuild `tests/golden/*.json` from the current implementation. Kept
/// `#[ignore]`d so a routine `cargo test` can never silently re-pin the
/// corpus; run it explicitly after an intentional semantics change.
#[test]
#[ignore = "regenerates the golden corpus from the current implementation"]
fn regenerate_golden_files() {
    std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
    let hexes = |v: &[f64]| Json::arr(v.iter().map(|&x| hex(x)));
    let cases = |cases: Vec<Json>| Json::obj([("cases", Json::Arr(cases))]);

    // --- unit vectors ---
    let mut units = Vec::new();
    let mut state = 0x5eed_0fcf_517a_2026u64;
    for &unit in UNIT_KINDS {
        for _ in 0..40 {
            let (a, b, c) = (
                gen_f64(&mut state),
                gen_f64(&mut state),
                gen_f64(&mut state),
            );
            let r = run_unit_case(unit, a, b, c);
            units.push(Json::obj([
                ("unit", unit.into()),
                ("a", hex(a).into()),
                ("b", hex(b).into()),
                ("c", hex(c).into()),
                ("r", hex(r).into()),
            ]));
        }
    }
    store("fma_units.json", cases(units));

    // --- datapath vectors ---
    let mut datapaths = Vec::new();
    for &name in DATAPATHS {
        for &fuse in FUSIONS {
            let tape = compile(&build_graph(name, fuse)).expect("examples are checker-clean");
            let ni = tape.num_inputs();
            let mut state = 0xdead_beef_0000_0000u64 ^ (name.len() as u64) << 8 ^ fuse.len() as u64;
            let inputs: Vec<f64> = (0..GOLDEN_ROWS * ni).map(|_| gen_f64(&mut state)).collect();
            for backend in ["bit", "f64"] {
                let got = tape.eval_batch(backend_of(backend), &inputs, 1);
                datapaths.push(Json::obj([
                    ("name", name.into()),
                    ("fuse", fuse.into()),
                    ("backend", backend.into()),
                    ("inputs", hexes(&inputs)),
                    ("outputs", hexes(&got)),
                ]));
            }
        }
    }
    store("datapaths.json", cases(datapaths));

    // --- bit-plane kernel vectors ---
    let mut planes = Vec::new();
    for &(name, fmt) in PLANE_FORMATS {
        let (a, b, c) = plane_stimulus(name);
        let packed = run_plane_case(fmt, &a, &b, &c);
        planes.push(Json::obj([
            ("format", name.into()),
            ("a", hexes(&a)),
            ("b", hexes(&b)),
            ("c", hexes(&c)),
            ("packed", Json::arr(packed)),
        ]));
    }
    store("plane_kernel.json", cases(planes));

    // --- fusion corpus ---
    let mut fusions = Vec::new();
    for (name, g) in fusion_programs() {
        for &kind in FUSION_KINDS {
            fusions.push(fusion_record(&name, kind, &g));
        }
    }
    store("fusion.json", cases(fusions));
}
