//! Integration tests of every experiment's *shape claims*: the orderings
//! and magnitudes the paper reports must emerge from our models (absolute
//! values are model-calibrated; the relations are the reproduction).

use csfma::obs::Json;
use csfma_bench::{fig13, fig14, fig15, table1, table2};

/// Parse a checked-in artifact, naming the bin that regenerates it.
fn load_artifact(path: &str, bin: &str) -> Json {
    let text = std::fs::read_to_string(path).expect("artifact is checked in");
    Json::parse(&text).unwrap_or_else(|e| {
        panic!("{path}: {e} — regenerate with `cargo run -q --release -p csfma-bench --bin {bin}`")
    })
}

/// The checked-in throughput artifact must carry the scheduler fields
/// the work-stealing executor reports (`chunk_size`, `steal` per entry,
/// the `eval_many` scenario section) — regenerating it with a binary
/// that silently dropped them would fail here before any reader does.
#[test]
fn bench_throughput_artifact_carries_scheduler_fields() {
    let doc = load_artifact("results/BENCH_throughput.json", "throughput");
    for entry in doc.get("entries").and_then(Json::as_arr).expect("entries") {
        assert!(
            entry.get("chunk_size").is_some(),
            "lost chunk_size: {entry}"
        );
        assert!(entry.get("steal").is_some(), "lost steal: {entry}");
    }
    let many = doc.get("eval_many").expect("eval_many section");
    assert!(
        many.get("speedup_vs_sequential").is_some(),
        "eval_many section must report speedup_vs_sequential"
    );
}

/// The checked-in serve artifact must carry the protocol-contract
/// fields the acceptance audit reports — latency percentiles, the
/// shed/deadline/quarantine ledger, the kill-mid-flight drill — and
/// must record a passing gate at 16 concurrent clients.
#[test]
fn bench_serve_artifact_carries_contract_fields() {
    let doc = load_artifact("results/BENCH_serve.json", "serve_bench");
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some("serve"));
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .expect("scenarios");
    for s in scenarios {
        for field in [
            "p50_ms",
            "p99_ms",
            "rows_per_sec",
            "shed",
            "deadline",
            "quarantined_rows",
        ] {
            assert!(
                s.get(field).is_some(),
                "BENCH_serve.json lost the {field} field"
            );
        }
        assert_eq!(s.get("digest_mismatches").and_then(Json::as_u64), Some(0));
        assert_eq!(s.get("unanswered").and_then(Json::as_u64), Some(0));
    }
    let kill = doc.get("kill_mid_flight").expect("kill_mid_flight section");
    assert_eq!(kill.get("server_survived"), Some(&Json::Bool(true)));
    assert!(
        scenarios
            .iter()
            .any(|s| s.get("clients").and_then(Json::as_u64) == Some(16)),
        "the acceptance scenario is 16 concurrent clients"
    );
    assert_eq!(
        doc.get("pass"),
        Some(&Json::Bool(true)),
        "the checked-in serve artifact must record a passing gate"
    );
    // the drill runs under fire: a clean-room seed would prove nothing
    assert!(doc
        .get("fault_seed")
        .and_then(Json::as_u64)
        .is_some_and(|s| s != 0));
}

#[test]
fn table1_orderings() {
    let rows = table1();
    let by_name: std::collections::HashMap<_, _> = rows.iter().map(|r| (r.name, r)).collect();
    let coregen = by_name["Xilinx CoreGen"];
    let flopoco = by_name["FloPoCo FPPipeline"];
    let pcs = by_name["PCS-FMA"];
    let fcs = by_name["FCS-FMA"];

    // exact matches: cycles and DSPs
    assert_eq!((coregen.cycles, coregen.dsps), (9, 13));
    assert_eq!((flopoco.cycles, flopoco.dsps), (11, 7));
    assert_eq!((pcs.cycles, pcs.dsps), (5, 21));
    assert_eq!((fcs.cycles, fcs.dsps), (3, 12));

    // every unit but FloPoCo clears the 200 MHz constraint
    assert!(flopoco.fmax_mhz < 200.0);
    for r in [coregen, pcs, fcs] {
        assert!(r.fmax_mhz >= 200.0, "{}: {:.0}", r.name, r.fmax_mhz);
    }
    // area ordering: FloPoCo smallest DSP use; our units LUT-heaviest;
    // FCS cheaper than PCS thanks to the pre-adders
    assert!(pcs.luts > coregen.luts && pcs.luts > flopoco.luts);
    assert!(fcs.luts < pcs.luts);
}

#[test]
fn fig13_speedups() {
    let rows = fig13();
    let best_competitor = rows[0].1.min(rows[1].1);
    let pcs = best_competitor / rows[2].1;
    let fcs = best_competitor / rows[3].1;
    // paper: "about 1.7x and 2.5x faster than their closest competitor"
    assert!((1.5..2.0).contains(&pcs), "PCS speedup {pcs:.2}");
    assert!((2.2..2.9).contains(&fcs), "FCS speedup {fcs:.2}");
}

#[test]
fn fig14_accuracy_ordering() {
    let rows = fig14(8, 48, 99);
    let get = |name: &str| {
        rows.iter()
            .find(|r| r.name.starts_with(name))
            .unwrap_or_else(|| panic!("row {name}"))
            .avg_ulp
    };
    let d64 = get("CoreGen 64b");
    let d68 = get("CoreGen 68b");
    let golden = get("CoreGen 75b");
    // wider formats are strictly better, golden is near-exact
    assert!(d68 < d64 && golden < d68);
    // both of the paper's units clearly outperform standard double
    for name in ["PCS-FMA (ZD)", "PCS-FMA (early LZA)", "FCS-FMA"] {
        let e = get(name);
        assert!(e < d64 / 5.0, "{name}: {e} vs 64b {d64}");
    }
}

#[test]
fn table2_energy_ordering() {
    let rows = table2(400, 7);
    let x = rows[0].1;
    let flopoco = rows[1].1;
    let pcs = rows[2].1;
    let fcs = rows[3].1;
    // calibration anchor and shape: "a 4x to 5x increase in energy"
    assert!((0.4..0.7).contains(&x), "CoreGen anchor {x:.2} nJ");
    assert!(flopoco > x && flopoco < pcs);
    assert!(pcs / x > 3.5 && pcs / x < 6.0, "PCS ratio {:.1}", pcs / x);
    assert!(fcs / x > 3.5 && fcs / x < 6.0, "FCS ratio {:.1}", fcs / x);
    assert!(fcs < pcs, "pre-adders make FCS cheaper");
}

#[test]
fn fig15_schedule_reductions() {
    let rows = fig15();
    assert_eq!(rows.len(), 3);
    for r in &rows {
        // paper: 26.0% .. 50.1% reduction; allow the model's band
        assert!(
            (15.0..55.0).contains(&r.reduction_pcs()),
            "{}: PCS {:.1}%",
            r.solver,
            r.reduction_pcs()
        );
        assert!(
            (30.0..60.0).contains(&r.reduction_fcs()),
            "{}: FCS {:.1}%",
            r.solver,
            r.reduction_fcs()
        );
        assert!(r.reduction_fcs() > r.reduction_pcs(), "{}", r.solver);
        assert!(
            r.fma_units.0 <= 39 && r.fma_units.1 <= 39,
            "paper used up to 39 units"
        );
    }
    // complexity ordering
    assert!(rows[0].discrete < rows[1].discrete && rows[1].discrete < rows[2].discrete);
    // "higher performance gains using the FCS approach"
    let max_fcs = rows.iter().map(|r| r.reduction_fcs()).fold(0.0, f64::max);
    assert!(max_fcs > 35.0, "peak FCS reduction {max_fcs:.1}%");
}

#[test]
fn fig15_area_supports_selective_use_conclusion() {
    // the paper's conclusion: "these benefits come at the cost of
    // increased area ... a selective use is recommended" — the fused
    // operator pools must cost several times the discrete ones
    let rows = fig15();
    for r in &rows {
        assert!(
            r.pcs_area.luts > 3 * r.discrete_area.luts,
            "{}: PCS pool {} vs discrete {}",
            r.solver,
            r.pcs_area.luts,
            r.discrete_area.luts
        );
        assert!(
            r.fcs_area.luts < r.pcs_area.luts,
            "{}: pre-adders keep the FCS pool smaller",
            r.solver
        );
        assert!(
            r.fcs_area.dsps <= r.pcs_area.dsps,
            "{}: FCS uses fewer DSPs per unit",
            r.solver
        );
    }
}
