//! The benchmark's own checks, run against the built binary: a wrong
//! output fails the run, and every run prints exactly the metrics
//! `BENCHMARK.json` declares. `--release` runs them about eight times
//! faster than a debug build, whose engine self-checks slow the set-up.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["plane-batch", "hls-flow", "serve-closed"];

/// Exit code and stdout of one short run.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_csfma-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("run the benchmark binary");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().unwrap_or("")
}

/// Metric names of one `BENCHMARK.json` section, in file order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Metric names of a result line, in print order.
fn printed(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("\": {\"value\"")
        .filter_map(|s| s.rsplit('"').next())
        .filter(|s| !s.is_empty() && !s.contains('}'))
        .map(str::to_string)
        .collect()
}

#[test]
fn corrupted_reference_digest_fails_the_run() {
    for w in WORKLOADS {
        let (code, out) = run(w, false, &["--corrupt-reference"]);
        assert_eq!(code, 1, "{w} must exit 1 on a wrong digest:\n{out}");
        assert!(
            result_line(&out).starts_with("{\"correct\": false,"),
            "{w}: {}",
            result_line(&out)
        );
    }
}

#[test]
fn runs_print_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    for w in WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let (code, out) = run(w, trace, &[]);
            assert_eq!(code, 0, "{w} trace {trace}:\n{out}");
            let line = result_line(&out);
            assert!(line.starts_with("{\"correct\": true,"), "{line}");
            assert_eq!(&printed(line), want, "{w} trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    for (workload, seed, trace) in [
        ("nope", "1", "0"),
        ("hls-flow", "x", "0"),
        ("hls-flow", "1", "2"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_csfma-perfbench"))
            .args([
                "--workload",
                workload,
                "--seed",
                seed,
                "--seconds",
                "1",
                "--trace",
                trace,
            ])
            .output()
            .expect("run the benchmark binary");
        assert_eq!(out.status.code(), Some(2), "{workload} {seed} {trace}");
        assert!(out.stdout.is_empty(), "a refused run printed a result");
    }
}
