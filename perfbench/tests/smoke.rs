//! Smoke test of the benchmark program: a tiny run (`--seconds 0.001`, one block) of every
//! workload prints every metric `BENCHMARK.json` names, with its unit; the
//! compile-quality ratios repeat bit for bit; and a corrupted output is
//! counted as failed.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["compile", "simulate", "device_jobs"];

fn run(workload: &str, trace: &str, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_qukit-perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.001", "--trace", trace])
        .args(extra)
        .env_remove("QUKIT_THREADS")
        .env_remove("QUKIT_FUSION")
        .env_remove("QUKIT_SIMD")
        .env_remove("QUKIT_CHUNK_QUBITS")
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().expect("output")
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let start = text.find(&format!("\"{list}\"")).expect("metric list");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list end")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
                let rest = &entry[at..];
                let rest = &rest[rest.find('"').expect("value") + 1..];
                rest[..rest.find('"').expect("value end")].to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn metric_value(line: &str, name: &str) -> String {
    let at = line.find(&format!("\"{name}\":{{\"value\":")).expect(name) + name.len() + 12;
    line[at..].split(',').next().expect("value").to_owned()
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_its_unit() {
    for workload in WORKLOADS {
        let stdout = run(workload, "0", &[]);
        let line = last_line(&stdout);
        assert!(line.starts_with("{\"correct\":true,"), "{workload}: {line}");
        for (name, unit) in declared("end_to_end") {
            let entry = format!("\"{name}\":{{\"value\":");
            assert!(line.contains(&entry), "{workload} lacks {name}: {line}");
            assert!(line.contains(&format!("\"unit\":\"{unit}\"")), "{workload} lacks unit {unit}");
        }
        assert!(stdout.contains("tail=p"), "{workload} names its tail percentile");
        assert!(stdout.contains("share="), "{workload} prints its class shares");
        assert!(stdout.contains("host_probe_ms"), "{workload} prints the host probe");
    }
}

#[test]
fn compile_quality_ratios_repeat_bit_for_bit() {
    for workload in WORKLOADS {
        let (a, b) = (run(workload, "0", &[]), run(workload, "0", &[]));
        for name in ["cx_ratio", "depth_ratio"] {
            assert_eq!(
                metric_value(last_line(&a), name),
                metric_value(last_line(&b), name),
                "{workload} {name}"
            );
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    for workload in WORKLOADS {
        let stdout = run(workload, "1", &[]);
        let line = last_line(&stdout);
        for (name, unit) in declared("per_layer") {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{workload} lacks {name}");
            assert!(line.contains(&format!("\"unit\":\"{unit}\"")), "{workload} lacks unit {unit}");
        }
    }
}

#[test]
fn a_corrupted_output_counts_as_failed() {
    for workload in WORKLOADS {
        let stdout = run(workload, "0", &["--self-test"]);
        let line = last_line(&stdout);
        assert!(line.starts_with("{\"correct\":false,"), "{workload}: {line}");
        assert!(line.contains("\"failed\":1,"), "{workload}: {line}");
        assert!(metric_value(line, "ok_share").parse::<f64>().expect("number") < 1.0);
    }
}

#[test]
fn refuses_to_run_with_engine_switches_set() {
    let out = Command::new(env!("CARGO_BIN_EXE_qukit-perfbench"))
        .args(["--workload", "simulate", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .env("QUKIT_THREADS", "2")
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty() || !String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
