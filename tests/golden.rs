//! Golden-value tests: known circuits with exact expected amplitudes or
//! outcome distributions, checked against **every** engine that can run
//! them — including the parallel chunked/fused kernels. The expected
//! values live as data files in `tests/golden/` so they are reviewable
//! independently of any simulator.

use qukit::aer::density::DensityMatrixSimulator;
use qukit::aer::parallel::ParallelConfig;
use qukit::aer::simulator::{QasmSimulator, StatevectorSimulator};
use qukit::aer::stabilizer::StabilizerSimulator;
use qukit::dd::simulator::DdSimulator;
use qukit::terra::complex::Complex;
use qukit::QuantumCircuit;
use std::path::PathBuf;

const AMP_TOLERANCE: f64 = 1e-10;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name)
}

/// Parses a `.amps` file into the dense expected statevector.
fn read_amplitudes(name: &str, num_qubits: usize) -> Vec<Complex> {
    let text = std::fs::read_to_string(golden_path(name)).expect("golden file readable");
    let mut amps = vec![Complex::ZERO; 1 << num_qubits];
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let idx: usize = parts.next().expect("index").parse().expect("index parses");
        let re: f64 = parts.next().expect("real part").parse().expect("real parses");
        let im: f64 = parts.next().expect("imag part").parse().expect("imag parses");
        amps[idx] = Complex::new(re, im);
    }
    amps
}

/// Parses a `.counts` file into `(bitstring, probability)` pairs.
fn read_counts(name: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(golden_path(name)).expect("golden file readable");
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut parts = line.split_whitespace();
            let bits = parts.next().expect("bitstring").to_owned();
            let p: f64 = parts.next().expect("probability").parse().expect("probability parses");
            (bits, p)
        })
        .collect()
}

/// The parallel engine configurations every golden circuit runs under:
/// serial-with-fusion and fully threaded with forced-tiny chunks.
fn parallel_configs() -> [ParallelConfig; 2] {
    [
        ParallelConfig { threads: 1, chunk_qubits: 13, fusion: true, simd: true },
        ParallelConfig { threads: 4, chunk_qubits: 2, fusion: true, simd: true },
    ]
}

fn assert_amplitudes(engine: &str, expected: &[Complex], actual: &[Complex]) {
    assert_eq!(expected.len(), actual.len(), "{engine}: state width");
    for (idx, (e, a)) in expected.iter().zip(actual).enumerate() {
        let err = (*e - *a).norm();
        assert!(
            err <= AMP_TOLERANCE,
            "{engine}: amplitude {idx} diverges by {err:.3e} (golden {e}, got {a})"
        );
    }
}

/// Runs a unitary circuit on every exact engine and checks the golden
/// amplitudes (probabilities for the density engine).
fn check_unitary_golden(circuit: &QuantumCircuit, expected: &[Complex]) {
    let sv = StatevectorSimulator::new().run(circuit).expect("statevector");
    assert_amplitudes("statevector", expected, sv.amplitudes());

    for (i, config) in parallel_configs().into_iter().enumerate() {
        let psv = StatevectorSimulator::with_config(config).run(circuit).expect("parallel");
        assert_amplitudes(&format!("parallel[{i}]"), expected, psv.amplitudes());
    }

    let dd = DdSimulator::new().run(circuit).expect("dd");
    assert_amplitudes("dd", expected, &dd.to_statevector());

    let rho = DensityMatrixSimulator::new().run(circuit).expect("density");
    for (idx, (p, amp)) in rho.probabilities().iter().zip(expected).enumerate() {
        assert!(
            (p - amp.norm_sqr()).abs() <= AMP_TOLERANCE,
            "density: probability {idx} is {p}, golden |amp|^2 = {}",
            amp.norm_sqr()
        );
    }
}

#[test]
fn ghz_3_matches_golden_amplitudes_on_every_engine() {
    let circuit = qukit::aqua::circuits::ghz_circuit(3);
    let expected = read_amplitudes("ghz_3.amps", 3);
    check_unitary_golden(&circuit, &expected);

    // GHZ is Clifford: the stabilizer tableau must sample only the two
    // golden outcomes, in near-equal proportion.
    let mut measured = circuit.clone();
    measured.measure_all();
    let shots = 4096;
    let counts = StabilizerSimulator::new().with_seed(3).run(&measured, shots).expect("stabilizer");
    assert_eq!(counts.total(), shots);
    for (outcome, n) in counts.iter() {
        assert!(outcome == 0 || outcome == 7, "stabilizer sampled impossible outcome {outcome}");
        let p = n as f64 / shots as f64;
        assert!((p - 0.5).abs() < 0.05, "outcome {outcome} frequency {p}");
    }
}

#[test]
fn grover_2q_matches_golden_amplitudes_on_every_engine() {
    let circuit = qukit::aqua::grover::grover_circuit(2, &[3], Some(1)).expect("grover circuit");
    let expected = read_amplitudes("grover_2q.amps", 2);
    check_unitary_golden(&circuit, &expected);

    // Sampling must find the marked state every single shot, on the
    // serial and on the parallel sampled path.
    let mut measured = circuit.clone();
    measured.measure_all();
    for config in [
        ParallelConfig::serial(),
        ParallelConfig { threads: 4, chunk_qubits: 2, fusion: true, simd: true },
    ] {
        let counts = QasmSimulator::new()
            .with_seed(9)
            .with_parallel(config)
            .run(&measured, 512)
            .expect("sampled grover");
        assert_eq!(counts.get("11"), 512, "grover must always measure the marked state");
    }
}

#[test]
fn teleporting_one_matches_golden_counts_on_serial_and_parallel_paths() {
    let circuit = qukit::aqua::teleportation::teleport_circuit(&[(qukit::Gate::X, 0)])
        .expect("teleport circuit");
    let golden = read_counts("teleport_x.counts");
    let total_p: f64 = golden.iter().map(|(_, p)| p).sum();
    assert!((total_p - 1.0).abs() < 1e-12, "golden distribution must sum to 1");

    let shots = 4096;
    let configs = [
        ParallelConfig::serial(),
        ParallelConfig { threads: 2, chunk_qubits: 13, fusion: false, simd: false },
        ParallelConfig { threads: 4, chunk_qubits: 2, fusion: true, simd: true },
    ];
    for (i, config) in configs.into_iter().enumerate() {
        let counts = QasmSimulator::new()
            .with_seed(21)
            .with_parallel(config)
            .run(&circuit, shots)
            .expect("teleport run");
        assert_eq!(counts.total(), shots);
        // Only golden outcomes may appear (the teleported bit is always
        // 1), and each must be near its golden probability.
        for (outcome, n) in counts.iter() {
            let bits = counts.to_bitstring(outcome);
            let p = n as f64 / shots as f64;
            let golden_p = golden
                .iter()
                .find(|(b, _)| *b == bits)
                .unwrap_or_else(|| panic!("config {i}: impossible outcome {bits} ({n} shots)"))
                .1;
            assert!(
                (p - golden_p).abs() < 0.05,
                "config {i}: outcome {bits} frequency {p:.4}, golden {golden_p}"
            );
        }
    }
}
