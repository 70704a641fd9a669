//! One test per paper artifact — the executable form of EXPERIMENTS.md.
//!
//! Each test asserts the *shape* of the corresponding figure or claim of
//! "IBM's Qiskit Tool Chain" (DATE 2019); `qukit bench --paper`
//! (`qukit_bench::paper`) prints the quantitative tables.

use qukit_terra::circuit::{fig1_circuit, QuantumCircuit};
use qukit_terra::coupling::CouplingMap;
use qukit_terra::qasm;
use qukit_terra::transpiler::{satisfies_coupling, transpile, MapperKind, TranspileOptions};

/// The verbatim OpenQASM listing of the paper's Fig. 1a.
const FIG1_QASM: &str = r#"OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[2];
cx q[2],q[3];
cx q[0],q[1];
h q[1];
cx q[1],q[2];
t q[0];
cx q[2],q[0];
cx q[0],q[1];
"#;

#[test]
fn fig1_qasm_parses_to_the_builder_circuit_and_round_trips() {
    let parsed = qasm::parse(FIG1_QASM).expect("the paper's listing is valid OpenQASM 2.0");
    let built = fig1_circuit();
    assert_eq!(parsed.instructions(), built.instructions());
    // Emission reproduces the exact listing.
    assert_eq!(qasm::emit(&built), FIG1_QASM);
    // And the diagram has the right shape (Fig. 1b: 4 wires, depth 5).
    assert_eq!(built.depth(), 5);
    let art = qukit_terra::draw::draw(&built);
    assert_eq!(art.lines().count(), 4);
}

#[test]
fn fig2_qx4_coupling_map_facts() {
    let qx4 = CouplingMap::ibm_qx4();
    // Fig. 2: exactly the six arrows, and the specific constraint the
    // paper's Example discusses — q2 may control q0/q1/q4, q3 controls
    // q2 and q4, q1 controls q0.
    let expected = [(1, 0), (2, 0), (2, 1), (3, 2), (3, 4), (2, 4)];
    assert_eq!(qx4.num_edges(), expected.len());
    for (c, t) in expected {
        assert!(qx4.has_edge(c, t), "Q{c}->Q{t} missing");
    }
    // "the QX4 architecture prohibits e.g. the interaction between q2 as a
    // control and q3 as a target in the second gate (only the opposite is
    // allowed)".
    assert!(!qx4.has_edge(2, 3));
    assert!(qx4.has_edge(3, 2));
    // "or between q0 as a control and q1 as a target in the third gate".
    assert!(!qx4.has_edge(0, 1));
    assert!(qx4.has_edge(1, 0));
}

#[test]
fn fig3_dd_is_smaller_than_dense_matrix() {
    // The 2^n x 2^n matrix of a structured 3-qubit computation vs its DD.
    let mut circ = QuantumCircuit::new(3);
    circ.h(0).unwrap();
    circ.cx(0, 1).unwrap();
    circ.cx(1, 2).unwrap();
    let (package, edge) = qukit_dd::simulator::DdSimulator::new().build_unitary(&circ).unwrap();
    let dense_entries = 8 * 8;
    let dd_nodes = package.matrix_nodes(edge);
    assert!(
        dd_nodes < dense_entries,
        "DD ({dd_nodes} nodes) must beat the dense matrix ({dense_entries} entries)"
    );
    // And the DD still represents the same unitary exactly.
    let reconstructed = package.to_matrix(edge);
    let expected = qukit_terra::reference::unitary(&circ).unwrap();
    assert!(reconstructed.approx_eq_eps(&expected, 1e-9));
}

#[test]
fn fig3_scaling_dd_linear_vs_dense_exponential() {
    // GHZ state: dense 2^n amplitudes vs 2n-1 DD nodes.
    for n in [6usize, 10, 14] {
        let circ = qukit_aqua::circuits::ghz_circuit(n);
        let state = qukit_dd::simulator::DdSimulator::new().run(&circ).unwrap();
        assert_eq!(state.node_count(), 2 * n - 1, "n = {n}");
        assert!(state.node_count() < (1 << n), "compression must win at n = {n}");
    }
}

#[test]
fn fig4a_naive_mapping_has_the_paper_structure() {
    // The naive flow (basic mapper, no optimization) on Fig. 1 / QX4:
    // direction fixes appear as the H-conjugations of Fig. 4a.
    let qx4 = CouplingMap::ibm_qx4();
    let options = TranspileOptions {
        coupling_map: Some(qx4.clone()),
        mapper: MapperKind::Basic,
        optimization_level: 0,
        ..TranspileOptions::default()
    };
    let result = transpile(&fig1_circuit(), &options).unwrap();
    assert!(satisfies_coupling(&result.circuit, &qx4));
    let ops = result.circuit.count_ops();
    // The original 5 CNOTs survive (plus any SWAP expansion), and the
    // direction fixes add Hadamards: the naive flow is strictly larger
    // than the input.
    assert!(ops["cx"] >= 5);
    assert!(ops.get("h").copied().unwrap_or(0) > 2, "H-conjugation expected");
    assert!(result.circuit.num_gates() > fig1_circuit().num_gates());
}

#[test]
fn fig4b_optimized_flow_beats_naive() {
    let qx4 = CouplingMap::ibm_qx4();
    let naive = TranspileOptions {
        coupling_map: Some(qx4.clone()),
        mapper: MapperKind::Basic,
        optimization_level: 0,
        ..TranspileOptions::default()
    };
    let smart = TranspileOptions {
        coupling_map: Some(qx4.clone()),
        mapper: MapperKind::AStar,
        optimization_level: 3,
        ..TranspileOptions::default()
    };
    let fig4a = transpile(&fig1_circuit(), &naive).unwrap();
    let fig4b = transpile(&fig1_circuit(), &smart).unwrap();
    assert!(satisfies_coupling(&fig4b.circuit, &qx4));
    assert!(
        fig4b.circuit.num_gates() < fig4a.circuit.num_gates(),
        "optimized {} must beat naive {}",
        fig4b.circuit.num_gates(),
        fig4a.circuit.num_gates()
    );
    assert!(fig4b.num_swaps <= fig4a.num_swaps);
}

#[test]
fn aer_claim_noise_monotonically_degrades_results() {
    // Section III (Aer): noisy simulation deteriorates results; stronger
    // noise deteriorates them more.
    let mut ghz = QuantumCircuit::with_size(3, 3);
    ghz.h(0).unwrap();
    ghz.cx(0, 1).unwrap();
    ghz.cx(1, 2).unwrap();
    for q in 0..3 {
        ghz.measure(q, q).unwrap();
    }
    let mut successes = Vec::new();
    for p in [0.0, 0.02, 0.08, 0.2] {
        let noise = qukit_aer::noise::NoiseModel::depolarizing(p / 10.0, p, 0.0);
        let counts = qukit_aer::simulator::QasmSimulator::new()
            .with_seed(17)
            .with_noise(noise)
            .run(&ghz, 4000)
            .unwrap();
        successes.push(counts.probability(0) + counts.probability(0b111));
    }
    assert!((successes[0] - 1.0).abs() < 1e-9, "clean run must be exact");
    for w in successes.windows(2) {
        assert!(w[1] < w[0] + 0.02, "success must not grow with noise: {successes:?}");
    }
    assert!(successes[3] < 0.85, "strong noise must visibly hurt: {successes:?}");
}

#[test]
fn aqua_claim_vqe_reaches_chemical_accuracy_on_h2() {
    // Section III (Aqua): VQE as the flagship application.
    let h2 = qukit_aqua::operator::h2_hamiltonian();
    let exact = h2.min_eigenvalue();
    let ansatz = qukit_aqua::vqe::HardwareEfficientAnsatz::new(2, 1);
    let vqe = qukit_aqua::vqe::Vqe::new(&h2, ansatz);
    let optimizer = qukit_aqua::optimizers::NelderMead {
        max_evaluations: 4000,
        ..qukit_aqua::optimizers::NelderMead::new()
    };
    let result = vqe.run(&optimizer, &vec![0.1; ansatz.num_parameters()]).unwrap();
    // Chemical accuracy: 1.6 mHa.
    assert!((result.energy - exact).abs() < 1.6e-3, "VQE {} vs exact {exact}", result.energy);
}

#[test]
fn ignis_claim_rb_decay_reflects_injected_noise() {
    // Section III (Ignis): randomized benchmarking characterizes noise.
    let mut noise = qukit_aer::noise::NoiseModel::new();
    for name in ["h", "s"] {
        noise.add_all_qubit_error(name, qukit_aer::noise::QuantumError::depolarizing(0.03, 1));
    }
    let config = qukit_ignis::rb::RbConfig {
        lengths: vec![1, 2, 4, 8, 16, 32],
        samples_per_length: 10,
        shots: 300,
        seed: 23,
    };
    let result = qukit_ignis::rb::run_rb(&config, &noise).unwrap();
    assert!(result.alpha < 1.0 && result.alpha > 0.7, "alpha {}", result.alpha);
    assert!(result.error_per_clifford > 0.0);
    // Ideal backend: no decay.
    let ideal = qukit_ignis::rb::run_rb(&config, &qukit_aer::noise::NoiseModel::new()).unwrap();
    for &(_, p) in &ideal.curve {
        assert_eq!(p, 1.0, "ideal RB must not decay");
    }
}

#[test]
fn developer_claim_dd_and_array_simulators_agree() {
    // Section V-A: the DD simulator is a drop-in replacement — results
    // must agree with the array-based simulator.
    let circ = fig1_circuit();
    let sv = qukit_aer::simulator::StatevectorSimulator::new().run(&circ).unwrap();
    let dd = qukit_dd::simulator::DdSimulator::new().run(&circ).unwrap();
    for (idx, amp) in sv.amplitudes().iter().enumerate() {
        assert!(dd.amplitude(idx).approx_eq_eps(*amp, 1e-9), "index {idx}");
    }
}
