//! The paper tables of `EXPERIMENTS.md`, printed by `qukit bench --paper`.
//!
//! One function per `EXPERIMENTS.md` section renders that section's
//! tables as markdown, so the document can be regenerated by pasting the
//! command's output. Seeded cells use fixed seeds and reproduce bit for
//! bit; timing cells are the minimum over `repeats` runs of
//! [`min_wall`]. The tables with neither timing nor sampling (Fig. 3,
//! Fig. 4, the §V-B sweep and the optimization-level ablation) are cheap
//! enough to check against `EXPERIMENTS.md` in this module's tests.

use crate::baseline::min_wall;
use crate::{entangler, ghz, mapping_suite, qft, random_circuit};
use qukit::aer::density::DensityMatrixSimulator;
use qukit::aer::noise::{NoiseModel, QuantumError, ReadoutError};
use qukit::aer::simulator::{QasmSimulator, StatevectorSimulator};
use qukit::aqua::operator::{h2_hamiltonian, transverse_field_ising};
use qukit::aqua::optimizers::{NelderMead, Optimizer, Spsa};
use qukit::aqua::vqe::{HardwareEfficientAnsatz, Vqe};
use qukit::dd::simulator::DdSimulator;
use qukit::ignis::mitigation::MeasurementFilter;
use qukit::ignis::rb::{run_rb, RbConfig};
use qukit::terra::circuit::fig1_circuit;
use qukit::terra::coupling::CouplingMap;
use qukit::terra::transpiler::decompose::elementary_gate_count;
use qukit::terra::transpiler::{transpile, MapperKind, TranspileOptions, TranspileResult};
use qukit::terra::{draw, qasm};
use qukit::QuantumCircuit;
use std::fmt::Write as _;

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

/// The three routers the mapping tables compare, with their table labels.
const MAPPERS: [(MapperKind, &str); 3] =
    [(MapperKind::Basic, "basic"), (MapperKind::Lookahead, "lookahead"), (MapperKind::AStar, "A*")];

/// Every paper table, one `##` section per `EXPERIMENTS.md` section.
pub fn render(repeats: usize) -> String {
    let sections = [
        ("Fig. 1 — OpenQASM listing and circuit diagram", fig1(repeats)),
        ("Fig. 3 — matrix vs decision diagram", fig3()),
        ("Fig. 4 — naive vs improved mapping of Fig. 1 onto QX4", fig4() + &fig4_times(repeats)),
        ("§V-B claim — search-based mapping reduces added gates", mapping_overhead()),
        ("§V-A claim — DD simulation vs array simulation", dd_vs_statevector(repeats)),
        ("§III (Aer) claim — noise deteriorates results", aer_noise()),
        ("§III (Aqua) claim — VQE", aqua_vqe()),
        ("§III (Ignis) claim — RB / tomography / mitigation", ignis_rb()),
        ("Ablation — optimization levels", optimization_levels()),
        ("Ablation — DD compute-table caching", dd_cache(repeats)),
    ];
    let mut out = String::new();
    for (heading, body) in sections {
        let _ = write!(out, "## {heading}\n\n{body}\n");
    }
    out
}

/// Appends a markdown table; `header` and each row hold their cells
/// separated by ` | `.
fn table(out: &mut String, header: &str, rows: impl IntoIterator<Item = String>) {
    let _ = writeln!(out, "| {header} |\n|{}", "---|".repeat(header.split(" | ").count()));
    for row in rows {
        let _ = writeln!(out, "| {row} |");
    }
}

/// Seconds as microseconds with one decimal.
fn micros(seconds: f64) -> String {
    format!("{:.1}", seconds * 1e6)
}

/// `circ` with a final measurement of every qubit.
fn measured(mut circ: QuantumCircuit) -> QuantumCircuit {
    circ.measure_all();
    circ
}

/// Transpiles `circ` onto `device` with `mapper` at `level`.
fn route(
    circ: &QuantumCircuit,
    device: &CouplingMap,
    mapper: MapperKind,
    level: u8,
) -> TranspileResult {
    let options = TranspileOptions {
        coupling_map: Some(device.clone()),
        mapper,
        optimization_level: level,
        ..TranspileOptions::default()
    };
    transpile(circ, &options).expect("transpiles")
}

/// Fig. 1: the listing round trip, the circuit's size, its diagram, and
/// the OpenQASM front end's parse and emit times.
fn fig1(repeats: usize) -> String {
    let circ = fig1_circuit();
    let diagram = draw::draw(&circ);
    let (parse, parsed) =
        min_wall(repeats, || qasm::parse(FIG1_QASM).expect("the Fig. 1a listing parses"));
    let (emit, emitted) = min_wall(repeats, || qasm::emit(&circ));
    let mut out = String::new();
    table(
        &mut out,
        "check | measured",
        [
            format!("`qasm::emit` of the built circuit is the listing | {}", emitted == FIG1_QASM),
            format!(
                "`qasm::parse` of the listing is the built circuit | {}",
                parsed.instructions() == circ.instructions()
            ),
            format!(
                "gates / CNOTs / depth | {} / {} / {}",
                circ.num_gates(),
                circ.count_ops()["cx"],
                circ.depth()
            ),
            format!("diagram wires | {}", diagram.lines().count()),
            format!("parse (µs) | {}", micros(parse)),
            format!("emit (µs) | {}", micros(emit)),
        ],
    );
    let _ = write!(out, "\n```text\n{diagram}```\n");
    out
}

/// Fig. 3: dense entry counts against DD node counts, for circuit
/// unitaries and for final states.
fn fig3() -> String {
    let row = |circ: &QuantumCircuit, dense: u128, nodes: usize| {
        let ratio = dense as f64 / nodes as f64;
        format!("{} | {} | {dense} | {nodes} | {ratio:.1}×", circ.name(), circ.num_qubits())
    };
    let mut out = String::from("Circuit unitaries (matrix DD):\n\n");
    let unitaries = [3usize, 6, 9, 12].map(ghz).into_iter().chain([3usize, 5, 7].map(qft));
    table(
        &mut out,
        "circuit | n | dense entries | DD nodes | ratio",
        unitaries.map(|circ| {
            let (package, edge) = DdSimulator::new().build_unitary(&circ).expect("unitary");
            row(&circ, 1 << (2 * circ.num_qubits()), package.matrix_nodes(edge))
        }),
    );
    out.push_str("\nFinal states (vector DD):\n\n");
    let states = [8usize, 12, 16, 20]
        .map(ghz)
        .into_iter()
        .chain([6usize, 10].map(|n| entangler(n, 2)))
        .chain([6usize, 8].map(|n| random_circuit(n, 60, 7)));
    table(
        &mut out,
        "circuit | n | dense amplitudes | DD nodes | ratio",
        states.map(|circ| {
            let nodes = DdSimulator::new().run(&circ).expect("simulable").node_count();
            row(&circ, 1 << circ.num_qubits(), nodes)
        }),
    );
    out
}

/// Fig. 4: the Fig. 1 circuit mapped onto QX4 by every router at every
/// optimization level; basic at level 0 is the paper's naive flow (4a).
fn fig4() -> String {
    let circ = fig1_circuit();
    let qx4 = CouplingMap::ibm_qx4();
    let mut rows = Vec::new();
    let mut sizes = Vec::new();
    for (mapper, label) in MAPPERS {
        for level in 0u8..=3 {
            let mapped = route(&circ, &qx4, mapper, level);
            let gates = mapped.circuit.num_gates();
            let cx = mapped.circuit.count_ops().get("cx").copied().unwrap_or(0);
            let (swaps, depth) = (mapped.num_swaps, mapped.circuit.depth());
            rows.push(format!(
                "{label} | {level} | {gates} | {cx} | {} | {swaps} | {depth}",
                gates - cx
            ));
            sizes.push(gates);
        }
    }
    let mut out = format!(
        "Input: {} gates ({} CNOTs), depth {}.\n\n",
        circ.num_gates(),
        circ.count_ops()["cx"],
        circ.depth()
    );
    table(&mut out, "mapper | opt | gates | cx | 1q | swaps | depth", rows);
    let (naive, best) = (sizes[0], sizes.iter().copied().min().unwrap_or(0));
    let _ = writeln!(
        out,
        "\nNaive flow (basic, opt 0): {naive} gates; best: {best} gates ({:.0} % fewer).",
        100.0 * (1.0 - best as f64 / naive as f64)
    );
    out
}

/// Fig. 4 timings: each router transpiling the Fig. 1 circuit onto QX4 at
/// optimization level 3.
fn fig4_times(repeats: usize) -> String {
    let (circ, qx4) = (fig1_circuit(), CouplingMap::ibm_qx4());
    let mut out = String::from("\nTranspile time at opt 3:\n\n");
    table(
        &mut out,
        "mapper | transpile (µs)",
        MAPPERS.map(|(mapper, label)| {
            let (wall, _) = min_wall(repeats, || route(&circ, &qx4, mapper, 3));
            format!("{label} | {}", micros(wall))
        }),
    );
    out
}

/// §V-B: elementary-basis gate counts of the benchmark suite mapped onto
/// QX5 at optimization level 1 by each router.
fn mapping_overhead() -> String {
    let qx5 = CouplingMap::ibm_qx5();
    // Totals of the base column, then of each router's column.
    let mut totals = [0usize; 4];
    let mut rows = Vec::new();
    for (name, circ) in mapping_suite(10) {
        let routed = MAPPERS.map(|(mapper, _)| route(&circ, &qx5, mapper, 1).circuit.num_gates());
        let counts: Vec<usize> =
            std::iter::once(elementary_gate_count(&circ)).chain(routed).collect();
        for (total, count) in totals.iter_mut().zip(&counts) {
            *total += count;
        }
        rows.push(format!("{name} | {}", join(&counts, |c| c.to_string())));
    }
    rows.push(format!("**total** | {}", join(&totals, |t| format!("**{t}**"))));
    let mut out = String::new();
    table(&mut out, "circuit | base | basic | lookahead | A*", rows);
    let saving = |t: usize| 100.0 * (1.0 - t as f64 / totals[1] as f64);
    let _ = writeln!(
        out,
        "\nTotal gates against basic: lookahead −{:.0} %, A* −{:.0} %.",
        saving(totals[2]),
        saving(totals[3])
    );
    out
}

/// `cells` formatted and joined into table cells.
fn join(cells: &[usize], format: impl Fn(usize) -> String) -> String {
    cells.iter().map(|&c| format(c)).collect::<Vec<_>>().join(" | ")
}

/// §V-A: dense statevector against DD simulation time, then GHZ states
/// far past the dense memory wall on the DD alone.
fn dd_vs_statevector(repeats: usize) -> String {
    let workloads = [10usize, 14, 18]
        .map(ghz)
        .into_iter()
        .chain([10usize, 14].map(|n| entangler(n, 2)))
        .chain([10usize, 12].map(|n| random_circuit(n, 80, 3)));
    let mut out = String::new();
    table(
        &mut out,
        "circuit | n | dense (µs) | DD (µs) | DD nodes | winner",
        workloads.map(|circ| {
            let (dense, _) =
                min_wall(repeats, || StatevectorSimulator::new().run(&circ).expect("dense sim"));
            let (dd, state) = min_wall(repeats, || DdSimulator::new().run(&circ).expect("dd sim"));
            let winner =
                if dd < dense { format!("**DD ({:.0}×)**", dense / dd) } else { "dense".into() };
            format!(
                "{} | {} | {} | {} | {} | {winner}",
                circ.name(),
                circ.num_qubits(),
                micros(dense),
                micros(dd),
                state.node_count()
            )
        }),
    );
    out.push_str("\nBeyond the dense wall (DD only; dense would need 2^n amplitudes):\n\n");
    table(
        &mut out,
        "circuit | DD nodes | DD (µs)",
        [24usize, 32, 48, 64].map(|n| {
            let circ = ghz(n);
            let (dd, state) = min_wall(repeats, || DdSimulator::new().run(&circ).expect("dd sim"));
            format!("{} | {} | {}", circ.name(), state.node_count(), micros(dd))
        }),
    );
    out
}

/// §III (Aer): GHZ and Grover success under growing depolarizing noise,
/// and trajectory sampling against the exact density matrix.
fn aer_noise() -> String {
    let noisy_run = |circ: &QuantumCircuit, p: f64, seed: u64, shots: usize| {
        QasmSimulator::new()
            .with_seed(seed)
            .with_noise(NoiseModel::depolarizing(p / 10.0, p, 0.0))
            .run(circ, shots)
            .expect("simulable")
    };
    let mut out = String::from(
        "GHZ-4 success P(0000) + P(1111) against the CX depolarizing rate p \
         (one-qubit rate p/10, 4000 shots):\n\n",
    );
    let ghz4 = measured(ghz(4));
    table(
        &mut out,
        "p(cx) | success",
        [0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2].map(|p| {
            let counts = noisy_run(&ghz4, p, 1, 4000);
            format!("{p:.3} | {:.4}", counts.probability(0) + counts.probability(0b1111))
        }),
    );
    out.push_str("\nGrover-3 marking |101⟩ under the same noise (4000 shots):\n\n");
    let grover = measured(qukit::aqua::grover::grover_circuit(3, &[5], None).expect("builds"));
    table(
        &mut out,
        "p(cx) | P(marked) | marked is the argmax",
        [0.0, 0.01, 0.02, 0.05, 0.1].map(|p| {
            let counts = noisy_run(&grover, p, 2, 4000);
            format!("{p:.3} | {:.4} | {}", counts.probability(5), counts.most_frequent() == Some(5))
        }),
    );
    out.push_str(
        "\nBell state at p(cx) = 0.05: exact density matrix against 20 000 sampled shots:\n\n",
    );
    let mut bell = QuantumCircuit::new(2);
    bell.h(0).expect("valid");
    bell.cx(0, 1).expect("valid");
    let rho = DensityMatrixSimulator::new()
        .with_noise(NoiseModel::depolarizing(0.005, 0.05, 0.0))
        .run(&bell)
        .expect("runs");
    let counts = noisy_run(&measured(bell), 0.05, 3, 20_000);
    table(
        &mut out,
        "state | exact | sampled",
        (0..4usize).map(|i| {
            let (exact, sampled) = (rho.probabilities()[i], counts.probability(i as u64));
            format!("{i:02b} | {exact:.4} | {sampled:.4}")
        }),
    );
    out
}

/// §III (Aqua): VQE ground-state energies against exact diagonalization.
fn aqua_vqe() -> String {
    let h2 = h2_hamiltonian();
    let exact = h2.min_eigenvalue();
    let ansatz = HardwareEfficientAnsatz::new(2, 1);
    let vqe = Vqe::new(&h2, ansatz);
    let nelder_mead = NelderMead { max_evaluations: 4000, ..NelderMead::new() };
    let spsa = Spsa { iterations: 1000, a: 1.0, c: 0.2, seed: 11 };
    let runs: [(&str, &dyn Optimizer, f64); 2] =
        [("Nelder-Mead", &nelder_mead, 0.1), ("SPSA", &spsa, 0.2)];
    let mut rows: Vec<String> = runs
        .into_iter()
        .map(|(label, optimizer, start)| {
            let r = vqe.run(optimizer, &vec![start; ansatz.num_parameters()]).expect("runs");
            let error = (r.energy - exact).abs();
            format!(
                "H2 @ 0.735 Å ({label}, {} evals) | {:.8} Ha | {exact:.8} Ha | {error:.1e}",
                r.evaluations, r.energy
            )
        })
        .collect();
    for field in [0.25, 0.75, 1.25] {
        let ising = transverse_field_ising(4, 1.0, field);
        let exact = ising.min_eigenvalue();
        let ansatz = HardwareEfficientAnsatz::new(4, 2);
        let nelder_mead = NelderMead { max_evaluations: 6000, ..NelderMead::new() };
        let r = Vqe::new(&ising, ansatz)
            .run(&nelder_mead, &vec![0.3; ansatz.num_parameters()])
            .expect("runs");
        let error = (r.energy - exact).abs();
        rows.push(format!(
            "TFIM-4, J=1, h={field} (Nelder-Mead, {} evals) | {:.6} | {exact:.6} | {error:.1e}",
            r.evaluations, r.energy
        ));
    }
    let mut out = String::new();
    table(&mut out, "problem | VQE | exact | error", rows);
    out
}

/// §III (Ignis): fitted RB decay against the injected gate error, one
/// decay curve, and readout mitigation of a GHZ-3 state.
fn ignis_rb() -> String {
    let gate_noise = |p: f64| {
        let mut noise = NoiseModel::new();
        for name in ["h", "s"] {
            noise.add_all_qubit_error(name, QuantumError::depolarizing(p, 1));
        }
        noise
    };
    let mut out = String::from(
        "Fitted decay against the depolarizing rate on H and S \
         (lengths 1-32, 10 sequences each, 300 shots):\n\n",
    );
    let config =
        RbConfig { lengths: vec![1, 2, 4, 8, 16, 32], samples_per_length: 10, shots: 300, seed: 5 };
    table(
        &mut out,
        "p(gate) | α | error per Clifford",
        [0.002, 0.01, 0.03, 0.08].map(|p| {
            let result = run_rb(&config, &gate_noise(p)).expect("runs");
            format!("{p:.3} | {:.4} | {:.5}", result.alpha, result.error_per_clifford)
        }),
    );
    out.push_str("\nDecay curve at p = 0.03 (default RB configuration):\n\n");
    let result = run_rb(&RbConfig::default(), &gate_noise(0.03)).expect("runs");
    table(&mut out, "length | survival", result.curve.iter().map(|(m, p)| format!("{m} | {p:.3}")));
    out.push_str("\nReadout mitigation, GHZ-3 with a 6 % symmetric flip (6000 shots):\n\n");
    let mut noise = NoiseModel::new();
    noise.set_readout_error(ReadoutError::symmetric(0.06));
    let ghz3 = measured(ghz(3));
    let ideal = QasmSimulator::new().with_seed(1).run(&ghz3, 6000).expect("runs");
    let noisy =
        QasmSimulator::new().with_seed(1).with_noise(noise.clone()).run(&ghz3, 6000).expect("runs");
    let mitigated =
        MeasurementFilter::calibrate(3, &noise, 8000, 2).expect("calibrates").apply(&noisy);
    table(
        &mut out,
        "counts | Hellinger fidelity to ideal",
        [("raw", &noisy), ("mitigated", &mitigated)]
            .map(|(label, counts)| format!("{label} | {:.4}", counts.hellinger_fidelity(&ideal))),
    );
    out
}

/// Ablation: mapped gate count of the benchmark suite on QX5 at each
/// optimization level (lookahead router).
fn optimization_levels() -> String {
    let qx5 = CouplingMap::ibm_qx5();
    let mut out = String::new();
    table(
        &mut out,
        "circuit | level 0 | level 1 | level 2 | level 3",
        mapping_suite(10).into_iter().map(|(name, circ)| {
            let counts = [0u8, 1, 2, 3]
                .map(|level| route(&circ, &qx5, MapperKind::Lookahead, level).circuit.num_gates());
            format!("{name} | {}", join(&counts, |c| c.to_string()))
        }),
    );
    out
}

/// Ablation: DD simulation with the compute tables on and off (the
/// unique tables stay on: they define canonicity).
fn dd_cache(repeats: usize) -> String {
    let mut out = String::new();
    table(
        &mut out,
        "circuit | cached (µs) | uncached (µs) | speedup",
        [ghz(16), qft(8), entangler(10, 3)].map(|circ| {
            let (cached, with) =
                min_wall(repeats, || DdSimulator::new().run(&circ).expect("simulable"));
            let (uncached, without) = min_wall(repeats, || {
                DdSimulator::new().without_cache().run(&circ).expect("simulable")
            });
            assert_eq!(
                with.node_count(),
                without.node_count(),
                "caching must not change the result"
            );
            let speedup = uncached / cached;
            format!("{} | {} | {} | {speedup:.2}×", circ.name(), micros(cached), micros(uncached))
        }),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// These tables have no timing or sampled cells, so every line they
    /// render must appear verbatim in `EXPERIMENTS.md`.
    #[test]
    fn experiments_md_carries_the_deterministic_tables() {
        const DOC: &str = include_str!("../../../EXPERIMENTS.md");
        for rendered in [fig3(), fig4(), mapping_overhead(), optimization_levels()] {
            for line in rendered.lines().filter(|line| !line.is_empty()) {
                assert!(
                    DOC.lines().any(|doc_line| doc_line == line),
                    "EXPERIMENTS.md is missing `{line}`; regenerate it with `qukit bench --paper`"
                );
            }
        }
    }
}
