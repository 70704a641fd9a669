//! Parallel/fused-kernel equivalence: the gate under which the parallel
//! execution layer ships.
//!
//! 200 seeded random circuits from the conformance generator run on the
//! statevector simulator in its default configuration and again at every
//! combination of threads ∈ {1, 2, 4} × fusion on/off × SIMD on/off.
//! Chunks are forced tiny (`chunk_qubits: 2`) so even 2-qubit circuits
//! split across workers. Every amplitude must agree to 1e-10, and the
//! SIMD kernels must agree with the scalar kernels bit for bit.

use qukit::aer::parallel::ParallelConfig;
use qukit::aer::simulator::StatevectorSimulator;
use qukit_conformance::{CircuitGenerator, GateSet, GeneratorConfig};

const CASES: usize = 200;
const TOLERANCE: f64 = 1e-10;

fn generator(seed: u64) -> CircuitGenerator {
    CircuitGenerator::new(
        seed,
        GeneratorConfig {
            gate_set: GateSet::Full,
            min_qubits: 1,
            max_qubits: 5,
            max_depth: 16,
            with_measurements: false,
            with_conditionals: false,
        },
    )
}

#[test]
fn parallel_and_fused_kernels_match_serial_on_200_random_circuits() {
    let mut generator = generator(42);
    for case in 0..CASES {
        let circuit = generator.next_circuit();
        let default = StatevectorSimulator::new().run(&circuit).expect("default run");
        for threads in [1, 2, 4] {
            for fusion in [false, true] {
                let scalar = StatevectorSimulator::with_config(ParallelConfig {
                    threads,
                    chunk_qubits: 2,
                    fusion,
                    simd: false,
                })
                .run(&circuit)
                .expect("parallel run (scalar)");
                let simd = StatevectorSimulator::with_config(ParallelConfig {
                    threads,
                    chunk_qubits: 2,
                    fusion,
                    simd: true,
                })
                .run(&circuit)
                .expect("parallel run (simd)");
                assert_eq!(default.num_qubits(), scalar.num_qubits());
                for (idx, (s, p)) in
                    default.amplitudes().iter().zip(scalar.amplitudes()).enumerate()
                {
                    let err = (*s - *p).norm();
                    assert!(
                        err <= TOLERANCE,
                        "case {case} (threads {threads}, fusion {fusion}): amplitude {idx} \
                         diverges by {err:.3e} ({s} vs {p})\n{circuit:?}"
                    );
                }
                // The SIMD kernels replicate the scalar complex arithmetic
                // exactly, so this comparison is bitwise, not tolerance-based.
                assert_eq!(
                    scalar.amplitudes(),
                    simd.amplitudes(),
                    "case {case} (threads {threads}, fusion {fusion}): SIMD kernels \
                     are not bit-identical to scalar kernels\n{circuit:?}"
                );
            }
        }
    }
}

/// The same sweep through the `QasmSimulator` sampling front-end: the
/// parallel sampled path must see the same distribution the serial path
/// samples from. Seeds differ between the two RNG schemes, so this
/// compares empirical histograms statistically (Hellinger fidelity), not
/// count-for-count.
#[test]
fn sampled_histograms_stay_faithful_under_parallel_execution() {
    use qukit::aer::simulator::QasmSimulator;
    let mut generator = generator(7);
    for case in 0..20 {
        let mut circuit = generator.next_circuit();
        circuit.measure_all();
        let shots = 2048;
        let serial = QasmSimulator::new()
            .with_seed(11)
            .with_parallel(ParallelConfig::serial())
            .run(&circuit, shots)
            .expect("serial run");
        let parallel = QasmSimulator::new()
            .with_seed(11)
            .with_parallel(ParallelConfig { threads: 4, chunk_qubits: 2, fusion: true, simd: true })
            .run(&circuit, shots)
            .expect("parallel run");
        assert_eq!(parallel.total(), shots);
        let fidelity = serial.hellinger_fidelity(&parallel);
        assert!(
            fidelity > 0.97,
            "case {case}: serial/parallel histogram fidelity {fidelity:.4}\n{circuit:?}"
        );
    }
}
