//! Determinism guarantees of the parallel execution layer.
//!
//! The chunked kernels write every amplitude exactly once per pass from
//! values read in that pass, and shot sampling draws from fixed-size
//! per-batch RNG streams — so for a fixed seed the results are identical
//! whatever the thread count or chunk size. These tests pin that
//! contract, plus a 16-job concurrent stress of the job service running
//! over parallel backends.

use qukit::aer::parallel::ParallelConfig;
use qukit::aer::simulator::QasmSimulator;
use qukit::backend::QasmSimulatorBackend;
use qukit::job::{ExecutorConfig, JobExecutor};
use qukit::provider::Provider;
use qukit::QuantumCircuit;
use std::time::Duration;

/// A non-Clifford 6-qubit workload with terminal measurements (the
/// one-pass sampled path).
fn sampled_circuit() -> QuantumCircuit {
    let mut circ = QuantumCircuit::new(6);
    for q in 0..6 {
        circ.h(q).unwrap();
    }
    for q in 0..5 {
        circ.cx(q, q + 1).unwrap();
    }
    for q in 0..6 {
        circ.rz(0.1 + 0.3 * q as f64, q).unwrap();
        circ.t(q).unwrap();
    }
    circ.ccx(0, 2, 4).unwrap();
    circ.measure_all();
    circ
}

/// A circuit with reset + a conditioned gate: forces the per-shot
/// trajectory path (no one-pass sampling possible).
fn trajectory_circuit() -> QuantumCircuit {
    let mut circ = QuantumCircuit::with_size(3, 3);
    circ.h(0).unwrap();
    circ.cx(0, 1).unwrap();
    circ.measure(0, 0).unwrap();
    circ.reset(0).unwrap();
    circ.append_conditional(qukit::Gate::X, &[2], "c", 1).unwrap();
    circ.h(0).unwrap();
    circ.measure(1, 1).unwrap();
    circ.measure(2, 2).unwrap();
    circ
}

fn counts_vec(counts: &qukit::Counts) -> Vec<(u64, usize)> {
    counts.iter().collect()
}

#[test]
fn sampled_counts_are_identical_across_thread_and_chunk_configurations() {
    let circuit = sampled_circuit();
    let shots = 1024;
    let reference = QasmSimulator::new()
        .with_seed(99)
        .with_parallel(ParallelConfig { threads: 1, chunk_qubits: 13, fusion: true, simd: false })
        .run(&circuit, shots)
        .expect("reference run");
    assert_eq!(reference.total(), shots);
    for threads in [1, 2, 4, 8] {
        for chunk_qubits in [2, 13] {
            for simd in [false, true] {
                let config = ParallelConfig { threads, chunk_qubits, fusion: true, simd };
                let counts = QasmSimulator::new()
                    .with_seed(99)
                    .with_parallel(config)
                    .run(&circuit, shots)
                    .expect("parallel run");
                assert_eq!(
                    counts_vec(&reference),
                    counts_vec(&counts),
                    "counts changed at threads {threads}, chunk_qubits {chunk_qubits}, simd {simd}"
                );
            }
        }
    }
}

#[test]
fn fusion_does_not_change_the_sampled_distribution_stream() {
    // Fusion reorders no gates and changes no amplitudes (to rounding),
    // and sampling depends only on the CDF — so the same seed must give
    // the same counts with fusion on or off.
    let circuit = sampled_circuit();
    let run = |fusion: bool| {
        QasmSimulator::new()
            .with_seed(1234)
            .with_parallel(ParallelConfig { threads: 2, chunk_qubits: 4, fusion, simd: true })
            .run(&circuit, 512)
            .expect("run")
    };
    assert_eq!(counts_vec(&run(false)), counts_vec(&run(true)));
}

#[test]
fn trajectory_counts_are_identical_across_thread_counts() {
    let circuit = trajectory_circuit();
    let shots = 640;
    let reference = QasmSimulator::new()
        .with_seed(5)
        .with_parallel(ParallelConfig { threads: 2, chunk_qubits: 13, fusion: false, simd: true })
        .run(&circuit, shots)
        .expect("reference run");
    assert_eq!(reference.total(), shots);
    for threads in [3, 4, 8] {
        for chunk_qubits in [2, 13] {
            let config = ParallelConfig { threads, chunk_qubits, fusion: false, simd: true };
            let counts = QasmSimulator::new()
                .with_seed(5)
                .with_parallel(config)
                .run(&circuit, shots)
                .expect("trajectory run");
            assert_eq!(
                counts_vec(&reference),
                counts_vec(&counts),
                "trajectory counts changed at threads {threads}, chunk_qubits {chunk_qubits}"
            );
        }
    }
}

/// 16 concurrent submissions through a 4-worker executor whose backends
/// all run the 4-thread parallel kernels: thread-pool-inside-thread-pool
/// stress. Every job must complete with full shot totals and the exact
/// same counts (fixed backend seed, deterministic sampling).
#[test]
fn sixteen_concurrent_jobs_over_parallel_backends_are_deterministic() {
    let mut provider = Provider::new();
    provider.register(Box::new(QasmSimulatorBackend::new().with_seed(77)));
    let executor = JobExecutor::with_config(
        provider,
        ExecutorConfig {
            workers: 4,
            queue_capacity: 32,
            parallel: Some(ParallelConfig {
                threads: 4,
                chunk_qubits: 2,
                fusion: true,
                simd: true,
            }),
            ..Default::default()
        },
    );
    let circuit = sampled_circuit();
    let shots = 256;
    let jobs: Vec<_> = (0..16)
        .map(|_| executor.submit(&circuit, "qasm_simulator", shots).expect("submit"))
        .collect();
    let mut all_counts = Vec::new();
    for job in &jobs {
        let counts = job.result(Duration::from_secs(120)).expect("job completes");
        assert_eq!(counts.total(), shots);
        all_counts.push(counts_vec(&counts));
    }
    for (i, counts) in all_counts.iter().enumerate() {
        assert_eq!(&all_counts[0], counts, "job {i} diverged from job 0");
    }
}

/// Seeded noisy runs on the `ibmqx4` fake device: every shot is a
/// stochastic trajectory (transpiled GHZ-3 under depolarizing and readout
/// noise), on the serial loop and on the shot-parallel batched path. The
/// counts were captured before the trajectory loops started reusing one
/// amplitude buffer per batch; reusing the buffer must leave the RNG
/// stream, and so every count, untouched.
#[test]
fn seeded_noisy_ibmqx4_counts_are_pinned() {
    use qukit::{Backend, FakeDevice};
    let mut measured = qukit::aqua::circuits::ghz_circuit(3);
    measured.measure_all();
    let pinned: [(usize, [(u64, usize); 8]); 2] = [
        (1, [(0, 228), (1, 14), (2, 14), (3, 10), (4, 11), (5, 4), (6, 8), (7, 223)]),
        (2, [(0, 226), (1, 10), (2, 11), (3, 9), (4, 11), (5, 8), (6, 12), (7, 225)]),
    ];
    for (threads, expected) in pinned {
        let mut device = FakeDevice::ibmqx4().with_seed(41);
        device.set_parallel(ParallelConfig {
            threads,
            chunk_qubits: 13,
            fusion: false,
            simd: true,
        });
        let counts = device.run(&measured, 512).expect("noisy run");
        assert_eq!(counts_vec(&counts), expected, "threads={threads}");
    }
}
