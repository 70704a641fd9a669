//! GC stress acceptance test for the rebuilt QMDD core (PR 5).
//!
//! A long random circuit (≥10k gates at 8 qubits) would have grown the old
//! append-only node arenas without bound; the refcounted arena must keep
//! peak live nodes bounded by collecting dead intermediates, report the
//! reclaims through the observability gauges, and still produce final
//! amplitudes that match the dense statevector reference to 1e-10.

use qukit::dd::simulator::DdSimulator;
use qukit::terra::circuit::QuantumCircuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const QUBITS: usize = 8;
const GATES: usize = 10_000;

/// Seeded measurement-free random circuit over the Clifford+T set. The
/// discrete gate set keeps every edge weight a product of exact constants,
/// so 10k gates of floating-point accumulation stay within the 1e-10
/// equivalence budget.
fn stress_circuit(seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circ = QuantumCircuit::new(QUBITS);
    for _ in 0..GATES {
        match rng.gen_range(0..6) {
            0 => {
                circ.h(rng.gen_range(0..QUBITS)).expect("valid");
            }
            1 => {
                circ.t(rng.gen_range(0..QUBITS)).expect("valid");
            }
            2 => {
                circ.s(rng.gen_range(0..QUBITS)).expect("valid");
            }
            3 => {
                circ.x(rng.gen_range(0..QUBITS)).expect("valid");
            }
            4 => {
                circ.z(rng.gen_range(0..QUBITS)).expect("valid");
            }
            _ => {
                let a = rng.gen_range(0..QUBITS);
                let b = (a + rng.gen_range(1..QUBITS)) % QUBITS;
                circ.cx(a, b).expect("valid");
            }
        }
    }
    circ
}

#[test]
fn long_random_circuit_is_gc_bounded_and_amplitude_exact() {
    let circ = stress_circuit(0xDD5);
    assert!(circ.num_gates() >= GATES);

    // A scope of its own: GC runs of concurrent tests cannot land in it.
    let scope = qukit_obs::Scope::new();
    let state = {
        let _installed = scope.install();
        DdSimulator::new().run(&circ).expect("dd run")
    };
    let snapshot = scope.snapshot();

    // The GC actually ran and reclaimed dead nodes.
    let stats = state.package.stats();
    assert!(stats.gc_runs > 0, "10k gates must cross the GC threshold");
    assert!(stats.gc_reclaimed > 0, "collections must reclaim garbage");

    // Peak live nodes are bounded: an 8-qubit state DD holds < 2^8 nodes
    // and the gate/intermediate working set is threshold-bounded, far
    // below the hundreds of thousands of nodes 10k gates allocate in
    // total. (The adaptive threshold starts at 16384 and only doubles
    // when a collection fails to free half the arena.)
    let peak = state.package.peak_live_nodes();
    let total_allocated = stats.unique_misses as usize;
    assert!(peak < 65_536, "peak live nodes {peak} must stay bounded");
    assert!(
        peak < total_allocated / 2,
        "peak live {peak} must be well below total allocations {total_allocated}"
    );

    // The reclaims are visible through the new observability gauges.
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let gauge = |name: &str| snapshot.gauges.get(name).copied().unwrap_or(0.0);
    assert_eq!(counter("qukit_dd_gc_runs_total"), stats.gc_runs);
    assert_eq!(counter("qukit_dd_gc_reclaimed_total"), stats.gc_reclaimed);
    assert!(gauge("qukit_dd_peak_live_nodes") >= gauge("qukit_dd_live_nodes"));
    assert!((gauge("qukit_dd_peak_live_nodes") - peak as f64).abs() < 0.5);

    // Final amplitudes match the dense statevector engine to 1e-10.
    let expected = qukit::terra::reference::statevector(&circ).expect("reference");
    let actual = state.to_statevector();
    assert_eq!(actual.len(), expected.len());
    for (i, (a, b)) in actual.iter().zip(&expected).enumerate() {
        assert!(
            a.approx_eq_eps(*b, 1e-10),
            "amplitude {i} diverged after {GATES} gates: {a} vs {b}"
        );
    }
}

#[test]
fn gc_runs_are_deterministic() {
    // Same circuit, two runs: identical stats and identical final state —
    // the GC must not introduce nondeterminism.
    let circ = stress_circuit(77);
    let a = DdSimulator::new().run(&circ).expect("dd run");
    let b = DdSimulator::new().run(&circ).expect("dd run");
    assert_eq!(a.package.stats(), b.package.stats());
    assert_eq!(a.root, b.root);
    let sa = a.to_statevector();
    let sb = b.to_statevector();
    for (x, y) in sa.iter().zip(&sb) {
        assert_eq!(x, y, "GC must be fully deterministic");
    }
}
