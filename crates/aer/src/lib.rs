//! # qukit-aer
//!
//! Simulators and noise models for the **qukit** toolchain — the analogue
//! of Qiskit's Aer element as described in the DATE 2019 paper: "a set of
//! simulators and emulators for running quantum circuits and applications
//! on conventional machines", supporting both "clean" (noiseless)
//! execution and execution under injected noise processes.
//!
//! * [`simulator::QasmSimulator`] — shot-based execution with measurement,
//!   reset, conditionals and stochastic (trajectory) noise;
//! * [`simulator::StatevectorSimulator`] — exact final states;
//! * [`simulator::UnitarySimulator`] — full-unitary extraction;
//! * [`density::DensityMatrixSimulator`] — exact mixed-state evolution;
//! * [`noise`] — Kraus channels, per-gate noise models, readout errors;
//! * [`counts::Counts`] — outcome histograms with fidelity metrics.
//!
//! # Examples
//!
//! ```
//! use qukit_aer::simulator::QasmSimulator;
//! use qukit_terra::circuit::QuantumCircuit;
//!
//! # fn main() -> Result<(), qukit_aer::error::AerError> {
//! let mut circ = QuantumCircuit::with_size(2, 2);
//! circ.h(0).unwrap();
//! circ.cx(0, 1).unwrap();
//! circ.measure(0, 0).unwrap();
//! circ.measure(1, 1).unwrap();
//! let counts = QasmSimulator::new().with_seed(42).run(&circ, 1024)?;
//! assert_eq!(counts.get("01") + counts.get("10"), 0);
//! # Ok(())
//! # }
//! ```

pub mod counts;
pub mod density;
pub mod error;
pub mod noise;
pub mod parallel;
pub mod simd;
pub mod simulator;
pub mod stabilizer;
pub mod statevector;
mod terminal;
mod trajectory;

pub use counts::Counts;
pub use density::{DensityMatrix, DensityMatrixSimulator};
pub use error::AerError;
pub use noise::{NoiseModel, QuantumError, ReadoutError};
pub use parallel::{ParallelConfig, ParallelStatevectorSimulator};
pub use simulator::{QasmSimulator, StatevectorSimulator, UnitarySimulator};
pub use stabilizer::{StabilizerSimulator, StabilizerState};
pub use statevector::Statevector;
