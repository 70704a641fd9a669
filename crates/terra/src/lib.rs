//! # qukit-terra
//!
//! The foundation layer of the **qukit** toolchain — a Rust reproduction of
//! the Qiskit stack described in *"IBM's Qiskit Tool Chain: Working with and
//! Developing for Real Quantum Computers"* (Wille, Van Meter, Naveh,
//! DATE 2019). Like Qiskit's Terra element, this crate covers "all low-level
//! sections" of the stack:
//!
//! * [`circuit`] — the [`circuit::QuantumCircuit`] IR with registers,
//!   conditionals, composition and inversion;
//! * [`gate`] — the standard gate library with exact unitary matrices;
//! * [`qasm`] — an OpenQASM 2.0 lexer/parser/emitter (with `qelib1.inc`
//!   built in);
//! * [`coupling`] — device coupling maps, including the IBM QX2-QX5
//!   architectures (the paper's Fig. 2);
//! * [`transpiler`] — decomposition to the `{U(θ,φ,λ), CX}` elementary
//!   basis, coupling-constrained mapping (naive and search-based, the
//!   paper's Fig. 4), and gate-level optimization;
//! * [`draw`] — ASCII circuit diagrams (the paper's Fig. 1b).
//!
//! # Examples
//!
//! ```
//! use qukit_terra::circuit::QuantumCircuit;
//! use qukit_terra::coupling::CouplingMap;
//! use qukit_terra::transpiler::{transpile, TranspileOptions};
//!
//! # fn main() -> Result<(), qukit_terra::error::TerraError> {
//! let mut bell = QuantumCircuit::new(2);
//! bell.h(0)?;
//! bell.cx(0, 1)?;
//!
//! let mapped = transpile(&bell, &TranspileOptions::for_device(CouplingMap::ibm_qx4()))?;
//! assert!(mapped.circuit.num_qubits() <= 5);
//! # Ok(())
//! # }
//! ```

pub mod circuit;
pub mod complex;
pub mod controlled;
pub mod coupling;
pub mod dag;
pub mod draw;
pub mod error;
pub mod fusion;
pub mod gate;
pub mod hash;
pub mod instruction;
pub mod layout;
pub mod lru;
pub mod matrix;
pub mod parameter;
pub mod pulse;
pub mod qasm;
pub mod reference;
pub mod register;
pub mod transpiler;

pub use circuit::QuantumCircuit;
pub use complex::{c64, Complex};
pub use coupling::CouplingMap;
pub use error::TerraError;
pub use gate::Gate;
pub use instruction::{Instruction, Operation};
pub use matrix::Matrix;
pub use parameter::{Parameter, ParameterizedCircuit, SentinelSite};
