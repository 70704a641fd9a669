//! The standard gate library.
//!
//! [`Gate`] enumerates every unitary operation the toolchain understands,
//! mirroring the gate set of OpenQASM 2.0's `qelib1.inc` plus the IBM QX
//! elementary operations `U(θ, φ, λ)` and `CX` described in the paper
//! (Section II-B).
//!
//! # Qubit-ordering convention
//!
//! Matrices use the little-endian convention: the gate's *first* operand
//! corresponds to the least-significant bit of the matrix index (the same
//! convention Qiskit uses). For example [`Gate::CX`] applied to
//! `[control, target]` maps basis state index `b = target<<1 | control`.
//!
//! # Examples
//!
//! ```
//! use qukit_terra::gate::Gate;
//!
//! let u = Gate::U(0.3, 0.1, -0.2);
//! assert!(u.matrix().is_unitary());
//! assert_eq!(u.num_qubits(), 1);
//! assert_eq!(Gate::T.inverse(), Gate::Tdg);
//! ```

use crate::complex::{c64, Complex};
use crate::matrix::Matrix;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
use std::fmt;

/// A unitary quantum gate.
///
/// Parameterized variants carry their angles in radians. The set covers all
/// gates of `qelib1.inc` (OpenQASM 2.0's standard header) together with the
/// SWAP-family multi-qubit gates the paper's mapping discussion relies on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity (explicit idle).
    I,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = sqrt(Z).
    S,
    /// Inverse phase gate S†.
    Sdg,
    /// T = fourth root of Z (phase shift by π/4, the Clifford+T generator).
    T,
    /// Inverse T gate T†.
    Tdg,
    /// Square root of X.
    Sx,
    /// Inverse square root of X.
    Sxdg,
    /// Rotation about the x-axis by the given angle.
    Rx(f64),
    /// Rotation about the y-axis by the given angle.
    Ry(f64),
    /// Rotation about the z-axis by the given angle.
    Rz(f64),
    /// Phase shift `diag(1, e^{iλ})`.
    Phase(f64),
    /// The IBM QX elementary single-qubit gate
    /// `U(θ, φ, λ) = Rz(φ) Ry(θ) Rz(λ)` up to global phase.
    ///
    /// This is the universal single-qubit operation the paper's Section II-B
    /// names as the hardware-native gate (Euler decomposition).
    U(f64, f64, f64),
    /// Controlled-NOT. Operands: `[control, target]`.
    CX,
    /// Controlled-Y. Operands: `[control, target]`.
    CY,
    /// Controlled-Z (symmetric).
    CZ,
    /// Controlled-Hadamard. Operands: `[control, target]`.
    CH,
    /// Controlled rotation about x. Operands: `[control, target]`.
    Crx(f64),
    /// Controlled rotation about y. Operands: `[control, target]`.
    Cry(f64),
    /// Controlled rotation about z. Operands: `[control, target]`.
    Crz(f64),
    /// Controlled phase shift (symmetric).
    Cp(f64),
    /// Controlled-U. Operands: `[control, target]`.
    Cu(f64, f64, f64),
    /// SWAP (symmetric).
    Swap,
    /// Toffoli / CCX. Operands: `[control, control, target]`.
    Ccx,
    /// Controlled-controlled-Z (fully symmetric).
    Ccz,
    /// Fredkin / controlled-SWAP. Operands: `[control, a, b]`.
    Cswap,
    /// Ising XX interaction `exp(-i θ/2 X⊗X)`.
    Rxx(f64),
    /// Ising ZZ interaction `exp(-i θ/2 Z⊗Z)`.
    Rzz(f64),
}

impl Gate {
    /// Number of qubits the gate acts on.
    pub fn num_qubits(&self) -> usize {
        use Gate::*;
        match self {
            I | X | Y | Z | H | S | Sdg | T | Tdg | Sx | Sxdg | Rx(_) | Ry(_) | Rz(_)
            | Phase(_) | U(..) => 1,
            CX | CY | CZ | CH | Crx(_) | Cry(_) | Crz(_) | Cp(_) | Cu(..) | Swap | Rxx(_)
            | Rzz(_) => 2,
            Ccx | Ccz | Cswap => 3,
        }
    }

    /// The OpenQASM 2.0 name of the gate (as found in `qelib1.inc`).
    pub fn name(&self) -> &'static str {
        use Gate::*;
        match self {
            I => "id",
            X => "x",
            Y => "y",
            Z => "z",
            H => "h",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            Sx => "sx",
            Sxdg => "sxdg",
            Rx(_) => "rx",
            Ry(_) => "ry",
            Rz(_) => "rz",
            Phase(_) => "p",
            U(..) => "u",
            CX => "cx",
            CY => "cy",
            CZ => "cz",
            CH => "ch",
            Crx(_) => "crx",
            Cry(_) => "cry",
            Crz(_) => "crz",
            Cp(_) => "cp",
            Cu(..) => "cu3",
            Swap => "swap",
            Ccx => "ccx",
            Ccz => "ccz",
            Cswap => "cswap",
            Rxx(_) => "rxx",
            Rzz(_) => "rzz",
        }
    }

    /// The gate's angle parameters, in declaration order.
    pub fn params(&self) -> Vec<f64> {
        let (slots, len) = self.param_slots();
        slots[..len].to_vec()
    }

    /// The angle parameters without allocating: the first `len` slots.
    pub(crate) fn param_slots(&self) -> ([f64; 3], usize) {
        use Gate::*;
        match *self {
            Rx(t) | Ry(t) | Rz(t) | Phase(t) | Crx(t) | Cry(t) | Crz(t) | Cp(t) | Rxx(t)
            | Rzz(t) => ([t, 0.0, 0.0], 1),
            U(t, p, l) | Cu(t, p, l) => ([t, p, l], 3),
            _ => ([0.0; 3], 0),
        }
    }

    /// Constructs a gate from an OpenQASM name and parameter list.
    ///
    /// Returns `None` for unknown names or wrong parameter counts; the QASM
    /// parser reports that as a parse error with source location.
    pub fn from_name(name: &str, params: &[f64]) -> Option<Gate> {
        use Gate::*;
        let gate = match (name, params.len()) {
            ("id", 0) => I,
            ("x", 0) => X,
            ("y", 0) => Y,
            ("z", 0) => Z,
            ("h", 0) => H,
            ("s", 0) => S,
            ("sdg", 0) => Sdg,
            ("t", 0) => T,
            ("tdg", 0) => Tdg,
            ("sx", 0) => Sx,
            ("sxdg", 0) => Sxdg,
            ("rx", 1) => Rx(params[0]),
            ("ry", 1) => Ry(params[0]),
            ("rz", 1) => Rz(params[0]),
            ("p" | "u1", 1) => Phase(params[0]),
            ("u2", 2) => U(FRAC_PI_2, params[0], params[1]),
            ("u" | "u3" | "U", 3) => U(params[0], params[1], params[2]),
            ("cx" | "CX", 0) => CX,
            ("cy", 0) => CY,
            ("cz", 0) => CZ,
            ("ch", 0) => CH,
            ("crx", 1) => Crx(params[0]),
            ("cry", 1) => Cry(params[0]),
            ("crz", 1) => Crz(params[0]),
            ("cp" | "cu1", 1) => Cp(params[0]),
            ("cu3", 3) => Cu(params[0], params[1], params[2]),
            ("swap", 0) => Swap,
            ("ccx", 0) => Ccx,
            ("ccz", 0) => Ccz,
            ("cswap", 0) => Cswap,
            ("rxx", 1) => Rxx(params[0]),
            ("rzz", 1) => Rzz(params[0]),
            _ => return None,
        };
        Some(gate)
    }

    /// The inverse gate, such that `g.matrix() * g.inverse().matrix() = I`
    /// (up to global phase for [`Gate::U`]).
    pub fn inverse(&self) -> Gate {
        use Gate::*;
        match *self {
            S => Sdg,
            Sdg => S,
            T => Tdg,
            Tdg => T,
            Sx => Sxdg,
            Sxdg => Sx,
            Rx(t) => Rx(-t),
            Ry(t) => Ry(-t),
            Rz(t) => Rz(-t),
            Phase(t) => Phase(-t),
            U(t, p, l) => U(-t, -l, -p),
            Crx(t) => Crx(-t),
            Cry(t) => Cry(-t),
            Crz(t) => Crz(-t),
            Cp(t) => Cp(-t),
            Cu(t, p, l) => Cu(-t, -l, -p),
            Rxx(t) => Rxx(-t),
            Rzz(t) => Rzz(-t),
            g => g, // self-inverse: I, X, Y, Z, H, CX, CY, CZ, CH, Swap-family, Ccx, Ccz, Cswap
        }
    }

    /// Returns `true` when the gate is its own inverse.
    pub fn is_self_inverse(&self) -> bool {
        use Gate::*;
        matches!(self, I | X | Y | Z | H | CX | CY | CZ | CH | Swap | Ccx | Ccz | Cswap)
    }

    /// Returns `true` when the gate matrix is diagonal (commutes with Z-basis
    /// measurement and with other diagonal gates).
    pub fn is_diagonal(&self) -> bool {
        use Gate::*;
        matches!(
            self,
            I | Z | S | Sdg | T | Tdg | Rz(_) | Phase(_) | CZ | Crz(_) | Cp(_) | Ccz | Rzz(_)
        )
    }

    /// The single-qubit base of a controlled gate, if this gate is of the
    /// form "controlled-`G`" with exactly one control.
    pub fn controlled_base(&self) -> Option<Gate> {
        use Gate::*;
        match *self {
            CX => Some(X),
            CY => Some(Y),
            CZ => Some(Z),
            CH => Some(H),
            Crx(t) => Some(Rx(t)),
            Cry(t) => Some(Ry(t)),
            Crz(t) => Some(Rz(t)),
            Cp(t) => Some(Phase(t)),
            Cu(t, p, l) => Some(U(t, p, l)),
            _ => None,
        }
    }

    /// The unitary matrix of the gate, in the little-endian operand
    /// convention described in the module docs.
    pub fn matrix(&self) -> Matrix {
        use Gate::*;
        let o = Complex::ZERO;
        let l = Complex::ONE;
        let i = Complex::I;
        match *self {
            I => Matrix::identity(2),
            X => Matrix::from_vec(2, 2, vec![o, l, l, o]),
            Y => Matrix::from_vec(2, 2, vec![o, -i, i, o]),
            Z => Matrix::from_vec(2, 2, vec![l, o, o, -l]),
            H => Matrix::hadamard(),
            S => Matrix::from_vec(2, 2, vec![l, o, o, i]),
            Sdg => Matrix::from_vec(2, 2, vec![l, o, o, -i]),
            T => Matrix::from_vec(2, 2, vec![l, o, o, Complex::cis(FRAC_PI_4)]),
            Tdg => Matrix::from_vec(2, 2, vec![l, o, o, Complex::cis(-FRAC_PI_4)]),
            Sx => Matrix::from_vec(
                2,
                2,
                vec![c64(0.5, 0.5), c64(0.5, -0.5), c64(0.5, -0.5), c64(0.5, 0.5)],
            ),
            Sxdg => Matrix::from_vec(
                2,
                2,
                vec![c64(0.5, -0.5), c64(0.5, 0.5), c64(0.5, 0.5), c64(0.5, -0.5)],
            ),
            Rx(t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                Matrix::from_vec(2, 2, vec![c64(c, 0.0), c64(0.0, -s), c64(0.0, -s), c64(c, 0.0)])
            }
            Ry(t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                Matrix::from_vec(2, 2, vec![c64(c, 0.0), c64(-s, 0.0), c64(s, 0.0), c64(c, 0.0)])
            }
            Rz(t) => {
                Matrix::from_vec(2, 2, vec![Complex::cis(-t / 2.0), o, o, Complex::cis(t / 2.0)])
            }
            Phase(t) => Matrix::from_vec(2, 2, vec![l, o, o, Complex::cis(t)]),
            U(t, p, lam) => {
                // Qiskit convention:
                // U = [[cos(t/2),            -e^{iλ} sin(t/2)],
                //      [e^{iφ} sin(t/2),  e^{i(φ+λ)} cos(t/2)]]
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                Matrix::from_vec(
                    2,
                    2,
                    vec![
                        c64(c, 0.0),
                        -Complex::cis(lam) * s,
                        Complex::cis(p) * s,
                        Complex::cis(p + lam) * c,
                    ],
                )
            }
            CX | CY | CZ | CH | Crx(_) | Cry(_) | Crz(_) | Cp(_) | Cu(..) => {
                controlled_matrix(&self.controlled_base().expect("controlled gate").matrix())
            }
            Swap => Matrix::from_vec(
                4,
                4,
                vec![
                    l, o, o, o, //
                    o, o, l, o, //
                    o, l, o, o, //
                    o, o, o, l,
                ],
            ),
            Ccx => {
                // Operands [c0, c1, target]: index = t<<2 | c1<<1 | c0.
                let mut m = Matrix::identity(8);
                // States with c0=c1=1: indices 3 (t=0) and 7 (t=1) swap.
                m[(3, 3)] = o;
                m[(7, 7)] = o;
                m[(3, 7)] = l;
                m[(7, 3)] = l;
                m
            }
            Ccz => {
                let mut m = Matrix::identity(8);
                m[(7, 7)] = -l;
                m
            }
            Cswap => {
                // Operands [control, a, b]: index = b<<2 | a<<1 | control.
                // Control=1 & a!=b: indices 3 (a=1,b=0) and 5 (a=0,b=1) swap.
                let mut m = Matrix::identity(8);
                m[(3, 3)] = o;
                m[(5, 5)] = o;
                m[(3, 5)] = l;
                m[(5, 3)] = l;
                m
            }
            Rxx(t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                let cc = c64(c, 0.0);
                let ss = c64(0.0, -s);
                Matrix::from_vec(
                    4,
                    4,
                    vec![
                        cc, o, o, ss, //
                        o, cc, ss, o, //
                        o, ss, cc, o, //
                        ss, o, o, cc,
                    ],
                )
            }
            Rzz(t) => {
                let p = Complex::cis(-t / 2.0);
                let q = Complex::cis(t / 2.0);
                Matrix::from_vec(
                    4,
                    4,
                    vec![
                        p, o, o, o, //
                        o, q, o, o, //
                        o, o, q, o, //
                        o, o, o, p,
                    ],
                )
            }
        }
    }

    /// Rewrites the gate as an equivalent [`Gate::U`] (single-qubit gates
    /// only). The result is exact up to global phase.
    ///
    /// This is the decomposition step the paper requires before running on a
    /// QX architecture ("the user first has to decompose all non-elementary
    /// quantum operations … to the elementary operations U(θ, φ, λ) and
    /// CNOT").
    pub fn to_u(&self) -> Option<Gate> {
        use Gate::*;
        let g = match *self {
            I => U(0.0, 0.0, 0.0),
            X => U(PI, 0.0, PI),
            Y => U(PI, FRAC_PI_2, FRAC_PI_2),
            Z => U(0.0, 0.0, PI),
            H => U(FRAC_PI_2, 0.0, PI),
            S => U(0.0, 0.0, FRAC_PI_2),
            Sdg => U(0.0, 0.0, -FRAC_PI_2),
            T => U(0.0, 0.0, FRAC_PI_4),
            Tdg => U(0.0, 0.0, -FRAC_PI_4),
            Sx => U(FRAC_PI_2, -FRAC_PI_2, FRAC_PI_2),
            Sxdg => U(FRAC_PI_2, FRAC_PI_2, -FRAC_PI_2),
            Rx(t) => U(t, -FRAC_PI_2, FRAC_PI_2),
            Ry(t) => U(t, 0.0, 0.0),
            Rz(t) => U(0.0, 0.0, t),
            Phase(t) => U(0.0, 0.0, t),
            U(..) => *self,
            _ => return None,
        };
        Some(g)
    }
}

/// Builds the 4x4 (or 2^(n+1)) matrix of a controlled gate from the base
/// gate's matrix, with the control as the least-significant operand.
pub fn controlled_matrix(base: &Matrix) -> Matrix {
    let n = base.rows();
    let dim = 2 * n;
    let mut m = Matrix::identity(dim);
    // Control is bit 0. States with control bit = 1 are odd indices; the
    // remaining bits (the target register) get the base matrix applied.
    for tr in 0..n {
        for tc in 0..n {
            let row = tr * 2 + 1;
            let col = tc * 2 + 1;
            m[(row, col)] = base[(tr, tc)];
        }
    }
    // Identity rows for control = 1 were overwritten above; make sure the
    // diagonal we set for odd rows came only from `base`.
    for tr in 0..n {
        let row = tr * 2 + 1;
        for tc in 0..n {
            let col = tc * 2 + 1;
            if tr == tc && base[(tr, tc)].is_approx_zero() {
                m[(row, col)] = Complex::ZERO;
            }
        }
    }
    m
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let rendered: Vec<String> = params.iter().map(|p| format!("{p:.6}")).collect();
            write!(f, "{}({})", self.name(), rendered.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn all_sample_gates() -> Vec<Gate> {
        use Gate::*;
        vec![
            I,
            X,
            Y,
            Z,
            H,
            S,
            Sdg,
            T,
            Tdg,
            Sx,
            Sxdg,
            Rx(0.3),
            Ry(-1.1),
            Rz(2.2),
            Phase(0.7),
            U(0.5, 0.25, -0.75),
            CX,
            CY,
            CZ,
            CH,
            Crx(0.4),
            Cry(0.6),
            Crz(-0.9),
            Cp(1.3),
            Cu(0.2, 0.4, 0.6),
            Swap,
            Ccx,
            Ccz,
            Cswap,
            Rxx(0.8),
            Rzz(-0.5),
        ]
    }

    #[test]
    fn every_gate_matrix_is_unitary() {
        for g in all_sample_gates() {
            assert!(g.matrix().is_unitary(), "{g:?} matrix not unitary");
        }
    }

    #[test]
    fn matrix_dimension_matches_arity() {
        for g in all_sample_gates() {
            let dim = 1usize << g.num_qubits();
            assert_eq!(g.matrix().rows(), dim, "{g:?} dimension mismatch");
        }
    }

    #[test]
    fn inverse_matrices_multiply_to_identity() {
        for g in all_sample_gates() {
            let prod = g.matrix().matmul(&g.inverse().matrix());
            let id = Matrix::identity(prod.rows());
            assert!(
                prod.phase_equal_to(&id).is_some(),
                "{g:?} * inverse != I (up to phase):\n{prod}"
            );
        }
    }

    #[test]
    fn self_inverse_flag_is_consistent() {
        for g in all_sample_gates() {
            if g.is_self_inverse() {
                assert_eq!(g, g.inverse(), "{g:?} claims self-inverse");
            }
        }
    }

    #[test]
    fn diagonal_flag_is_consistent() {
        for g in all_sample_gates() {
            if g.is_diagonal() {
                let m = g.matrix();
                for r in 0..m.rows() {
                    for c in 0..m.cols() {
                        if r != c {
                            assert!(m[(r, c)].is_approx_zero(), "{g:?} claims diagonal");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn u_decomposition_matches_original_up_to_phase() {
        for g in all_sample_gates() {
            if let Some(u) = g.to_u() {
                assert!(
                    u.matrix().phase_equal_to(&g.matrix()).is_some(),
                    "to_u mismatch for {g:?}"
                );
            } else {
                assert!(g.num_qubits() > 1, "1q gate {g:?} missing to_u");
            }
        }
    }

    #[test]
    fn cx_matrix_is_qiskit_convention() {
        // Little endian, operands [control, target]: |t c> index = t<<1|c.
        // Input index 1 (c=1, t=0) must map to output index 3 (c=1, t=1).
        let m = Gate::CX.matrix();
        assert!(m[(3, 1)].is_approx_one());
        assert!(m[(1, 3)].is_approx_one());
        assert!(m[(0, 0)].is_approx_one());
        assert!(m[(2, 2)].is_approx_one());
        assert!(m[(1, 1)].is_approx_zero());
    }

    #[test]
    fn toffoli_matrix_flips_only_when_both_controls_set() {
        let m = Gate::Ccx.matrix();
        // index = t<<2 | c1<<1 | c0; both controls set: 3 <-> 7.
        assert!(m[(7, 3)].is_approx_one());
        assert!(m[(3, 7)].is_approx_one());
        for idx in [0usize, 1, 2, 4, 5, 6] {
            assert!(m[(idx, idx)].is_approx_one(), "index {idx} should be fixed");
        }
    }

    #[test]
    fn cswap_swaps_targets_when_control_set() {
        let m = Gate::Cswap.matrix();
        // index = b<<2 | a<<1 | control. control=1, a=1, b=0 -> 3;
        // control=1, a=0, b=1 -> 5. Must swap.
        assert!(m[(5, 3)].is_approx_one());
        assert!(m[(3, 5)].is_approx_one());
        assert!(m[(1, 1)].is_approx_one());
        assert!(m[(7, 7)].is_approx_one());
    }

    #[test]
    fn u_is_euler_zyz_composition() {
        // U(θ,φ,λ) must equal Rz(φ) Ry(θ) Rz(λ) up to global phase
        // (Section II-B of the paper).
        let (t, p, l) = (0.7, -0.3, 1.9);
        let u = Gate::U(t, p, l).matrix();
        let composed =
            Gate::Rz(p).matrix().matmul(&Gate::Ry(t).matrix()).matmul(&Gate::Rz(l).matrix());
        assert!(u.phase_equal_to(&composed).is_some());
    }

    #[test]
    fn from_name_round_trips() {
        for g in all_sample_gates() {
            let rebuilt = Gate::from_name(g.name(), &g.params());
            assert_eq!(rebuilt, Some(g), "round trip failed for {g:?}");
        }
    }

    #[test]
    fn from_name_rejects_unknown_and_bad_arity() {
        assert_eq!(Gate::from_name("frobnicate", &[]), None);
        assert_eq!(Gate::from_name("h", &[1.0]), None);
        assert_eq!(Gate::from_name("rx", &[]), None);
    }

    #[test]
    fn from_name_supports_qasm_aliases() {
        assert_eq!(Gate::from_name("u1", &[0.5]), Some(Gate::Phase(0.5)));
        assert_eq!(Gate::from_name("u2", &[0.1, 0.2]), Some(Gate::U(FRAC_PI_2, 0.1, 0.2)));
        assert_eq!(Gate::from_name("CX", &[]), Some(Gate::CX));
        assert_eq!(Gate::from_name("cu1", &[0.3]), Some(Gate::Cp(0.3)));
    }

    #[test]
    fn display_includes_params() {
        assert_eq!(Gate::H.to_string(), "h");
        assert!(Gate::Rx(0.5).to_string().starts_with("rx(0.5"));
    }

    #[test]
    fn s_squared_is_z_and_t_squared_is_s() {
        let s2 = Gate::S.matrix().matmul(&Gate::S.matrix());
        assert!(s2.approx_eq(&Gate::Z.matrix()));
        let t2 = Gate::T.matrix().matmul(&Gate::T.matrix());
        assert!(t2.approx_eq(&Gate::S.matrix()));
    }

    #[test]
    fn swap_conjugation_reverses_cx() {
        // SWAP · CX(c=q0,t=q1) · SWAP = CX(c=q1,t=q0)
        let swap = Gate::Swap.matrix();
        let cx = Gate::CX.matrix();
        let conj = swap.matmul(&cx).matmul(&swap);
        // CX with control q1, target q0: index = t<<1|c with roles swapped:
        // flips bit0 when bit1 set: 2<->3.
        let mut expect = Matrix::identity(4);
        expect[(2, 2)] = Complex::ZERO;
        expect[(3, 3)] = Complex::ZERO;
        expect[(2, 3)] = Complex::ONE;
        expect[(3, 2)] = Complex::ONE;
        assert!(conj.approx_eq(&expect));
    }
}
