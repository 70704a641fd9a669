//! Gate-fusion pre-pass: greedily merges adjacent unitary gates that act on a
//! small shared qubit set into one dense (or diagonal) unitary, so simulation
//! engines sweep the amplitude array once per *group* instead of once per
//! gate. Mirrors the fusion stage Qiskit Aer runs before kernel dispatch.
//!
//! Invariants (see DESIGN.md):
//!
//! * Instructions are never reordered — only *contiguous* runs of plain
//!   (unconditioned) gates are merged, in program order.
//! * Fusion never crosses a measurement, reset, barrier, or conditioned
//!   instruction; those flush the pending group and pass through untouched.
//! * A group only grows onto a new qubit when the incoming gate shares at
//!   least one qubit with it (locality heuristic; all-diagonal runs are
//!   exempt, since diagonal factors combine index-wise), and never beyond
//!   [`MAX_FUSED_QUBITS`] operands.
//! * A gate is only merged when the flop-cost model says the combined
//!   dense sweep is no more expensive than running the gates through the
//!   engines' specialized kernels (diagonal / butterfly / controlled-block)
//!   individually — fusing a lone CX into an 8×8 matrix is a pessimization,
//!   not an optimization.
//! * Fused matrices whose off-diagonal entries are all exactly zero are
//!   emitted as [`FusedOp::Diagonal`] so engines can apply them in a single
//!   multiply-per-amplitude sweep. Shapes are classified by exact 0 and 1
//!   entries ([`diagonal_of`], [`controlled_form`]), the same rule the
//!   engines lower kernels by, so a gate that is the identity only to
//!   within rounding (a tiny rotation) keeps all of its arithmetic.
//! * A non-diagonal group whose members are individually cheaper than the
//!   merged dense sweep is emitted as [`FusedOp::Group`] — the member gate
//!   list kept in program order — so engines apply the members back to back
//!   (cache-resident under blocked traversal) instead of materializing and
//!   applying a `2^k × 2^k` matrix.

use crate::complex::Complex;
use crate::instruction::Instruction;
use crate::matrix::Matrix;
use crate::reference;

/// Maximum number of qubit operands a fused group may span: fused
/// unitaries are at most 8×8.
pub const MAX_FUSED_QUBITS: usize = 3;

/// One operation of a fused program.
#[derive(Debug, Clone, PartialEq)]
pub enum FusedOp {
    /// Dense `2^k × 2^k` unitary merged from `gates_fused` source gates,
    /// acting on `qubits` (operand order matches the matrix's bit order:
    /// `qubits[t]` is bit `t` of the row/column index).
    Unitary { matrix: Matrix, qubits: Vec<usize>, gates_fused: usize },
    /// Diagonal unitary stored as its `2^k` diagonal factors.
    Diagonal { factors: Vec<Complex>, qubits: Vec<usize>, gates_fused: usize },
    /// A fused group kept as its member gate list (program order): the
    /// engines apply the members back to back in one scheduling step,
    /// which under blocked traversal costs one pass over memory but keeps
    /// each member on its specialized kernel instead of paying the merged
    /// dense `2^k` matrix-vector price.
    Group { insts: Vec<Instruction>, qubits: Vec<usize>, gates_fused: usize },
    /// Anything fusion must not touch: measurements, resets, barriers,
    /// conditioned gates, and lone non-diagonal gates (which keep the
    /// engines' specialized dispatch paths).
    Passthrough(Instruction),
}

impl FusedOp {
    /// Number of source gates folded into this op (0 for non-gate
    /// passthroughs, 1 for a lone gate).
    pub fn gates_fused(&self) -> usize {
        match self {
            FusedOp::Unitary { gates_fused, .. }
            | FusedOp::Diagonal { gates_fused, .. }
            | FusedOp::Group { gates_fused, .. } => *gates_fused,
            FusedOp::Passthrough(inst) => usize::from(inst.op.is_gate()),
        }
    }
}

/// Aggregate statistics from one [`fuse`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Groups of ≥2 gates merged into a single op.
    pub groups: usize,
    /// Source gates absorbed into those groups.
    pub gates_merged: usize,
    /// Ops emitted in diagonal form (including lone diagonal gates).
    pub diagonal_ops: usize,
}

/// A fused instruction stream plus merge statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    pub ops: Vec<FusedOp>,
    pub stats: FusionStats,
}

/// Runs the fusion pre-pass over an instruction stream.
pub fn fuse(instructions: &[Instruction]) -> FusedProgram {
    let mut out = Fuser { ops: Vec::new(), stats: FusionStats::default() };
    // Pending contiguous run of plain gates, the union of their qubits in
    // first-appearance order, and whether every gate so far is diagonal.
    let mut pending: Vec<Instruction> = Vec::new();
    let mut group_qubits: Vec<usize> = Vec::new();
    let mut group_diagonal = true;

    for inst in instructions {
        if !inst.is_plain_gate() {
            out.flush(&mut pending, &mut group_qubits);
            group_diagonal = true;
            out.ops.push(FusedOp::Passthrough(inst.clone()));
            continue;
        }
        let gate = inst.as_gate().expect("plain gate");
        let fresh: Vec<usize> =
            inst.qubits.iter().copied().filter(|q| !group_qubits.contains(q)).collect();
        let overlaps = fresh.len() < inst.qubits.len();
        let fits = group_qubits.len() + fresh.len() <= MAX_FUSED_QUBITS;
        let profitable = pending.is_empty()
            || merged_cost(group_qubits.len() + fresh.len(), group_diagonal && gate.is_diagonal())
                <= group_cost(&pending, group_qubits.len(), group_diagonal)
                    + gate_cost(inst)
                    + SWEEP_COST;
        // Grow the group only while it stays small, local, and cheaper than
        // the specialized per-gate kernels; a gate with no shared qubit
        // starts a fresh group instead of welding unrelated blocks into one
        // dense matrix. Diagonal-onto-diagonal merges are exempt from the
        // locality rule: diagonal factors combine index-wise, so disjoint
        // diagonal gates still share one sweep.
        let local = overlaps || fresh.is_empty() || (group_diagonal && gate.is_diagonal());
        // A gate that starts a group is at most MAX_FUSED_QUBITS wide (no
        // standard gate is wider), and nothing merges onto a full group.
        if pending.is_empty() || (fits && local && profitable) {
            group_qubits.extend(fresh);
            group_diagonal &= gate.is_diagonal();
            pending.push(inst.clone());
        } else {
            out.flush(&mut pending, &mut group_qubits);
            group_diagonal = gate.is_diagonal();
            group_qubits.extend(inst.qubits.iter().copied());
            pending.push(inst.clone());
        }
    }
    out.flush(&mut pending, &mut group_qubits);

    qukit_obs::counter_add("qukit_terra_fusion_groups_total", out.stats.groups as u64);
    qukit_obs::counter_add("qukit_terra_fusion_merged_gates_total", out.stats.gates_merged as u64);
    qukit_obs::counter_add("qukit_terra_fusion_diagonal_ops_total", out.stats.diagonal_ops as u64);

    FusedProgram { ops: out.ops, stats: out.stats }
}

/// Modelled price of one extra full sweep over the amplitude array
/// (memory traffic + loop overhead), in the same unit as [`gate_cost`].
const SWEEP_COST: f64 = 1.0;

/// Cost of a diagonal sweep: one multiply per amplitude.
const DIAGONAL_COST: f64 = 1.0;

/// Estimated kernel cost of one gate in complex multiplies per state
/// amplitude, mirroring the engines' specialized dispatch paths: diagonal
/// sweeps cost one multiply, single-qubit butterflies two, controlled
/// blocks only touch the all-controls-set slice, and everything else pays
/// the dense `2^k` matrix-vector price.
fn gate_cost(inst: &Instruction) -> f64 {
    let gate = inst.as_gate().expect("cost model sees plain gates");
    if gate.is_diagonal() {
        return DIAGONAL_COST;
    }
    let k = inst.qubits.len();
    if k == 1 {
        return 2.0;
    }
    let dim = 1usize << k;
    if controlled_form(&gate.matrix()).is_some() {
        // Butterfly on the 2^-(k-1) slice where every control bit is set.
        4.0 / dim as f64
    } else {
        dim as f64
    }
}

/// Cost of the pending group as it would be emitted right now.
fn group_cost(pending: &[Instruction], width: usize, diagonal: bool) -> f64 {
    match pending.len() {
        0 => 0.0,
        1 => gate_cost(&pending[0]),
        _ => merged_cost(width, diagonal),
    }
}

/// Cost of a fused group spanning `width` qubits. Single-qubit groups
/// lower to the butterfly kernel; wider dense groups pay the `2^k`
/// matrix-vector price plus gather/scatter overhead.
fn merged_cost(width: usize, diagonal: bool) -> f64 {
    if diagonal {
        DIAGONAL_COST
    } else if width <= 1 {
        2.0
    } else {
        (1u64 << width) as f64 + 2.0
    }
}

/// Detects controlled-block structure: returns `(target, block)` when the
/// unitary acts as the 2×2 `block` on matrix bit `target` exactly when
/// every other matrix bit is 1, and as the identity otherwise — the shape
/// of CX, CCX, and every controlled-U in the computational basis. The
/// identity part must hold exactly 1 on its diagonal and exactly 0 off it,
/// so engines that skip those amplitudes drop only `1·a` and `0·b` terms:
/// a rotation by 4e-11 is not controlled. Lowest target first; 1-qubit
/// matrices are never reported.
pub fn controlled_form(matrix: &Matrix) -> Option<(usize, [Complex; 4])> {
    let dim = matrix.rows();
    if dim < 4 || matrix.cols() != dim || !dim.is_power_of_two() {
        return None;
    }
    let k = dim.trailing_zeros() as usize;
    'targets: for t in 0..k {
        let tbit = 1usize << t;
        let cmask = (dim - 1) ^ tbit;
        for r in 0..dim {
            for c in 0..dim {
                if (r & cmask) == cmask && (c & cmask) == cmask {
                    continue; // part of the controlled 2×2 block
                }
                if matrix[(r, c)] != if r == c { Complex::ONE } else { Complex::ZERO } {
                    continue 'targets;
                }
            }
        }
        let lo = cmask;
        let hi = cmask | tbit;
        return Some((t, [matrix[(lo, lo)], matrix[(lo, hi)], matrix[(hi, lo)], matrix[(hi, hi)]]));
    }
    None
}

struct Fuser {
    ops: Vec<FusedOp>,
    stats: FusionStats,
}

impl Fuser {
    fn flush(&mut self, pending: &mut Vec<Instruction>, group_qubits: &mut Vec<usize>) {
        if pending.is_empty() {
            return;
        }
        let qubits = std::mem::take(group_qubits);
        let insts = std::mem::take(pending);
        let gates_fused = insts.len();

        if gates_fused == 1 {
            // A lone gate is only rewritten when the diagonal form is a
            // strict win; otherwise keep the engines' native dispatch.
            let gate = insts[0].as_gate().expect("pending holds plain gates");
            if gate.is_diagonal() {
                let matrix = compose(&insts, &qubits);
                let factors = (0..matrix.rows()).map(|i| matrix[(i, i)]).collect();
                self.stats.diagonal_ops += 1;
                self.ops.push(FusedOp::Diagonal { factors, qubits, gates_fused });
            } else {
                self.ops.push(FusedOp::Passthrough(insts.into_iter().next().unwrap()));
            }
            return;
        }

        let all_diagonal = insts
            .iter()
            .all(|inst| inst.as_gate().expect("pending holds plain gates").is_diagonal());
        if !all_diagonal {
            // Under the engines' blocked traversal the group's members run
            // back to back on a cache-resident tile, so member sweeps cost
            // no extra memory traffic: when the members' specialized
            // kernels are cheaper per amplitude than one merged dense
            // sweep, keep the gate list instead of materializing a matrix.
            let member_cost: f64 = insts.iter().map(gate_cost).sum();
            if member_cost < merged_cost(qubits.len(), false) {
                self.stats.groups += 1;
                self.stats.gates_merged += gates_fused;
                self.ops.push(FusedOp::Group { insts, qubits, gates_fused });
                return;
            }
        }

        let matrix = compose(&insts, &qubits);
        self.stats.groups += 1;
        self.stats.gates_merged += gates_fused;
        if let Some(factors) = diagonal_of(&matrix) {
            self.stats.diagonal_ops += 1;
            self.ops.push(FusedOp::Diagonal { factors, qubits, gates_fused });
        } else {
            self.ops.push(FusedOp::Unitary { matrix, qubits, gates_fused });
        }
    }
}

/// Composes the pending gates into one `2^k × 2^k` unitary over `qubits`
/// (bit `t` of the matrix index is `qubits[t]`) by evolving each basis
/// column through the run with the reference kernel.
fn compose(insts: &[Instruction], qubits: &[usize]) -> Matrix {
    let k = qubits.len();
    let dim = 1usize << k;
    let mut cols: Vec<Vec<Complex>> = (0..dim)
        .map(|c| {
            let mut v = vec![Complex::ZERO; dim];
            v[c] = Complex::ONE;
            v
        })
        .collect();
    for inst in insts {
        let gate = inst.as_gate().expect("pending holds plain gates");
        let matrix = gate.matrix();
        let local: Vec<usize> = inst
            .qubits
            .iter()
            .map(|q| qubits.iter().position(|g| g == q).expect("operand tracked in group"))
            .collect();
        for col in cols.iter_mut() {
            reference::apply_gate(col, &matrix, &local);
        }
    }
    let mut data = vec![Complex::ZERO; dim * dim];
    for (c, col) in cols.iter().enumerate() {
        for (r, amp) in col.iter().enumerate() {
            data[r * dim + c] = *amp;
        }
    }
    Matrix::from_vec(dim, dim, data)
}

/// Returns the diagonal when every off-diagonal entry is exactly zero.
pub fn diagonal_of(matrix: &Matrix) -> Option<Vec<Complex>> {
    let dim = matrix.rows();
    for r in 0..dim {
        for c in 0..dim {
            if r != c && matrix[(r, c)] != Complex::ZERO {
                return None;
            }
        }
    }
    Some((0..dim).map(|i| matrix[(i, i)]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::QuantumCircuit;
    use crate::gate::Gate;
    use crate::instruction::Condition;

    fn fused_matrix_matches(instructions: &[Instruction], n: usize) {
        use rand::{rngs::StdRng, SeedableRng};
        let program = fuse(instructions);
        let mut rng = StdRng::seed_from_u64(11);
        let initial = reference::random_state(n, &mut rng);
        let mut expect = initial.clone();
        for inst in instructions {
            reference::apply_gate(&mut expect, &inst.as_gate().unwrap().matrix(), &inst.qubits);
        }
        let mut got = initial;
        for op in &program.ops {
            match op {
                FusedOp::Unitary { matrix, qubits, .. } => {
                    reference::apply_gate(&mut got, matrix, qubits);
                }
                FusedOp::Diagonal { factors, qubits, .. } => {
                    let dim = factors.len();
                    let mut m = Matrix::zeros(dim, dim);
                    for i in 0..dim {
                        m[(i, i)] = factors[i];
                    }
                    reference::apply_gate(&mut got, &m, qubits);
                }
                FusedOp::Group { insts, .. } => {
                    for inst in insts {
                        reference::apply_gate(
                            &mut got,
                            &inst.as_gate().unwrap().matrix(),
                            &inst.qubits,
                        );
                    }
                }
                FusedOp::Passthrough(inst) => {
                    reference::apply_gate(
                        &mut got,
                        &inst.as_gate().unwrap().matrix(),
                        &inst.qubits,
                    );
                }
            }
        }
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!(g.approx_eq(*e), "fused program diverges: {g:?} vs {e:?}");
        }
    }

    #[test]
    fn fuses_overlapping_run_and_matches_reference() {
        let mut circ = QuantumCircuit::new(3);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        circ.t(1).unwrap();
        circ.cx(1, 2).unwrap();
        circ.h(2).unwrap();
        fused_matrix_matches(circ.instructions(), 3);
    }

    #[test]
    fn diagonal_run_becomes_diagonal_op() {
        let insts = vec![
            Instruction::gate(Gate::T, vec![0]),
            Instruction::gate(Gate::Cp(0.3), vec![0, 1]),
            Instruction::gate(Gate::Rzz(0.7), vec![1, 2]),
        ];
        let program = fuse(&insts);
        assert_eq!(program.ops.len(), 1);
        assert!(matches!(&program.ops[0], FusedOp::Diagonal { gates_fused: 3, .. }));
        fused_matrix_matches(&insts, 3);
    }

    #[test]
    fn barrier_measure_and_condition_block_fusion() {
        let mut cond = Instruction::gate(Gate::X, vec![0]);
        cond.condition = Some(Condition { clbits: vec![0], value: 1 });
        let insts = vec![
            Instruction::gate(Gate::H, vec![0]),
            Instruction::gate(Gate::T, vec![0]),
            Instruction::barrier(vec![0]),
            Instruction::gate(Gate::H, vec![0]),
            Instruction::measure(0, 0),
            cond,
            Instruction::gate(Gate::H, vec![0]),
            Instruction::reset(0),
        ];
        let program = fuse(&insts);
        // h+t fuse; everything after the barrier stays unfused because each
        // run is length one or blocked.
        assert_eq!(program.stats.groups, 1);
        assert_eq!(program.stats.gates_merged, 2);
        let passthroughs =
            program.ops.iter().filter(|op| matches!(op, FusedOp::Passthrough(_))).count();
        assert_eq!(passthroughs, 6);
    }

    #[test]
    fn disjoint_gates_do_not_weld() {
        let insts = vec![
            Instruction::gate(Gate::H, vec![0]),
            Instruction::gate(Gate::H, vec![5]),
            Instruction::gate(Gate::H, vec![9]),
        ];
        let program = fuse(&insts);
        assert_eq!(program.stats.groups, 0);
        assert_eq!(program.ops.len(), 3);
    }

    #[test]
    fn group_never_exceeds_max_qubits() {
        let mut circ = QuantumCircuit::new(6);
        for q in 0..5 {
            circ.cx(q, q + 1).unwrap();
        }
        let program = fuse(circ.instructions());
        for op in &program.ops {
            let width = match op {
                FusedOp::Unitary { qubits, .. }
                | FusedOp::Diagonal { qubits, .. }
                | FusedOp::Group { qubits, .. } => qubits.len(),
                FusedOp::Passthrough(inst) => inst.qubits.len(),
            };
            assert!(width <= MAX_FUSED_QUBITS);
        }
        fused_matrix_matches(circ.instructions(), 6);
    }

    #[test]
    fn wide_gate_passes_through() {
        // A CCX spans all MAX_FUSED_QUBITS operands: a gate on a fourth
        // qubit cannot join it, and the lone CCX keeps its own kernel.
        let insts =
            vec![Instruction::gate(Gate::Ccx, vec![0, 1, 2]), Instruction::gate(Gate::H, vec![3])];
        let program = fuse(&insts);
        assert_eq!(program.ops.len(), 2);
        assert!(program.ops.iter().all(|op| matches!(op, FusedOp::Passthrough(_))));

        // Diagonal gates merge without sharing a qubit, so only the width
        // limit splits a run of them over four qubits.
        let insts: Vec<Instruction> = (0..4).map(|q| Instruction::gate(Gate::T, vec![q])).collect();
        let widths: Vec<usize> = fuse(&insts)
            .ops
            .iter()
            .map(|op| match op {
                FusedOp::Diagonal { qubits, .. } => qubits.len(),
                other => panic!("expected diagonal ops, got {other:?}"),
            })
            .collect();
        assert_eq!(widths, [MAX_FUSED_QUBITS, 1]);
        fused_matrix_matches(&insts, 4);
    }

    #[test]
    fn controlled_form_detects_block_structure() {
        // CX: control is matrix bit 0, so the target/block is bit 1.
        let (t, block) = controlled_form(&Gate::CX.matrix()).expect("cx is controlled");
        assert_eq!(t, 1);
        assert_eq!(block, [Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO]);

        // CCX: two controls (bits 0,1), X block on bit 2.
        let (t, block) = controlled_form(&Gate::Ccx.matrix()).expect("ccx is controlled");
        assert_eq!(t, 2);
        assert_eq!(block[1], Complex::ONE);
        assert_eq!(block[2], Complex::ONE);

        // Controlled rotations keep their base block.
        let (t, block) = controlled_form(&Gate::Crx(0.7).matrix()).expect("crx is controlled");
        assert_eq!(t, 1);
        let base = Gate::Rx(0.7).matrix();
        assert!(block[0].approx_eq(base[(0, 0)]) && block[1].approx_eq(base[(0, 1)]));

        // The identity part must be exact: an XX rotation by 4e-11 has
        // cos = 1.0 on its diagonal but ±2e-11i off it, so it is neither
        // controlled nor diagonal.
        let tiny = Gate::Rxx(4e-11).matrix();
        assert!(controlled_form(&tiny).is_none());
        assert!(diagonal_of(&tiny).is_none());
        assert!(diagonal_of(&Gate::Rzz(4e-11).matrix()).is_some());

        // Swap moves amplitude between non-block entries: not controlled.
        assert!(controlled_form(&Gate::Swap.matrix()).is_none());
        // 1-qubit matrices are never reported (the butterfly path owns them).
        assert!(controlled_form(&Gate::H.matrix()).is_none());
    }

    #[test]
    fn cheap_member_group_is_kept_as_gate_list() {
        // Swap (dense, cost 4) + T (diagonal, cost 1) merge under the
        // greedy rule, but the members (cost 5) beat the merged 4×4 dense
        // sweep (cost 6) — so the group must stay a gate list.
        let insts =
            vec![Instruction::gate(Gate::Swap, vec![0, 1]), Instruction::gate(Gate::T, vec![0])];
        let program = fuse(&insts);
        assert_eq!(program.stats.groups, 1);
        assert_eq!(program.stats.gates_merged, 2);
        assert_eq!(program.ops.len(), 1);
        match &program.ops[0] {
            FusedOp::Group { insts: members, qubits, gates_fused } => {
                assert_eq!(members.len(), 2);
                assert_eq!(qubits, &[0, 1]);
                assert_eq!(*gates_fused, 2);
            }
            other => panic!("expected FusedOp::Group, got {other:?}"),
        }
        fused_matrix_matches(&insts, 2);
    }

    #[test]
    fn cost_model_keeps_cheap_specialized_gates_unfused() {
        // A lone CX followed by a gate on a third qubit must NOT weld into
        // an 8x8 dense block: the controlled kernel is far cheaper.
        let insts =
            vec![Instruction::gate(Gate::CX, vec![0, 1]), Instruction::gate(Gate::CX, vec![1, 2])];
        let program = fuse(&insts);
        assert_eq!(program.stats.groups, 0, "cx chain must stay unfused");
        assert_eq!(program.ops.len(), 2);
        fused_matrix_matches(&insts, 3);

        // Same-qubit single-qubit runs DO merge (one butterfly sweep).
        let run = vec![
            Instruction::gate(Gate::H, vec![0]),
            Instruction::gate(Gate::Rx(0.3), vec![0]),
            Instruction::gate(Gate::H, vec![0]),
        ];
        let program = fuse(&run);
        assert_eq!(program.stats.groups, 1);
        assert_eq!(program.stats.gates_merged, 3);
        fused_matrix_matches(&run, 1);
    }
}
