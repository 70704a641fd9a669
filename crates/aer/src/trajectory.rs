//! Shot-tree trajectories: the engine behind every [`QasmSimulator`] run
//! that cannot be evolved once and sampled (noise, resets, conditionals,
//! gates after a measure).
//!
//! Shots that have made the same random decisions so far share one state.
//! A run resolves every instruction once into a [`Plan`] (its gate lowered
//! to the kernel that applies it, and its noise channel as none, fixed,
//! mixed-unitary or general Kraus, each operator lowered the same way),
//! draws each shot's uniforms up front from the RNG in the order a
//! shot-by-shot replay consumes them, then walks the steps depth-first
//! over groups of shots. At a branch point the group splits: by noise
//! branch, by measure or reset outcome, or by whether a conditional holds
//! for each shot's register. The largest child continues on the group's
//! buffer; every other child runs to the end on a clone first. A child
//! other than the largest holds at most half its parent's shots, so at
//! most `⌊log₂ shots⌋ + 1` buffers are live at once. Readout errors only
//! change the per-shot register.
//!
//! Each group runs exactly the floating-point operations each of its
//! shots would run alone, and each decision reads the uniform that shot
//! would read alone, so seeded counts are bit-identical to a shot-by-shot
//! replay. When a conditional guards a draw (a measure, a reset or a noisy
//! gate), a shot's draw count depends on its register and the uniforms
//! cannot be laid out in advance: such circuits take the same walk one
//! shot at a time, drawing from the live RNG.
//!
//! [`QasmSimulator`]: crate::simulator::QasmSimulator

use crate::counts::Counts;
use crate::noise::{Channel, NoiseModel, ReadoutError};
use crate::parallel::Kernel;
use crate::simulator::GateTally;
use crate::statevector::Statevector;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::gate::Gate;
use qukit_terra::instruction::{Condition, Operation};
use rand::rngs::StdRng;
use rand::Rng;

/// Uniforms drawn ahead at most (8 MiB): longer runs walk their shots in
/// chunks of this many draws.
const MAX_DRAWN: usize = 1 << 20;

/// One instruction, resolved once per run.
struct Step<'a> {
    op: StepOp<'a>,
    qubits: &'a [usize],
    condition: Option<&'a Condition>,
    /// Index of the step's first uniform among one shot's draws.
    draw: usize,
}

enum StepOp<'a> {
    /// A gate lowered to its kernel, with its noise channel.
    Gate {
        kernel: Kernel,
        channel: Option<Channel<'a>>,
    },
    Measure {
        clbit: usize,
    },
    /// A reset, with the X kernel that flips its qubit back to `|0⟩`.
    Reset {
        flip: Kernel,
    },
}

/// A circuit resolved for shot-tree execution under a noise model.
pub(crate) struct Plan<'a> {
    steps: Vec<Step<'a>>,
    num_qubits: usize,
    num_clbits: usize,
    readout: Option<ReadoutError>,
    /// Uniforms one shot draws: one per channel with more than one Kraus
    /// operator, one per measure plus one for its readout, one per reset.
    draws_per_shot: usize,
    /// Whether every shot draws exactly `draws_per_shot` uniforms: false
    /// when a conditional guards a draw.
    fixed_draws: bool,
}

/// What one engine run did, beyond its counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TreeStats {
    /// Groups evolved to the end of the circuit (distinct trajectories).
    pub(crate) leaves: u64,
    /// Most state buffers live at once.
    pub(crate) peak_buffers: usize,
}

impl TreeStats {
    /// Folds in the stats of another run (another batch).
    pub(crate) fn merge(&mut self, other: TreeStats) {
        self.leaves += other.leaves;
        self.peak_buffers = self.peak_buffers.max(other.peak_buffers);
    }
}

impl<'a> Plan<'a> {
    /// Resolves `circuit` under `noise`. Barriers are dropped.
    pub(crate) fn new(circuit: &'a QuantumCircuit, noise: Option<&'a NoiseModel>) -> Self {
        let readout = noise.and_then(NoiseModel::readout_error);
        let mut steps = Vec::with_capacity(circuit.size());
        let mut draws_per_shot = 0;
        let mut fixed_draws = true;
        for inst in circuit.instructions() {
            let (op, draws) = match &inst.op {
                Operation::Gate(gate) => {
                    let kernel = Kernel::exact(&gate.matrix(), &inst.qubits);
                    let channel = noise
                        .and_then(|noise| noise.error_for(gate.name(), &inst.qubits))
                        .filter(|error| error.num_qubits() == inst.qubits.len())
                        .map(|error| error.channel(&inst.qubits));
                    let draws = usize::from(!matches!(channel, None | Some(Channel::Fixed(_))));
                    (StepOp::Gate { kernel, channel }, draws)
                }
                Operation::Measure => {
                    (StepOp::Measure { clbit: inst.clbits[0] }, 1 + usize::from(readout.is_some()))
                }
                Operation::Reset => {
                    (StepOp::Reset { flip: Kernel::exact(&Gate::X.matrix(), &inst.qubits) }, 1)
                }
                Operation::Barrier => continue,
            };
            fixed_draws &= draws == 0 || inst.condition.is_none();
            steps.push(Step {
                op,
                qubits: &inst.qubits,
                condition: inst.condition.as_ref(),
                draw: draws_per_shot,
            });
            draws_per_shot += draws;
        }
        Self {
            steps,
            num_qubits: circuit.num_qubits(),
            num_clbits: circuit.num_clbits(),
            readout,
            draws_per_shot,
            fixed_draws,
        }
    }

    /// Classical bits of the circuit's outcomes.
    pub(crate) fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Runs `shots` trajectories drawing from `rng`, in the order and with
    /// the values a shot-by-shot replay would draw.
    pub(crate) fn run(
        &self,
        shots: usize,
        rng: &mut StdRng,
        tally: &mut GateTally,
    ) -> (Counts, TreeStats) {
        let mut state = Statevector::new(self.num_qubits);
        let mut walk = Walk {
            plan: self,
            uniforms: Uniforms::default(),
            cregs: Vec::new(),
            decisions: Vec::new(),
            probabilities: Vec::new(),
            counts: Counts::new(self.num_clbits),
            tally,
            stats: TreeStats::default(),
            live: 1,
        };
        if self.fixed_draws {
            let per_shot = self.draws_per_shot;
            let chunk = (MAX_DRAWN / per_shot.max(1)).max(1);
            for lo in (0..shots).step_by(chunk) {
                let n = chunk.min(shots - lo);
                // Drawn in shot-major order, stored draw-major so that a
                // step reads its group's uniforms from one row. The row
                // stride is an odd multiple of 8 words, so successive rows
                // fall on different L1 sets instead of all on one.
                let stride = n.next_multiple_of(16) + 8;
                let drawn = &mut walk.uniforms.drawn;
                drawn.resize(stride * per_shot, 0.0);
                for shot in 0..n {
                    for k in 0..per_shot {
                        drawn[k * stride + shot] = rng.gen();
                    }
                }
                walk.uniforms.stride = stride;
                walk.start(&mut state, n);
            }
        } else {
            walk.uniforms.live = Some(rng);
            for _ in 0..shots {
                walk.start(&mut state, 1);
            }
        }
        (walk.counts, walk.stats)
    }
}

/// Where a walk reads its uniforms.
#[derive(Default)]
struct Uniforms<'r> {
    /// Drawn ahead, draw-major: uniform `k` of shot `s` is at
    /// `drawn[k * stride + s]`.
    drawn: Vec<f64>,
    stride: usize,
    /// When set, uniforms are drawn on demand instead, and the walk holds
    /// one shot at a time.
    live: Option<&'r mut StdRng>,
}

impl Uniforms<'_> {
    /// Uniform `k` of `shot`.
    #[inline]
    fn get(&mut self, shot: u32, k: usize) -> f64 {
        match &mut self.live {
            Some(rng) => rng.gen(),
            None => self.drawn[k * self.stride + shot as usize],
        }
    }
}

/// The mutable side of a run: per-shot registers and decisions, indexed
/// by shot id within the current chunk.
struct Walk<'p, 'a, 'r, 't> {
    plan: &'p Plan<'a>,
    uniforms: Uniforms<'r>,
    cregs: Vec<u64>,
    decisions: Vec<u32>,
    probabilities: Vec<f64>,
    counts: Counts,
    tally: &'t mut GateTally,
    stats: TreeStats,
    /// State buffers live right now.
    live: usize,
}

impl Walk<'_, '_, '_, '_> {
    /// Walks shots `0..n` from `|0…0⟩` on `state`.
    fn start(&mut self, state: &mut Statevector, n: usize) {
        state.reset_to_zero();
        self.cregs.clear();
        self.cregs.resize(n, 0);
        self.decisions.resize(n, 0);
        let mut shots: Vec<u32> = (0..n as u32).collect();
        self.stats.peak_buffers = self.stats.peak_buffers.max(self.live);
        self.walk(0, state, &mut shots);
    }

    /// Carries the group `shots` from `step` to the end of the circuit on
    /// `state`, then records each shot's register.
    fn walk(&mut self, mut step: usize, state: &mut Statevector, mut shots: &mut [u32]) {
        let plan = self.plan;
        let dim = 1u64 << plan.num_qubits;
        while let Some(s) = plan.steps.get(step) {
            if let Some(condition) = s.condition {
                let cregs = &self.cregs;
                let taken = partition(shots, |shot| holds(condition, cregs[shot as usize]));
                let (yes, no) = std::mem::take(&mut shots).split_at_mut(taken);
                if yes.is_empty() {
                    shots = no;
                    step += 1;
                    continue;
                }
                if !no.is_empty() {
                    if yes.len() >= no.len() {
                        self.fork(state, |walk, clone| walk.walk(step + 1, clone, no));
                    } else {
                        self.fork(state, |walk, clone| walk.walk(step, clone, yes));
                        shots = no;
                        step += 1;
                        continue;
                    }
                }
                shots = yes;
            }
            match &s.op {
                StepOp::Gate { kernel, channel } => {
                    state.apply_kernel(kernel);
                    self.tally.record(dim);
                    match channel {
                        None => {}
                        Some(channel @ Channel::Fixed(_)) => {
                            channel.apply_branch(state, s.qubits, 0)
                        }
                        Some(channel) => {
                            channel.probabilities(state, s.qubits, &mut self.probabilities);
                            let split = self.decide(shots, |walk, shot| {
                                let uniform = walk.uniforms.get(shot, s.draw);
                                Channel::choose(uniform, &walk.probabilities) as u32
                            });
                            shots = self.branch(step, state, shots, split, |state, branch| {
                                channel.apply_branch(state, s.qubits, branch as usize);
                            });
                        }
                    }
                }
                StepOp::Measure { clbit } => {
                    let (q, mask) = (s.qubits[0], 1u64 << clbit);
                    let p1 = state.probability_one(q);
                    let split = self.decide(shots, |walk, shot| {
                        let outcome = walk.uniforms.get(shot, s.draw) < p1;
                        let bit = match plan.readout {
                            Some(readout) => {
                                readout.record(outcome, walk.uniforms.get(shot, s.draw + 1))
                            }
                            None => outcome,
                        };
                        let creg = &mut walk.cregs[shot as usize];
                        *creg = if bit { *creg | mask } else { *creg & !mask };
                        u32::from(outcome)
                    });
                    shots = self.branch(step, state, shots, split, |state, outcome| {
                        let outcome = outcome == 1;
                        state.collapse(q, outcome, if outcome { p1 } else { 1.0 - p1 });
                    });
                }
                StepOp::Reset { flip } => {
                    let q = s.qubits[0];
                    let p1 = state.probability_one(q);
                    let split = self.decide(shots, |walk, shot| {
                        u32::from(walk.uniforms.get(shot, s.draw) < p1)
                    });
                    shots = self.branch(step, state, shots, split, |state, outcome| {
                        let outcome = outcome == 1;
                        state.collapse(q, outcome, if outcome { p1 } else { 1.0 - p1 });
                        if outcome {
                            state.apply_kernel(flip);
                        }
                    });
                }
            }
            step += 1;
        }
        self.stats.leaves += 1;
        for &shot in shots.iter() {
            self.counts.record(self.cregs[shot as usize]);
        }
    }

    /// Stores `decide`'s decision for each shot of the group; returns
    /// whether they differ, that is whether the group splits.
    fn decide(&mut self, shots: &[u32], mut decide: impl FnMut(&mut Self, u32) -> u32) -> bool {
        let first = decide(self, shots[0]);
        self.decisions[shots[0] as usize] = first;
        let mut split = false;
        for &shot in &shots[1..] {
            let decision = decide(self, shot);
            self.decisions[shot as usize] = decision;
            split |= decision != first;
        }
        split
    }

    /// Splits `shots` by their decisions at `step` when `split` says they
    /// differ. Every group but the largest gets a clone of `state`, its
    /// `apply`, and a walk to the end; then the largest applies its own
    /// on `state` and is returned to continue in place.
    fn branch<'s>(
        &mut self,
        step: usize,
        state: &mut Statevector,
        shots: &'s mut [u32],
        split: bool,
        apply: impl Fn(&mut Statevector, u32),
    ) -> &'s mut [u32] {
        if !split {
            apply(state, self.decisions[shots[0] as usize]);
            return shots;
        }
        let groups = self.group_by_decision(shots);
        let largest = groups.iter().copied().max_by_key(|&(lo, hi, _)| hi - lo).expect("a split");
        for &(lo, hi, decision) in groups.iter().filter(|&&group| group != largest) {
            self.fork(state, |walk, clone| {
                apply(clone, decision);
                walk.walk(step + 1, clone, &mut shots[lo..hi]);
            });
        }
        let (lo, hi, decision) = largest;
        apply(state, decision);
        &mut shots[lo..hi]
    }

    /// Sorts `shots` by decision and returns each decision's
    /// `(lo, hi, decision)` range.
    fn group_by_decision(&self, shots: &mut [u32]) -> Vec<(usize, usize, u32)> {
        let decision = |shot: u32| self.decisions[shot as usize];
        shots.sort_unstable_by_key(|&shot| decision(shot));
        let mut groups = Vec::new();
        let mut lo = 0;
        for hi in 1..=shots.len() {
            if hi == shots.len() || decision(shots[hi]) != decision(shots[lo]) {
                groups.push((lo, hi, decision(shots[lo])));
                lo = hi;
            }
        }
        groups
    }

    /// Runs `body` on a clone of `state`, counting it as a live buffer.
    fn fork(&mut self, state: &Statevector, body: impl FnOnce(&mut Self, &mut Statevector)) {
        let mut clone = state.clone();
        self.live += 1;
        self.stats.peak_buffers = self.stats.peak_buffers.max(self.live);
        body(self, &mut clone);
        self.live -= 1;
    }
}

/// Moves the shots satisfying `pred` to the front; returns their count.
fn partition(shots: &mut [u32], pred: impl Fn(u32) -> bool) -> usize {
    let mut front = 0;
    for i in 0..shots.len() {
        if pred(shots[i]) {
            shots.swap(front, i);
            front += 1;
        }
    }
    front
}

/// Whether the register `creg` satisfies `condition`.
fn holds(condition: &Condition, creg: u64) -> bool {
    let value = condition
        .clbits
        .iter()
        .enumerate()
        .fold(0u64, |value, (i, &c)| value | (((creg >> c) & 1) << i));
    value == condition.value
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn run(circuit: &QuantumCircuit, noise: Option<&NoiseModel>, shots: usize) -> TreeStats {
        let mut tally = GateTally::default();
        let (counts, stats) =
            Plan::new(circuit, noise).run(shots, &mut StdRng::seed_from_u64(5), &mut tally);
        assert_eq!(counts.total(), shots);
        stats
    }

    #[test]
    fn live_buffers_stay_within_log2_shots_plus_one() {
        // Every qubit measured mid-circuit, entangled again and measured
        // again under heavy noise: nearly every shot ends on a leaf of its
        // own, the worst case for the tree.
        let n = 6;
        let mut circ = QuantumCircuit::with_size(n, 2 * n);
        for q in 0..n {
            circ.h(q).unwrap();
            circ.measure(q, q).unwrap();
        }
        for q in 0..n {
            circ.h(q).unwrap();
        }
        for q in 1..n {
            circ.cx(q - 1, q).unwrap();
        }
        for q in 0..n {
            circ.measure(q, n + q).unwrap();
        }
        let noise = NoiseModel::depolarizing(0.2, 0.3, 0.05);
        for shots in [1usize, 2, 3, 64, 1000, 4096] {
            let stats = run(&circ, Some(&noise), shots);
            let bound = shots.next_power_of_two().trailing_zeros() as usize + 1;
            assert!(
                stats.peak_buffers <= bound,
                "{shots} shots: {} buffers live, bound {bound}",
                stats.peak_buffers
            );
            assert!(stats.leaves as usize <= shots);
            if shots >= 64 {
                assert!(stats.leaves as usize > shots / 2, "{shots} shots, {stats:?}");
                assert!(stats.peak_buffers > 2, "{shots} shots, {stats:?}");
            }
        }
    }

    #[test]
    fn shots_that_never_branch_share_one_evolution() {
        let mut circ = QuantumCircuit::with_size(3, 3);
        circ.h(0).unwrap();
        circ.reset(1).unwrap();
        circ.cx(0, 2).unwrap();
        circ.x(1).unwrap();
        circ.measure(1, 1).unwrap();
        let mut tally = GateTally::default();
        let (counts, stats) =
            Plan::new(&circ, None).run(500, &mut StdRng::seed_from_u64(1), &mut tally);
        assert_eq!(counts.get_value(0b010), 500);
        assert_eq!(stats, TreeStats { leaves: 1, peak_buffers: 1 });
        assert_eq!(tally.gates, 3, "each gate applied once for all 500 shots");
    }

    #[test]
    fn a_conditional_guarding_a_draw_walks_one_shot_at_a_time() {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.h(0).unwrap();
        circ.measure(0, 0).unwrap();
        let mut guarded = qukit_terra::instruction::Instruction::measure(1, 1);
        guarded.condition = Some(Condition { clbits: vec![0], value: 1 });
        circ.push(guarded).unwrap();
        let plan = Plan::new(&circ, None);
        assert!(!plan.fixed_draws);
        let stats = run(&circ, None, 40);
        assert_eq!(stats, TreeStats { leaves: 40, peak_buffers: 1 });
    }
}
