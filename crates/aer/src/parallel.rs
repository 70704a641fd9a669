//! Parallel & fused statevector execution.
//!
//! This module is the chunked multi-threaded kernel layer behind every
//! noiseless dense evolution: [`crate::simulator::QasmSimulator`]'s
//! evolve-once sampled path, [`crate::simulator::StatevectorSimulator`]
//! and the ideal density-matrix engine. [`Statevector::apply_matrix`] and
//! the trajectory engine run the same kernels one at a time on the calling
//! thread (`Kernel::apply`).
//!
//! * **One lowering rule** — `Kernel::lower` turns every unitary into a
//!   kernel: a 1-qubit matrix into a classified butterfly, a wider one into
//!   a diagonal or controlled block only when the entries that shape skips
//!   are exactly 0 and 1 ([`qukit_terra::fusion::diagonal_of`],
//!   [`qukit_terra::fusion::controlled_form`]), and into a dense
//!   gather/scatter otherwise.
//! * **Chunking** — the `2^n` amplitude array is partitioned into
//!   cache-sized chunks of `2^chunk_qubits` entries; each gate pass is
//!   split into independent *work units* (whole chunks for diagonal ops,
//!   chunk-sized slices of the pair/base index space otherwise) that
//!   `std::thread::scope` workers claim in a fixed stride. Every amplitude
//!   is written at most once per pass — by exactly one work unit — from
//!   values read in that same pass, so the result is bit-identical for
//!   every thread count and chunk size.
//! * **Fusion** — instruction streams are pre-processed by
//!   [`qukit_terra::fusion::fuse`], which merges adjacent gates on ≤3
//!   shared qubits into one dense (or, when possible, diagonal) unitary so
//!   the state is swept once per group instead of once per gate.
//! * **SIMD lanes** — the butterfly, diagonal and dense kernels walk the
//!   state two packed amplitudes at a time through [`crate::simd::F64x4`]
//!   lane ops that LLVM autovectorizes (a butterfly on target bit 0 packs
//!   its own pair into one vector); the lane formulas perform exactly
//!   the scalar IEEE-754 operations per element, so `QUKIT_SIMD=off`
//!   (the scalar fallback, also [`ParallelConfig::simd`] = false) is
//!   *bit-identical*, not merely close.
//! * **Cache-blocked phases** — consecutive kernels whose qubit-bit union
//!   fits in one chunk are applied tile-by-tile: each cache-resident tile
//!   (a contiguous slice, or a gathered strided block when high qubit
//!   bits are involved) receives every kernel of the phase before the
//!   next tile is touched. A target qubit above the chunk boundary thus
//!   becomes strided-within-tile instead of a full-state gather per gate,
//!   and a fusion group's gates apply back-to-back from the group's gate
//!   list without materializing a dense matrix. Tiles are disjoint, so
//!   blocking changes neither values nor determinism. A state that fits
//!   in one chunk is already cache-resident and is never tiled.
//! * **Batched sampling** — all shots are drawn from the terminal
//!   distribution via a prefix-sum CDF and binary search, in fixed-size
//!   batches with per-batch seeded RNG streams. Batch boundaries do not
//!   depend on the worker count, so counts are reproducible for a fixed
//!   seed regardless of `threads`.
//!
//! Observability: `qukit_aer_parallel_chunks_total` (work units
//! processed), `qukit_aer_parallel_worker_seconds` (per-worker busy time,
//! histogram), per-kernel-kind dispatch counters
//! (`qukit_aer_kernel_{oneq,controlled,diag,dense}_total`), blocking
//! counters (`qukit_aer_blocked_{phases,tiles}_total`), plus the fusion
//! counters emitted by `qukit_terra::fusion`.

use crate::error::{AerError, Result};
use crate::simd::{
    complex_mul2, complex_mul_lanes, neg_im_pair, neg_im_vec, re_pair, simd_default, F64x4,
};
use crate::simulator::GateTally;
use crate::statevector::Statevector;
use qukit_obs::rng::{mix64, GOLDEN_GAMMA};
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::complex::Complex;
use qukit_terra::fusion::{controlled_form, diagonal_of, fuse, FusedOp, FusedProgram};
use qukit_terra::instruction::{Instruction, Operation};
use qukit_terra::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Barrier;
use std::time::Instant;

/// Default chunk size: `2^16` amplitudes = 1 MiB of complex pairs, half
/// of a 2 MiB per-core L2. A state of at most 16 qubits is one chunk and is
/// never gathered into tiles; a larger one is tiled in L2-resident blocks.
pub const DEFAULT_CHUNK_QUBITS: usize = 16;

/// Hard cap on worker threads.
pub const MAX_THREADS: usize = 16;

/// Shots per sampling batch; fixed (not derived from the thread count) so
/// a seeded run yields identical counts at any parallelism level.
pub(crate) const SHOT_BATCH: usize = 1024;

/// Trajectories per batch on the shot-parallel trajectory path.
pub(crate) const TRAJECTORY_BATCH: usize = 32;

/// Configuration for the parallel execution layer.
///
/// Every dense statevector evolution runs the kernels of this module; the
/// configuration only chooses how. The [`Default`] implementation reads
/// the process environment (`QUKIT_THREADS`, `QUKIT_CHUNK_QUBITS`,
/// `QUKIT_FUSION`, `QUKIT_SIMD`): one thread with fusion on unless told
/// otherwise, so exporting `QUKIT_THREADS=4` spreads every
/// default-constructed simulator over four workers — this is how CI
/// exercises the threaded path across the whole test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads (1 = serial kernels; clamped to [`MAX_THREADS`]).
    pub threads: usize,
    /// log2 of the chunk size in amplitudes.
    pub chunk_qubits: usize,
    /// Whether the gate-fusion pre-pass runs before dispatch. `false`
    /// (`QUKIT_FUSION=off`) runs the same kernels one gate at a time.
    pub fusion: bool,
    /// Whether the SIMD lane kernels and cache-blocked phase traversal
    /// are used (`QUKIT_SIMD`, default on). `false` selects the scalar
    /// per-kernel sweeps, which produce bit-identical amplitudes — the
    /// differential-testing fallback.
    pub simd: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

impl ParallelConfig {
    /// One thread, no fusion: the same kernels applied gate by gate, the
    /// configuration `QUKIT_FUSION=off` selects on a single thread.
    pub fn serial() -> Self {
        Self { threads: 1, chunk_qubits: DEFAULT_CHUNK_QUBITS, fusion: false, simd: simd_default() }
    }

    /// Parallel execution with `threads` workers and fusion enabled.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            chunk_qubits: DEFAULT_CHUNK_QUBITS,
            fusion: true,
            simd: simd_default(),
        }
    }

    /// Reads `QUKIT_THREADS` / `QUKIT_CHUNK_QUBITS` / `QUKIT_FUSION` /
    /// `QUKIT_SIMD` from the environment; unset or unparsable variables
    /// fall back to one thread, the default chunk size, fusion on and
    /// SIMD on.
    pub fn from_env() -> Self {
        let threads = env_usize("QUKIT_THREADS").unwrap_or(1).max(1);
        let chunk_qubits = env_usize("QUKIT_CHUNK_QUBITS").unwrap_or(DEFAULT_CHUNK_QUBITS);
        let fusion =
            std::env::var("QUKIT_FUSION").ok().and_then(|v| parse_bool_flag(&v)).unwrap_or(true);
        Self { threads, chunk_qubits, fusion, simd: simd_default() }
    }

    /// The worker count actually used for a state of `len` amplitudes:
    /// clamped, and 1 when the whole state fits in a single chunk (thread
    /// spawn would cost more than it buys).
    pub(crate) fn effective_threads(&self, len: usize) -> usize {
        let threads = self.threads.clamp(1, MAX_THREADS);
        if len <= self.chunk_len() {
            1
        } else {
            threads
        }
    }

    /// Chunk size in amplitudes.
    pub(crate) fn chunk_len(&self) -> usize {
        1usize << self.chunk_qubits.clamp(1, 24)
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Parses a boolean environment flag (`1/0`, `true/false`, `on/off`).
pub(crate) fn parse_bool_flag(value: &str) -> Option<bool> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => None,
    }
}

/// Derives the RNG seed for one sampling/trajectory batch from the run
/// seed (SplitMix64 mixing; batch boundaries are thread-independent).
pub(crate) fn batch_seed(seed: u64, batch: u64) -> u64 {
    mix64(seed ^ batch.wrapping_mul(GOLDEN_GAMMA))
}

/// A 2×2 pair update, pre-classified by entry structure so the hot loop
/// runs the cheapest arithmetic the standard gate set allows: X blocks are
/// pure swaps, diagonal blocks (T, S, Z, P, Rz and the CP/CZ blocks) one
/// multiply per amplitude that changes, real matrices (H, Ry, composed 1q
/// runs) need half the real multiplies of the general case, and Rx-type
/// matrices (real diagonal, purely imaginary off-diagonal) likewise.
/// Classification uses *exact* zero/one comparisons, so a shape only drops
/// terms that are `1·a` or `0·b`: the amplitudes equal the general
/// formula's up to the sign of a zero.
#[derive(Clone)]
pub(crate) enum Butterfly {
    /// X block: swap the pair, no arithmetic.
    Swap,
    /// Diagonal block `[[d0, 0], [0, d3]]`. `d0` is `None` when it is
    /// exactly 1: `lo` is then never read or written, and the identity
    /// block touches nothing at all.
    Phase { d0: Option<Complex>, d3: Complex },
    /// All four entries real.
    Real([f64; 4]),
    /// Real diagonal, purely imaginary off-diagonal (`[[d0, i·o1], [i·o2, d3]]`).
    Cross { d0: f64, o1: f64, o2: f64, d3: f64 },
    /// Arbitrary complex entries.
    General([Complex; 4]),
}

/// How a butterfly sweep walks its pairs.
#[derive(Clone, Copy)]
enum Lanes {
    /// One pair at a time in scalar arithmetic: the `QUKIT_SIMD=off`
    /// oracle, and pairs whose low indices are not contiguous.
    Scalar,
    /// Target bit 0: `lo` and `hi` are adjacent, so one vector holds the
    /// whole pair.
    InPair,
    /// Two pairs per step over the contiguous runs of `expand`, with a
    /// scalar tail inside each run for odd lengths.
    TwoPairs,
}

impl Butterfly {
    fn classify(m: [Complex; 4]) -> Self {
        let is_zero = |c: Complex| c.re == 0.0 && c.im == 0.0;
        if is_zero(m[1]) && is_zero(m[2]) {
            return Butterfly::Phase { d0: (m[0] != Complex::ONE).then_some(m[0]), d3: m[3] };
        }
        if m.iter().all(|c| c.im == 0.0) {
            if m[0].re == 0.0 && m[3].re == 0.0 && m[1].re == 1.0 && m[2].re == 1.0 {
                return Butterfly::Swap;
            }
            return Butterfly::Real([m[0].re, m[1].re, m[2].re, m[3].re]);
        }
        if m[0].im == 0.0 && m[3].im == 0.0 && m[1].re == 0.0 && m[2].re == 0.0 {
            return Butterfly::Cross { d0: m[0].re, o1: m[1].im, o2: m[2].im, d3: m[3].re };
        }
        Butterfly::General(m)
    }

    /// Applies the butterfly to every pair whose low index is
    /// `expand(p) | 0` for `p` in `start..end`, with the high index one
    /// `stride` above. Dispatches once, then runs a monomorphized loop.
    ///
    /// `run` is the guaranteed contiguity window of `expand`: within each
    /// aligned block of `run` consecutive `p` values, `expand(p + 1) ==
    /// expand(p) + 1` and bit `log2(stride)` of `expand(p)` stays clear.
    /// With `simd` set, a pair on target bit 0 is one [`F64x4`], and with
    /// `run ≥ 2` two pairs go through the lanes at once. Every lane
    /// formula performs exactly the scalar ops per element (products and
    /// sums commuted, `a - b` as `a + (-b)`), so the paths are
    /// bit-identical.
    ///
    /// # Safety
    ///
    /// Same contract as [`Kernel::apply_unit`]: the `(lo, hi)` index sets
    /// produced for distinct `p` are disjoint and in-bounds.
    #[allow(clippy::too_many_arguments)]
    unsafe fn sweep(
        &self,
        amps: &RawAmps,
        start: usize,
        end: usize,
        stride: usize,
        run: usize,
        simd: bool,
        expand: impl Fn(usize) -> usize,
    ) {
        let lanes = match (simd, stride, run) {
            (false, _, _) => Lanes::Scalar,
            (true, 1, _) => Lanes::InPair,
            (true, _, 2..) => Lanes::TwoPairs,
            _ => Lanes::Scalar,
        };
        let walk = PairSweep { amps, start, end, stride, run, lanes, expand };
        match *self {
            Butterfly::Swap => walk.pairs(|a, b| (b, a), |a, b| (b, a), F64x4::swap_halves),
            Butterfly::Phase { d0: None, d3 } if d3 == Complex::ONE => {}
            Butterfly::Phase { d0: None, d3 } => {
                let (re, im) = (F64x4::splat(d3.re), neg_im_vec(d3.im));
                walk.highs(|b| d3 * b, |b| complex_mul_lanes(b, re, im));
            }
            Butterfly::Phase { d0: Some(d0), d3 } => {
                let (re0, im0) = (F64x4::splat(d0.re), neg_im_vec(d0.im));
                let (re3, im3) = (F64x4::splat(d3.re), neg_im_vec(d3.im));
                let (re, im) = (re_pair(d0, d3), neg_im_pair(d0, d3));
                walk.pairs(
                    |a, b| (d0 * a, d3 * b),
                    |a, b| (complex_mul_lanes(a, re0, im0), complex_mul_lanes(b, re3, im3)),
                    |v| complex_mul_lanes(v, re, im),
                )
            }
            Butterfly::Real([m0, m1, m2, m3]) => {
                let (own, other) = (F64x4([m0, m0, m3, m3]), F64x4([m1, m1, m2, m2]));
                walk.pairs(
                    |a, b| {
                        (
                            Complex::new(m0 * a.re + m1 * b.re, m0 * a.im + m1 * b.im),
                            Complex::new(m2 * a.re + m3 * b.re, m2 * a.im + m3 * b.im),
                        )
                    },
                    |a, b| {
                        (
                            a.mul(F64x4::splat(m0)).add(b.mul(F64x4::splat(m1))),
                            a.mul(F64x4::splat(m2)).add(b.mul(F64x4::splat(m3))),
                        )
                    },
                    |v| v.mul(own).add(v.swap_halves().mul(other)),
                )
            }
            Butterfly::Cross { d0, o1, o2, d3 } => {
                let (n1, n2) = (neg_im_vec(o1), neg_im_vec(o2));
                let (own, other) = (F64x4([d0, d0, d3, d3]), F64x4([-o1, o1, -o2, o2]));
                walk.pairs(
                    |a, b| {
                        (
                            Complex::new(d0 * a.re - o1 * b.im, d0 * a.im + o1 * b.re),
                            Complex::new(d3 * b.re - o2 * a.im, d3 * b.im + o2 * a.re),
                        )
                    },
                    |a, b| {
                        (
                            a.mul(F64x4::splat(d0)).add(b.swap_pairs().mul(n1)),
                            b.mul(F64x4::splat(d3)).add(a.swap_pairs().mul(n2)),
                        )
                    },
                    |v| v.mul(own).add(v.swap_halves().swap_pairs().mul(other)),
                )
            }
            Butterfly::General([m00, m01, m10, m11]) => {
                let (n00, n01) = (neg_im_vec(m00.im), neg_im_vec(m01.im));
                let (n10, n11) = (neg_im_vec(m10.im), neg_im_vec(m11.im));
                let (own_re, own_im) = (re_pair(m00, m11), neg_im_pair(m00, m11));
                let (other_re, other_im) = (re_pair(m01, m10), neg_im_pair(m01, m10));
                walk.pairs(
                    |a, b| (m00 * a + m01 * b, m10 * a + m11 * b),
                    |a, b| {
                        (
                            complex_mul2(a, m00.re, n00).add(complex_mul2(b, m01.re, n01)),
                            complex_mul2(a, m10.re, n10).add(complex_mul2(b, m11.re, n11)),
                        )
                    },
                    |v| {
                        complex_mul_lanes(v, own_re, own_im).add(complex_mul_lanes(
                            v.swap_halves(),
                            other_re,
                            other_im,
                        ))
                    },
                )
            }
        }
    }
}

/// The pairs one butterfly sweep visits; see [`Butterfly::sweep`].
struct PairSweep<'a, E> {
    amps: &'a RawAmps,
    start: usize,
    end: usize,
    stride: usize,
    run: usize,
    lanes: Lanes,
    expand: E,
}

impl<E: Fn(usize) -> usize> PairSweep<'_, E> {
    /// Updates both amplitudes of every pair: `scalar` on one pair,
    /// `two` on two pairs' `lo` and `hi` vectors, `in_pair` on one pair
    /// packed `[lo, hi]`.
    ///
    /// # Safety
    ///
    /// As for [`Butterfly::sweep`].
    #[inline(always)]
    unsafe fn pairs(
        &self,
        scalar: impl Fn(Complex, Complex) -> (Complex, Complex),
        two: impl Fn(F64x4, F64x4) -> (F64x4, F64x4),
        in_pair: impl Fn(F64x4) -> F64x4,
    ) {
        let PairSweep { amps, stride, .. } = *self;
        let one = |lo: usize| {
            let hi = lo | stride;
            let (na, nb) = scalar(amps.read(lo), amps.read(hi));
            amps.write(lo, na);
            amps.write(hi, nb);
        };
        match self.lanes {
            Lanes::Scalar => (self.start..self.end).for_each(|p| one((self.expand)(p))),
            Lanes::InPair => (self.start..self.end).for_each(|p| {
                let lo = (self.expand)(p);
                amps.store2(lo, in_pair(amps.load2(lo)));
            }),
            Lanes::TwoPairs => self.runs(
                |lo| {
                    let hi = lo | stride;
                    let (na, nb) = two(amps.load2(lo), amps.load2(hi));
                    amps.store2(lo, na);
                    amps.store2(hi, nb);
                },
                one,
            ),
        }
    }

    /// Updates only the `hi` amplitude of every pair: `scalar` on one,
    /// `two` on two adjacent ones. Bit 0 gains nothing from packing a
    /// pair whose `lo` stays as it is, so it walks in scalar.
    ///
    /// # Safety
    ///
    /// As for [`Butterfly::sweep`].
    #[inline(always)]
    unsafe fn highs(&self, scalar: impl Fn(Complex) -> Complex, two: impl Fn(F64x4) -> F64x4) {
        let PairSweep { amps, stride, .. } = *self;
        let one = |lo: usize| {
            let hi = lo | stride;
            amps.write(hi, scalar(amps.read(hi)));
        };
        match self.lanes {
            Lanes::Scalar | Lanes::InPair => {
                (self.start..self.end).for_each(|p| one((self.expand)(p)))
            }
            Lanes::TwoPairs => self.runs(
                |lo| {
                    let hi = lo | stride;
                    amps.store2(hi, two(amps.load2(hi)));
                },
                one,
            ),
        }
    }

    /// Calls `two(lo)` for each two consecutive low indices inside the
    /// contiguous runs of `expand`, and `one(lo)` for an odd last one.
    #[inline(always)]
    fn runs(&self, two: impl Fn(usize), one: impl Fn(usize)) {
        let mut p = self.start;
        while p < self.end {
            let run_end = ((p | (self.run - 1)) + 1).min(self.end);
            let lo0 = (self.expand)(p);
            let n = run_end - p;
            let mut i = 0;
            while i + 2 <= n {
                two(lo0 + i);
                i += 2;
            }
            if i < n {
                one(lo0 + i);
            }
            p = run_end;
        }
    }
}

/// One dispatched operation, pre-lowered from a [`FusedOp`] or a matrix
/// for the hot loop: matrices flattened, operand masks precomputed.
#[derive(Clone)]
pub(crate) enum Kernel {
    /// 2×2 on one qubit (pair update, no gather buffer).
    OneQ { b: Butterfly, q: usize },
    /// Controlled 2×2 block on target `q`: only amplitude pairs whose
    /// control bits are all 1 are touched. `inserts` holds `(bit, value)`
    /// pairs sorted ascending — the target bit with value 0 and every
    /// control bit with value 1 — used to expand a compact counter into
    /// the low index of each active pair.
    Controlled { b: Butterfly, inserts: Vec<(usize, usize)>, q: usize },
    /// Diagonal unitary: one multiply per amplitude.
    Diag { factors: Vec<Complex>, qubits: Vec<usize> },
    /// Dense k-qubit unitary via gather/scatter over base indices.
    /// `qubits` keeps the operand order matching the matrix's bit order
    /// (needed to re-derive `offsets` when the kernel is remapped into a
    /// cache tile); `sorted`/`offsets` are the precomputed traversal form.
    Dense { mat: Vec<Complex>, qubits: Vec<usize>, sorted: Vec<usize>, offsets: Vec<usize> },
}

impl Kernel {
    /// Lowers the unitary `matrix` on `qubits` (operand order = matrix bit
    /// order) to a kernel over a state whose qubit `q` lives at bit
    /// `q + shift`, with every entry conjugated when `conjugate` is set
    /// (the density matrix's column side). This is the one lowering rule:
    /// a 1-qubit matrix becomes a [`Butterfly`], a wider one a diagonal or
    /// a block on the amplitudes whose control bits are set only when the
    /// entries that shape skips are exactly 0 and 1, and a dense kernel
    /// otherwise. The amplitudes therefore equal
    /// [`qukit_terra::reference::apply_gate`]'s up to the sign of a zero: a
    /// gate that is the identity only to within rounding, such as a tiny
    /// rotation or a weak noise branch, keeps every multiply.
    ///
    /// # Panics
    ///
    /// Panics when `matrix` is not `2^k × 2^k` for `k = qubits.len() ≥ 1`,
    /// or an operand repeats.
    pub(crate) fn lower(
        matrix: &Matrix,
        qubits: &[usize],
        shift: usize,
        conjugate: bool,
    ) -> Kernel {
        let dim = 1usize << qubits.len();
        assert!(!qubits.is_empty(), "a gate acts on at least one qubit");
        assert!(matrix.rows() == dim && matrix.cols() == dim, "matrix dimension mismatch");
        for (i, q) in qubits.iter().enumerate() {
            assert!(!qubits[..i].contains(q), "operand qubit {q} repeated");
        }
        let maybe_conj = |c: Complex| if conjugate { c.conj() } else { c };
        if qubits.len() == 1 {
            let b = Butterfly::classify(
                [(0, 0), (0, 1), (1, 0), (1, 1)].map(|rc| maybe_conj(matrix[rc])),
            );
            return Kernel::OneQ { b, q: qubits[0] + shift };
        }
        let shifted: Vec<usize> = qubits.iter().map(|&q| q + shift).collect();
        if let Some(factors) = diagonal_of(matrix) {
            return diagonal_kernel(factors.into_iter().map(maybe_conj).collect(), shifted);
        }
        if let Some((t, block)) = controlled_form(matrix) {
            return controlled_kernel(t, block.map(maybe_conj), &shifted);
        }
        let (sorted, offsets) = dense_layout(&shifted);
        let mat = matrix.as_slice().iter().map(|&c| maybe_conj(c)).collect();
        Kernel::Dense { mat, qubits: shifted, sorted, offsets }
    }

    /// Applies this kernel to the whole of `amps` in one pass on the
    /// calling thread, without allocating (a dense kernel over more than
    /// three qubits excepted).
    ///
    /// # Panics
    ///
    /// Panics when the kernel touches a bit outside `amps`.
    pub(crate) fn apply(&self, amps: &mut [Complex], simd: bool) {
        let len = amps.len();
        assert!(len.is_power_of_two() && self.bits() < len, "operand qubit out of range");
        let raw = RawAmps { ptr: amps.as_mut_ptr() };
        let mut scratch = [Complex::ZERO; 8];
        let mut wide = Vec::new();
        // Only the dense kernel gathers into the scratch block.
        let dim = if matches!(self, Kernel::Dense { .. }) { self.dim() } else { 0 };
        let scratch = if dim <= scratch.len() {
            &mut scratch[..]
        } else {
            wide.resize(dim, Complex::ZERO);
            &mut wide[..]
        };
        // SAFETY: `amps` is exclusively borrowed and holds `len`
        // amplitudes; every bit the kernel touches lies below `len`
        // (checked above), and with `chunk_len == len` unit 0 is the whole
        // state, applied once on this thread.
        unsafe { self.apply_unit(&raw, len, len, 0, simd, scratch) };
    }

    fn dim(&self) -> usize {
        match self {
            Kernel::OneQ { .. } | Kernel::Controlled { .. } => 2,
            Kernel::Diag { factors, .. } => factors.len(),
            Kernel::Dense { offsets, .. } => offsets.len(),
        }
    }

    /// Bit mask of every state-index bit this kernel touches or reads.
    fn bits(&self) -> usize {
        match self {
            Kernel::OneQ { q, .. } => 1usize << q,
            Kernel::Controlled { inserts, q, .. } => {
                inserts.iter().fold(1usize << q, |m, &(bit, _)| m | (1usize << bit))
            }
            Kernel::Diag { qubits, .. } | Kernel::Dense { qubits, .. } => {
                qubits.iter().fold(0usize, |m, &q| m | (1usize << q))
            }
        }
    }

    /// Rewrites every qubit-bit index through `pos` (global bit → position
    /// inside a cache tile). `pos` is strictly monotonic over the bits this
    /// kernel uses, so sorted invariants (`inserts`, `sorted`) survive.
    fn remap(&self, pos: &dyn Fn(usize) -> usize) -> Kernel {
        match self {
            Kernel::OneQ { b, q } => Kernel::OneQ { b: b.clone(), q: pos(*q) },
            Kernel::Controlled { b, inserts, q } => Kernel::Controlled {
                b: b.clone(),
                inserts: inserts.iter().map(|&(bit, value)| (pos(bit), value)).collect(),
                q: pos(*q),
            },
            Kernel::Diag { factors, qubits } => Kernel::Diag {
                factors: factors.clone(),
                qubits: qubits.iter().map(|&q| pos(q)).collect(),
            },
            Kernel::Dense { mat, qubits, .. } => {
                let local: Vec<usize> = qubits.iter().map(|&q| pos(q)).collect();
                let (sorted, offsets) = dense_layout(&local);
                Kernel::Dense { mat: mat.clone(), qubits: local, sorted, offsets }
            }
        }
    }

    /// Number of independent work units for a state of `len` amplitudes.
    fn unit_count(&self, len: usize, chunk_len: usize) -> usize {
        let (work, unit) = match self {
            Kernel::OneQ { .. } => (len >> 1, (chunk_len >> 1).max(1)),
            Kernel::Controlled { inserts, .. } => {
                let k = inserts.len();
                ((len >> k).max(1), (chunk_len >> k).max(1))
            }
            Kernel::Diag { .. } => (len, chunk_len),
            Kernel::Dense { offsets, .. } => {
                let k = offsets.len().trailing_zeros() as usize;
                (len >> k, (chunk_len >> k).max(1))
            }
        };
        work.div_ceil(unit).max(1)
    }

    /// Applies work unit `unit` of this kernel.
    ///
    /// # Safety
    ///
    /// Callers must guarantee that (a) `amps` points to a live allocation
    /// of `len` amplitudes, (b) no two concurrent calls pass the same
    /// `(kernel, unit)` pair, and (c) all calls for one kernel complete
    /// before any call for the next kernel starts (the barrier in
    /// [`apply_kernels`]). Distinct units of one kernel touch disjoint
    /// index sets: unit ranges partition the pair/base/index space, and the
    /// bit-insertion expansion of a base index is injective.
    unsafe fn apply_unit(
        &self,
        amps: &RawAmps,
        len: usize,
        chunk_len: usize,
        unit: usize,
        simd: bool,
        scratch: &mut [Complex],
    ) {
        match self {
            Kernel::OneQ { b, q } => {
                let stride = 1usize << q;
                let half = len >> 1;
                let unit_len = (chunk_len >> 1).max(1);
                let start = unit * unit_len;
                let end = (start + unit_len).min(half);
                // Insert a 0 bit at position q to get the low pair index;
                // the low `q` bits pass through, so `expand` is contiguous
                // over aligned runs of `stride` counter values.
                b.sweep(amps, start, end, stride, stride, simd, |p| {
                    ((p >> q) << (q + 1)) | (p & (stride - 1))
                });
            }
            Kernel::Controlled { b, inserts, q } => {
                let stride = 1usize << q;
                let count = (len >> inserts.len()).max(1);
                let unit_len = (chunk_len >> inserts.len()).max(1);
                let start = unit * unit_len;
                let end = (start + unit_len).min(count);
                // Bits below the lowest inserted bit pass through, so
                // `expand` is contiguous over runs of that length.
                let run = 1usize << inserts[0].0;
                // Expand the compact counter: insert the target bit as 0
                // and every control bit as 1, lowest position first.
                b.sweep(amps, start, end, stride, run, simd, |p| {
                    let mut lo = p;
                    for &(bit, value) in inserts {
                        lo = ((lo >> bit) << (bit + 1))
                            | (lo & ((1usize << bit) - 1))
                            | (value << bit);
                    }
                    lo
                });
            }
            Kernel::Diag { factors, qubits } => {
                let start = unit * chunk_len;
                let end = (start + chunk_len).min(len);
                if !simd {
                    for idx in start..end {
                        let mut f = 0usize;
                        for (t, &q) in qubits.iter().enumerate() {
                            f |= ((idx >> q) & 1) << t;
                        }
                        amps.write(idx, amps.read(idx) * factors[f]);
                    }
                    return;
                }
                // The factor index only depends on bits ≥ the lowest
                // operand qubit: hoist the factor over each aligned run
                // and stream the run through the lanes. `amp * f` is
                // reproduced exactly by `complex_mul2`.
                let run = qubits.iter().min().map_or(usize::MAX, |&q| 1usize << q);
                let mut idx = start;
                while idx < end {
                    let run_end =
                        if run == usize::MAX { end } else { ((idx | (run - 1)) + 1).min(end) };
                    let mut f = 0usize;
                    for (t, &q) in qubits.iter().enumerate() {
                        f |= ((idx >> q) & 1) << t;
                    }
                    let factor = factors[f];
                    let weights = neg_im_vec(factor.im);
                    let mut i = idx;
                    while i + 2 <= run_end {
                        amps.store2(i, complex_mul2(amps.load2(i), factor.re, weights));
                        i += 2;
                    }
                    while i < run_end {
                        amps.write(i, amps.read(i) * factor);
                        i += 1;
                    }
                    idx = run_end;
                }
            }
            Kernel::Dense { mat, sorted, offsets, .. } => {
                let dim = offsets.len();
                let k = dim.trailing_zeros() as usize;
                let bases = len >> k;
                let unit_len = (chunk_len >> k).max(1);
                let start = unit * unit_len;
                let end = (start + unit_len).min(bases);
                for b in start..end {
                    let mut base = b;
                    for &q in sorted {
                        let low = base & ((1usize << q) - 1);
                        base = ((base >> q) << (q + 1)) | low;
                    }
                    for (j, slot) in scratch[..dim].iter_mut().enumerate() {
                        *slot = amps.read(base | offsets[j]);
                    }
                    if simd {
                        // Two output rows share one pass over the gathered
                        // column; per-row accumulation order matches the
                        // scalar loop exactly (`dim` is even: k ≥ 2).
                        let mut j = 0;
                        while j + 2 <= dim {
                            let r0 = &mat[j * dim..(j + 1) * dim];
                            let r1 = &mat[(j + 1) * dim..(j + 2) * dim];
                            let mut acc = F64x4([0.0; 4]);
                            for (c, amp) in scratch[..dim].iter().enumerate() {
                                let (m0, m1) = (r0[c], r1[c]);
                                let s = F64x4([amp.re, amp.im, amp.re, amp.im]);
                                let re = F64x4([m0.re, m0.re, m1.re, m1.re]);
                                let im = F64x4([-m0.im, m0.im, -m1.im, m1.im]);
                                acc = acc.add(s.mul(re).add(s.swap_pairs().mul(im)));
                            }
                            amps.write(base | offsets[j], Complex::new(acc.0[0], acc.0[1]));
                            amps.write(base | offsets[j + 1], Complex::new(acc.0[2], acc.0[3]));
                            j += 2;
                        }
                    } else {
                        for (j, &offset) in offsets.iter().enumerate() {
                            let mut acc = Complex::ZERO;
                            let row = &mat[j * dim..(j + 1) * dim];
                            for (value, amp) in row.iter().zip(scratch[..dim].iter()) {
                                acc += *value * *amp;
                            }
                            amps.write(base | offset, acc);
                        }
                    }
                }
            }
        }
    }
}

/// Shared mutable view of the amplitude array for scoped workers.
///
/// Soundness rests on the disjointness contract documented on
/// [`Kernel::apply_unit`]; the scope join guarantees no worker outlives
/// the borrow.
struct RawAmps {
    ptr: *mut Complex,
}

unsafe impl Send for RawAmps {}
unsafe impl Sync for RawAmps {}

impl RawAmps {
    #[inline]
    unsafe fn read(&self, i: usize) -> Complex {
        *self.ptr.add(i)
    }

    #[inline]
    unsafe fn write(&self, i: usize, v: Complex) {
        *self.ptr.add(i) = v;
    }

    /// Loads amplitudes `i`, `i + 1` as `[re₀, im₀, re₁, im₁]` lanes.
    /// Built from field reads — no layout assumption on `Complex`.
    #[inline(always)]
    unsafe fn load2(&self, i: usize) -> F64x4 {
        let a = self.read(i);
        let b = self.read(i + 1);
        F64x4([a.re, a.im, b.re, b.im])
    }

    /// Stores `[re₀, im₀, re₁, im₁]` lanes back to amplitudes `i`, `i + 1`.
    #[inline(always)]
    unsafe fn store2(&self, i: usize, v: F64x4) {
        self.write(i, Complex::new(v.0[0], v.0[1]));
        self.write(i + 1, Complex::new(v.0[2], v.0[3]));
    }
}

/// Lowers a gate stream into kernels over a state whose qubit `q` lives
/// at bit `q + shift` (`shift`/`conjugate` support the density-matrix
/// two-sided application): the ops of the fused `program`, or with fusion
/// off each of `gates` on its own. Errors on instructions a pure-state
/// sweep cannot execute.
fn lower_program(
    program: Option<&FusedProgram>,
    gates: &[Instruction],
    shift: usize,
    conjugate: bool,
    kernels: &mut Vec<Kernel>,
) -> Result<()> {
    let Some(program) = program else {
        return gates
            .iter()
            .try_for_each(|inst| lower_instruction(inst, shift, conjugate, kernels));
    };
    for op in &program.ops {
        match op {
            FusedOp::Diagonal { factors, qubits, .. } => {
                kernels.push(diagonal_kernel(
                    factors.iter().map(|&f| if conjugate { f.conj() } else { f }).collect(),
                    qubits.iter().map(|&q| q + shift).collect(),
                ));
            }
            FusedOp::Unitary { matrix, qubits, .. } => {
                kernels.push(Kernel::lower(matrix, qubits, shift, conjugate));
            }
            // A fusion group kept as its member gate list: lower each
            // member to its specialized kernel, in program order. The
            // cache-blocked executor then applies the whole run per tile —
            // one memory pass — without ever materializing the dense
            // merged matrix. (For the conjugated density-matrix column
            // side this order is still correct: applying conj(g₁), then
            // conj(g₂), … on the column bits computes ρ·g₁†·g₂†… = ρU†.)
            FusedOp::Group { insts, .. } => {
                for inst in insts {
                    lower_instruction(inst, shift, conjugate, kernels)?;
                }
            }
            FusedOp::Passthrough(inst) => lower_instruction(inst, shift, conjugate, kernels)?,
        }
    }
    Ok(())
}

/// Lowers one instruction of a gate stream: a gate to its kernel, a
/// barrier to nothing.
fn lower_instruction(
    inst: &Instruction,
    shift: usize,
    conjugate: bool,
    kernels: &mut Vec<Kernel>,
) -> Result<()> {
    match &inst.op {
        Operation::Gate(g) if inst.condition.is_none() => {
            kernels.push(Kernel::lower(&g.matrix(), &inst.qubits, shift, conjugate));
        }
        Operation::Barrier => {}
        other => {
            return Err(AerError::UnsupportedInstruction {
                name: other.name().to_owned(),
                simulator: "parallel statevector kernels",
            })
        }
    }
    Ok(())
}

/// The controlled kernel for `block` on operand `t`, every other operand
/// a control.
fn controlled_kernel(t: usize, block: [Complex; 4], qubits: &[usize]) -> Kernel {
    let mut inserts: Vec<(usize, usize)> =
        qubits.iter().enumerate().map(|(pos, &q)| (q, usize::from(pos != t))).collect();
    inserts.sort_unstable();
    Kernel::Controlled { b: Butterfly::classify(block), inserts, q: qubits[t] }
}

/// Lowers a diagonal unitary (`factors[i]` on the basis state whose
/// operand bits spell `i`). When every factor is exactly 1 except on the
/// two states where all operands but one are set, it is a phase block on
/// that one operand, controlled by the others: a lone T, S, Z or P becomes
/// a [`Butterfly::Phase`] on its qubit, and CZ or CP touch only the
/// amplitudes with both bits set. Anything else multiplies every
/// amplitude.
fn diagonal_kernel(factors: Vec<Complex>, qubits: Vec<usize>) -> Kernel {
    let dim = factors.len();
    for t in 0..qubits.len() {
        let cmask = (dim - 1) ^ (1 << t);
        if factors.iter().enumerate().all(|(i, &f)| i & cmask == cmask || f == Complex::ONE) {
            let block = [factors[cmask], Complex::ZERO, Complex::ZERO, factors[dim - 1]];
            if qubits.len() == 1 {
                return Kernel::OneQ { b: Butterfly::classify(block), q: qubits[0] };
            }
            return controlled_kernel(t, block, &qubits);
        }
    }
    Kernel::Diag { factors, qubits }
}

/// Precomputes the traversal form of a dense kernel over `qubits` (operand
/// order = matrix bit order): the sorted bit list used to expand base
/// indices, and the `2^k` index offsets of the gathered block.
fn dense_layout(qubits: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let dim = 1usize << qubits.len();
    let mut offsets = vec![0usize; dim];
    for (j, offset) in offsets.iter_mut().enumerate() {
        for (t, &q) in qubits.iter().enumerate() {
            if (j >> t) & 1 == 1 {
                *offset |= 1 << q;
            }
        }
    }
    let mut sorted = qubits.to_vec();
    sorted.sort_unstable();
    (sorted, offsets)
}

/// One phase of a planned kernel pass. Consecutive kernels whose qubit-bit
/// union fits in a chunk-sized tile are applied *per tile* (every kernel of
/// the phase runs over one cache-resident tile before the next tile is
/// touched), turning k full-state sweeps into one. Kernels that cannot be
/// tiled keep the legacy one-kernel-per-pass schedule.
enum PhasePlan {
    /// Legacy schedule: kernel `i` with its own work-unit split.
    Direct(usize),
    /// All union bits below the chunk boundary: tiles are the contiguous
    /// `chunk_len` slices of the state, and the kernels' global bit
    /// indices are valid as slice-local indices unchanged.
    Slices { range: Range<usize> },
    /// Union includes bits at or above the chunk boundary: each tile is
    /// gathered into a scratch block (strided by `spread`), the bit-wise
    /// remapped `local` kernels run on it as a miniature state, and the
    /// block is scattered back.
    Tiles { bits: Vec<usize>, spread: Vec<usize>, local: Vec<Kernel> },
}

impl PhasePlan {
    /// Number of independent work units in this phase.
    fn unit_count(&self, kernels: &[Kernel], len: usize, chunk_len: usize) -> usize {
        match self {
            PhasePlan::Direct(i) => kernels[*i].unit_count(len, chunk_len),
            PhasePlan::Slices { .. } => len / chunk_len,
            PhasePlan::Tiles { bits, .. } => len >> bits.len(),
        }
    }

    /// Applies work unit `unit` of this phase.
    ///
    /// # Safety
    ///
    /// Same contract as [`Kernel::apply_unit`], lifted to phases: distinct
    /// units touch disjoint index sets (slices and tiles partition the
    /// state; every kernel of the phase only moves amplitude within one
    /// tile because its bit mask is a subset of the tile bits), and all
    /// units of one phase must complete before the next phase starts.
    #[allow(clippy::too_many_arguments)]
    unsafe fn apply_unit(
        &self,
        kernels: &[Kernel],
        amps: &RawAmps,
        len: usize,
        chunk_len: usize,
        unit: usize,
        simd: bool,
        scratch: &mut [Complex],
        tile: &mut [Complex],
    ) {
        match self {
            PhasePlan::Direct(i) => {
                kernels[*i].apply_unit(amps, len, chunk_len, unit, simd, scratch);
            }
            PhasePlan::Slices { range } => {
                let slice = RawAmps { ptr: amps.ptr.add(unit * chunk_len) };
                for kernel in &kernels[range.clone()] {
                    // One unit covers the whole slice for every kernel
                    // shape when `len == chunk_len`.
                    kernel.apply_unit(&slice, chunk_len, chunk_len, 0, simd, scratch);
                }
            }
            PhasePlan::Tiles { bits, spread, local } => {
                let tile_len = 1usize << bits.len();
                // Insert a 0 at each tile bit (ascending) to get the base
                // index of tile `unit` — the bit-insertion expansion used
                // by the controlled kernel.
                let mut base = unit;
                for &b in bits {
                    base = ((base >> b) << (b + 1)) | (base & ((1usize << b) - 1));
                }
                let block = &mut tile[..tile_len];
                for (j, slot) in block.iter_mut().enumerate() {
                    *slot = amps.read(base | spread[j]);
                }
                let raw = RawAmps { ptr: block.as_mut_ptr() };
                for kernel in local {
                    kernel.apply_unit(&raw, tile_len, tile_len, 0, simd, scratch);
                }
                for (j, slot) in block.iter().enumerate() {
                    amps.write(base | spread[j], *slot);
                }
            }
        }
    }
}

/// Greedily groups consecutive kernels into cache-blocked phases: a phase
/// grows while the union of kernel bit masks stays within `chunk_qubits`
/// bits. Only multi-kernel groups are blocked (a lone kernel gains nothing
/// from a tile pass), and blocking is skipped entirely for single-chunk
/// states or with SIMD/blocking disabled — reproducing the legacy
/// kernel-at-a-time schedule exactly.
fn plan_phases(kernels: &[Kernel], len: usize, chunk_len: usize, simd: bool) -> Vec<PhasePlan> {
    if !simd || len <= chunk_len {
        return (0..kernels.len()).map(PhasePlan::Direct).collect();
    }
    let chunk_qubits = chunk_len.trailing_zeros() as usize;
    let n_bits = len.trailing_zeros() as usize;
    let mut plans = Vec::new();
    let flush = |plans: &mut Vec<PhasePlan>, start: usize, end: usize, mask: usize| {
        match end.saturating_sub(start) {
            0 => {}
            1 => plans.push(PhasePlan::Direct(start)),
            _ if mask < chunk_len => plans.push(PhasePlan::Slices { range: start..end }),
            _ => {
                // Tile bits: the union mask, padded with the lowest free
                // bits up to a full chunk so gathers read long contiguous
                // runs and the tile amortizes its gather/scatter cost.
                let mut bits: Vec<usize> = (0..n_bits).filter(|&b| (mask >> b) & 1 == 1).collect();
                let mut pad = 0usize;
                while bits.len() < chunk_qubits && pad < n_bits {
                    if (mask >> pad) & 1 == 0 {
                        bits.push(pad);
                    }
                    pad += 1;
                }
                bits.sort_unstable();
                let pos =
                    |q: usize| bits.iter().position(|&b| b == q).expect("kernel bit inside tile");
                let local: Vec<Kernel> =
                    kernels[start..end].iter().map(|k| k.remap(&pos)).collect();
                let tile_len = 1usize << bits.len();
                let mut spread = vec![0usize; tile_len];
                for (j, s) in spread.iter_mut().enumerate() {
                    for (t, &b) in bits.iter().enumerate() {
                        if (j >> t) & 1 == 1 {
                            *s |= 1usize << b;
                        }
                    }
                }
                plans.push(PhasePlan::Tiles { bits, spread, local });
            }
        }
    };
    let mut start = 0usize;
    let mut mask = 0usize;
    for (i, kernel) in kernels.iter().enumerate() {
        let kmask = kernel.bits();
        if (kmask.count_ones() as usize) > chunk_qubits {
            // Wider than a tile (tiny test chunks): legacy schedule.
            flush(&mut plans, start, i, mask);
            plans.push(PhasePlan::Direct(i));
            start = i + 1;
            mask = 0;
            continue;
        }
        if start == i || ((mask | kmask).count_ones() as usize) <= chunk_qubits {
            mask |= kmask;
        } else {
            flush(&mut plans, start, i, mask);
            start = i;
            mask = kmask;
        }
    }
    flush(&mut plans, start, kernels.len(), mask);
    plans
}

/// Applies a kernel list to the amplitude array, serially or with a
/// scoped barrier-synchronized worker pool, after planning the kernels
/// into cache-blocked phases. Returns the number of blocked phases.
fn apply_kernels(state: &mut [Complex], kernels: &[Kernel], config: &ParallelConfig) -> usize {
    let len = state.len();
    let chunk_len = config.chunk_len();
    let threads = config.effective_threads(len);
    let simd = config.simd;
    let scratch_dim = kernels.iter().map(Kernel::dim).max().unwrap_or(1);
    if kernels.is_empty() {
        return 0;
    }
    let plans = plan_phases(kernels, len, chunk_len, simd);
    let tile_len =
        if plans.iter().any(|p| matches!(p, PhasePlan::Tiles { .. })) { chunk_len } else { 0 };

    let amps = RawAmps { ptr: state.as_mut_ptr() };
    let mut chunks = 0u64;
    if threads <= 1 {
        let mut scratch = vec![Complex::ZERO; scratch_dim];
        let mut tile = vec![Complex::ZERO; tile_len];
        for plan in &plans {
            for unit in 0..plan.unit_count(kernels, len, chunk_len) {
                // SAFETY: single-threaded — units run one at a time over
                // the exclusively borrowed `state`.
                unsafe {
                    plan.apply_unit(
                        kernels,
                        &amps,
                        len,
                        chunk_len,
                        unit,
                        simd,
                        &mut scratch,
                        &mut tile,
                    )
                };
                chunks += 1;
            }
        }
    } else {
        let barrier = Barrier::new(threads);
        let amps_ref = &amps;
        let barrier_ref = &barrier;
        let plans_ref = &plans;
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    scope.spawn(move || {
                        let start = Instant::now();
                        let mut scratch = vec![Complex::ZERO; scratch_dim];
                        let mut tile = vec![Complex::ZERO; tile_len];
                        let mut chunks = 0u64;
                        for plan in plans_ref {
                            let units = plan.unit_count(kernels, len, chunk_len);
                            let mut unit = w;
                            while unit < units {
                                // SAFETY: workers claim units in stride
                                // `threads` starting at distinct offsets,
                                // so no unit is processed twice; units of
                                // one phase touch disjoint index sets; the
                                // barrier below orders one phase's writes
                                // before the next phase's reads.
                                unsafe {
                                    plan.apply_unit(
                                        kernels,
                                        amps_ref,
                                        len,
                                        chunk_len,
                                        unit,
                                        simd,
                                        &mut scratch,
                                        &mut tile,
                                    )
                                };
                                chunks += 1;
                                unit += threads;
                            }
                            barrier_ref.wait();
                        }
                        (chunks, start.elapsed().as_secs_f64())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect::<Vec<_>>()
        });
        for (worker_chunks, seconds) in results {
            chunks += worker_chunks;
            qukit_obs::observe_duration(
                "qukit_aer_parallel_worker_seconds",
                std::time::Duration::from_secs_f64(seconds),
            );
        }
    }
    let mut kinds = [0u64; 4];
    for kernel in kernels {
        match kernel {
            Kernel::OneQ { .. } => kinds[0] += 1,
            Kernel::Controlled { .. } => kinds[1] += 1,
            Kernel::Diag { .. } => kinds[2] += 1,
            Kernel::Dense { .. } => kinds[3] += 1,
        }
    }
    qukit_obs::counter_add("qukit_aer_kernel_oneq_total", kinds[0]);
    qukit_obs::counter_add("qukit_aer_kernel_controlled_total", kinds[1]);
    qukit_obs::counter_add("qukit_aer_kernel_diag_total", kinds[2]);
    qukit_obs::counter_add("qukit_aer_kernel_dense_total", kinds[3]);
    let blocked = plans.iter().filter(|plan| !matches!(plan, PhasePlan::Direct(_))).count();
    if blocked > 0 {
        let tiles: u64 = plans
            .iter()
            .filter(|plan| !matches!(plan, PhasePlan::Direct(_)))
            .map(|plan| plan.unit_count(kernels, len, chunk_len) as u64)
            .sum();
        qukit_obs::counter_add("qukit_aer_blocked_phases_total", blocked as u64);
        qukit_obs::counter_add("qukit_aer_blocked_tiles_total", tiles);
    }
    qukit_obs::counter_add("qukit_aer_parallel_chunks_total", chunks);
    blocked
}

/// What one fused evolution did: the decisions `aer.qasm_run` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Evolved {
    /// Source gates.
    pub(crate) gates: usize,
    /// Operations the fusion pass turned them into (the gates themselves
    /// with fusion off).
    pub(crate) ops: usize,
    /// Phases applied tile by tile: none for a state that fits in one
    /// chunk.
    pub(crate) tiled: usize,
}

impl std::fmt::Display for Evolved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fused={}/{} tiled={}", self.ops, self.gates, self.tiled)
    }
}

/// Runs the fusion pass over `gates` when `config.fusion` is set, and
/// records in `tally` every source gate and `entries` amplitudes per op.
/// Returns the program (none with fusion off) and its op count.
fn fuse_gates(
    gates: &[Instruction],
    config: &ParallelConfig,
    entries: u64,
    tally: &mut GateTally,
) -> (Option<FusedProgram>, usize) {
    let program = config.fusion.then(|| fuse(gates));
    let (folded, ops) = match &program {
        Some(program) => (program.ops.iter().map(FusedOp::gates_fused).sum(), program.ops.len()),
        None => (gates.len(), gates.len()),
    };
    tally.record_n(folded as u64, entries * ops as u64);
    (program, ops)
}

/// Fuses and applies a stream of plain gate instructions to the state,
/// recording per-gate tallies.
pub(crate) fn evolve_fused(
    amps: &mut [Complex],
    gates: &[Instruction],
    config: &ParallelConfig,
    tally: &mut GateTally,
) -> Result<Evolved> {
    let (program, ops) = fuse_gates(gates, config, amps.len() as u64, tally);
    let mut kernels = Vec::with_capacity(ops);
    lower_program(program.as_ref(), gates, 0, false, &mut kernels)?;
    let tiled = apply_kernels(amps, &kernels, config);
    Ok(Evolved { gates: gates.len(), ops, tiled })
}

/// Applies a fused program two-sidedly to a flat density matrix
/// (`ρ → UρU†`): `U` on the row-bit copy of each qubit and `conj(U)` on
/// the column bits, reusing the same chunked kernels on the `4^n` array.
pub(crate) fn evolve_fused_density(
    rho_flat: &mut [Complex],
    gates: &[Instruction],
    num_qubits: usize,
    config: &ParallelConfig,
    tally: &mut GateTally,
) -> Result<()> {
    let (program, ops) = fuse_gates(gates, config, rho_flat.len() as u64, tally);
    let mut kernels = Vec::with_capacity(ops * 2);
    // Row side: qubit q lives at bit q + n of the flat index.
    lower_program(program.as_ref(), gates, num_qubits, false, &mut kernels)?;
    // Column side: conj(U) on bits 0..n.
    lower_program(program.as_ref(), gates, 0, true, &mut kernels)?;
    apply_kernels(rho_flat, &kernels, config);
    Ok(())
}

/// Builds the probability CDF of a terminal state (one prefix-sum pass).
pub(crate) fn probability_cdf(amps: &[Complex]) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(amps.len());
    let mut acc = 0.0f64;
    for amp in amps {
        acc += amp.norm_sqr();
        cdf.push(acc);
    }
    cdf
}

/// Draws `shots` basis-state indices from a terminal distribution in
/// fixed-size batches (binary search over the CDF). Batch `b` uses an RNG
/// stream seeded from `(seed, b)`, and batch boundaries are independent of
/// the worker count, so the returned indices are identical for any
/// `threads` value.
pub(crate) fn sample_indices(cdf: &[f64], shots: usize, seed: u64, threads: usize) -> Vec<usize> {
    let mut out = vec![0usize; shots];
    let fill = |batch: usize, slots: &mut [usize]| {
        let mut rng = StdRng::seed_from_u64(batch_seed(seed, batch as u64));
        for slot in slots {
            let r: f64 = rng.gen();
            *slot = cdf.partition_point(|&c| c <= r).min(cdf.len() - 1);
        }
    };
    let batches = shots.div_ceil(SHOT_BATCH).max(1);
    if threads <= 1 || batches <= 1 {
        for (batch, slots) in out.chunks_mut(SHOT_BATCH).enumerate() {
            fill(batch, slots);
        }
    } else {
        std::thread::scope(|scope| {
            for (batch, slots) in out.chunks_mut(SHOT_BATCH).enumerate() {
                scope.spawn(move || fill(batch, slots));
            }
        });
    }
    out
}

/// The gates of a unitary circuit (barriers dropped), ready for
/// [`evolve_fused`].
///
/// # Errors
///
/// Returns [`AerError::UnsupportedInstruction`], naming `simulator`, for
/// measurement, reset or conditioned gates.
pub(crate) fn unitary_gates(
    circuit: &QuantumCircuit,
    simulator: &'static str,
) -> Result<Vec<Instruction>> {
    let mut gates = Vec::new();
    for inst in circuit.instructions() {
        match &inst.op {
            Operation::Gate(_) if inst.condition.is_none() => gates.push(inst.clone()),
            Operation::Barrier => {}
            other => {
                return Err(AerError::UnsupportedInstruction {
                    name: other.name().to_owned(),
                    simulator,
                })
            }
        }
    }
    Ok(gates)
}

/// Evolves `|0…0⟩` through a unitary circuit on the fused kernels and
/// applies its global phase.
pub(crate) fn evolve_unitary(
    circuit: &QuantumCircuit,
    config: &ParallelConfig,
    simulator: &'static str,
) -> Result<Statevector> {
    if circuit.num_qubits() > 30 {
        return Err(AerError::TooManyQubits { requested: circuit.num_qubits(), max: 30 });
    }
    let gates = unitary_gates(circuit, simulator)?;
    let mut amps = vec![Complex::ZERO; 1usize << circuit.num_qubits()];
    amps[0] = Complex::ONE;
    let mut tally = GateTally::default();
    evolve_fused(&mut amps, &gates, config, &mut tally)?;
    tally.flush(crate::simulator::STATEVECTOR_GATES);
    let mut state = Statevector::from_amplitudes(amps);
    state.apply_global_phase(circuit.global_phase());
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qukit_terra::gate::Gate;
    use qukit_terra::matrix::Matrix;

    #[test]
    fn batch_seeds_are_pinned() {
        let seeds: Vec<u64> = [(0, 0), (7, 0), (7, 3), (u64::MAX, 41)]
            .into_iter()
            .map(|(seed, batch)| batch_seed(seed, batch))
            .collect();
        assert_eq!(
            seeds,
            vec![
                0,
                1_346_066_267_577_507_604,
                16_731_224_329_868_871_185,
                14_698_730_054_694_392_885
            ]
        );
    }

    fn random_gates(seed: u64, n: usize, count: usize) -> Vec<Instruction> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gates = Vec::new();
        for _ in 0..count {
            let q = rng.gen_range(0..n);
            let gate = match rng.gen_range(0..6u32) {
                0 => Instruction::gate(Gate::H, vec![q]),
                1 => Instruction::gate(Gate::T, vec![q]),
                2 => Instruction::gate(Gate::Rx(0.3), vec![q]),
                3 => Instruction::gate(Gate::Rz(1.1), vec![q]),
                4 => {
                    let p = (q + 1) % n;
                    Instruction::gate(Gate::CX, vec![q, p])
                }
                _ => {
                    let p = (q + 1) % n;
                    Instruction::gate(Gate::Cp(0.7), vec![q, p])
                }
            };
            gates.push(gate);
        }
        gates
    }

    fn reference_state(gates: &[Instruction], n: usize) -> Vec<Complex> {
        let mut state = vec![Complex::ZERO; 1 << n];
        state[0] = Complex::ONE;
        for inst in gates {
            qukit_terra::reference::apply_gate(
                &mut state,
                &inst.as_gate().unwrap().matrix(),
                &inst.qubits,
            );
        }
        state
    }

    #[test]
    fn fused_parallel_matches_reference_across_configs() {
        for n in [2usize, 3, 5] {
            let gates = random_gates(17 + n as u64, n, 40);
            let expect = reference_state(&gates, n);
            for threads in [1usize, 2, 4] {
                for fusion in [false, true] {
                    for simd in [false, true] {
                        // Tiny chunks force real multi-chunk scheduling even
                        // on small states.
                        let config = ParallelConfig { threads, chunk_qubits: 2, fusion, simd };
                        let mut amps = vec![Complex::ZERO; 1 << n];
                        amps[0] = Complex::ONE;
                        let mut tally = GateTally::default();
                        let evolved = evolve_fused(&mut amps, &gates, &config, &mut tally).unwrap();
                        // With fusion off every gate is an op of its own;
                        // with it on, some gates merge.
                        assert_eq!(evolved.ops == gates.len(), !fusion, "n={n}: {evolved}");
                        for (a, e) in amps.iter().zip(&expect) {
                            assert!(
                                (*a - *e).norm() < 1e-10,
                                "threads={threads} fusion={fusion} simd={simd}: {a:?} vs {e:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fusion_off_lowers_every_gate_as_its_own_op() {
        let gates = vec![Instruction::gate(Gate::H, vec![0]), Instruction::gate(Gate::T, vec![0])];
        let ops = |fusion| {
            let config = ParallelConfig { threads: 1, chunk_qubits: 2, fusion, simd: true };
            let mut amps = vec![Complex::ZERO; 2];
            amps[0] = Complex::ONE;
            let mut tally = GateTally::default();
            evolve_fused(&mut amps, &gates, &config, &mut tally).unwrap().ops
        };
        assert_eq!(ops(false), 2);
        assert_eq!(ops(true), 1);
    }

    #[test]
    fn controlled_kernel_matches_reference_for_multi_control_gates() {
        let n = 4;
        let mut gates =
            vec![Instruction::gate(Gate::H, vec![0]), Instruction::gate(Gate::H, vec![1])];
        gates.push(Instruction::gate(Gate::Ccx, vec![0, 1, 3]));
        gates.push(Instruction::gate(Gate::Crx(0.9), vec![3, 2]));
        gates.push(Instruction::gate(Gate::CX, vec![2, 0]));
        let expect = reference_state(&gates, n);
        for threads in [1usize, 3] {
            for fusion in [false, true] {
                let config = ParallelConfig { threads, chunk_qubits: 1, fusion, simd: true };
                let mut amps = vec![Complex::ZERO; 1 << n];
                amps[0] = Complex::ONE;
                let mut tally = GateTally::default();
                evolve_fused(&mut amps, &gates, &config, &mut tally).unwrap();
                for (a, e) in amps.iter().zip(&expect) {
                    assert!(
                        (*a - *e).norm() < 1e-12,
                        "threads={threads} fusion={fusion}: {a:?} vs {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_execution_is_bit_identical_across_thread_chunk_and_simd_configs() {
        let n = 6;
        let gates = random_gates(5, n, 60);
        let run = |threads, chunk_qubits, simd| {
            let config = ParallelConfig { threads, chunk_qubits, fusion: true, simd };
            let mut amps = vec![Complex::ZERO; 1 << n];
            amps[0] = Complex::ONE;
            let mut tally = GateTally::default();
            evolve_fused(&mut amps, &gates, &config, &mut tally).unwrap();
            amps
        };
        // SIMD, scalar, blocked and unblocked schedules all perform the
        // same IEEE operations per amplitude, so every configuration must
        // agree bit for bit — the contract QUKIT_SIMD=off relies on.
        let baseline = run(1, 2, false);
        for (threads, chunk) in [(2, 2), (4, 3), (8, 1), (3, 4), (1, 3)] {
            for simd in [false, true] {
                assert_eq!(
                    run(threads, chunk, simd),
                    baseline,
                    "threads={threads} chunk={chunk} simd={simd}"
                );
            }
        }
    }

    #[test]
    fn highest_index_target_matches_reference_at_every_chunk_size() {
        // Target qubit = highest index: the butterfly stride equals half
        // the state, the worst case for chunked scheduling and the case
        // the tile planner must remap correctly.
        for n in [1usize, 2, 4, 6] {
            let mut gates = Vec::new();
            for q in 0..n {
                gates.push(Instruction::gate(Gate::H, vec![q]));
            }
            gates.push(Instruction::gate(Gate::Rx(0.37), vec![n - 1]));
            gates.push(Instruction::gate(Gate::T, vec![n - 1]));
            if n >= 2 {
                gates.push(Instruction::gate(Gate::CX, vec![n - 1, 0]));
                gates.push(Instruction::gate(Gate::Cp(0.9), vec![0, n - 1]));
            }
            let expect = reference_state(&gates, n);
            for chunk_qubits in 1..=6usize {
                for simd in [false, true] {
                    let config = ParallelConfig { threads: 2, chunk_qubits, fusion: true, simd };
                    let mut amps = vec![Complex::ZERO; 1 << n];
                    amps[0] = Complex::ONE;
                    let mut tally = GateTally::default();
                    evolve_fused(&mut amps, &gates, &config, &mut tally).unwrap();
                    for (a, e) in amps.iter().zip(&expect) {
                        assert!(
                            (*a - *e).norm() < 1e-12,
                            "n={n} chunk={chunk_qubits} simd={simd}: {a:?} vs {e:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fusion_group_spanning_chunk_boundary_matches_reference() {
        // H(0)·CX(0,4)·H(4) straddles chunk_qubits=2: the group's bit mask
        // {0, 4} exceeds the chunk boundary, forcing the Tiles plan with
        // gather/scatter remapping.
        let n = 5;
        let gates = vec![
            Instruction::gate(Gate::H, vec![0]),
            Instruction::gate(Gate::CX, vec![0, 4]),
            Instruction::gate(Gate::H, vec![4]),
            Instruction::gate(Gate::Rz(0.25), vec![4]),
            Instruction::gate(Gate::Cp(1.3), vec![0, 4]),
        ];
        let expect = reference_state(&gates, n);
        for threads in [1usize, 2] {
            for simd in [false, true] {
                let config = ParallelConfig { threads, chunk_qubits: 2, fusion: true, simd };
                let mut amps = vec![Complex::ZERO; 1 << n];
                amps[0] = Complex::ONE;
                let mut tally = GateTally::default();
                evolve_fused(&mut amps, &gates, &config, &mut tally).unwrap();
                for (a, e) in amps.iter().zip(&expect) {
                    assert!(
                        (*a - *e).norm() < 1e-12,
                        "threads={threads} simd={simd}: {a:?} vs {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_qubit_state_runs_through_every_engine_config() {
        let gates = vec![
            Instruction::gate(Gate::H, vec![0]),
            Instruction::gate(Gate::T, vec![0]),
            Instruction::gate(Gate::Rx(0.8), vec![0]),
        ];
        let expect = reference_state(&gates, 1);
        for chunk_qubits in [1usize, 2, 4] {
            for simd in [false, true] {
                let config = ParallelConfig { threads: 4, chunk_qubits, fusion: true, simd };
                let mut amps = vec![Complex::ZERO; 2];
                amps[0] = Complex::ONE;
                let mut tally = GateTally::default();
                evolve_fused(&mut amps, &gates, &config, &mut tally).unwrap();
                for (a, e) in amps.iter().zip(&expect) {
                    assert!(
                        (*a - *e).norm() < 1e-12,
                        "chunk={chunk_qubits} simd={simd}: {a:?} vs {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_sampling_is_thread_count_invariant() {
        // A skewed 3-qubit distribution.
        let mut amps = vec![Complex::ZERO; 8];
        amps[0] = Complex::new(0.8, 0.0);
        amps[5] = Complex::new(0.6, 0.0);
        let cdf = probability_cdf(&amps);
        let one = sample_indices(&cdf, 3000, 42, 1);
        for threads in [2usize, 4, 8] {
            assert_eq!(sample_indices(&cdf, 3000, 42, threads), one);
        }
        let frac = one.iter().filter(|&&i| i == 0).count() as f64 / one.len() as f64;
        assert!((frac - 0.64).abs() < 0.05, "P(0)≈0.64, got {frac}");
        assert!(one.iter().all(|&i| i == 0 || i == 5));
    }

    #[test]
    fn sampling_matches_distribution_edges() {
        // All mass on the last state: every draw must clamp there.
        let mut amps = vec![Complex::ZERO; 4];
        amps[3] = Complex::ONE;
        let cdf = probability_cdf(&amps);
        assert!(sample_indices(&cdf, 100, 7, 2).iter().all(|&i| i == 3));
    }

    #[test]
    fn density_two_sided_application_matches_pure_state_outer_product() {
        let n = 3;
        let gates = random_gates(23, n, 25);
        // Independent oracle: for a pure initial state and unitary gates,
        // ρ = |ψ⟩⟨ψ| with ψ from the reference kernel.
        let psi = reference_state(&gates, n);
        // Fused two-sided flat path.
        let dim = 1usize << n;
        let mut flat = vec![Complex::ZERO; dim * dim];
        flat[0] = Complex::ONE;
        let config = ParallelConfig { threads: 2, chunk_qubits: 2, fusion: true, simd: true };
        let mut tally = GateTally::default();
        evolve_fused_density(&mut flat, &gates, n, &config, &mut tally).unwrap();
        for i in 0..dim {
            for j in 0..dim {
                let e = psi[i] * psi[j].conj();
                let g = flat[i * dim + j];
                assert!((g - e).norm() < 1e-9, "rho[{i},{j}]: {g:?} vs {e:?}");
            }
        }
    }

    #[test]
    fn simulator_rejects_measurement_and_width() {
        let mut circ = QuantumCircuit::with_size(1, 1);
        circ.measure(0, 0).unwrap();
        let sim =
            crate::simulator::StatevectorSimulator::with_config(ParallelConfig::with_threads(2));
        assert!(sim.run(&circ).is_err());
        let wide = QuantumCircuit::new(31);
        assert!(matches!(sim.run(&wide), Err(AerError::TooManyQubits { requested: 31, max: 30 })));
    }

    #[test]
    fn config_parsing_helpers() {
        assert_eq!(parse_bool_flag("1"), Some(true));
        assert_eq!(parse_bool_flag(" ON "), Some(true));
        assert_eq!(parse_bool_flag("false"), Some(false));
        assert_eq!(parse_bool_flag("banana"), None);
        assert!(!ParallelConfig::serial().fusion);
        assert!(ParallelConfig::with_threads(4).fusion);
        // One chunk ⇒ serial execution regardless of requested threads.
        assert_eq!(ParallelConfig::with_threads(8).effective_threads(16), 1);
        assert_eq!(
            ParallelConfig { threads: 8, chunk_qubits: 2, fusion: true, simd: true }
                .effective_threads(64),
            8
        );
    }

    /// One 2×2 block of every butterfly shape, with the shape it must
    /// classify as.
    fn shapes() -> Vec<(&'static str, Matrix)> {
        let rz = Gate::Rz(0.9).matrix();
        vec![
            ("swap", Gate::X.matrix()),
            ("phase, d0 = 1", Gate::T.matrix()),
            ("phase", rz),
            ("real", Gate::Ry(0.4).matrix()),
            ("cross", Gate::Rx(1.3).matrix()),
            ("general", Gate::U(0.3, 1.1, -0.6).matrix()),
        ]
    }

    fn shape_of(b: &Butterfly) -> &'static str {
        match b {
            Butterfly::Swap => "swap",
            Butterfly::Phase { d0: None, .. } => "phase, d0 = 1",
            Butterfly::Phase { d0: Some(_), .. } => "phase",
            Butterfly::Real(_) => "real",
            Butterfly::Cross { .. } => "cross",
            Butterfly::General(_) => "general",
        }
    }

    fn random_amps(n: usize, seed: u64) -> Vec<Complex> {
        qukit_terra::reference::random_state(n, &mut StdRng::seed_from_u64(seed))
    }

    fn bits_of(amps: &[Complex]) -> Vec<(u64, u64)> {
        amps.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
    }

    #[test]
    fn every_butterfly_shape_matches_the_reference_with_simd_equal_to_scalar() {
        let (n, chunk_qubits) = (7usize, 4usize);
        // Target bit 0 (the in-pair lanes), bit 1, both sides of the tile
        // boundary, and the top bit.
        let targets = [0usize, 1, chunk_qubits - 1, chunk_qubits, n - 1];
        for (name, block) in shapes() {
            for &t in &targets {
                // No control, one control below or above the target, and
                // two controls on either side.
                let others: Vec<usize> = (0..n).filter(|&q| q != t).collect();
                let control_sets: [Vec<usize>; 4] =
                    [vec![], vec![others[0]], vec![others[n - 2]], vec![others[1], others[n - 3]]];
                for controls in control_sets {
                    let mut matrix = block.clone();
                    for _ in &controls {
                        matrix = qukit_terra::gate::controlled_matrix(&matrix);
                    }
                    // controlled_matrix puts each new control at bit 0.
                    let qubits: Vec<usize> =
                        controls.iter().rev().copied().chain(std::iter::once(t)).collect();
                    let kernel = Kernel::lower(&matrix, &qubits, 0, false);
                    let b = match &kernel {
                        Kernel::OneQ { b, .. } | Kernel::Controlled { b, .. } => b,
                        _ => panic!("{name}: a 2×2 block lowers to a butterfly"),
                    };
                    assert_eq!(shape_of(b), name, "target {t}, controls {controls:?}");
                    let context = format!("{name}, target {t}, controls {controls:?}");
                    let start = random_amps(n, 31 + t as u64);
                    let mut expect = start.clone();
                    qukit_terra::reference::apply_gate(&mut expect, &matrix, &qubits);
                    let mut scalar = start.clone();
                    kernel.apply(&mut scalar, false);
                    let mut lanes = start.clone();
                    kernel.apply(&mut lanes, true);
                    assert_eq!(bits_of(&lanes), bits_of(&scalar), "{context}: SIMD vs scalar");
                    for (got, want) in scalar.iter().zip(&expect) {
                        assert!((*got - *want).norm() < 1e-12, "{context}: {got:?} vs {want:?}");
                    }
                    // The same kernel in a blocked phase with a gate on
                    // another qubit, tiled at the boundary, scalar and SIMD,
                    // one and two workers: bit-identical to applying the
                    // three kernels one after another.
                    let h = Kernel::lower(&Gate::H.matrix(), &[others[2]], 0, false);
                    let kernels = [kernel.clone(), h.clone(), kernel.clone()];
                    let mut sequential = start.clone();
                    for k in &kernels {
                        k.apply(&mut sequential, true);
                    }
                    for threads in [1usize, 2] {
                        for simd in [false, true] {
                            let config =
                                ParallelConfig { threads, chunk_qubits, fusion: true, simd };
                            let mut planned = start.clone();
                            apply_kernels(&mut planned, &kernels, &config);
                            assert_eq!(
                                bits_of(&planned),
                                bits_of(&sequential),
                                "{context}: planned, threads {threads}, simd {simd}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lone_diagonals_lower_to_phase_blocks() {
        let gates = [
            Instruction::gate(Gate::T, vec![3]),
            Instruction::gate(Gate::H, vec![0]),
            Instruction::gate(Gate::Cp(0.5), vec![1, 4]),
            Instruction::gate(Gate::H, vec![1]),
            Instruction::gate(Gate::Rzz(0.3), vec![2, 0]),
        ];
        // Fused or gate by gate, the one lowering rule picks the same shapes.
        let fused = fuse(&gates);
        for program in [Some(&fused), None] {
            let mut kernels = Vec::new();
            lower_program(program, &gates, 0, false, &mut kernels).unwrap();
            let shapes: Vec<String> = kernels
                .iter()
                .map(|k| match k {
                    Kernel::OneQ { b, q } => format!("oneq {} q{q}", shape_of(b)),
                    Kernel::Controlled { b, q, inserts } => {
                        format!("controlled {} q{q} {inserts:?}", shape_of(b))
                    }
                    Kernel::Diag { qubits, .. } => format!("diag {qubits:?}"),
                    Kernel::Dense { qubits, .. } => format!("dense {qubits:?}"),
                })
                .collect();
            assert_eq!(
                shapes,
                [
                    "oneq phase, d0 = 1 q3",
                    "oneq real q0",
                    "controlled phase, d0 = 1 q1 [(1, 0), (4, 1)]",
                    "oneq real q1",
                    "diag [2, 0]",
                ],
                "fused: {}",
                program.is_some()
            );
        }
    }

    #[test]
    fn apply_matrix_kernels_equal_the_reference_up_to_the_sign_of_zero() {
        // Random 1-, 2- and 3-qubit unitaries (random U layers and CXs) on
        // every kind of operand placement, plus the standard gates whose
        // shapes skip terms: dense kernels perform the reference's exact
        // operations, and the skipped terms are `1·a` and `0·b`, so every
        // amplitude compares equal as a number.
        let n = 5;
        let mut rng = StdRng::seed_from_u64(8);
        let mut cases: Vec<(Matrix, Vec<usize>)> = Vec::new();
        for k in 1..=3usize {
            for _ in 0..6 {
                let mut circuit = QuantumCircuit::new(k);
                for layer in 0..3 {
                    for q in 0..k {
                        let [a, b, c] = [0; 3].map(|_| rng.gen_range(-3.0..3.0));
                        circuit.append(Gate::U(a, b, c), &[q]).unwrap();
                    }
                    if k > 1 {
                        circuit.cx(layer % k, (layer + 1) % k).unwrap();
                    }
                }
                let matrix = crate::simulator::UnitarySimulator::new().run(&circuit).unwrap();
                let mut qubits: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    qubits.swap(i, rng.gen_range(0..=i));
                }
                qubits.truncate(k);
                cases.push((matrix, qubits));
            }
        }
        for (gate, qubits) in [
            (Gate::CX, vec![3, 1]),
            (Gate::Cp(0.8), vec![0, 4]),
            (Gate::CZ, vec![2, 3]),
            (Gate::Rzz(0.6), vec![4, 1]),
            (Gate::Ccx, vec![4, 0, 2]),
            (Gate::Swap, vec![1, 3]),
            (Gate::S, vec![0]),
        ] {
            cases.push((gate.matrix(), qubits));
        }
        for (matrix, qubits) in cases {
            let start = random_amps(n, 5);
            let mut expect = start.clone();
            qukit_terra::reference::apply_gate(&mut expect, &matrix, &qubits);
            let mut state = Statevector::from_amplitudes(start);
            state.apply_matrix(&matrix, &qubits);
            for (got, want) in state.amplitudes().iter().zip(&expect) {
                assert!(got.re == want.re && got.im == want.im, "{qubits:?}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn states_that_fit_in_one_chunk_plan_no_tiles() {
        let plan = |n: usize| {
            let mut gates: Vec<Instruction> =
                (0..n).map(|q| Instruction::gate(Gate::H, vec![q])).collect();
            gates.extend((1..n).map(|q| Instruction::gate(Gate::CX, vec![q - 1, q])));
            let config = ParallelConfig { simd: true, ..ParallelConfig::with_threads(1) };
            let mut kernels = Vec::new();
            lower_program(Some(&fuse(&gates)), &gates, 0, false, &mut kernels).unwrap();
            plan_phases(&kernels, 1 << n, config.chunk_len(), config.simd)
        };
        let tiles = |plans: &[PhasePlan]| {
            plans.iter().filter(|p| matches!(p, PhasePlan::Tiles { .. })).count()
        };
        let at_16 = plan(16);
        assert!(at_16.iter().all(|p| matches!(p, PhasePlan::Direct(_))), "16 qubits is one chunk");
        assert!(tiles(&plan(20)) > 0, "20 qubits outgrow a chunk and are tiled");
    }
}
