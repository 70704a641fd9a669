//! Seeded input generation: the circuit families of the paper as plain
//! gate lists, their OpenQASM 2.0 text, and the benchmark's own cost
//! measures (CX cost and depth), computed without the compiler under test.

use std::f64::consts::PI;

/// SplitMix64: a small, fixed PRNG so that one seed always yields the same
/// inputs, independent of any random-number crate the program uses.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// A generator derived from this seed and a stream label, so that
    /// independent input streams do not share draws.
    pub fn fork(seed: u64, stream: u64) -> Self {
        Self::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An angle in `(0.05, 2π − 0.05)`, away from the identity.
    pub fn angle(&mut self) -> f64 {
        0.05 + self.unit() * (2.0 * PI - 0.1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// One gate of a generated circuit, by its OpenQASM name.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub name: &'static str,
    pub params: Vec<f64>,
    pub qubits: Vec<usize>,
}

/// A generated circuit: `n` qubits, a gate list and, optionally, terminal
/// measurements of every qubit `i` into classical bit `i`.
#[derive(Debug, Clone)]
pub struct Circ {
    pub n: usize,
    pub ops: Vec<Op>,
    pub measure: bool,
}

/// CX cost of one gate, from a fixed table: the number of CX gates its
/// textbook decomposition needs. Single-qubit gates cost nothing.
pub fn cx_cost(name: &str) -> u64 {
    match name {
        "cx" | "cz" | "cy" | "ch" => 1,
        "cp" | "crz" | "crx" | "cry" | "rzz" | "rxx" => 2,
        "swap" => 3,
        "ccx" | "ccz" => 6,
        "cswap" => 8,
        _ => 0,
    }
}

/// ASAP depth of a sequence of gates given by the qubits each touches.
pub fn depth<'a>(gates: impl Iterator<Item = &'a [usize]>, num_qubits: usize) -> usize {
    let mut level = vec![0usize; num_qubits];
    let mut deepest = 0;
    for qubits in gates {
        let next = qubits.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
        for &q in qubits {
            level[q] = next;
        }
        deepest = deepest.max(next);
    }
    deepest
}

impl Circ {
    fn new(n: usize) -> Self {
        Self { n, ops: Vec::new(), measure: false }
    }

    fn g(&mut self, name: &'static str, params: &[f64], qubits: &[usize]) {
        self.ops.push(Op { name, params: params.to_vec(), qubits: qubits.to_vec() });
    }

    /// Total CX cost of the gates, by [`cx_cost`].
    pub fn cx_cost(&self) -> u64 {
        self.ops.iter().map(|op| cx_cost(op.name)).sum()
    }

    /// ASAP depth of the gates (measurements excluded).
    pub fn depth(&self) -> usize {
        depth(self.ops.iter().map(|op| op.qubits.as_slice()), self.n)
    }

    /// The circuit as OpenQASM 2.0 text.
    pub fn qasm(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(32 + self.ops.len() * 24);
        s.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
        let _ = writeln!(s, "qreg q[{}];", self.n);
        if self.measure {
            let _ = writeln!(s, "creg c[{}];", self.n);
        }
        for op in &self.ops {
            s.push_str(op.name);
            if !op.params.is_empty() {
                let params: Vec<String> = op.params.iter().map(|p| format!("{p:?}")).collect();
                let _ = write!(s, "({})", params.join(","));
            }
            let args: Vec<String> = op.qubits.iter().map(|q| format!("q[{q}]")).collect();
            let _ = writeln!(s, " {};", args.join(","));
        }
        if self.measure {
            for q in 0..self.n {
                let _ = writeln!(s, "measure q[{q}] -> c[{q}];");
            }
        }
        s
    }

    /// Appends the inverse of `ops` (the benchmark's own inverse table).
    fn mirror(&mut self, ops: &[Op]) {
        for op in ops.iter().rev() {
            let (name, params) = match op.name {
                "t" => ("tdg", vec![]),
                "tdg" => ("t", vec![]),
                "s" => ("sdg", vec![]),
                "sdg" => ("s", vec![]),
                "rx" | "ry" | "rz" | "cp" => (op.name, vec![-op.params[0]]),
                "h" | "x" | "cx" | "cz" | "swap" | "ccx" => (op.name, vec![]),
                other => panic!("no inverse for generated gate {other}"),
            };
            self.ops.push(Op { name, params, qubits: op.qubits.clone() });
        }
    }
}

/// One `rz` of a seeded angle per qubit. Placed first, it makes every
/// generated circuit distinct, so no input repeats within a run.
fn tag_layer(c: &mut Circ, rng: &mut Rng) {
    for q in 0..c.n {
        let a = rng.angle();
        c.g("rz", &[a], &[q]);
    }
}

/// A random basis-state preparation: `x` on about half the qubits.
fn x_layer(c: &mut Circ, rng: &mut Rng) -> u64 {
    let mut bits = 0u64;
    for q in 0..c.n {
        if rng.below(2) == 1 {
            c.g("x", &[], &[q]);
            bits |= 1 << q;
        }
    }
    bits
}

/// The QFT on `order`; with `band`, the approximate QFT that keeps only
/// the controlled phases between qubits at most `band` apart.
fn qft_gates(c: &mut Circ, order: &[usize], band: Option<usize>) {
    let n = order.len();
    for j in 0..n {
        c.g("h", &[], &[order[j]]);
        let last = band.map_or(n, |b| (j + b + 1).min(n));
        for k in j + 1..last {
            c.g("cp", &[PI / (1u64 << (k - j)) as f64], &[order[k], order[j]]);
        }
    }
    for j in 0..n / 2 {
        c.g("swap", &[], &[order[j], order[n - 1 - j]]);
    }
}

/// Compile-workload circuit families (unitary, no measurements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Qft,
    Ghz,
    Adder,
    Toffoli,
    Entangler,
    Random,
}

impl Family {
    pub const ALL: [Family; 6] = [
        Family::Qft,
        Family::Ghz,
        Family::Adder,
        Family::Toffoli,
        Family::Entangler,
        Family::Random,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Qft => "qft",
            Family::Ghz => "ghz",
            Family::Adder => "adder",
            Family::Toffoli => "toffoli",
            Family::Entangler => "entangler",
            Family::Random => "random",
        }
    }

    /// A circuit of this family on about `n` qubits (the Cuccaro adder
    /// rounds to its `2k + 2` register size).
    pub fn build(self, n: usize, rng: &mut Rng) -> Circ {
        match self {
            Family::Qft => {
                let mut c = Circ::new(n);
                tag_layer(&mut c, rng);
                x_layer(&mut c, rng);
                let order = rng.permutation(n);
                qft_gates(&mut c, &order, None);
                c
            }
            Family::Ghz => {
                let mut c = Circ::new(n);
                tag_layer(&mut c, rng);
                let order = rng.permutation(n);
                c.g("h", &[], &[order[0]]);
                for w in order.windows(2) {
                    c.g("cx", &[], &[w[0], w[1]]);
                }
                c
            }
            Family::Adder => cuccaro(((n.max(4) - 2) / 2).max(1), rng),
            Family::Toffoli => {
                let mut c = Circ::new(n);
                tag_layer(&mut c, rng);
                x_layer(&mut c, rng);
                let order = rng.permutation(n);
                for w in order.windows(3) {
                    c.g("ccx", &[], &[w[0], w[1], w[2]]);
                }
                for w in order.windows(3).rev() {
                    c.g("ccx", &[], &[w[2], w[1], w[0]]);
                }
                c
            }
            Family::Entangler => {
                let mut c = Circ::new(n);
                tag_layer(&mut c, rng);
                for layer in 0..3 {
                    for q in 0..n {
                        let a = rng.angle();
                        c.g("ry", &[a], &[q]);
                    }
                    let offset = layer % 2;
                    for q in (offset..n - 1).step_by(2) {
                        c.g("cx", &[], &[q, q + 1]);
                    }
                    c.g("cx", &[], &[n - 1, 0]);
                }
                c
            }
            Family::Random => {
                let mut c = Circ::new(n);
                tag_layer(&mut c, rng);
                let ops = random_gates(n, 6 * n, &HTRX, rng);
                c.ops.extend(ops);
                c
            }
        }
    }
}

/// The Cuccaro ripple-carry adder on `2k + 2` qubits (carry-in, `a`, `b`,
/// carry-out), with seeded input bits.
fn cuccaro(k: usize, rng: &mut Rng) -> Circ {
    let n = 2 * k + 2;
    let mut c = Circ::new(n);
    tag_layer(&mut c, rng);
    x_layer(&mut c, rng);
    let cin = 0;
    let a = |i: usize| 1 + 2 * i;
    let b = |i: usize| 2 + 2 * i;
    let cout = n - 1;
    let maj = |c: &mut Circ, x: usize, y: usize, z: usize| {
        c.g("cx", &[], &[z, y]);
        c.g("cx", &[], &[z, x]);
        c.g("ccx", &[], &[x, y, z]);
    };
    let uma = |c: &mut Circ, x: usize, y: usize, z: usize| {
        c.g("ccx", &[], &[x, y, z]);
        c.g("cx", &[], &[z, x]);
        c.g("cx", &[], &[x, y]);
    };
    maj(&mut c, cin, b(0), a(0));
    for i in 1..k {
        maj(&mut c, a(i - 1), b(i), a(i));
    }
    c.g("cx", &[], &[a(k - 1), cout]);
    for i in (1..k).rev() {
        uma(&mut c, a(i - 1), b(i), a(i));
    }
    uma(&mut c, cin, b(0), a(0));
    c
}

/// Gate mixes of the random circuits: one in three gates is a CX.
const HTRX: [&str; 6] = ["cx", "cx", "h", "t", "rx", "rx"];
const CLIFFORD: [&str; 6] = ["cx", "cx", "h", "h", "s", "s"];

/// `count` gates on random qubits, cycling through `mix` and then shuffled.
/// The mix of gate kinds is fixed, so circuits of one width and length
/// cost about the same to simulate whatever the seed.
fn random_gates(n: usize, count: usize, mix: &[&'static str; 6], rng: &mut Rng) -> Vec<Op> {
    let mut ops: Vec<Op> = (0..count)
        .map(|i| {
            let q = rng.below(n);
            match mix[i % mix.len()] {
                "cx" => {
                    let mut t = rng.below(n - 1);
                    if t >= q {
                        t += 1;
                    }
                    Op { name: "cx", params: vec![], qubits: vec![q, t] }
                }
                "rx" => Op { name: "rx", params: vec![rng.angle()], qubits: vec![q] },
                name => Op { name, params: vec![], qubits: vec![q] },
            }
        })
        .collect();
    rng.shuffle(&mut ops);
    ops
}

/// The exact outcome distribution of a measured circuit, as
/// `(outcome, probability)` pairs over its support.
pub type Dist = Vec<(u64, f64)>;

/// Product distribution: qubits in `fixed` (bitmask) are deterministic,
/// qubit `q` in `free` is 1 with probability `p1`.
fn product_dist(fixed: u64, free: &[(usize, f64)]) -> Dist {
    let mut dist = vec![(fixed, 1.0)];
    for &(q, p1) in free {
        let mut next = Vec::with_capacity(dist.len() * 2);
        for &(outcome, p) in &dist {
            let base = outcome & !(1u64 << q);
            next.push((base, p * (1.0 - p1)));
            next.push((base | (1u64 << q), p * p1));
        }
        dist = next;
    }
    dist.retain(|&(_, p)| p > 0.0);
    dist
}

/// A mirror circuit: `layers` of random {H, T, Rx, CX} gates, their
/// inverse, `x` on a random bitstring, then `ry` on `free` qubits. Its
/// outcome distribution is a closed-form product distribution.
pub fn mirror_htrx(n: usize, gates: usize, free: usize, rng: &mut Rng) -> (Circ, Dist) {
    let body = random_gates(n, gates, &HTRX, rng);
    mirror_with(n, body, free, true, rng)
}

/// A Clifford mirror circuit: random {H, S, CX} gates, their inverse, `x`
/// on a random bitstring, then `h` on `free` qubits (uniform on those).
pub fn mirror_clifford(n: usize, gates: usize, free: usize, rng: &mut Rng) -> (Circ, Dist) {
    let body = random_gates(n, gates, &CLIFFORD, rng);
    mirror_with(n, body, free, false, rng)
}

fn mirror_with(n: usize, body: Vec<Op>, free: usize, ry: bool, rng: &mut Rng) -> (Circ, Dist) {
    let mut c = Circ::new(n);
    c.ops.extend(body.iter().cloned());
    c.mirror(&body);
    let bits = x_layer(&mut c, rng);
    let mut order = rng.permutation(n);
    order.truncate(free);
    let mut free_probs = Vec::with_capacity(free);
    for &q in &order {
        let bit = (bits >> q) & 1;
        let p1 = if ry {
            let theta = rng.angle();
            c.g("ry", &[theta], &[q]);
            let s = (theta / 2.0).sin().powi(2);
            if bit == 0 {
                s
            } else {
                1.0 - s
            }
        } else {
            c.g("h", &[], &[q]);
            0.5
        };
        free_probs.push((q, p1));
    }
    c.measure = true;
    (c, product_dist(bits, &free_probs))
}

/// GHZ on `n` qubits, measured: half `0…0`, half `1…1`.
pub fn ghz_measured(n: usize, rng: &mut Rng) -> (Circ, Dist) {
    let mut c = Circ::new(n);
    let order = rng.permutation(n);
    c.g("h", &[], &[order[0]]);
    for w in order.windows(2) {
        c.g("cx", &[], &[w[0], w[1]]);
    }
    c.measure = true;
    let all = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    (c, vec![(0, 0.5), (all, 0.5)])
}

/// A basis state `x`, the approximate QFT of band `band`, then its
/// inverse, measured: always `x`.
pub fn qft_roundtrip(n: usize, band: usize, rng: &mut Rng) -> (Circ, Dist) {
    let mut c = Circ::new(n);
    let bits = x_layer(&mut c, rng);
    let order = rng.permutation(n);
    let mut qft = Circ::new(n);
    qft_gates(&mut qft, &order, Some(band));
    c.ops.extend(qft.ops.iter().cloned());
    c.mirror(&qft.ops);
    c.measure = true;
    (c, vec![(bits, 1.0)])
}

/// Bernstein–Vazirani for an `n`-bit secret on `n + 1` qubits, every
/// qubit measured. The ancilla ends in |1⟩, so the noiseless answer is
/// `secret | 1 << n`. A seeded `rx` on the ancilla, which sits in an
/// eigenstate of X, makes the payload distinct without changing the answer.
pub fn bernstein_vazirani(n: usize, rng: &mut Rng) -> (Circ, u64) {
    let mut secret = 0u64;
    while secret == 0 {
        secret = rng.next_u64() & ((1u64 << n) - 1);
    }
    let anc = n;
    let mut c = Circ::new(n + 1);
    c.g("x", &[], &[anc]);
    for q in 0..=n {
        c.g("h", &[], &[q]);
    }
    let tag = rng.angle();
    c.g("rx", &[tag], &[anc]);
    for q in 0..n {
        if (secret >> q) & 1 == 1 {
            c.g("cx", &[], &[q, anc]);
        }
    }
    for q in 0..=n {
        c.g("h", &[], &[q]);
    }
    c.measure = true;
    (c, secret | 1 << n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Family::Random.build(6, &mut Rng::new(3)).qasm();
        let b = Family::Random.build(6, &mut Rng::new(3)).qasm();
        let c = Family::Random.build(6, &mut Rng::new(4)).qasm();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cost_and_depth_follow_the_table() {
        let mut c = Circ::new(3);
        c.g("h", &[], &[0]);
        c.g("cx", &[], &[0, 1]);
        c.g("cp", &[0.3], &[1, 2]);
        c.g("swap", &[], &[0, 2]);
        c.g("ccx", &[], &[0, 1, 2]);
        assert_eq!(c.cx_cost(), 1 + 2 + 3 + 6);
        assert_eq!(c.depth(), 5);
    }

    #[test]
    fn product_distribution_sums_to_one() {
        let d = product_dist(0b101, &[(1, 0.25), (2, 0.5)]);
        let total: f64 = d.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(d.len(), 4);
    }
}
