//! Seeded noisy-trajectory corpus.
//!
//! About 200 generated circuits mix mid-circuit measures, resets,
//! classically conditioned gates, measures and resets, general-Kraus and
//! mixed-unitary noise, local errors (some of the wrong arity, which the
//! engine must skip) and asymmetric readout error. Each case is replayed
//! at one and at four threads, and the counts hash of each run must match
//! the pin recorded for it. The pins were computed with the per-shot
//! trajectory loop that the shot-tree engine replaced, so they hold the
//! engine to bit-identical seeded counts.
//!
//! A second test is a distribution oracle: for small terminal-measure
//! circuits the sampled counts must lie within a shot-count total-variation
//! bound of the exact `DensityMatrixSimulator` distribution with readout
//! error applied.

use qukit_aer::counts::Counts;
use qukit_aer::density::DensityMatrixSimulator;
use qukit_aer::noise::{NoiseModel, QuantumError, ReadoutError};
use qukit_aer::parallel::ParallelConfig;
use qukit_aer::simulator::QasmSimulator;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::gate::Gate;
use qukit_terra::hash::FnvHasher;
use qukit_terra::instruction::{Condition, Instruction, Operation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 200;
const SHOTS: usize = 300;

/// The 1q gate names the generator draws from, with their constructors.
fn one_qubit_gate(rng: &mut StdRng) -> Gate {
    let angle = |rng: &mut StdRng| rng.gen_range(-3.2..3.2f64);
    match rng.gen_range(0..8u32) {
        0 => Gate::H,
        1 => Gate::X,
        2 => Gate::Sx,
        3 => Gate::T,
        4 => Gate::Rz(angle(rng)),
        5 => Gate::Ry(angle(rng)),
        6 => Gate::U(angle(rng), angle(rng), angle(rng)),
        _ => Gate::Z,
    }
}

fn two_qubit_gate(rng: &mut StdRng) -> Gate {
    match rng.gen_range(0..4u32) {
        0 | 1 => Gate::CX,
        2 => Gate::CZ,
        _ => Gate::Swap,
    }
}

/// `k` distinct qubits out of `n`.
fn distinct(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut picked = Vec::with_capacity(k);
    while picked.len() < k {
        let q = rng.gen_range(0..n);
        if !picked.contains(&q) {
            picked.push(q);
        }
    }
    picked
}

/// A condition on one clbit, or on the whole register.
fn condition(rng: &mut StdRng, clbits: usize) -> Condition {
    if rng.gen_bool(0.7) {
        Condition { clbits: vec![rng.gen_range(0..clbits)], value: rng.gen_range(0..2u64) }
    } else {
        Condition { clbits: (0..clbits).collect(), value: rng.gen_range(0..1u64 << clbits) }
    }
}

/// Case `index`: a circuit and the noise model it runs under.
fn case(index: u64) -> (QuantumCircuit, NoiseModel) {
    let mut rng = StdRng::seed_from_u64(0x7ace_0000 + index);
    let n = rng.gen_range(2..7usize);
    let mut circ = QuantumCircuit::with_size(n, n);
    // One case in four may condition measures, resets and noisy gates,
    // whose draws then depend on the register.
    let conditioned_stochastic = index.is_multiple_of(4);
    for _ in 0..rng.gen_range(8..26u32) {
        let inst = match rng.gen_range(0..16u32) {
            0..=5 => Instruction::gate(one_qubit_gate(&mut rng), distinct(&mut rng, n, 1)),
            6..=8 => Instruction::gate(two_qubit_gate(&mut rng), distinct(&mut rng, n, 2)),
            9 if n >= 3 => Instruction::gate(Gate::Ccx, distinct(&mut rng, n, 3)),
            9..=11 => Instruction::measure(rng.gen_range(0..n), rng.gen_range(0..n)),
            12 => Instruction::reset(rng.gen_range(0..n)),
            13 | 14 => {
                let gate = if rng.gen_bool(0.5) { Gate::X } else { Gate::Z };
                let mut inst = Instruction::gate(gate, distinct(&mut rng, n, 1));
                inst.condition = Some(condition(&mut rng, n));
                inst
            }
            _ if conditioned_stochastic => {
                let mut inst = if rng.gen_bool(0.5) {
                    Instruction::measure(rng.gen_range(0..n), rng.gen_range(0..n))
                } else {
                    Instruction::reset(rng.gen_range(0..n))
                };
                inst.condition = Some(condition(&mut rng, n));
                inst
            }
            _ => Instruction::barrier((0..n).collect()),
        };
        circ.push(inst).expect("generated instruction is valid");
    }
    for q in 0..n {
        circ.measure(q, q).unwrap();
    }
    (circ, noise(&mut rng, n))
}

/// A noise model drawing on every channel kind the engine resolves.
fn noise(rng: &mut StdRng, n: usize) -> NoiseModel {
    let mut model = NoiseModel::new();
    if rng.gen_bool(0.1) {
        return model;
    }
    let p = |rng: &mut StdRng| rng.gen_range(0.0..0.2f64);
    for name in ["h", "x", "sx", "t", "rz", "ry", "u", "z"] {
        match rng.gen_range(0..6u32) {
            0 => model.add_all_qubit_error(name, QuantumError::depolarizing(p(rng), 1)),
            1 => {
                let t1 = rng.gen_range(20.0..80.0f64);
                let t2 = rng.gen_range(10.0..t1);
                let time = rng.gen_range(0.5..8.0f64);
                model.add_all_qubit_error(name, QuantumError::thermal_relaxation(t1, t2, time));
            }
            2 => model.add_all_qubit_error(name, QuantumError::bit_flip(p(rng))),
            3 => model.add_all_qubit_error(name, QuantumError::amplitude_damping(p(rng))),
            _ => {}
        }
    }
    if rng.gen_bool(0.7) {
        model.add_all_qubit_error("cx", QuantumError::depolarizing(p(rng), 2));
    }
    if rng.gen_bool(0.3) {
        // Wrong arity: a 1q channel on a 2q gate is skipped by the engine.
        model.add_all_qubit_error("cz", QuantumError::phase_flip(p(rng)));
    }
    for _ in 0..rng.gen_range(0..3u32) {
        let pair = distinct(rng, n, 2);
        model.add_local_error("cx", pair, QuantumError::depolarizing(p(rng), 2));
        let q = rng.gen_range(0..n);
        model.add_local_error("h", vec![q], QuantumError::phase_damping(p(rng)));
    }
    if rng.gen_bool(0.6) {
        model.set_readout_error(ReadoutError {
            prob_1_given_0: rng.gen_range(0.0..0.15f64),
            prob_0_given_1: rng.gen_range(0.0..0.25f64),
        });
    }
    model
}

fn counts_hash(counts: &Counts) -> u64 {
    let mut hasher = FnvHasher::default();
    hasher.u64(counts.num_clbits() as u64);
    for (outcome, n) in counts.iter() {
        hasher.u64(outcome);
        hasher.u64(n as u64);
    }
    hasher.finish64()
}

fn run(index: u64, threads: usize) -> Counts {
    let (circ, noise) = case(index);
    QasmSimulator::new()
        .with_seed(index)
        .with_noise(noise)
        .with_parallel(ParallelConfig::with_threads(threads))
        .run(&circ, SHOTS)
        .expect("corpus case runs")
}

/// `(threads=1, threads=4)` counts hashes per case.
const PINS: &[(u64, u64)] = &[
    (0x640c49ddc10487ff, 0x349328ae5e764d13),
    (0xdcb3f0d18fbae0a6, 0xefa3368e7df03012),
    (0xd5cc94e557909729, 0x0b4f1f1554301caf),
    (0xc1f234b101fa43ab, 0x4b0669b858241f9c),
    (0x9f0843b168cd5660, 0x9e3ea561f4d539de),
    (0x4048221b63bf61b1, 0xfb01dfd2b2c56c87),
    (0xf5d8609c883f02ad, 0x87751c9695fd05ac),
    (0x3cdeb0244acccbfe, 0x4438dcd110d0a004),
    (0xc43010e7b8099836, 0xeedb75de9affb93a),
    (0xb447cc99204baf10, 0x660754a11eee991c),
    (0x55143c840a461e67, 0x36465233f294a3e9),
    (0xf29e1258bea2ef2b, 0xec635a7ab92edd51),
    (0x9b17e3c184a6b414, 0x5e24edce297ebaee),
    (0xb9b506e0aa1e01b7, 0x9af970b7ec414b4f),
    (0x86f5d0de1e9bd22e, 0xd684270292d5eca8),
    (0x20eee16b71c41486, 0x4d580236c4f97008),
    (0x7c0dcd8ff90047a0, 0x63a842fe873627f7),
    (0xd0a7e68e2bc28759, 0x677b5b5b7b907145),
    (0x8b80fac012e18699, 0x53b3cdfd6914a13b),
    (0xc858f7cc32c6402e, 0x8d33321c1cfd19bc),
    (0x0351d4f8ae812dca, 0x2c6e9d9b18836b0a),
    (0x682bbc08a9021138, 0x22a90e64b42f30c5),
    (0x773423b28699ac3d, 0x337486ea12718ef8),
    (0x80baa71d6a9fc117, 0xb268e48a212bd835),
    (0x21b55209d59fc1b2, 0x16681838b5dfbabe),
    (0x9918700167ae08e9, 0x9dff057af378da51),
    (0x6267a9886c20a0ca, 0x2e2bb19b197926ce),
    (0x185ab971a5ef8b76, 0x04805d44315f9b92),
    (0x19d51897baf9ee28, 0xd3878d0e40ef7362),
    (0x97c9cd4e38cc55f7, 0xa9775f1a1626fff3),
    (0x5dfedbc2fe078f5f, 0xe9ffaa3b764dffeb),
    (0xc783ddc242e67e37, 0xc8e11e18a070a568),
    (0x697e61a92262cb88, 0x9c02e6c2759f1575),
    (0x229f06ef963bcb9d, 0xeff019ba1f6cf5ad),
    (0x3b436c073e29c5c1, 0xce10d9551cc062be),
    (0x2234c52b9e20bc1c, 0xff328e83af643b0c),
    (0xd29a7b2598ba9ce8, 0xd8b6b788adfc9ef2),
    (0x0384a3e866043fb3, 0x4965d725ff26348a),
    (0x0d9ecb417b9270b3, 0x96bd111cfde6f526),
    (0x9a209888b5fc849d, 0x951164f313baa6b8),
    (0x2b61d775f4d9fde5, 0xd3fa26acdbc66e45),
    (0x4e4556334cac8439, 0x9c6840330c70df6e),
    (0x4057842cb85835d1, 0xfa7f11d00e1768d3),
    (0x78e8bef1c9dcdc46, 0x0aa3548f909a5d64),
    (0x4a9293edb8dcd872, 0xa91ed8d7f7f4ea16),
    (0x76f8a3470cc09464, 0x63591ae3a9efe69b),
    (0x157f41b5f1b9c997, 0x8c12f9ecd2bbb9ca),
    (0x6056e312439d8f11, 0x3e8166069f57df51),
    (0x365199f7558c82fd, 0x12649e2c7ae500ed),
    (0xfd35b49c5b0dbfa6, 0x1098fb7f186c9f3a),
    (0xb3304783e0575de6, 0xf6232ac8b6164898),
    (0xd4dc9a279bc6fcdf, 0x82f263edef70bd49),
    (0x75ce11bb46986aa2, 0x6865d46c381c4b32),
    (0x1fddf3e8d213ff1d, 0x9992c7be54d1019d),
    (0x7bc316e1d59da04e, 0xed9244465f45ce3a),
    (0x97ec05aa3d564c8f, 0x6b2c8a94148d8ca0),
    (0x502269f495e63312, 0x9c1377fa442536fc),
    (0x02cbbd32e577e4fe, 0xa8da44d71059d306),
    (0xe597482c0d0fcc00, 0x475cac0840de1b6b),
    (0x974cffb03b75222e, 0xcb5053f78e15ae1a),
    (0x44e5f100ed35e17c, 0x8b12af2263b3d136),
    (0xabbc5421cec9f928, 0x4792d33aa20923c7),
    (0xec9d96dca1261cb1, 0x214a074ca454429a),
    (0x74aac68ae46015fd, 0x89fd776248397c9d),
    (0x7ae82e0e4c78f342, 0x8c072bbdc4bb3e2c),
    (0xd923119c828b00d0, 0x4764d95512d286e6),
    (0x1c3c9e06334fd6c5, 0x871eb281d4484846),
    (0x371a7f96e2f8a17c, 0xf3227bd3a87265aa),
    (0xb506182b1d688257, 0xb8baddf75ea2fe9b),
    (0xb84ae9ac2cd8ede0, 0xd0cda46299c5cb4a),
    (0x0fd12ed592a19697, 0x04a12e2debc0af97),
    (0x03d2a9ccbb74dcd4, 0x5f059320dfb8c624),
    (0x061a946550f48df8, 0xa98398cfbaacea6a),
    (0x81b67bd1b3028342, 0xd078d7beac443c4e),
    (0x02e63d92e343fcd8, 0x3eb9cca8cc4cf3e2),
    (0x17e414ffe286f76e, 0x0f11211bf4f2036e),
    (0x4b7a0c40e99c151d, 0xd0999cfd78c186c3),
    (0xdca9cf6a434488e2, 0xaa59c01f17363d9a),
    (0xff8e4af8aa535e2b, 0xabb0143132f840ab),
    (0xfd1359a97a583436, 0x5aeb53234cbb30ce),
    (0x492591e3c61b7b1f, 0x27da191508a3b133),
    (0x7ae4228350b15412, 0x05da84a818570b52),
    (0x604201fe4fdaffd2, 0x9717bf31e7346c1a),
    (0x8811363701bec430, 0xcff0b209f2a128ca),
    (0x327aef7c70057f39, 0x953a45e9cf5ab499),
    (0xb278a4722580e597, 0x18b4f4af39eb25ab),
    (0x5e41a00013fe0b11, 0xee20b83125bdeb2d),
    (0x200973765f9c2fe8, 0x6e2e5f4713d51aec),
    (0x1c0a41b5311e0c13, 0x07ef82da89b9831c),
    (0x33191ae8e5eda4a3, 0x1c81c9655c30ff5f),
    (0x777037982a95cace, 0x5bb439418e4962c0),
    (0x6f731cf06b15b54a, 0x10878c4110211d60),
    (0x4ef72ce14e3fa9ce, 0x37908620cd387772),
    (0x8d7f12de93832072, 0xe70845c58e34d126),
    (0xddfa3918616a3336, 0x7fe67987f0ef5b6e),
    (0x9b85e728ea537b22, 0x0b4342a9167120ba),
    (0xf516c9987d94d3f8, 0xacb81fec68b4b7b4),
    (0x7c28be69e887279b, 0xbf81fd7103a32c85),
    (0x906a84d9f27eef44, 0x2c4514f7b1eb9f58),
    (0x96a2257ec1a0c50d, 0x4dabc7aa6c3a1682),
    (0x6d04d691f91e4395, 0x31d4c435455a3a00),
    (0xae2a29f6c4dd1047, 0xa0b06cc9b2f89f5d),
    (0x57c37c2b912c1485, 0x77ba1c801077b5d2),
    (0x14cac79cb0a2ce77, 0x933b9213982eef69),
    (0x4ae0a26ef18276fb, 0xdcac28abed2655dc),
    (0x39e0e068a74982ca, 0xae31a8936f40e09d),
    (0x98da0343e2a6a03a, 0xc98d5f750181ecd6),
    (0x8273e8549172787d, 0xe5c61e410e911267),
    (0x2318763b391f70ab, 0x80e3c7d7e0de132f),
    (0x8f69fda5838c7f4b, 0xd59ebbd73b4f1aad),
    (0x1f8cccd5d2fb0150, 0x33ecfc3017a6d6f6),
    (0xda5d093789e8a2c6, 0xce1375ee10447c9a),
    (0xfcbe4763a2b98e3e, 0x48c5d5863169f97e),
    (0xa4f2b7b925407187, 0x69a6dd439a1973bd),
    (0x6ae2f8e62dbc1dc9, 0x53c5911c4563f444),
    (0x825220a3838851a3, 0x1f6abdc694371215),
    (0x120f75aaf06cd88a, 0xa4e8cae7631aed5e),
    (0xb07adf4122d4f9cc, 0x877721431e74ea87),
    (0xab6c5e2fce42a263, 0x4064b994e2a6d0c9),
    (0xc946ab901c381aef, 0x3012e25f3c21da77),
    (0xcca819ca102a07bc, 0xb6f60f0c399f17af),
    (0x256b9aeb4ffc2eda, 0x730c2c6971d36892),
    (0x0c8c44939718f144, 0x103be3fa1f0c8ade),
    (0x58f0494d77b8aadd, 0x77dfb1e48ad136ab),
    (0xb69076dcd3471f10, 0x32d01c1f3c2c4f0e),
    (0x06f81c7e70e4feca, 0x558b15a4f68de0e8),
    (0x3f274cfdd494cad3, 0xc3138a28b07c2920),
    (0x56a1825d0ff162d4, 0x3392d8feab25ee38),
    (0x3f2032e7eb3604ae, 0xaa9aa0f579a4dbe2),
    (0x6d0d0b81af15f54e, 0x4df4e767ff478c23),
    (0x2ae8426d5ab4bc7a, 0x79fb9c33532e4802),
    (0xfe1a48ef9ac2d8a1, 0xf2bb1d7b505ac899),
    (0x2b3f0e1f508ada28, 0x9c5fd0ac8f57a676),
    (0xe5c47e36170ab0f7, 0xff376ad310335f67),
    (0x69ee264a11df04aa, 0x011991e480313092),
    (0x88e522b4b581d063, 0x648c0a3bec4a122f),
    (0xf942ae898ddd6012, 0xdc368f229770b8ea),
    (0xd503cacb028fa153, 0x805217de9757c80b),
    (0xcc8d7410fedc93ba, 0xe381e08aa9cd5816),
    (0x81da97d3c4674457, 0x9eadd08084a5462a),
    (0x3b7e435966832a73, 0x84a488d1043367fb),
    (0xcbb73fdfeed8c3fa, 0xf0309682002c4462),
    (0x0f6deb9607f40e44, 0x2614b8137d3221a1),
    (0x291b9d8b166db922, 0x7f7538f83b074e78),
    (0x38d98f5c8a99b068, 0x41da5e97aefa4bc9),
    (0xe729b6e28311458e, 0xa634fc01c7f999e6),
    (0x0bab1cc12074b71a, 0xd4b8c8cd514b087b),
    (0x64cde98e39a52899, 0x863e78075b46c935),
    (0x160813efb9f72276, 0x7e613659d5449a42),
    (0xdf6a5b045e379364, 0x863aa7c25d46a72b),
    (0x5f29a73132b685a2, 0x6ba290615ae261b6),
    (0x193d6059da887855, 0xdb975e621842683a),
    (0x686b4c3824d93100, 0x0a7b46a9ea771252),
    (0xbf4a5196c1b0596d, 0x1ab6cadab610ea09),
    (0xb9f59a2d2b0a68aa, 0xfac2329692ceebce),
    (0x1167d8810e494d0a, 0xbd26f7ed26798bea),
    (0x8f740d3876dd037c, 0x34759f4e3fe54bba),
    (0x2ff568c62392eb6b, 0x9a8fe8228c7681a6),
    (0x76b295a5ab776a43, 0xd78962d870389423),
    (0xc972fdd73383d8af, 0xf8a01b3759d8145d),
    (0x38405a080203d4e0, 0x707ebb74895e8d26),
    (0x628f8fc70cbab723, 0x6104294ce8e00eb4),
    (0x54141d8fbe7e0f4e, 0x266ad7acb3829046),
    (0x2ef61771060ef65f, 0x50c4e7fbf58e325b),
    (0xdad717fd4ce1408b, 0x69700605dcdceca8),
    (0x33f446d832334966, 0xac2c599d47cd857e),
    (0x44629d540306e33f, 0xe6eb98c90f9f15d7),
    (0x8d3e661ea5766f96, 0x38556b50dcbaed1a),
    (0xe465fe48258fdb7b, 0x836a83036ce12251),
    (0x00df99421cbc8924, 0x61c318935753974b),
    (0xe96b33bff4a90393, 0xdfe4cfd7daf471bb),
    (0x6db2052c37289326, 0x589ef0f7a514909a),
    (0x101085fd66cc79e8, 0x55b5adc20db491d8),
    (0x190b5c477f7c6e02, 0x2b2411acc6c8abf6),
    (0xff11b1b49fb3206a, 0x19b7e1a00e1b2424),
    (0x6c201456ba7caca6, 0x2787a2806f971056),
    (0xdd92a0ce3f0559aa, 0x6dc49ec4c14a861a),
    (0xd486e9d206ce40ac, 0x7f7321679861a0ce),
    (0x27335ef19212a65d, 0x66afc12bca65fc63),
    (0x9bd34150c9f70c34, 0xd4ce3c84dde43cb5),
    (0x01f60b0b18eb85fd, 0x26bbab1fefef0497),
    (0x7a5766fbdcf10191, 0x14a597b84697ee2b),
    (0x67804ab4002cf85f, 0xcb409b59436d3edf),
    (0xbf143c9bb5ad014f, 0x2023e6681e9eca79),
    (0xc59c957d41cd08c6, 0x48589e4c252cbbd6),
    (0x78fcfec074b59f37, 0x7b307c94148c546f),
    (0x2de9eea31d83eabc, 0xd147f347481e2054),
    (0xafa015a8aff6fac8, 0xef100848a0d4b302),
    (0xca8ac181bc2a676c, 0x236ee5f7ed6e33ea),
    (0x742078a9dd4a366b, 0x133c23e2df70e8b7),
    (0x46fc829fff26521a, 0xc0500e3300c55718),
    (0xbb4326d30cfa7ec4, 0xbf52651843a69d6c),
    (0x3e27ced598e0e90e, 0xa093a1adfdc30a24),
    (0x91c05679bf5eb04e, 0xb0c60752786a81d4),
    (0x07feecffcd8f4db6, 0xd8fe6419994325be),
    (0x461f0e48a8da8514, 0xfecb7f55d26a648d),
    (0x284aebfb3cd3cf3c, 0x98d56f93f83cd541),
    (0x1a83870bb6120117, 0x70cd918c16956c5d),
    (0x74c0273ee6c527a5, 0x74c0273ee6c527a5),
    (0x0003891a621ecd3e, 0x940be3ef51348db0),
];

#[test]
fn corpus_counts_match_the_per_shot_pins_at_one_and_four_threads() {
    assert_eq!(PINS.len() as u64, CASES);
    let mut mismatches = Vec::new();
    for (index, &pin) in (0..CASES).zip(PINS) {
        let got = (counts_hash(&run(index, 1)), counts_hash(&run(index, 4)));
        if got != pin {
            mismatches.push(format!("case {index}: pinned {pin:#x?}, got {got:#x?}"));
        }
    }
    assert!(mismatches.is_empty(), "{} diverged:\n{}", mismatches.len(), mismatches.join("\n"));
}

#[test]
fn a_long_run_walked_in_chunks_matches_its_per_shot_pins() {
    // 4000 uniforms per shot: a serial run draws and walks its 600 shots
    // in several chunks, which must continue the stream exactly. The
    // pins were computed with the per-shot loop, like `PINS`.
    let mut circ = QuantumCircuit::with_size(1, 8);
    circ.x(0).unwrap();
    for i in 0..2000 {
        circ.measure(0, i % 8).unwrap();
    }
    let mut noise = NoiseModel::new();
    noise.set_readout_error(ReadoutError { prob_1_given_0: 0.1, prob_0_given_1: 0.3 });
    for (threads, pin) in [(1, 0x6150_2d2a_1abe_ee8f), (4, 0xec26_3127_6cf6_74f0)] {
        let counts = QasmSimulator::new()
            .with_seed(17)
            .with_noise(noise.clone())
            .with_parallel(ParallelConfig::with_threads(threads))
            .run(&circ, 600)
            .unwrap();
        assert_eq!(counts_hash(&counts), pin, "{threads} threads");
    }
}

#[test]
fn corpus_exercises_every_branch_kind() {
    let (mut conditioned_stochastic, mut mid_measure, mut reset, mut readout) = (0, 0, 0, 0);
    for index in 0..CASES {
        let (circ, noise) = case(index);
        let body = &circ.instructions()[..circ.size() - circ.num_qubits()];
        conditioned_stochastic += usize::from(body.iter().any(|inst| {
            inst.condition.is_some() && matches!(inst.op, Operation::Measure | Operation::Reset)
        }));
        mid_measure += usize::from(body.iter().any(|inst| inst.op == Operation::Measure));
        reset += usize::from(body.iter().any(|inst| inst.op == Operation::Reset));
        readout += usize::from(noise.readout_error().is_some());
    }
    for (what, n) in [
        ("conditioned measure/reset", conditioned_stochastic),
        ("mid-circuit measure", mid_measure),
        ("reset", reset),
        ("readout error", readout),
    ] {
        assert!(n >= 20, "only {n} cases with a {what}");
    }
}

/// Exact clbit distribution of a terminal-measure circuit: the density
/// matrix diagonal of its unitary part, read out through `readout`.
fn exact_distribution(circ: &QuantumCircuit, noise: &NoiseModel) -> Vec<f64> {
    let mut unitary = QuantumCircuit::new(circ.num_qubits());
    let mut clbit_of = vec![None; circ.num_qubits()];
    for inst in circ.instructions() {
        match &inst.op {
            Operation::Measure => clbit_of[inst.qubits[0]] = Some(inst.clbits[0]),
            _ => {
                unitary.push(inst.clone()).unwrap();
            }
        }
    }
    let rho = DensityMatrixSimulator::new().with_noise(noise.clone()).run(&unitary).unwrap();
    let mut dist = vec![0.0; 1 << circ.num_clbits()];
    for (basis, p) in rho.probabilities().into_iter().enumerate() {
        let mut outcome = 0usize;
        for (q, clbit) in clbit_of.iter().enumerate() {
            if let Some(c) = clbit {
                outcome |= ((basis >> q) & 1) << c;
            }
        }
        dist[outcome] += p;
    }
    if let Some(readout) = noise.readout_error() {
        let a = readout.assignment_matrix();
        for c in 0..circ.num_clbits() {
            let mut next = vec![0.0; dist.len()];
            for (outcome, p) in dist.iter().enumerate() {
                let actual = (outcome >> c) & 1;
                for recorded in 0..2 {
                    next[(outcome & !(1 << c)) | (recorded << c)] += a[recorded][actual] * p;
                }
            }
            dist = next;
        }
    }
    dist
}

#[test]
fn small_circuits_sample_the_density_matrix_distribution() {
    const ORACLE_SHOTS: usize = 4000;
    for index in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x0eac_1e00 + index);
        let n = rng.gen_range(2..4usize);
        let mut circ = QuantumCircuit::with_size(n, n);
        for _ in 0..rng.gen_range(4..10u32) {
            if rng.gen_bool(0.6) {
                circ.push(Instruction::gate(one_qubit_gate(&mut rng), distinct(&mut rng, n, 1)))
                    .unwrap();
            } else {
                circ.push(Instruction::gate(two_qubit_gate(&mut rng), distinct(&mut rng, n, 2)))
                    .unwrap();
            }
        }
        for q in 0..n {
            circ.measure(q, q).unwrap();
        }
        let noise = noise(&mut rng, n);
        let exact = exact_distribution(&circ, &noise);
        for threads in [1, 4] {
            let counts = QasmSimulator::new()
                .with_seed(index)
                .with_noise(noise.clone())
                .with_parallel(ParallelConfig::with_threads(threads))
                .run(&circ, ORACLE_SHOTS)
                .unwrap();
            let tv: f64 = exact
                .iter()
                .enumerate()
                .map(|(outcome, p)| (counts.probability(outcome as u64) - p).abs())
                .sum::<f64>()
                / 2.0;
            // Twice the worst-case expected deviation of K outcomes.
            let bound = (exact.len() as f64 / ORACLE_SHOTS as f64).sqrt();
            assert!(tv <= bound, "case {index} at {threads} threads: TV {tv:.4} > {bound:.4}");
        }
    }
}
