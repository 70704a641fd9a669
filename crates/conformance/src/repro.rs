//! Reproducer emission.
//!
//! A shrunk failing circuit is only useful if a developer can replay it
//! without the fuzzer. For every failure the harness produces two
//! artifacts: the minimized circuit serialized as OpenQASM 2.0 (suitable
//! for checking into `tests/repros/`), and a ready-to-paste `#[test]`
//! function that parses the QASM and re-runs the full oracle suite.

use crate::runner::Mismatch;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::hash::fnv1a64;

/// A self-contained description of one shrunk failure.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// Stable, filesystem-safe identifier (`<oracle>_<hash>`).
    pub slug: String,
    /// The minimized circuit as OpenQASM 2.0.
    pub qasm: String,
    /// A ready-to-paste Rust test replaying the failure.
    pub test_case: String,
}

impl Reproducer {
    /// Builds the reproducer artifacts for a shrunk failing circuit.
    pub fn new(circuit: &QuantumCircuit, mismatch: &Mismatch) -> Self {
        let qasm = qukit_terra::qasm::emit(circuit);
        // FNV-1a keeps slugs stable: the same shrunk circuit always maps
        // to the same file name, so repeated fuzz runs dedupe naturally.
        let slug = format!("{}_{:08x}", mismatch.oracle, fnv1a64(qasm.as_bytes()) as u32);
        let test_case = render_test(&slug, &qasm, mismatch);
        Self { slug, qasm, test_case }
    }

    /// Suggested file name for the QASM artifact.
    pub fn file_name(&self) -> String {
        format!("{}.qasm", self.slug)
    }
}

fn render_test(slug: &str, qasm: &str, mismatch: &Mismatch) -> String {
    let mut out = String::new();
    out.push_str("#[test]\n");
    out.push_str(&format!("fn repro_{slug}() {{\n"));
    out.push_str(&format!("    // Shrunk by the conformance harness: {mismatch}\n"));
    out.push_str("    let qasm = concat!(\n");
    for line in qasm.lines() {
        out.push_str(&format!("        \"{}\\n\",\n", line.replace('"', "\\\"")));
    }
    out.push_str("    );\n");
    out.push_str("    let circuit = qukit_terra::qasm::parse(qasm).unwrap();\n");
    out.push_str("    let suite = qukit_conformance::OracleSuite::all_with_defaults();\n");
    out.push_str("    suite.check(&circuit).expect(\"reproducer must pass once fixed\");\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (QuantumCircuit, Mismatch) {
        let mut circ = QuantumCircuit::new(2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        let mismatch =
            Mismatch { oracle: "differential".to_owned(), detail: "dd disagrees".to_owned() };
        (circ, mismatch)
    }

    #[test]
    fn slug_is_stable_and_oracle_tagged() {
        let (circ, mismatch) = sample();
        let a = Reproducer::new(&circ, &mismatch);
        let b = Reproducer::new(&circ, &mismatch);
        assert_eq!(a.slug, b.slug);
        assert!(a.slug.starts_with("differential_"));
        assert!(a.file_name().ends_with(".qasm"));
    }

    #[test]
    fn checked_in_reproducer_keeps_its_slug() {
        // The file name was derived from the emitted QASM when the
        // fuzzer found it; re-deriving it must give the same slug.
        let path =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/repros/transpile_2ef7e921.qasm");
        let source = std::fs::read_to_string(path).expect("checked-in reproducer");
        let circuit = qukit_terra::qasm::parse(&source).expect("reproducer parses");
        let mismatch = Mismatch { oracle: "transpile".to_owned(), detail: String::new() };
        assert_eq!(Reproducer::new(&circuit, &mismatch).slug, "transpile_2ef7e921");
    }

    #[test]
    fn qasm_artifact_parses_back() {
        let (circ, mismatch) = sample();
        let repro = Reproducer::new(&circ, &mismatch);
        let parsed = qukit_terra::qasm::parse(&repro.qasm).unwrap();
        assert_eq!(parsed.num_qubits(), 2);
        assert_eq!(parsed.num_gates(), 2);
    }

    #[test]
    fn test_snippet_mentions_the_harness_entry_points() {
        let (circ, mismatch) = sample();
        let repro = Reproducer::new(&circ, &mismatch);
        assert!(repro.test_case.contains(&format!("fn repro_{}()", repro.slug)));
        assert!(repro.test_case.contains("qukit_conformance::OracleSuite"));
        assert!(repro.test_case.contains("qukit_terra::qasm::parse"));
    }
}
