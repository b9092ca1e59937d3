//! Registry of the paper's benchmark suite.

use crate::adder::{ripple_carry_adder, AdderConfig};
use crate::bv::{bernstein_vazirani, BvConfig};
use crate::cat::{cat_state, CatConfig};
use crate::ghz::{ghz_state, GhzConfig};
use crate::multiplier::{shift_add_multiplier, MultiplierConfig};
use crate::select::{select_heisenberg, SelectConfig};
use crate::square_root::{square_root_search, SquareRootConfig};
use lsqca_circuit::Circuit;
use std::fmt;

/// The seven benchmarks evaluated in Sec. VI-B of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Benchmark {
    /// 433-qubit ripple-carry adder.
    Adder,
    /// 280-qubit Bernstein–Vazirani.
    Bv,
    /// 260-qubit cat-state preparation.
    Cat,
    /// 127-qubit GHZ-state preparation.
    Ghz,
    /// 400-qubit shift-and-add multiplier.
    Multiplier,
    /// 60-qubit square root via amplitude amplification.
    SquareRoot,
    /// SELECT for the 11×11 2-D Heisenberg model (143 qubits).
    Select,
}

impl Benchmark {
    /// All benchmarks in the order the paper lists them.
    pub const ALL: [Benchmark; 7] = [
        Benchmark::Adder,
        Benchmark::Bv,
        Benchmark::Cat,
        Benchmark::Ghz,
        Benchmark::Multiplier,
        Benchmark::SquareRoot,
        Benchmark::Select,
    ];

    /// The short name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Adder => "adder",
            Benchmark::Bv => "bv",
            Benchmark::Cat => "cat",
            Benchmark::Ghz => "ghz",
            Benchmark::Multiplier => "multiplier",
            Benchmark::SquareRoot => "square_root",
            Benchmark::Select => "SELECT",
        }
    }

    /// Parses a benchmark from its figure name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Benchmark> {
        let lower = name.to_ascii_lowercase();
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name().to_ascii_lowercase() == lower)
    }

    /// True for benchmarks that consume no magic states (purely Clifford), where
    /// the paper expects LSQCA's overhead to be largest.
    pub fn is_clifford_only(self) -> bool {
        matches!(self, Benchmark::Bv | Benchmark::Cat | Benchmark::Ghz)
    }

    /// The generator configuration for the given instance size. The returned
    /// [`BenchmarkConfig`] carries the concrete generator parameters, so its
    /// [`descriptor`](BenchmarkConfig::descriptor) is a content-accurate cache
    /// key: changing any parameter here changes the descriptor.
    pub fn config(self, size: InstanceSize) -> BenchmarkConfig {
        match size {
            InstanceSize::Paper => match self {
                Benchmark::Adder => BenchmarkConfig::Adder(AdderConfig::paper()),
                Benchmark::Bv => BenchmarkConfig::Bv(BvConfig::paper()),
                Benchmark::Cat => BenchmarkConfig::Cat(CatConfig::paper()),
                Benchmark::Ghz => BenchmarkConfig::Ghz(GhzConfig::paper()),
                Benchmark::Multiplier => BenchmarkConfig::Multiplier(MultiplierConfig::paper()),
                Benchmark::SquareRoot => BenchmarkConfig::SquareRoot(SquareRootConfig::paper()),
                Benchmark::Select => BenchmarkConfig::Select(SelectConfig::paper_benchmark()),
            },
            InstanceSize::Reduced => match self {
                Benchmark::Adder => BenchmarkConfig::Adder(AdderConfig { operand_bits: 16 }),
                Benchmark::Bv => BenchmarkConfig::Bv(BvConfig {
                    secret_bits: 31,
                    secret: None,
                    seed: 0x5eed,
                }),
                Benchmark::Cat => BenchmarkConfig::Cat(CatConfig { qubits: 32 }),
                Benchmark::Ghz => BenchmarkConfig::Ghz(GhzConfig { qubits: 16 }),
                Benchmark::Multiplier => BenchmarkConfig::Multiplier(MultiplierConfig {
                    operand_bits: 8,
                    partial_products: None,
                }),
                Benchmark::SquareRoot => BenchmarkConfig::SquareRoot(SquareRootConfig {
                    candidate_bits: 5,
                    grover_rounds: 1,
                    target: 9,
                }),
                Benchmark::Select => BenchmarkConfig::Select(SelectConfig::for_width(4)),
            },
        }
    }

    /// Generates the paper-sized instance of this benchmark.
    pub fn paper_instance(self) -> Circuit {
        self.config(InstanceSize::Paper).build()
    }

    /// Generates a reduced instance with the same structure, suitable for unit
    /// tests and quick benchmark runs (seconds instead of minutes).
    pub fn reduced_instance(self) -> Circuit {
        self.config(InstanceSize::Reduced).build()
    }
}

/// Which instance of a benchmark to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceSize {
    /// The reduced test/CI instance of [`Benchmark::reduced_instance`].
    Reduced,
    /// The paper-sized instance of [`Benchmark::paper_instance`].
    Paper,
}

/// The concrete generator configuration of one benchmark instance.
///
/// Its [`descriptor`](BenchmarkConfig::descriptor) starts every workload key
/// (and so every result-store key): the `Debug` rendering includes every
/// generator parameter, so two instances share a key exactly when their
/// generators would produce the same circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchmarkConfig {
    /// Ripple-carry adder parameters.
    Adder(AdderConfig),
    /// Bernstein–Vazirani parameters.
    Bv(BvConfig),
    /// Cat-state parameters.
    Cat(CatConfig),
    /// GHZ-state parameters.
    Ghz(GhzConfig),
    /// Shift-and-add multiplier parameters.
    Multiplier(MultiplierConfig),
    /// Square-root amplitude-amplification parameters.
    SquareRoot(SquareRootConfig),
    /// SELECT-for-Heisenberg parameters.
    Select(SelectConfig),
}

impl BenchmarkConfig {
    /// Runs the generator this configuration parameterizes.
    pub fn build(&self) -> Circuit {
        match self {
            BenchmarkConfig::Adder(c) => ripple_carry_adder(*c),
            BenchmarkConfig::Bv(c) => bernstein_vazirani(c.clone()),
            BenchmarkConfig::Cat(c) => cat_state(*c),
            BenchmarkConfig::Ghz(c) => ghz_state(*c),
            BenchmarkConfig::Multiplier(c) => shift_add_multiplier(*c),
            BenchmarkConfig::SquareRoot(c) => square_root_search(*c),
            BenchmarkConfig::Select(c) => select_heisenberg(*c),
        }
    }

    /// Emission-logic revision of the generator this configuration names.
    /// Part of the workload key: bumping a generator's `REVISION` invalidates
    /// that generator's stored results and cached artifacts (and only those)
    /// even when the configuration is unchanged — the footgun a `Debug`-rendered config
    /// alone cannot catch. See `crate::cache` for the
    /// revision-vs-`ISA_VERSION` bump rule.
    pub fn revision(&self) -> u32 {
        match self {
            BenchmarkConfig::Adder(_) => crate::adder::REVISION,
            BenchmarkConfig::Bv(_) => crate::bv::REVISION,
            BenchmarkConfig::Cat(_) => crate::cat::REVISION,
            BenchmarkConfig::Ghz(_) => crate::ghz::REVISION,
            BenchmarkConfig::Multiplier(_) => crate::multiplier::REVISION,
            BenchmarkConfig::SquareRoot(_) => crate::square_root::REVISION,
            BenchmarkConfig::Select(_) => crate::select::REVISION,
        }
    }

    /// A content-accurate cache-key descriptor: the generator name, every
    /// parameter value, and the generator's emission-logic
    /// [`revision`](Self::revision).
    pub fn descriptor(&self) -> String {
        format!("{self:?}#rev{}", self.revision())
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Logical qubit count of the paper-sized instance (Sec. VI-B).
pub fn paper_qubit_count(benchmark: Benchmark) -> u32 {
    match benchmark {
        Benchmark::Adder => 433,
        Benchmark::Bv => 280,
        Benchmark::Cat => 260,
        Benchmark::Ghz => 127,
        Benchmark::Multiplier => 400,
        Benchmark::SquareRoot => 60,
        Benchmark::Select => 143,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_instances_build_for_every_benchmark() {
        for b in Benchmark::ALL {
            let c = b.reduced_instance();
            assert!(!c.is_empty(), "{b} reduced instance is empty");
            assert!(c.num_qubits() > 0);
        }
    }

    #[test]
    fn paper_qubit_counts_match_the_generators() {
        // The large generators are exercised for the cheaper benchmarks here;
        // the expensive ones (multiplier, SELECT, adder) verify their counts in
        // their own module tests and in integration tests.
        assert_eq!(
            Benchmark::Ghz.paper_instance().num_qubits(),
            paper_qubit_count(Benchmark::Ghz)
        );
        assert_eq!(
            Benchmark::Cat.paper_instance().num_qubits(),
            paper_qubit_count(Benchmark::Cat)
        );
        assert_eq!(
            Benchmark::Bv.paper_instance().num_qubits(),
            paper_qubit_count(Benchmark::Bv)
        );
        assert_eq!(
            Benchmark::SquareRoot.paper_instance().num_qubits(),
            paper_qubit_count(Benchmark::SquareRoot)
        );
    }

    #[test]
    fn name_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(Benchmark::from_name("select"), Some(Benchmark::Select));
        assert_eq!(Benchmark::from_name("nope"), None);
    }

    #[test]
    fn descriptors_carry_the_generator_revision() {
        for b in Benchmark::ALL {
            let cfg = b.config(InstanceSize::Reduced);
            let descriptor = cfg.descriptor();
            assert!(
                descriptor.ends_with(&format!("#rev{}", cfg.revision())),
                "descriptor `{descriptor}` must end with the revision suffix"
            );
            // A revision bump would change the descriptor (and therefore the
            // cache key) without any config change.
            let bumped = descriptor.replace(
                &format!("#rev{}", cfg.revision()),
                &format!("#rev{}", cfg.revision() + 1),
            );
            assert_ne!(descriptor, bumped);
        }
    }

    #[test]
    fn clifford_only_classification() {
        assert!(Benchmark::Bv.is_clifford_only());
        assert!(Benchmark::Cat.is_clifford_only());
        assert!(Benchmark::Ghz.is_clifford_only());
        assert!(!Benchmark::Multiplier.is_clifford_only());
        assert!(!Benchmark::Select.is_clifford_only());
    }
}
