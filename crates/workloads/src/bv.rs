//! Bernstein–Vazirani benchmark.
//!
//! The Bernstein–Vazirani algorithm recovers a hidden bit string `s` with one
//! oracle query: prepare the input register in `|+⟩^n`, the target in `|−⟩`,
//! apply the oracle (a CNOT from every input bit where `s_i = 1` onto the
//! target), then Hadamard and measure the inputs. The circuit is purely
//! Clifford; the paper uses a 280-qubit instance.

use lsqca_circuit::register::RegisterRole;
use lsqca_circuit::Circuit;

/// Emission-logic revision of this generator, part of the workload key (see
/// `lsqca_workloads::workload_key`) that result-store records and cached
/// artifacts are keyed on. Bump it whenever the circuit emitted for an
/// *unchanged* configuration changes, so stale records and artifacts are
/// never found again; a config-field change already changes the key by itself.
pub const REVISION: u32 = 1;
/// Deterministic seed-expanded bit stream (splitmix64), replacing the external
/// `rand` dependency for secret generation. Note: this produces a *different*
/// bit-string for a given seed than the previous `StdRng`-based stream, so the
/// generated BV oracle (and its CNOT count) changed once at this switch; it is
/// stable from here on. Pass an explicit `secret` to pin an exact oracle.
fn seeded_bits(seed: u64, count: u32) -> Vec<bool> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) & 1 == 1
        })
        .collect()
}

/// Parameters of the Bernstein–Vazirani benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BvConfig {
    /// Number of input (secret) bits; the circuit uses one extra target qubit.
    pub secret_bits: u32,
    /// The hidden bit string. When `None`, a pseudo-random string derived from
    /// `seed` with roughly half the bits set is used (QASMBench uses a dense
    /// secret, which maximizes oracle CNOT count).
    pub secret: Option<Vec<bool>>,
    /// Seed for the generated secret when `secret` is `None`.
    pub seed: u64,
}

impl BvConfig {
    /// The paper's instance: 280 qubits total (279 secret bits + 1 target).
    pub fn paper() -> Self {
        BvConfig {
            secret_bits: 279,
            secret: None,
            seed: 0x5eed,
        }
    }
}

impl Default for BvConfig {
    fn default() -> Self {
        BvConfig::paper()
    }
}

/// Generates the Bernstein–Vazirani circuit.
///
/// # Panics
///
/// Panics if `secret_bits` is zero or an explicit secret has the wrong length.
pub fn bernstein_vazirani(config: BvConfig) -> Circuit {
    assert!(config.secret_bits > 0, "bv needs at least one secret bit");
    let secret: Vec<bool> = match &config.secret {
        Some(s) => {
            assert_eq!(
                s.len(),
                config.secret_bits as usize,
                "secret length must equal secret_bits"
            );
            s.clone()
        }
        None => seeded_bits(config.seed, config.secret_bits),
    };

    let total = config.secret_bits + 1;
    let mut circuit = Circuit::with_registers(format!("bv_n{total}"));
    let inputs = circuit.add_register("input", RegisterRole::Operand, config.secret_bits);
    let target = circuit
        .add_register("target", RegisterRole::Ancilla, 1)
        .start;

    for q in inputs.clone() {
        circuit.prep_z(q);
        circuit.h(q);
    }
    // Target in |−⟩.
    circuit.prep_z(target);
    circuit.x(target);
    circuit.h(target);

    // Oracle: CNOT from each secret-one input onto the target.
    for (offset, &bit) in secret.iter().enumerate() {
        if bit {
            circuit.cnot(inputs.start + offset as u32, target);
        }
    }

    for q in inputs.clone() {
        circuit.h(q);
        circuit.measure_z(q);
    }
    circuit.measure_x(target);
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instance_has_280_qubits() {
        let c = bernstein_vazirani(BvConfig::paper());
        assert_eq!(c.num_qubits(), 280);
        assert!(c.is_lowered());
        assert_eq!(c.stats().t_count, 0);
    }

    #[test]
    fn oracle_cnot_count_matches_secret_weight() {
        let secret = vec![true, false, true, true];
        let c = bernstein_vazirani(BvConfig {
            secret_bits: 4,
            secret: Some(secret),
            seed: 0,
        });
        assert_eq!(c.stats().two_qubit_gates, 3);
        // 2 H per input + 1 H on target = 9 Hadamards.
        assert_eq!(c.stats().per_gate["h"], 9);
    }

    #[test]
    fn generated_secret_is_deterministic_per_seed() {
        let a = bernstein_vazirani(BvConfig {
            secret_bits: 64,
            secret: None,
            seed: 7,
        });
        let b = bernstein_vazirani(BvConfig {
            secret_bits: 64,
            secret: None,
            seed: 7,
        });
        let c = bernstein_vazirani(BvConfig {
            secret_bits: 64,
            secret: None,
            seed: 8,
        });
        assert_eq!(a.gates(), b.gates());
        assert_ne!(a.gates(), c.gates());
    }

    #[test]
    #[should_panic(expected = "secret length")]
    fn wrong_secret_length_panics() {
        let _ = bernstein_vazirani(BvConfig {
            secret_bits: 4,
            secret: Some(vec![true]),
            seed: 0,
        });
    }

    #[test]
    #[should_panic(expected = "at least one secret bit")]
    fn zero_bits_panics() {
        let _ = bernstein_vazirani(BvConfig {
            secret_bits: 0,
            secret: None,
            seed: 0,
        });
    }
}
