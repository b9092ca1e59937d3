//! Compiler from logical circuits to LSQCA programs (Sec. VI-A).
//!
//! The paper compiles each benchmark in three steps, reproduced here:
//!
//! 1. **Lowering** — the circuit is expressed with Clifford gates (H, S, CNOT),
//!    T gates, preparations and single-qubit Pauli measurements
//!    ([`lsqca_circuit::lower_to_clifford_t`]).
//! 2. **T-gate decomposition** — every T gate becomes a magic-state
//!    teleportation: fetch a magic state (`PM`), measure Pauli-ZZ between the
//!    magic state and the target (`MZZ.M`, in-memory), measure the magic state
//!    out (`MX.C`), and apply the conditional phase correction (`SK` + `PH.M`).
//!    Following the paper's evaluation assumption the correction path is always
//!    emitted (always-taken branches).
//! 3. **Instruction selection** — single-qubit gates always use in-memory
//!    instructions; CNOTs become the runtime-optimized `CX` instruction; Pauli
//!    unitaries are absorbed into the Pauli frame and emit nothing.
//!
//! The result is an [`lsqca_isa::Program`] whose memory addresses coincide with
//! the circuit's qubit indices, so the workload's register structure can still
//! be used for hybrid-floorplan placement.
//!
//! # Example
//!
//! ```
//! use lsqca_circuit::Circuit;
//! use lsqca_compiler::{compile, CompilerConfig};
//!
//! let mut circuit = Circuit::new("t-gate", 1);
//! circuit.prep_z(0);
//! circuit.t(0);
//! circuit.measure_z(0);
//! let compiled = compile(&circuit, CompilerConfig::default());
//! // PZ.M, PM, MZZ.M, MX.C, SK, PH.M, MZ.M
//! assert_eq!(compiled.program.len(), 7);
//! assert!(compiled.program.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lsqca_circuit::{lower_to_clifford_t, Circuit, DecomposeConfig, Gate};
use lsqca_isa::{ClassicalId, Instruction, MemAddr, Program, RegId};

/// Options controlling compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompilerConfig {
    /// Emit in-memory instructions for single-qubit gates and T-gate surgery
    /// (the paper's default). When disabled, every gate loads its operands into
    /// the CR and stores them back — useful as an ablation of Sec. V-C.
    pub use_in_memory_ops: bool,
    /// Options for lowering composite gates before instruction selection.
    pub decompose: DecomposeConfig,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig {
            use_in_memory_ops: true,
            decompose: DecomposeConfig::default(),
        }
    }
}

impl CompilerConfig {
    /// The canonical, versioned encoding of every field, used in workload and
    /// result-store keys. The default configuration encodes as
    ///
    /// ```text
    /// v1;in-memory-ops=1;expand-toffoli=1;expand-cz=1
    /// ```
    ///
    /// Each field, including those of [`DecomposeConfig`], is written
    /// explicitly, so a derive reorder or a `Debug` change cannot re-key
    /// anything, and adding a field fails to compile here until it is encoded.
    /// Changing the format means bumping the leading version.
    pub fn canonical_encoding(&self) -> String {
        let CompilerConfig {
            use_in_memory_ops,
            decompose:
                DecomposeConfig {
                    expand_toffoli,
                    expand_cz,
                },
        } = *self;
        format!(
            "v1;in-memory-ops={};expand-toffoli={};expand-cz={}",
            u8::from(use_in_memory_ops),
            u8::from(expand_toffoli),
            u8::from(expand_cz),
        )
    }
}

/// The result of compiling a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProgram {
    /// The LSQCA instruction stream.
    pub program: Program,
    /// Number of data qubits (SAM addresses) the program uses.
    pub num_qubits: u32,
    /// Number of T / T† gates translated into magic-state teleportations.
    pub t_gates: u64,
}

/// Internal helper carrying compilation state.
struct Lowering {
    program: Program,
    next_value: u32,
    next_magic_slot: u32,
    cr_slots: u32,
    use_in_memory: bool,
    t_gates: u64,
}

impl Lowering {
    fn fresh_value(&mut self) -> ClassicalId {
        let v = ClassicalId(self.next_value);
        self.next_value += 1;
        v
    }

    /// Round-robin CR slot used for transient magic states / loads, so that two
    /// independent teleportations can overlap up to the CR capacity.
    fn next_slot(&mut self) -> RegId {
        let slot = RegId(self.next_magic_slot % self.cr_slots);
        self.next_magic_slot += 1;
        slot
    }

    fn mem(q: u32) -> MemAddr {
        MemAddr(q)
    }

    fn emit_t_gate(&mut self, target: u32) {
        self.t_gates += 1;
        let slot = self.next_slot();
        let mem = Self::mem(target);
        let zz = self.fresh_value();
        let mx = self.fresh_value();
        self.program.push(Instruction::Pm { reg: slot });
        if self.use_in_memory {
            self.program.push(Instruction::MzzM {
                reg: slot,
                mem,
                out: zz,
            });
        } else {
            self.program.push(Instruction::Ld {
                mem,
                reg: self.other_slot(slot),
            });
            self.program.push(Instruction::MzzC {
                reg1: slot,
                reg2: self.other_slot(slot),
                out: zz,
            });
        }
        self.program.push(Instruction::MxC { reg: slot, out: mx });
        // Conditional phase correction; the evaluation always takes the branch.
        self.program.push(Instruction::Sk { cond: zz });
        if self.use_in_memory {
            self.program.push(Instruction::PhM { mem });
        } else {
            self.program.push(Instruction::PhC {
                reg: self.other_slot(slot),
            });
            self.program.push(Instruction::St {
                reg: self.other_slot(slot),
                mem,
            });
        }
    }

    fn other_slot(&self, slot: RegId) -> RegId {
        RegId((slot.0 + 1) % self.cr_slots)
    }

    fn emit_single_qubit(&mut self, gate: &Gate, qubit: u32) {
        let mem = Self::mem(qubit);
        if self.use_in_memory {
            let instr = match gate {
                Gate::PrepZ(_) => Instruction::PzM { mem },
                Gate::PrepX(_) => Instruction::PpM { mem },
                Gate::H(_) => Instruction::HdM { mem },
                Gate::S(_) | Gate::Sdg(_) => Instruction::PhM { mem },
                Gate::MeasureZ(_) => Instruction::MzM {
                    mem,
                    out: self.fresh_value(),
                },
                Gate::MeasureX(_) => Instruction::MxM {
                    mem,
                    out: self.fresh_value(),
                },
                _ => unreachable!("only single-qubit non-Pauli gates reach here"),
            };
            self.program.push(instr);
        } else {
            // Preparations are zero-latency and need no ancilla, so they stay
            // in place even in the load/store ablation mode: round-tripping a
            // freshly prepared state through the CR would displace the resident
            // qubit for no benefit.
            match gate {
                Gate::PrepZ(_) => {
                    self.program.push(Instruction::PzM { mem });
                    return;
                }
                Gate::PrepX(_) => {
                    self.program.push(Instruction::PpM { mem });
                    return;
                }
                _ => {}
            }
            let slot = self.next_slot();
            self.program.push(Instruction::Ld { mem, reg: slot });
            match gate {
                Gate::H(_) => {
                    self.program.push(Instruction::HdC { reg: slot });
                    self.program.push(Instruction::St { reg: slot, mem });
                }
                Gate::S(_) | Gate::Sdg(_) => {
                    self.program.push(Instruction::PhC { reg: slot });
                    self.program.push(Instruction::St { reg: slot, mem });
                }
                Gate::MeasureZ(_) => {
                    let v = self.fresh_value();
                    self.program.push(Instruction::MzC { reg: slot, out: v });
                }
                Gate::MeasureX(_) => {
                    let v = self.fresh_value();
                    self.program.push(Instruction::MxC { reg: slot, out: v });
                }
                _ => unreachable!("only single-qubit non-Pauli gates reach here"),
            }
        }
    }
}

/// Compiles `circuit` into an LSQCA program.
///
/// Composite gates (Toffoli, multi-controlled X, CZ) are lowered first; Pauli
/// unitaries are dropped (they are tracked in the Pauli frame and have
/// negligible latency, matching the paper's evaluation). Memory address `m_i`
/// corresponds to circuit qubit `i` (plus any ancillas introduced by lowering).
pub fn compile(circuit: &Circuit, config: CompilerConfig) -> CompiledProgram {
    let lowered = if circuit.is_lowered() {
        circuit.clone()
    } else {
        lower_to_clifford_t(circuit, config.decompose)
    };

    let mut state = Lowering {
        program: Program::new(lowered.name().to_string()),
        next_value: 0,
        next_magic_slot: 0,
        cr_slots: 2,
        use_in_memory: config.use_in_memory_ops,
        t_gates: 0,
    };

    for gate in lowered.gates() {
        match gate {
            Gate::X(_) | Gate::Y(_) | Gate::Z(_) => {
                // Pauli-frame update only; no instruction is emitted.
            }
            Gate::T(q) | Gate::Tdg(q) => state.emit_t_gate(*q),
            Gate::Cnot { control, target } => state.program.push(Instruction::Cx {
                control: Lowering::mem(*control),
                target: Lowering::mem(*target),
            }),
            Gate::Cz { a, b } => {
                // Lowering normally removes CZ; translate conservatively if not.
                state.program.push(Instruction::HdM {
                    mem: Lowering::mem(*b),
                });
                state.program.push(Instruction::Cx {
                    control: Lowering::mem(*a),
                    target: Lowering::mem(*b),
                });
                state.program.push(Instruction::HdM {
                    mem: Lowering::mem(*b),
                });
            }
            Gate::PrepZ(q)
            | Gate::PrepX(q)
            | Gate::H(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::MeasureZ(q)
            | Gate::MeasureX(q) => state.emit_single_qubit(gate, *q),
            Gate::Toffoli { .. } | Gate::MultiControlledX { .. } => {
                unreachable!("composite gates are removed by lowering")
            }
        }
    }

    CompiledProgram {
        num_qubits: lowered.num_qubits(),
        t_gates: state.t_gates,
        program: state.program,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsqca_isa::InstructionKind;

    fn in_memory() -> CompilerConfig {
        CompilerConfig::default()
    }

    fn load_store() -> CompilerConfig {
        CompilerConfig {
            use_in_memory_ops: false,
            ..CompilerConfig::default()
        }
    }

    #[test]
    fn canonical_encoding_is_pinned() {
        assert_eq!(
            in_memory().canonical_encoding(),
            "v1;in-memory-ops=1;expand-toffoli=1;expand-cz=1"
        );
        let raw = CompilerConfig {
            use_in_memory_ops: false,
            decompose: DecomposeConfig {
                expand_toffoli: false,
                expand_cz: true,
            },
        };
        assert_eq!(
            raw.canonical_encoding(),
            "v1;in-memory-ops=0;expand-toffoli=0;expand-cz=1"
        );
    }

    #[test]
    fn t_gate_becomes_magic_state_teleportation() {
        let mut c = Circuit::new("t", 1);
        c.t(0);
        let compiled = compile(&c, in_memory());
        let mnemonics: Vec<_> = compiled.program.iter().map(|i| i.mnemonic()).collect();
        assert_eq!(mnemonics, vec!["PM", "MZZ.M", "MX.C", "SK", "PH.M"]);
        assert_eq!(compiled.t_gates, 1);
        assert!(compiled.program.validate().is_ok());
    }

    #[test]
    fn single_qubit_gates_use_in_memory_instructions() {
        let mut c = Circuit::new("sq", 2);
        c.prep_z(0);
        c.prep_x(1);
        c.h(0);
        c.s(1);
        c.sdg(1);
        c.measure_z(0);
        c.measure_x(1);
        let compiled = compile(&c, in_memory());
        for instr in compiled.program.iter() {
            assert!(
                instr.is_in_memory(),
                "{instr} should be an in-memory instruction"
            );
        }
        assert_eq!(compiled.program.len(), 7);
    }

    #[test]
    fn pauli_gates_are_absorbed_into_the_frame() {
        let mut c = Circuit::new("pauli", 1);
        c.x(0);
        c.y(0);
        c.z(0);
        let compiled = compile(&c, in_memory());
        assert!(compiled.program.is_empty());
    }

    #[test]
    fn cnot_becomes_the_optimized_cx_instruction() {
        let mut c = Circuit::new("cx", 2);
        c.cnot(0, 1);
        let compiled = compile(&c, in_memory());
        assert_eq!(compiled.program.len(), 1);
        assert_eq!(
            compiled.program.instructions()[0].kind(),
            InstructionKind::OptimizedUnitary
        );
    }

    #[test]
    fn toffoli_is_lowered_before_translation() {
        let mut c = Circuit::new("ccx", 3);
        c.toffoli(0, 1, 2);
        let compiled = compile(&c, in_memory());
        assert_eq!(compiled.t_gates, 7);
        let stats = compiled.program.stats();
        assert_eq!(stats.magic_state_count, 7);
        // 6 CNOTs become 6 CX instructions.
        assert_eq!(stats.kind_counts[&InstructionKind::OptimizedUnitary], 6);
        assert!(compiled.program.validate().is_ok());
    }

    #[test]
    fn load_store_mode_emits_explicit_memory_instructions() {
        let mut c = Circuit::new("ls", 1);
        c.h(0);
        c.t(0);
        let compiled = compile(&c, load_store());
        let stats = compiled.program.stats();
        assert!(stats.kind_counts[&InstructionKind::Memory] >= 2);
        assert!(compiled
            .program
            .iter()
            .any(|i| matches!(i, Instruction::HdC { .. })));
        assert!(compiled.program.validate().is_ok());
    }

    #[test]
    fn classical_values_are_unique() {
        let mut c = Circuit::new("meas", 3);
        c.t(0);
        c.t(1);
        c.measure_z(2);
        let compiled = compile(&c, in_memory());
        let mut outputs: Vec<_> = compiled
            .program
            .iter()
            .filter_map(|i| i.classical_output())
            .collect();
        let before = outputs.len();
        outputs.sort();
        outputs.dedup();
        assert_eq!(outputs.len(), before, "classical outputs must be unique");
    }

    #[test]
    fn magic_slots_alternate_for_independent_t_gates() {
        let mut c = Circuit::new("tt", 2);
        c.t(0);
        c.t(1);
        let compiled = compile(&c, in_memory());
        let slots: Vec<_> = compiled
            .program
            .iter()
            .filter_map(|i| match i {
                Instruction::Pm { reg } => Some(*reg),
                _ => None,
            })
            .collect();
        assert_eq!(slots.len(), 2);
        assert_ne!(slots[0], slots[1]);
    }

    #[test]
    fn memory_footprint_matches_the_circuit_width() {
        let mut c = Circuit::new("width", 4);
        for q in 0..4 {
            c.prep_z(q);
            c.h(q);
            c.measure_z(q);
        }
        let compiled = compile(&c, in_memory());
        assert_eq!(compiled.num_qubits, 4);
        assert_eq!(compiled.program.memory_footprint(), 4);
    }

    #[test]
    fn compiled_workloads_validate() {
        use lsqca_workloads::Benchmark;
        for benchmark in Benchmark::ALL {
            let circuit = benchmark.reduced_instance();
            let compiled = compile(&circuit, in_memory());
            assert!(
                compiled.program.validate().is_ok(),
                "{benchmark} failed validation"
            );
            assert!(!compiled.program.is_empty());
            let compiled_ls = compile(&circuit, load_store());
            assert!(
                compiled_ls.program.validate().is_ok(),
                "{benchmark} failed validation in load/store mode"
            );
        }
    }
}
