//! Compiler from logical circuits to LSQCA programs (Sec. VI-A).
//!
//! The paper compiles each benchmark in three steps, reproduced here:
//!
//! 1. **Lowering** — the circuit is expressed with Clifford gates (H, S, CNOT),
//!    T gates, preparations and single-qubit Pauli measurements
//!    ([`lsqca_circuit::lower_each`]): Toffolis, multi-controlled X and CZ
//!    are always expanded. The lowering is streamed: each lowered gate goes
//!    straight to instruction selection, so no lowered circuit is ever
//!    built. A circuit that is already lowered is read as it is.
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
//! Instruction selection writes each instruction through an
//! [`InstructionSink`]. [`compile`] collects them into an [`lsqca_isa::Program`];
//! [`compile_into`] writes them into any sink, such as the
//! [`lsqca_isa::ExecutionTrace`] the simulator runs, so a workload compiled
//! for simulation never holds a `Program` at all. Both run the same code and
//! differ only in how they number classical values: [`compile`] gives every
//! measurement outcome its own [`ClassicalId`], while [`compile_into`]
//! writes *live slots* (see [`lsqca_isa::trace_compile`]): a T gate's `MZZ`
//! outcome and the `SK` that reads it take [`FIRST_LIVE_SLOT`], and every
//! outcome nothing reads takes [`DEAD_SLOT`]. Memory addresses coincide with
//! the circuit's qubit indices, so the workload's register structure can
//! still be used for hybrid-floorplan placement.
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

use lsqca_circuit::{lower_each, Circuit, Gate};
use lsqca_isa::trace_compile::{DEAD_SLOT, FIRST_LIVE_SLOT};
use lsqca_isa::{ClassicalId, Instruction, InstructionSink, MemAddr, Program, RegId};

/// Options controlling compilation.
///
/// The one option is the Sec. V-C ablation. Lowering is fixed: Toffolis,
/// multi-controlled X and CZ are always expanded, and the CR always has the
/// paper's two register slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompilerConfig {
    /// Emit in-memory instructions for single-qubit gates and T-gate surgery
    /// (the paper's default). When disabled, every gate loads its operands into
    /// the CR and stores them back — useful as an ablation of Sec. V-C.
    pub use_in_memory_ops: bool,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig {
            use_in_memory_ops: true,
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
    /// Each field is written explicitly, so a derive reorder or a `Debug`
    /// change cannot re-key anything, and adding a field fails to compile here
    /// until it is encoded. Changing the format means bumping the leading
    /// version.
    pub fn canonical_encoding(&self) -> String {
        let CompilerConfig { use_in_memory_ops } = *self;
        // Lowering always expands Toffolis and CZ. The two fixed `=1`
        // fields keep every workload and result key byte-identical to the
        // keys stored while those expansions were settings.
        format!(
            "v1;in-memory-ops={};expand-toffoli=1;expand-cz=1",
            u8::from(use_in_memory_ops),
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

/// The CR register slots instructions are allocated to: the paper's two.
const CR_SLOTS: u32 = 2;

/// The SAM address of circuit qubit `q`.
fn mem(q: u32) -> MemAddr {
    MemAddr(q)
}

/// Internal helper carrying compilation state.
struct Lowering<'s, S> {
    sink: &'s mut S,
    /// The next fresh classical identifier, or `None` when outcomes take
    /// live slots.
    next_value: Option<u32>,
    next_magic_slot: u32,
    use_in_memory: bool,
    t_gates: u64,
}

impl<S: InstructionSink> Lowering<'_, S> {
    /// The classical value a measurement writes: a fresh identifier, or in
    /// live slots [`FIRST_LIVE_SLOT`] for the outcome a T gate's `SK` reads
    /// (`read`), which that `SK` frees before the next one is written, and
    /// [`DEAD_SLOT`] for every outcome nothing reads.
    fn outcome(&mut self, read: bool) -> ClassicalId {
        match &mut self.next_value {
            Some(next) => {
                *next += 1;
                ClassicalId(*next - 1)
            }
            None if read => ClassicalId(FIRST_LIVE_SLOT),
            None => ClassicalId(DEAD_SLOT),
        }
    }

    /// Round-robin CR slot used for transient magic states / loads, so that two
    /// independent teleportations can overlap up to the CR capacity.
    fn next_slot(&mut self) -> RegId {
        let slot = RegId(self.next_magic_slot % CR_SLOTS);
        self.next_magic_slot += 1;
        slot
    }

    fn emit_t_gate(&mut self, target: u32) {
        self.t_gates += 1;
        let slot = self.next_slot();
        let mem = mem(target);
        let zz = self.outcome(true);
        let mx = self.outcome(false);
        if self.use_in_memory {
            // `PM`, `MZZ.M`, `MX.C`, and the conditional phase correction
            // `SK` + `PH.M`, whose branch the evaluation always takes.
            self.sink.push_teleport(slot, mem, zz, mx);
            return;
        }
        let cr = self.other_slot(slot);
        for instruction in [
            Instruction::Pm { reg: slot },
            Instruction::Ld { mem, reg: cr },
            Instruction::MzzC {
                reg1: slot,
                reg2: cr,
                out: zz,
            },
            Instruction::MxC { reg: slot, out: mx },
            Instruction::Sk { cond: zz },
            Instruction::PhC { reg: cr },
            Instruction::St { reg: cr, mem },
        ] {
            self.sink.push(instruction);
        }
    }

    /// Selects the instructions of one lowered gate.
    fn emit(&mut self, gate: &Gate) {
        match *gate {
            Gate::X(_) | Gate::Y(_) | Gate::Z(_) => {
                // Pauli-frame update only; no instruction is emitted.
            }
            Gate::T(q) | Gate::Tdg(q) => self.emit_t_gate(q),
            Gate::Cnot { control, target } => self.sink.push(Instruction::Cx {
                control: mem(control),
                target: mem(target),
            }),
            Gate::PrepZ(q)
            | Gate::PrepX(q)
            | Gate::H(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::MeasureZ(q)
            | Gate::MeasureX(q) => self.emit_single_qubit(gate, q),
            Gate::Cz { .. } | Gate::Toffoli { .. } | Gate::MultiControlledX { .. } => {
                unreachable!("composite gates are removed by lowering")
            }
        }
    }

    fn other_slot(&self, slot: RegId) -> RegId {
        RegId((slot.0 + 1) % CR_SLOTS)
    }

    fn emit_single_qubit(&mut self, gate: &Gate, qubit: u32) {
        let mem = mem(qubit);
        if self.use_in_memory {
            let instr = match gate {
                Gate::PrepZ(_) => Instruction::PzM { mem },
                Gate::PrepX(_) => Instruction::PpM { mem },
                Gate::H(_) => Instruction::HdM { mem },
                Gate::S(_) | Gate::Sdg(_) => Instruction::PhM { mem },
                Gate::MeasureZ(_) => Instruction::MzM {
                    mem,
                    out: self.outcome(false),
                },
                Gate::MeasureX(_) => Instruction::MxM {
                    mem,
                    out: self.outcome(false),
                },
                _ => unreachable!("only single-qubit non-Pauli gates reach here"),
            };
            self.sink.push(instr);
        } else {
            // Preparations are zero-latency and need no ancilla, so they stay
            // in place even in the load/store ablation mode: round-tripping a
            // freshly prepared state through the CR would displace the resident
            // qubit for no benefit.
            match gate {
                Gate::PrepZ(_) => {
                    self.sink.push(Instruction::PzM { mem });
                    return;
                }
                Gate::PrepX(_) => {
                    self.sink.push(Instruction::PpM { mem });
                    return;
                }
                _ => {}
            }
            let slot = self.next_slot();
            self.sink.push(Instruction::Ld { mem, reg: slot });
            match gate {
                Gate::H(_) => {
                    self.sink.push(Instruction::HdC { reg: slot });
                    self.sink.push(Instruction::St { reg: slot, mem });
                }
                Gate::S(_) | Gate::Sdg(_) => {
                    self.sink.push(Instruction::PhC { reg: slot });
                    self.sink.push(Instruction::St { reg: slot, mem });
                }
                Gate::MeasureZ(_) => {
                    let v = self.outcome(false);
                    self.sink.push(Instruction::MzC { reg: slot, out: v });
                }
                Gate::MeasureX(_) => {
                    let v = self.outcome(false);
                    self.sink.push(Instruction::MxC { reg: slot, out: v });
                }
                _ => unreachable!("only single-qubit non-Pauli gates reach here"),
            }
        }
    }
}

/// Compiles `circuit` into an LSQCA program.
///
/// Composite gates (Toffoli, multi-controlled X, CZ) are always lowered first; Pauli
/// unitaries are dropped (they are tracked in the Pauli frame and have
/// negligible latency, matching the paper's evaluation). Memory address `m_i`
/// corresponds to circuit qubit `i` (plus any ancillas introduced by lowering).
/// The program is named after the circuit, which lowering preserves.
///
/// Every measurement outcome gets its own [`ClassicalId`], numbered from 0
/// in program order.
pub fn compile(circuit: &Circuit, config: CompilerConfig) -> CompiledProgram {
    let mut program = Program::new(circuit.name());
    let (num_qubits, t_gates) = compile_with(circuit, config, false, &mut program);
    CompiledProgram {
        program,
        num_qubits,
        t_gates,
    }
}

/// Compiles `circuit` as [`compile`] does, pushing each instruction into
/// `sink` in program order, and returns `(num_qubits, t_gates)`: the number
/// of data qubits (SAM addresses) of the lowered circuit and the number of
/// T / T† gates translated into magic-state teleportations.
///
/// The classical operands are live slots, not [`compile`]'s identifiers:
/// each T gate's `MZZ` outcome and the `SK` two instructions later that
/// reads it take [`FIRST_LIVE_SLOT`], and every other outcome, which
/// nothing reads, takes [`DEAD_SLOT`]. That is exactly the renumbering
/// [`lsqca_isa::ExecutionTrace::compact_classical`] derives from
/// [`compile`]'s program, so the trace never holds more than three
/// classical slots. With in-memory operations on, every T gate reaches
/// `sink` through [`InstructionSink::push_teleport`], which an
/// [`lsqca_isa::ExecutionTrace`] stores as one record.
///
/// A circuit that is not yet lowered is lowered gate by gate
/// ([`lsqca_circuit::lower_each`]) and each lowered gate is translated as it
/// arrives, so compiling holds only the input circuit and the sink.
pub fn compile_into(
    circuit: &Circuit,
    config: CompilerConfig,
    sink: &mut impl InstructionSink,
) -> (u32, u64) {
    compile_with(circuit, config, true, sink)
}

/// [`compile_into`] with its classical outcomes in live slots, or numbered
/// from 0 in program order as [`compile`] numbers them.
fn compile_with(
    circuit: &Circuit,
    config: CompilerConfig,
    live_slots: bool,
    sink: &mut impl InstructionSink,
) -> (u32, u64) {
    let mut state = Lowering {
        sink,
        next_value: (!live_slots).then_some(0),
        next_magic_slot: 0,
        use_in_memory: config.use_in_memory_ops,
        t_gates: 0,
    };
    let num_qubits = if circuit.is_lowered() {
        for gate in circuit.gates() {
            state.emit(gate);
        }
        circuit.num_qubits()
    } else {
        lower_each(circuit, |gate| state.emit(&gate))
    };
    (num_qubits, state.t_gates)
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
        }
    }

    #[test]
    fn canonical_encoding_is_pinned() {
        assert_eq!(
            in_memory().canonical_encoding(),
            "v1;in-memory-ops=1;expand-toffoli=1;expand-cz=1"
        );
        assert_eq!(
            load_store().canonical_encoding(),
            "v1;in-memory-ops=0;expand-toffoli=1;expand-cz=1"
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
    fn cz_compiles_alike_with_or_without_a_toffoli_elsewhere() {
        let mut lone = Circuit::new("cz", 5);
        lone.cz(0, 1);
        let mut with_toffoli = lone.renamed("cz-then-ccx");
        with_toffoli.toffoli(2, 3, 4);
        let mut conjugated = Circuit::new("h-cx-h", 5);
        conjugated.h(1);
        conjugated.cnot(0, 1);
        conjugated.h(1);
        for config in all_configs() {
            let expected = compile(&conjugated, config).program;
            let lone = compile(&lone, config).program;
            assert_eq!(lone.instructions(), expected.instructions(), "{config:?}");
            let with_toffoli = compile(&with_toffoli, config).program;
            assert_eq!(
                &with_toffoli.instructions()[..expected.len()],
                expected.instructions(),
                "{config:?}"
            );
        }
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
    fn compile_into_writes_live_classical_slots() {
        use lsqca_isa::ExecutionTrace;
        let mut c = Circuit::new("t-then-measure", 1);
        c.t(0);
        c.t(0);
        c.measure_z(0);
        for config in [in_memory(), load_store()] {
            let mut trace = ExecutionTrace::new();
            compile_into(&c, config, &mut trace);
            let classical: Vec<_> = trace
                .instructions()
                .filter_map(|i| i.classical_input().or(i.classical_output()))
                .map(|v| v.0)
                .collect();
            // Per T gate: MZZ (live), MX (dead), SK (reads the MZZ); then
            // the measurement, which nothing reads.
            let t_gate = [FIRST_LIVE_SLOT, DEAD_SLOT, FIRST_LIVE_SLOT];
            assert_eq!(classical, [&t_gate[..], &t_gate, &[DEAD_SLOT]].concat());
            assert_eq!(trace.classical_bound(), FIRST_LIVE_SLOT + 1);
            assert!(trace.is_narrow());
        }
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

    /// `circuit` compiled into a trace twice: with the lowering streamed
    /// into instruction selection, and from the materialized lowered circuit,
    /// which takes the already-lowered branch. Both must agree exactly.
    fn assert_streaming_equals_materializing(circuit: &Circuit, config: CompilerConfig) {
        use lsqca_isa::ExecutionTrace;
        let lowered = lsqca_circuit::lower_to_clifford_t(circuit);
        assert!(lowered.is_lowered());
        let mut streamed = ExecutionTrace::new();
        let mut materialized = ExecutionTrace::new();
        let streamed_counts = compile_into(circuit, config, &mut streamed);
        let materialized_counts = compile_into(&lowered, config, &mut materialized);
        assert_eq!(streamed_counts, materialized_counts, "{}", circuit.name());
        assert_eq!(streamed, materialized, "{}", circuit.name());
    }

    /// Every compiler configuration.
    fn all_configs() -> [CompilerConfig; 2] {
        [in_memory(), load_store()]
    }

    #[test]
    fn streamed_lowering_compiles_like_the_materialized_circuit() {
        use lsqca_workloads::Benchmark;
        for benchmark in Benchmark::ALL {
            let circuit = benchmark.reduced_instance();
            for config in all_configs() {
                assert_streaming_equals_materializing(&circuit, config);
            }
        }
        // A four-control MCX needs two ancillas, so the streamed qubit count
        // comes from the ladder, past the circuit's own qubits.
        let mut c = Circuit::new("mcx", 6);
        c.prep_z(5);
        c.mcx(vec![0, 1, 2, 3], 4);
        c.cz(4, 5);
        c.toffoli(0, 4, 5);
        c.measure_z(4);
        for config in all_configs() {
            assert_streaming_equals_materializing(&c, config);
            assert_eq!(compile(&c, config).num_qubits, 8);
        }
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
