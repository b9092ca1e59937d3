//! Shadow-equivalence: the trace engine against the reference interpreter.
//!
//! Executing an [`ExecutionTrace`] must be observationally identical to
//! executing the [`Classified`] program it was lowered from — same
//! [`ExecutionStats`], same memory reference trace, same typed error at the
//! same instruction index — over random programs and random floorplan
//! configurations. The interpreter is the executable specification; these
//! properties are the contract that lets the trace engine's dispatch evolve
//! (flag tests, presized ready tables) without semantic drift.
//!
//! The same holds for factory sweeps: one [`Simulator::execute_factories`]
//! walk, shared by every factory count, must equal one fresh run per count.

use lsqca_arch::lattice::QubitTag;
use lsqca_arch::{ArchConfig, FloorplanKind, PolicyKind};
use lsqca_isa::trace_compile::NARROW_CLASSICAL;
use lsqca_isa::{
    ClassicalId, ExecKind, ExecutionTrace, Instruction, MemAddr, OpInfo, Program, RegId,
};
use lsqca_sim::{Classified, SimConfig, SimError, SimOutcome, Simulator};
use lsqca_workloads::{Benchmark, CompiledWorkload, InstanceSize};
use proptest::prelude::*;

/// Qubit space shared by the program and simulator strategies. Small enough
/// that random instructions collide on qubits, banks, and CR slots — the
/// interesting scheduling (and error) cases.
const QUBITS: u32 = 24;

/// Every instruction variant over deliberately small operand spaces, so a
/// ~40-instruction program exercises dependency chains, bank serialization,
/// skip guards, and illegal load/store sequences (typed-error equivalence).
/// Register indices reach past [`QUBITS`]: the trace stores a register in
/// the slot an absent memory operand would use, so a register index must
/// never be read as an address.
fn any_instruction() -> impl Strategy<Value = Instruction> {
    use Instruction::*;
    (
        0u32..21,
        0u32..QUBITS,
        0u32..QUBITS,
        0u32..40,
        0u32..40,
        0u32..8,
    )
        .prop_map(|(variant, m1, m2, r1, r2, v)| {
            let (mem, mem2) = (MemAddr(m1), MemAddr(m2));
            let (reg, reg2) = (RegId(r1), RegId(r2));
            let out = ClassicalId(v);
            match variant {
                0 => Ld { mem, reg },
                1 => St { reg, mem },
                2 => PzC { reg },
                3 => PpC { reg },
                4 => Pm { reg },
                5 => HdC { reg },
                6 => PhC { reg },
                7 => MxC { reg, out },
                8 => MzC { reg, out },
                9 => MxxC {
                    reg1: reg,
                    reg2,
                    out,
                },
                10 => MzzC {
                    reg1: reg,
                    reg2,
                    out,
                },
                11 => Sk { cond: out },
                12 => PzM { mem },
                13 => PpM { mem },
                14 => HdM { mem },
                15 => PhM { mem },
                16 => MxM { mem, out },
                17 => MzM { mem, out },
                18 => MxxM { reg, mem, out },
                19 => MzzM { reg, mem, out },
                _ => Cx {
                    control: mem,
                    target: mem2,
                },
            }
        })
}

fn any_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(any_instruction(), 0..40).prop_map(|instructions| {
        let mut program = Program::new("shadow");
        for instruction in instructions {
            program.push(instruction);
        }
        program
    })
}

/// Every floorplan flavour at its legal bank counts, random factory counts,
/// a hybrid fraction that sometimes carves out a conventional region, and
/// either store policy (locality-aware or home store).
fn any_arch() -> impl Strategy<Value = ArchConfig> {
    (
        prop_oneof![
            (1u32..3).prop_map(|banks| FloorplanKind::PointSam { banks }),
            (1u32..3).prop_map(|banks| FloorplanKind::DualPointSam { banks }),
            (1u32..5).prop_map(|banks| FloorplanKind::LineSam { banks }),
            Just(FloorplanKind::Conventional),
        ],
        1u32..4,
        0u32..3,
        proptest::bool::ANY,
    )
        .prop_map(
            |(floorplan, factories, hybrid_tenths, locality_aware_store)| ArchConfig {
                locality_aware_store,
                ..ArchConfig::new(floorplan, factories)
                    .with_hybrid_fraction(f64::from(hybrid_tenths) * 0.1)
            },
        )
}

fn any_policy() -> impl Strategy<Value = Option<PolicyKind>> {
    prop_oneof![
        Just(None),
        Just(Some(PolicyKind::Static)),
        Just(Some(PolicyKind::Lru)),
        Just(Some(PolicyKind::FreqDecay)),
    ]
}

/// Programs long enough to span several blocks of the trace walk: a short
/// random body repeated. Explicit `LD`/`ST` are left out of the body (random
/// pairings of them fail within a few records), so most of these programs
/// run to the end, or to the instruction budget.
fn any_long_program() -> impl Strategy<Value = Program> {
    (
        proptest::collection::vec(any_instruction(), 1..24),
        40usize..160,
    )
        .prop_map(|(body, repeats)| {
            let body: Vec<Instruction> = body
                .into_iter()
                .filter(|i| !matches!(i, Instruction::Ld { .. } | Instruction::St { .. }))
                .collect();
            let mut program = Program::new("shadow-long");
            for _ in 0..repeats {
                for &instruction in &body {
                    program.push(instruction);
                }
            }
            program
        })
}

/// Programs dense in classical traffic: [`any_instruction`] (explicit
/// `LD`/`ST` turned into in-memory Hadamards, so most programs run to the
/// end) interleaved with skips and with measurements that take beats (so
/// the values they write become ready at distinct times), all over three
/// values. One value is often read again after another live value has been
/// written.
fn any_classical_heavy_program() -> impl Strategy<Value = Program> {
    let quantum = any_instruction().prop_map(|instruction| match instruction {
        Instruction::Ld { mem, .. } | Instruction::St { mem, .. } => Instruction::HdM { mem },
        other => other,
    });
    let classical = (0u32..3, 0u32..QUBITS, 0u32..3).prop_map(|(v, q, kind)| {
        let out = ClassicalId(v);
        match kind {
            0 => Instruction::Sk { cond: out },
            1 => Instruction::MzzC {
                reg1: RegId(q),
                reg2: RegId(q + 1),
                out,
            },
            _ => Instruction::MzzM {
                reg: RegId(q),
                mem: MemAddr(q),
                out,
            },
        }
    });
    proptest::collection::vec(prop_oneof![quantum, classical], 0..60).prop_map(|instructions| {
        let mut program = Program::new("shadow-classical");
        for instruction in instructions {
            program.push(instruction);
        }
        program
    })
}

/// The first memory address and register index a narrow trace cannot hold.
const WIDE: u32 = 1 << 16;

/// Moves every odd memory address of `program` up by `mem_offset` and
/// every odd register index up by `reg_offset`, so a program over
/// [`QUBITS`] reaches past them.
fn spread(program: &Program, mem_offset: u32, reg_offset: u32) -> Program {
    use Instruction::*;
    let m = |mem: MemAddr| MemAddr(mem.0 + mem_offset * (mem.0 % 2));
    let r = |reg: RegId| RegId(reg.0 + reg_offset * (reg.0 % 2));
    Program::from_iter(program.iter().map(|&instruction| match instruction {
        Ld { mem, reg } => Ld {
            mem: m(mem),
            reg: r(reg),
        },
        St { reg, mem } => St {
            reg: r(reg),
            mem: m(mem),
        },
        PzC { reg } => PzC { reg: r(reg) },
        PpC { reg } => PpC { reg: r(reg) },
        Pm { reg } => Pm { reg: r(reg) },
        HdC { reg } => HdC { reg: r(reg) },
        PhC { reg } => PhC { reg: r(reg) },
        MxC { reg, out } => MxC { reg: r(reg), out },
        MzC { reg, out } => MzC { reg: r(reg), out },
        MxxC { reg1, reg2, out } => MxxC {
            reg1: r(reg1),
            reg2: r(reg2),
            out,
        },
        MzzC { reg1, reg2, out } => MzzC {
            reg1: r(reg1),
            reg2: r(reg2),
            out,
        },
        Sk { cond } => Sk { cond },
        PzM { mem } => PzM { mem: m(mem) },
        PpM { mem } => PpM { mem: m(mem) },
        HdM { mem } => HdM { mem: m(mem) },
        PhM { mem } => PhM { mem: m(mem) },
        MxM { mem, out } => MxM { mem: m(mem), out },
        MzM { mem, out } => MzM { mem: m(mem), out },
        MxxM { reg, mem, out } => MxxM {
            reg: r(reg),
            mem: m(mem),
            out,
        },
        MzzM { reg, mem, out } => MzzM {
            reg: r(reg),
            mem: m(mem),
            out,
        },
        Cx { control, target } => Cx {
            control: m(control),
            target: m(target),
        },
    }))
}

/// The largest classical operand of `program`, if it has any.
fn largest_classical(program: &Program) -> Option<u32> {
    program
        .iter()
        .filter_map(|i| i.classical_input().or(i.classical_output()))
        .map(|v| v.0)
        .max()
}

/// `program` with every classical operand `v` replaced by `relabel(v)`.
fn relabel_classical(program: &Program, relabel: impl Fn(u32) -> u32) -> Program {
    use Instruction::*;
    let c = |value: ClassicalId| ClassicalId(relabel(value.0));
    Program::from_iter(program.iter().map(|&instruction| match instruction {
        MxC { reg, out } => MxC { reg, out: c(out) },
        MzC { reg, out } => MzC { reg, out: c(out) },
        MxxC { reg1, reg2, out } => MxxC {
            reg1,
            reg2,
            out: c(out),
        },
        MzzC { reg1, reg2, out } => MzzC {
            reg1,
            reg2,
            out: c(out),
        },
        Sk { cond } => Sk { cond: c(cond) },
        MxM { mem, out } => MxM { mem, out: c(out) },
        MzM { mem, out } => MzM { mem, out: c(out) },
        MxxM { reg, mem, out } => MxxM {
            reg,
            mem,
            out: c(out),
        },
        MzzM { reg, mem, out } => MzzM {
            reg,
            mem,
            out: c(out),
        },
        other => other,
    }))
}

/// A hand-built program around SAM address 70 000: a load and store, an
/// in-memory gate, a teleported T gate and a CX between a wide and a narrow
/// address.
fn wide_program() -> Program {
    use Instruction::*;
    let (far, near) = (MemAddr(70_000), MemAddr(3));
    let (reg, value) = (RegId(0), ClassicalId(0));
    Program::from_iter([
        PzM { mem: far },
        HdM { mem: far },
        Cx {
            control: far,
            target: near,
        },
        Pm { reg },
        MzzM {
            reg,
            mem: far,
            out: value,
        },
        Sk { cond: value },
        PhM { mem: far },
        Ld {
            mem: far,
            reg: RegId(1),
        },
        HdC { reg: RegId(1) },
        St {
            reg: RegId(1),
            mem: far,
        },
        MzM {
            mem: far,
            out: value,
        },
    ])
}

/// Programs whose operands reach past 2¹⁶ (so their traces are wide), some
/// straddling the boundary, each with a migration policy: mostly short
/// random programs over wide register indices, some over wide memory
/// addresses too, and long programs (spanning several walk blocks) that
/// keep their operands and end in one record on a wide register. A SAM of
/// ~70 000 cells takes milliseconds to build and, in a long program, to seek
/// through, so wide memory addresses are the rare case.
fn any_wide_program() -> impl Strategy<Value = (Program, Option<PolicyKind>)> {
    (
        0u32..32,
        any_program(),
        any_long_program(),
        WIDE - QUBITS..WIDE + 5_000,
        any_policy(),
    )
        .prop_map(|(kind, short, long, offset, policy)| match kind {
            0 => (spread(&short, offset, offset), policy),
            1..=23 => (spread(&short, 0, offset), policy),
            _ => {
                let wide = Instruction::PzC { reg: RegId(offset) };
                (Program::from_iter(long.iter().copied().chain([wide])), None)
            }
        })
}

/// Factory lists in any order, duplicates included, long enough to span
/// two lane groups.
fn any_factories() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(1u32..6, 1..9)
}

/// Builds one simulator.
fn build(
    arch: &ArchConfig,
    hot: &[QubitTag],
    config: SimConfig,
    policy: Option<PolicyKind>,
    budget: Option<u64>,
) -> Simulator {
    let mut builder = Simulator::builder(arch, QUBITS)
        .hot_qubits(hot)
        .config(config)
        .instruction_budget(budget);
    if let Some(kind) = policy {
        builder = builder.migration_policy(kind.build());
    }
    builder.build().unwrap()
}

/// Builds the two identically configured simulators a comparison run needs.
fn pair(
    arch: &ArchConfig,
    hot: &[QubitTag],
    config: SimConfig,
    policy: Option<PolicyKind>,
    budget: Option<u64>,
) -> (Simulator, Simulator) {
    (
        build(arch, hot, config, policy, budget),
        build(arch, hot, config, policy, budget),
    )
}

/// One fresh simulator per factory count, each running `input` once: what a
/// factory group must reproduce.
fn independent_runs(
    trace: &ExecutionTrace,
    arch: &ArchConfig,
    hot: &[QubitTag],
    config: SimConfig,
    policy: Option<PolicyKind>,
    budget: Option<u64>,
    factories: &[u32],
) -> Vec<Result<SimOutcome, SimError>> {
    factories
        .iter()
        .map(|&factories| {
            let arch = ArchConfig {
                factories,
                ..arch.clone()
            };
            build(&arch, hot, config, policy, budget).execute(trace)
        })
        .collect()
}

/// A group's result against the independent runs: the same outcomes in
/// order, or the error every independent run returns.
fn assert_group_matches(
    grouped: &Result<Vec<SimOutcome>, SimError>,
    independent: &[Result<SimOutcome, SimError>],
) {
    match grouped {
        Ok(outcomes) => {
            assert_eq!(outcomes.len(), independent.len());
            for (outcome, expected) in outcomes.iter().zip(independent) {
                assert_eq!(Ok(outcome), expected.as_ref());
            }
        }
        Err(err) => {
            for expected in independent {
                assert_eq!(Err(err), expected.as_ref());
            }
        }
    }
}

/// Two runs of the same program agree: equal outcomes (stats, per-lane
/// makespan and magic wait, memory trace), or errors at the same record
/// with the same cause. An instruction error's rebuilt `Instruction` is left
/// out, because a compacted trace rebuilds its classical operand as a slot.
fn assert_same_run(
    compacted: &Result<Vec<SimOutcome>, SimError>,
    plain: &Result<Vec<SimOutcome>, SimError>,
) {
    match (compacted, plain) {
        (
            Err(SimError::Instruction { index, source, .. }),
            Err(SimError::Instruction {
                index: plain_index,
                source: plain_source,
                ..
            }),
        ) => {
            assert_eq!(index, plain_index);
            assert_eq!(source, plain_source);
        }
        _ => assert_eq!(compacted, plain),
    }
}

proptest! {
    /// The headline property: over random programs, floorplans, hot sets,
    /// migration policies, sim configs, and instruction budgets, the trace
    /// engine's full `Result` — stats, memory trace, or typed error — equals
    /// the interpreter's. Error equality also pins the trace's instruction
    /// reconstruction (the offending `Instruction` in the error is rebuilt
    /// from trace records).
    #[test]
    fn trace_engine_matches_the_interpreter(
        program in any_program(),
        arch in any_arch(),
        hot in proptest::collection::vec(0u32..QUBITS, 0..4),
        policy in any_policy(),
        toggles in (0u32..2, 0u32..2),
        budget in prop_oneof![Just(None), (1u64..60).prop_map(Some)],
    ) {
        let hot: Vec<QubitTag> = hot.into_iter().map(QubitTag).collect();
        let config = SimConfig {
            record_trace: toggles.0 == 1,
            assume_infinite_magic: toggles.1 == 1,
        };
        let (mut reference, mut optimized) = pair(&arch, &hot, config, policy, budget);
        let classified = Classified::new(&program);
        let expected = reference.execute(&classified);
        let trace = lsqca_isa::lower(&program);
        let actual = optimized.execute(&trace);
        prop_assert_eq!(&expected, &actual);

        // Rerun both on their now-dirty simulators: the auto-reset paths of
        // the two engines must also agree (grown ready tables restored).
        let expected_again = reference.execute(&classified);
        let actual_again = optimized.execute(&trace);
        prop_assert_eq!(&expected, &expected_again);
        prop_assert_eq!(&expected_again, &actual_again);
    }

    /// Reset-on-reuse is the only rerun path: a simulator that already ran
    /// a prefix — one that may have failed part-way, leaving qubits checked
    /// out and ready tables grown — runs any program exactly like a freshly
    /// built one.
    #[test]
    fn reused_simulator_runs_like_a_fresh_one(
        prefix in any_program(),
        program in any_program(),
        arch in any_arch(),
        hot in proptest::collection::vec(0u32..QUBITS, 0..4),
        policy in any_policy(),
    ) {
        let hot: Vec<QubitTag> = hot.into_iter().map(QubitTag).collect();
        let (mut reused, mut fresh) = pair(&arch, &hot, SimConfig::default(), policy, None);
        let _ = reused.execute(&prefix);
        prop_assert_eq!(fresh.execute(&program), reused.execute(&program));
    }

    /// A trace that round-trips through its on-disk text executes
    /// identically to the freshly lowered one — the artifact path
    /// (`ExecutionTrace::decode` on cache load) cannot drift from the
    /// in-memory lowering.
    #[test]
    fn decoded_traces_execute_like_lowered_ones(
        program in any_program(),
        arch in any_arch(),
    ) {
        let lowered = lsqca_isa::lower(&program);
        let decoded = ExecutionTrace::decode(&lowered.encode()).unwrap();
        prop_assert_eq!(&lowered, &decoded);
        let mut a = Simulator::builder(&arch, QUBITS).build().unwrap();
        let mut b = Simulator::builder(&arch, QUBITS).build().unwrap();
        prop_assert_eq!(a.execute(&lowered), b.execute(&decoded));
    }

    /// One factory group equals one fresh run per count: over random
    /// programs (some spanning several walk blocks), floorplans (hybrid
    /// fractions and multi-bank layouts included), buffer overrides, hot
    /// sets, migration policies, sim configs and budgets, and factory lists
    /// in any order with duplicates. Stats, memory traces and the first
    /// typed error must all agree, and the reference interpreter's group (one
    /// run per count) must agree with both.
    #[test]
    fn factory_groups_match_independent_runs(
        program in prop_oneof![any_program(), any_long_program()],
        arch in any_arch(),
        hot in proptest::collection::vec(0u32..QUBITS, 0..4),
        policy in any_policy(),
        factories in any_factories(),
        toggles in (0u32..2, 0u32..2),
        budget in prop_oneof![Just(None), (1u64..3000).prop_map(Some)],
    ) {
        let hot: Vec<QubitTag> = hot.into_iter().map(QubitTag).collect();
        let config = SimConfig {
            record_trace: toggles.0 == 1,
            assume_infinite_magic: toggles.1 == 1,
        };
        let trace = lsqca_isa::lower(&program);
        let independent =
            independent_runs(&trace, &arch, &hot, config, policy, budget, &factories);
        let mut group = build(&arch, &hot, config, policy, budget);
        let grouped = group.execute_factories(&trace, &factories);
        assert_group_matches(&grouped, &independent);

        // A rerun on the now-dirty simulator resets first, like `execute`.
        prop_assert_eq!(&grouped, &group.execute_factories(&trace, &factories));

        let mut reference = build(&arch, &hot, config, policy, budget);
        let oracle = reference.execute_factories(&Classified::new(&program), &factories);
        prop_assert_eq!(&oracle, &grouped);
    }

    /// Renumbering a trace's classical operands into live slots changes no
    /// outcome. The programs' small classical spaces rewrite values and read
    /// values nothing wrote, so the reserved slots and slot reuse are both
    /// exercised; a single run and a 1/2/4-factory group each compare the
    /// compacted trace against the uncompacted one, memory traces on.
    #[test]
    fn compacted_traces_execute_like_uncompacted_ones(
        program in prop_oneof![any_program(), any_long_program(), any_classical_heavy_program()],
        arch in any_arch(),
        hot in proptest::collection::vec(0u32..QUBITS, 0..4),
        policy in any_policy(),
        infinite_magic in proptest::bool::ANY,
        budget in prop_oneof![Just(None), (1u64..3000).prop_map(Some)],
    ) {
        let hot: Vec<QubitTag> = hot.into_iter().map(QubitTag).collect();
        let config = SimConfig {
            record_trace: true,
            assume_infinite_magic: infinite_magic,
        };
        let plain = lsqca_isa::lower(&program);
        let compacted = plain.compact_classical();
        let (mut a, mut b) = pair(&arch, &hot, config, policy, budget);
        assert_same_run(
            &a.execute(&compacted).map(|outcome| vec![outcome]),
            &b.execute(&plain).map(|outcome| vec![outcome]),
        );
        let factories = [1, 2, 4];
        assert_same_run(
            &a.execute_factories(&compacted, &factories),
            &b.execute_factories(&plain, &factories),
        );
    }
}

proptest! {
    /// Wide traces execute like the interpreter: over programs whose memory
    /// addresses or register indices reach past 2¹⁶, so their operand slots
    /// are `u32` whatever their classical operands, a single run
    /// and a 1/2/4-factory group each equal the [`Classified`] oracle's,
    /// memory traces on. [`wide_trace_at_address_70_000_runs_like_the_interpreter`]
    /// adds a hand-built trace on every paper floorplan.
    #[test]
    fn narrow_and_wide_traces_execute_alike(
        case in any_wide_program(),
        arch in any_arch(),
        infinite_magic in proptest::bool::ANY,
    ) {
        let (program, policy) = case;
        let config = SimConfig {
            record_trace: true,
            assume_infinite_magic: infinite_magic,
        };
        let trace = lsqca_isa::lower(&program);
        let largest = program
            .iter()
            .flat_map(|i| {
                let mems = i.memory_operands().into_iter().map(|m| m.0);
                mems.chain(i.register_operands().into_iter().map(|r| r.0))
            })
            .max()
            .unwrap_or(0);
        prop_assert_eq!(
            trace.is_narrow(),
            largest < WIDE && largest_classical(&program).unwrap_or(0) < NARROW_CLASSICAL
        );
        let qubits = trace.mem_bound().max(QUBITS);
        let build = || {
            let mut builder = Simulator::builder(&arch, qubits).config(config);
            if let Some(kind) = policy {
                builder = builder.migration_policy(kind.build());
            }
            builder.build().unwrap()
        };
        let oracle = Classified::new(&program);
        // Each simulator runs twice: a rerun resets first, like a fresh one.
        let (mut engine, mut reference) = (build(), build());
        prop_assert_eq!(engine.execute(&trace), reference.execute(&oracle));
        let factories = [1, 2, 4];
        prop_assert_eq!(
            engine.execute_factories(&trace, &factories),
            reference.execute_factories(&oracle, &factories)
        );
    }
}

proptest! {
    /// Traces whose classical operands ride in the opcode bytes (narrow)
    /// and traces whose classical operands reach past them (wide, 13 bytes
    /// a record) execute like the interpreter. Each random program's
    /// classical values are folded below [`NARROW_CLASSICAL`] or shifted
    /// past it, often just past it; shifting keeps every value distinct, so
    /// reads of unwritten values and rewrites survive in the wide case. A
    /// single run and a 1/2/4-factory group each equal the [`Classified`]
    /// oracle's, memory traces on.
    #[test]
    fn narrow_and_wide_classical_traces_execute_alike(
        program in prop_oneof![any_program(), any_long_program(), any_classical_heavy_program()],
        shift in prop_oneof![
            Just(None),
            (NARROW_CLASSICAL..16).prop_map(Some),
            (16u32..5_000).prop_map(Some),
        ],
        arch in any_arch(),
        hot in proptest::collection::vec(0u32..QUBITS, 0..4),
        policy in any_policy(),
        infinite_magic in proptest::bool::ANY,
        budget in prop_oneof![Just(None), (1u64..3000).prop_map(Some)],
    ) {
        let program = match shift {
            None => relabel_classical(&program, |v| v % NARROW_CLASSICAL),
            Some(shift) => relabel_classical(&program, |v| v + shift),
        };
        let trace = lsqca_isa::lower(&program);
        let narrow = largest_classical(&program).is_none_or(|v| v < NARROW_CLASSICAL);
        prop_assert_eq!(trace.is_narrow(), narrow);
        prop_assert_eq!(narrow, shift.is_none() || trace.classical_bound() == 0);
        let hot: Vec<QubitTag> = hot.into_iter().map(QubitTag).collect();
        let config = SimConfig {
            record_trace: true,
            assume_infinite_magic: infinite_magic,
        };
        let oracle = Classified::new(&program);
        let (mut engine, mut reference) = pair(&arch, &hot, config, policy, budget);
        prop_assert_eq!(engine.execute(&trace), reference.execute(&oracle));
        let factories = [1, 2, 4];
        prop_assert_eq!(
            engine.execute_factories(&trace, &factories),
            reference.execute_factories(&oracle, &factories)
        );
    }
}

/// The instructions `lsqca_compiler::compile_into` lowers a T gate into
/// with in-memory operations on: `PM r`, `MZZ.M r,m → 2`, `MX.C r → 1`,
/// `SK 2`, `PH.M m`.
fn teleport(reg: RegId, mem: MemAddr) -> Vec<Instruction> {
    let (zz, mx) = (ClassicalId(2), ClassicalId(1));
    lsqca_isa::trace_compile::teleport(reg, mem, zz, mx).to_vec()
}

/// One piece of a teleport-heavy program, with its role.
#[derive(Debug, Clone, PartialEq)]
enum Piece {
    /// An exact teleport, which a trace holds as one record.
    Teleport,
    /// An exact teleport between a load and a store of its qubit.
    CheckedOut,
    /// Records that begin like a teleport but are not one.
    NearMiss,
    /// Anything else.
    Other,
}

/// One [`Piece`]: an exact teleport, a near miss (one register, address or
/// classical slot changed, or the seven-record load/store shape of a T gate
/// compiled without in-memory operations), an exact teleport on a qubit
/// checked out around it, or one random instruction (explicit `LD`/`ST`
/// turned into in-memory Hadamards, classical operands kept narrow).
/// Registers reach past every CR slot table, so some teleports name a
/// register the slot table has not grown to yet.
fn any_piece() -> impl Strategy<Value = (Piece, Vec<Instruction>)> {
    use Instruction::*;
    (
        0u32..12,
        0u32..QUBITS,
        0u32..40,
        1u32..QUBITS,
        any_instruction(),
    )
        .prop_map(|(kind, m, r, delta, other)| {
            let (mem, reg) = (MemAddr(m), RegId(r));
            let (other_mem, other_reg) = (MemAddr((m + delta) % QUBITS), RegId(r + delta));
            let mut records = teleport(reg, mem);
            let piece = match kind {
                0..=3 => Piece::Teleport,
                4 => {
                    records[0] = Pm { reg: other_reg };
                    Piece::NearMiss
                }
                5 => {
                    records[1] = MzzM {
                        reg: other_reg,
                        mem,
                        out: ClassicalId(2),
                    };
                    Piece::NearMiss
                }
                6 => {
                    records[2] = MxC {
                        reg: other_reg,
                        out: ClassicalId(1),
                    };
                    Piece::NearMiss
                }
                7 => {
                    records[4] = PhM { mem: other_mem };
                    Piece::NearMiss
                }
                8 => {
                    // One classical slot moved to another narrow value.
                    let record = (delta % 3) as usize + 1;
                    let value = |old: u32| ClassicalId((old + 1 + delta / 3 % 3) % 4);
                    records[record] = match records[record] {
                        MzzM { reg, mem, out } => MzzM {
                            reg,
                            mem,
                            out: value(out.0),
                        },
                        MxC { reg, out } => MxC {
                            reg,
                            out: value(out.0),
                        },
                        Sk { cond } => Sk {
                            cond: value(cond.0),
                        },
                        other => other,
                    };
                    Piece::NearMiss
                }
                9 => {
                    let cr = RegId(r + 1);
                    records = vec![
                        Pm { reg },
                        Ld { mem, reg: cr },
                        MzzC {
                            reg1: reg,
                            reg2: cr,
                            out: ClassicalId(2),
                        },
                        MxC {
                            reg,
                            out: ClassicalId(1),
                        },
                        Sk {
                            cond: ClassicalId(2),
                        },
                        PhC { reg: cr },
                        St { reg: cr, mem },
                    ];
                    Piece::NearMiss
                }
                10 => {
                    let cr = RegId(r + 1);
                    records.insert(0, Ld { mem, reg: cr });
                    records.push(St { reg: cr, mem });
                    Piece::CheckedOut
                }
                _ => {
                    let other = match other {
                        Ld { mem, .. } | St { mem, .. } => HdM { mem },
                        other => other,
                    };
                    let narrow = Program::from_iter([other]);
                    records = relabel_classical(&narrow, |v| v % NARROW_CLASSICAL)
                        .iter()
                        .copied()
                        .collect();
                    Piece::Other
                }
            };
            (piece, records)
        })
}

/// A program of [`any_piece`]s, the start of every exact teleport, and the
/// start of every near miss. Some programs begin with ~1 020 instructions
/// of filler and a teleport, so the pieces after them run in the walk's
/// second block.
fn any_teleport_program() -> impl Strategy<Value = (Program, Vec<usize>, Vec<usize>)> {
    (
        proptest::collection::vec(any_piece(), 1..40),
        prop_oneof![Just(None), Just(None), (1usize..5).prop_map(Some)],
    )
        .prop_map(|(pieces, filler)| {
            let mut program = Program::new("teleports");
            let (mut teleports, mut near_misses) = (Vec::new(), Vec::new());
            let mut pieces = pieces;
            if let Some(cut) = filler {
                for i in 0..1024 - cut as u32 {
                    program.push(if i % 2 == 0 {
                        Instruction::HdM {
                            mem: MemAddr(i % QUBITS),
                        }
                    } else {
                        Instruction::PzC { reg: RegId(i % 5) }
                    });
                }
                pieces.insert(0, (Piece::Teleport, teleport(RegId(0), MemAddr(1))));
            }
            for (piece, records) in pieces {
                match piece {
                    Piece::Teleport => teleports.push(program.len()),
                    Piece::CheckedOut => teleports.push(program.len() + 1),
                    Piece::NearMiss => near_misses.push(program.len()),
                    Piece::Other => {}
                }
                records.into_iter().for_each(|record| program.push(record));
            }
            (program, teleports, near_misses)
        })
}

proptest! {
    /// Teleport records execute like the interpreter. Random programs of
    /// exact teleports, near misses, teleports on checked-out qubits (their
    /// `MZZ.M` fails) and random instructions, some spanning two walk blocks
    /// and some with an instruction budget that lands inside a teleport,
    /// run on every floorplan (hybrid layouts and either store policy
    /// included) under every migration policy, with finite or infinite
    /// magic: a single run and a factory group each equal the
    /// [`Classified`] oracle's, memory traces on, errors included. The
    /// trace must fold every exact teleport into one record and no near
    /// miss.
    #[test]
    fn teleports_execute_like_the_interpreter(
        case in any_teleport_program(),
        arch in any_arch(),
        hot in proptest::collection::vec(0u32..QUBITS, 0..4),
        policy in any_policy(),
        factories in any_factories(),
        infinite_magic in proptest::bool::ANY,
        budget in prop_oneof![
            Just(None),
            (1u64..1_300).prop_map(|b| Some((None, b))),
            (0usize..64, 1u64..5).prop_map(|(teleport, offset)| Some((Some(teleport), offset))),
        ],
    ) {
        let (program, teleports, near_misses) = case;
        let trace = lsqca_isa::lower(&program);
        prop_assert!(trace.is_narrow());
        prop_assert_eq!(trace.len() + 4 * teleports.len(), program.len());
        // The record of instruction `p`: each exact teleport before it
        // folds four instructions away.
        let record = |p: usize| p - 4 * teleports.iter().filter(|&&t| t < p).count();
        let folded = |p: usize| OpInfo::of(trace.ops()[record(p)]).exec == ExecKind::Teleport;
        for &start in &teleports {
            prop_assert!(folded(start), "teleport at {}", start);
        }
        for &start in &near_misses {
            prop_assert!(!folded(start), "near miss at {}", start);
        }
        let budget = budget.map(|(teleport, offset)| match teleport {
            Some(i) if !teleports.is_empty() => teleports[i % teleports.len()] as u64 + offset,
            _ => offset,
        });
        let hot: Vec<QubitTag> = hot.into_iter().map(QubitTag).collect();
        let config = SimConfig {
            record_trace: true,
            assume_infinite_magic: infinite_magic,
        };
        let oracle = Classified::new(&program);
        let (mut engine, mut reference) = pair(&arch, &hot, config, policy, budget);
        prop_assert_eq!(engine.execute(&trace), reference.execute(&oracle));
        prop_assert_eq!(
            engine.execute_factories(&trace, &factories),
            reference.execute_factories(&oracle, &factories)
        );
    }
}

/// [`wide_program`], whose SAM address 70 000 makes its trace wide, runs
/// to the end exactly as the interpreter does on every paper floorplan and
/// on a hybrid one under each migration policy, in a single run and in a
/// 1/2/4-factory group.
#[test]
fn wide_trace_at_address_70_000_runs_like_the_interpreter() {
    let program = wide_program();
    let trace = lsqca_isa::lower(&program);
    assert!(!trace.is_narrow());
    assert_eq!(trace.mem_bound(), 70_001);
    let oracle = Classified::new(&program);
    let mut cases: Vec<(ArchConfig, Option<PolicyKind>)> = ArchConfig::paper_floorplans()
        .into_iter()
        .map(|floorplan| (ArchConfig::new(floorplan, 1), None))
        .collect();
    for policy in PolicyKind::ALL {
        let hybrid =
            ArchConfig::new(FloorplanKind::PointSam { banks: 2 }, 1).with_hybrid_fraction(0.1);
        cases.push((hybrid, Some(policy)));
    }
    for (arch, policy) in cases {
        let build = || {
            let mut builder = Simulator::builder(&arch, trace.mem_bound()).config(SimConfig {
                record_trace: true,
                assume_infinite_magic: false,
            });
            if let Some(kind) = policy {
                builder = builder.migration_policy(kind.build());
            }
            builder.build().unwrap()
        };
        let expected = build().execute(&oracle);
        assert!(expected.is_ok(), "{arch:?}: {expected:?}");
        assert_eq!(build().execute(&trace), expected, "{arch:?}");
        let factories = [1, 2, 4];
        assert_eq!(
            build().execute_factories(&trace, &factories),
            build().execute_factories(&oracle, &factories),
            "{arch:?}"
        );
    }
}

/// Register-only records store their register indices in the slots a
/// memory operand would use, and those indices here lie far past the
/// trace's `mem_bound` of 2. On a bounded-register floorplan (point SAM)
/// and an unbounded one (conventional), in a single run and a factory
/// group, the engine must run the program to the end exactly as the
/// interpreter does: no register index may be read as a memory address.
#[test]
fn register_indices_in_shared_slots_never_index_memory() {
    use Instruction::*;
    let (q0, q1) = (MemAddr(0), MemAddr(1));
    let mut program = Program::new("shared-slots");
    for instruction in [
        PzM { mem: q0 },
        PzM { mem: q1 },
        Pm { reg: RegId(9) },
        MxxC {
            reg1: RegId(9),
            reg2: RegId(33),
            out: ClassicalId(0),
        },
        MzzC {
            reg1: RegId(17),
            reg2: RegId(9),
            out: ClassicalId(1),
        },
        Sk {
            cond: ClassicalId(1),
        },
        HdC { reg: RegId(33) },
        MxC {
            reg: RegId(40),
            out: ClassicalId(2),
        },
        Cx {
            control: q0,
            target: q1,
        },
        MzzM {
            reg: RegId(9),
            mem: q1,
            out: ClassicalId(3),
        },
        Ld {
            mem: q0,
            reg: RegId(21),
        },
        PhC { reg: RegId(21) },
        St {
            reg: RegId(21),
            mem: q0,
        },
        HdM { mem: q1 },
    ] {
        program.push(instruction);
    }
    let trace = lsqca_isa::lower(&program);
    assert_eq!(trace.mem_bound(), 2);
    let oracle = Classified::new(&program);
    for arch in [
        ArchConfig::new(FloorplanKind::PointSam { banks: 1 }, 1),
        ArchConfig::conventional(1),
    ] {
        let build = || Simulator::builder(&arch, 2).build().unwrap();
        let expected = build().execute(&oracle);
        assert!(expected.is_ok(), "{arch:?}: {expected:?}");
        assert_eq!(build().execute(&trace), expected, "{arch:?}");
        let factories = [1, 2, 4];
        assert_eq!(
            build().execute_factories(&trace, &factories),
            build().execute_factories(&oracle, &factories),
            "{arch:?}"
        );
    }
}

/// The reduced multiplier and SELECT instances, compiled with the default
/// compiler configuration, each paired with the `Program` the compiler emits
/// for the same circuit. The oracle's input comes from the compiler's
/// `Program` sink, never from the trace, so a lowering bug shared by both
/// directions cannot cancel out.
fn compiled_workloads() -> Vec<(CompiledWorkload, Program)> {
    [Benchmark::Multiplier, Benchmark::Select]
        .into_iter()
        .map(|benchmark| {
            let cfg = benchmark.config(InstanceSize::Reduced);
            let circuit = cfg.build();
            let config = lsqca_compiler::CompilerConfig::default();
            (
                CompiledWorkload::compile(cfg.descriptor(), &circuit, config),
                lsqca_compiler::compile(&circuit, config).program,
            )
        })
        .collect()
}

/// The headline property on real compiled workloads: on every paper
/// floorplan the trace engine's outcome equals the interpreter's, on fresh
/// simulators and again on the same simulators once they have run.
#[test]
fn interpreter_matches_the_trace_engine_on_compiled_workloads() {
    for (workload, program) in compiled_workloads() {
        let oracle = Classified::new(&program);
        let qubits = workload.num_qubits().max(1);
        for floorplan in ArchConfig::paper_floorplans() {
            let arch = ArchConfig::new(floorplan, 1);
            let mut interpreter = Simulator::builder(&arch, qubits).build().unwrap();
            let mut engine = Simulator::builder(&arch, qubits).build().unwrap();
            for _ in 0..2 {
                let expected = interpreter.execute(&oracle);
                assert!(expected.is_ok(), "{floorplan:?}: {expected:?}");
                assert_eq!(expected, engine.execute(&workload), "{floorplan:?}");
            }
        }
    }
}

/// The same property on real compiled workloads, whose traces span many
/// walk blocks: every paper floorplan, plus hybrid layouts under each
/// migration policy, at the paper's factory counts, a scrambled list with a
/// duplicate, and a list spanning two lane groups. On a one-bank hybrid
/// layout under freq-decay, some run of each workload migrates, so the
/// shared walk is checked while operands move between regions.
#[test]
fn factory_groups_match_on_compiled_workloads() {
    for (workload, _) in compiled_workloads() {
        let qubits = workload.num_qubits().max(workload.memory_footprint());
        let hot: Vec<QubitTag> = (0..qubits / 10).map(QubitTag).collect();
        let mut cases: Vec<(ArchConfig, Option<PolicyKind>)> = ArchConfig::paper_floorplans()
            .into_iter()
            .map(|floorplan| (ArchConfig::new(floorplan, 1), None))
            .collect();
        for policy in PolicyKind::ALL {
            cases.push((
                ArchConfig::new(FloorplanKind::PointSam { banks: 2 }, 1).with_hybrid_fraction(0.1),
                Some(policy),
            ));
        }
        let migrating_case = cases.len();
        cases.push((
            ArchConfig::new(FloorplanKind::PointSam { banks: 1 }, 1).with_hybrid_fraction(0.1),
            Some(PolicyKind::FreqDecay),
        ));
        for (case, (arch, policy)) in cases.into_iter().enumerate() {
            for factories in [&[1u32, 2, 4][..], &[4, 1, 4, 2], &[4, 1, 2, 4, 1, 2]] {
                let build = |factories: u32| {
                    let arch = ArchConfig {
                        factories,
                        ..arch.clone()
                    };
                    let mut builder = Simulator::builder(&arch, qubits).hot_qubits(&hot);
                    if let Some(kind) = policy {
                        builder = builder.migration_policy(kind.build());
                    }
                    builder.build().unwrap()
                };
                let grouped = build(1).execute_factories(&workload, factories);
                let independent: Vec<_> = factories
                    .iter()
                    .map(|&f| build(f).execute(&workload))
                    .collect();
                assert!(grouped.is_ok(), "{arch:?}: {grouped:?}");
                assert_group_matches(&grouped, &independent);
                let migrates = grouped.unwrap().iter().any(|o| o.stats.migrations > 0);
                assert!(case != migrating_case || migrates, "no run migrates");
            }
        }
    }
}
