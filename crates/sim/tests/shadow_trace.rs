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

use lsqca_arch::{ArchConfig, FloorplanKind, PolicyKind};
use lsqca_isa::{ClassicalId, ExecutionTrace, Instruction, LatencyTable, MemAddr, Program, RegId};
use lsqca_lattice::QubitTag;
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
fn any_instruction() -> impl Strategy<Value = Instruction> {
    use Instruction::*;
    (
        0u32..21,
        0u32..QUBITS,
        0u32..QUBITS,
        0u32..6,
        0u32..6,
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
/// and a hybrid fraction that sometimes carves out a conventional region.
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
    )
        .prop_map(|(floorplan, factories, hybrid_tenths)| {
            ArchConfig::new(floorplan, factories)
                .with_hybrid_fraction(f64::from(hybrid_tenths) * 0.1)
        })
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

/// [`any_arch`], sometimes with an explicit magic-state buffer, which
/// applies to every factory count of a group.
fn any_group_arch() -> impl Strategy<Value = ArchConfig> {
    (any_arch(), 0u32..4).prop_map(|(arch, buffer)| {
        if buffer == 0 {
            arch
        } else {
            arch.with_magic_buffer(buffer)
        }
    })
}

/// Factory lists in any order, duplicates included.
fn any_factories() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(1u32..6, 1..5)
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
        let classes = LatencyTable::paper().classify_program(&program);
        let classified = Classified::new(&program, &classes);
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
        arch in any_group_arch(),
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

        let classes = LatencyTable::paper().classify_program(&program);
        let mut reference = build(&arch, &hot, config, policy, budget);
        let oracle = reference.execute_factories(&Classified::new(&program, &classes), &factories);
        prop_assert_eq!(&oracle, &grouped);
    }
}

/// The reduced multiplier and SELECT instances, compiled with the default
/// compiler configuration.
fn compiled_workloads() -> Vec<CompiledWorkload> {
    [Benchmark::Multiplier, Benchmark::Select]
        .into_iter()
        .map(|benchmark| {
            let cfg = benchmark.config(InstanceSize::Reduced);
            CompiledWorkload::compile(
                cfg.descriptor(),
                &cfg.build(),
                lsqca_compiler::CompilerConfig::default(),
            )
        })
        .collect()
}

/// The headline property on real compiled workloads: on every paper
/// floorplan the trace engine's outcome equals the interpreter's, on fresh
/// simulators and again on the same simulators once they have run.
#[test]
fn interpreter_matches_the_trace_engine_on_compiled_workloads() {
    for workload in compiled_workloads() {
        let oracle = Classified::new(workload.program(), workload.classes());
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
/// migration policy, at the paper's factory counts and a scrambled list
/// with a duplicate.
#[test]
fn factory_groups_match_on_compiled_workloads() {
    for workload in compiled_workloads() {
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
        for (arch, policy) in cases {
            for factories in [&[1u32, 2, 4][..], &[4, 1, 4, 2]] {
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
            }
        }
    }
}
