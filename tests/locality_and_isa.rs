//! Integration tests for the Sec. III-B locality observations and for the
//! instruction streams the compiler emits.

use lsqca::analysis::{hot_set_by_access_count, AccessLocalityReport};
use lsqca::experiment::{ExperimentConfig, Workload};
use lsqca::prelude::*;
use lsqca::workloads::{select_heisenberg, SelectConfig};

#[test]
fn select_control_and_temporal_registers_are_the_hot_set() {
    // Sec. III-B: "a few logical qubits in the control and temporal registers
    // are referred to much more frequently than those in the system register."
    let circuit = select_heisenberg(SelectConfig::for_width(4));
    let registers = circuit.registers().clone();
    let program = compile(&circuit, CompilerConfig::default()).program;
    let hot = hot_set_by_access_count(
        &program,
        (registers.by_name("control").unwrap().len()
            + registers.by_name("temporal").unwrap().len())
            / 2,
    );
    for qubit in hot {
        let role = registers
            .role_of(qubit.0)
            .expect("hot qubit has a register");
        assert!(
            matches!(role, RegisterRole::Control | RegisterRole::Temporal),
            "hot qubit {qubit:?} unexpectedly belongs to the {role} register"
        );
    }
}

#[test]
fn select_and_multiplier_traces_show_temporal_locality() {
    for benchmark in [Benchmark::Select, Benchmark::Multiplier] {
        let workload = Workload::from_circuit(benchmark.reduced_instance());
        let result = workload.run(
            &ExperimentConfig::baseline(1)
                .with_trace()
                .with_infinite_magic(),
        );
        let report = AccessLocalityReport::from_trace(&result.trace, None);
        assert!(
            report.short_period_fraction > 0.3,
            "{benchmark}: only {:.0}% of reference periods are short",
            100.0 * report.short_period_fraction
        );
        // The period distribution has a long tail: the maximum period is much
        // larger than the median (many short periods, a few long ones).
        let median = report.reference_periods.median().unwrap_or(0);
        let max = report.reference_periods.quantile(1.0).unwrap_or(0);
        assert!(
            max >= 5 * median.max(1),
            "{benchmark}: period distribution has no long tail (median {median}, max {max})"
        );
    }
}

#[test]
fn multiplier_trace_shows_sequential_access() {
    let workload = Workload::from_circuit(Benchmark::Multiplier.reduced_instance());
    let result = workload.run(
        &ExperimentConfig::baseline(1)
            .with_trace()
            .with_infinite_magic(),
    );
    let report = AccessLocalityReport::from_trace(&result.trace, None);
    assert!(
        report.sequential_fraction > 0.25,
        "multiplier sequential fraction {:.2} is too low",
        report.sequential_fraction
    );
}

#[test]
fn compiled_t_gate_counts_match_the_magic_state_demand() {
    for benchmark in [
        Benchmark::SquareRoot,
        Benchmark::Multiplier,
        Benchmark::Adder,
    ] {
        let circuit = benchmark.reduced_instance();
        let program = compile(&circuit, CompilerConfig::default()).program;
        let workload = Workload::from_circuit(circuit);
        assert_eq!(
            workload.compiled().t_gates(),
            program.stats().magic_state_count,
            "{benchmark}: every T gate should consume exactly one magic state"
        );
    }
}

#[test]
fn in_memory_compilation_reduces_explicit_loads_and_stores() {
    // The in-memory optimization (Sec. V-C) should eliminate essentially all
    // explicit LD/ST instructions relative to the load/store-only ablation.
    let circuit = Benchmark::SquareRoot.reduced_instance();
    let in_memory = compile(&circuit, CompilerConfig::default());
    let load_store = compile(
        &circuit,
        CompilerConfig {
            use_in_memory_ops: false,
        },
    );
    let ldst = |p: &Program| {
        let stats = p.stats();
        stats
            .kind_counts
            .get(&lsqca::isa::InstructionKind::Memory)
            .copied()
            .unwrap_or(0)
    };
    assert_eq!(ldst(&in_memory.program), 0);
    assert!(ldst(&load_store.program) > 100);

    // And the in-memory program runs faster on a point SAM.
    let arch = ArchConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
    let fast = simulate(
        &in_memory.program,
        in_memory.num_qubits,
        &arch,
        &[],
        SimConfig::default(),
    );
    let slow = simulate(
        &load_store.program,
        load_store.num_qubits,
        &arch,
        &[],
        SimConfig::default(),
    );
    assert!(fast.stats.total_beats <= slow.stats.total_beats);
}
