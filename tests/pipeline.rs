//! End-to-end pipeline tests: every benchmark goes through circuit generation,
//! compilation, validation, and simulation on every floorplan, and the results
//! respect the qualitative relationships the paper establishes.

use lsqca::experiment::{ExperimentConfig, Workload};
use lsqca::prelude::*;

fn floorplans() -> Vec<FloorplanKind> {
    vec![
        FloorplanKind::PointSam { banks: 1 },
        FloorplanKind::PointSam { banks: 2 },
        FloorplanKind::LineSam { banks: 1 },
        FloorplanKind::LineSam { banks: 2 },
        FloorplanKind::LineSam { banks: 4 },
        FloorplanKind::Conventional,
    ]
}

#[test]
fn every_benchmark_compiles_validates_and_simulates_on_every_floorplan() {
    for benchmark in Benchmark::ALL {
        let circuit = benchmark.reduced_instance();
        assert!(
            compile(&circuit, CompilerConfig::default())
                .program
                .validate()
                .is_ok(),
            "{benchmark}: compiled program does not validate"
        );
        let workload = Workload::from_circuit(circuit);
        let baseline = workload.run(&ExperimentConfig::baseline(1));
        assert!(
            baseline.total_beats.as_u64() > 0,
            "{benchmark}: baseline run is empty"
        );
        for floorplan in floorplans() {
            let result = workload.run(&ExperimentConfig::new(floorplan, 1));
            // The conventional baseline is an optimistic lower bound on time.
            assert!(
                result.total_beats >= baseline.total_beats,
                "{benchmark} on {floorplan:?} finished before the ideal baseline"
            );
            // Multi-bank SAMs only amortize their CR overhead on larger register
            // files, so the density claim is checked for single-bank floorplans
            // (the paper-sized instances are covered in headline_claims.rs).
            if floorplan.bank_count() == 1 {
                assert!(
                    result.memory_density > baseline.memory_density,
                    "{benchmark} on {floorplan:?} does not improve memory density"
                );
            }
        }
    }
}

#[test]
fn clifford_only_benchmarks_pay_the_largest_lsqca_penalty() {
    // bv/cat/ghz have no magic-state bottleneck to hide behind, so their
    // overhead on a single-bank point SAM is larger than the multiplier's
    // (Sec. VI-B's main qualitative finding).
    let overhead = |benchmark: Benchmark| {
        let workload = Workload::from_circuit(benchmark.reduced_instance());
        let config = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
        let (lsqca, baseline) = workload.run_with_baseline(&config);
        lsqca.overhead_vs(&baseline)
    };
    let ghz = overhead(Benchmark::Ghz);
    let cat = overhead(Benchmark::Cat);
    let multiplier = overhead(Benchmark::Multiplier);
    let square_root = overhead(Benchmark::SquareRoot);
    assert!(
        ghz > multiplier,
        "ghz ({ghz:.2}x) should suffer more than the multiplier ({multiplier:.2}x)"
    );
    assert!(
        cat > square_root,
        "cat ({cat:.2}x) should suffer more than square_root ({square_root:.2}x)"
    );
}

#[test]
fn more_factories_never_slow_execution_down() {
    for benchmark in [
        Benchmark::Multiplier,
        Benchmark::Select,
        Benchmark::SquareRoot,
    ] {
        let workload = Workload::from_circuit(benchmark.reduced_instance());
        for floorplan in [
            FloorplanKind::LineSam { banks: 1 },
            FloorplanKind::Conventional,
        ] {
            let one = workload.run(&ExperimentConfig::new(floorplan, 1));
            let four = workload.run(&ExperimentConfig::new(floorplan, 4));
            assert!(
                four.total_beats <= one.total_beats,
                "{benchmark} on {floorplan:?}: 4 factories slower than 1"
            );
        }
    }
}

#[test]
fn multi_bank_sam_is_not_slower_than_single_bank() {
    for benchmark in [Benchmark::Multiplier, Benchmark::Adder] {
        let workload = Workload::from_circuit(benchmark.reduced_instance());
        let single = workload.run(&ExperimentConfig::new(
            FloorplanKind::LineSam { banks: 1 },
            4,
        ));
        let quad = workload.run(&ExperimentConfig::new(
            FloorplanKind::LineSam { banks: 4 },
            4,
        ));
        assert!(
            quad.total_beats <= single.total_beats,
            "{benchmark}: 4-bank line SAM slower than 1 bank"
        );
        assert!(quad.memory_density <= single.memory_density);
    }
}

#[test]
fn line_sam_is_not_slower_than_point_sam() {
    // The line SAM trades density for latency, so with equal bank counts it
    // should never be slower on memory-bound workloads.
    for benchmark in [Benchmark::Ghz, Benchmark::Cat, Benchmark::Adder] {
        let workload = Workload::from_circuit(benchmark.reduced_instance());
        let point = workload.run(&ExperimentConfig::new(
            FloorplanKind::PointSam { banks: 1 },
            1,
        ));
        let line = workload.run(&ExperimentConfig::new(
            FloorplanKind::LineSam { banks: 1 },
            1,
        ));
        assert!(
            line.total_beats <= point.total_beats,
            "{benchmark}: line SAM ({}) slower than point SAM ({})",
            line.total_beats,
            point.total_beats
        );
        assert!(line.memory_density <= point.memory_density);
    }
}

#[test]
fn hybrid_fraction_interpolates_between_lsqca_and_the_baseline() {
    let workload = Workload::from_circuit(Benchmark::Select.reduced_instance());
    let baseline = workload.run(&ExperimentConfig::baseline(1));
    let floorplan = FloorplanKind::PointSam { banks: 1 };
    let mut previous_density = f64::INFINITY;
    for step in 0..=4 {
        let fraction = step as f64 * 0.25;
        let result =
            workload.run(&ExperimentConfig::new(floorplan, 1).with_hybrid_fraction(fraction));
        assert!(
            result.memory_density <= previous_density + 1e-9,
            "density should not increase with f"
        );
        previous_density = result.memory_density;
        if step == 4 {
            // f = 1 is exactly the conventional baseline.
            assert!((result.memory_density - 0.5).abs() < 1e-9);
            assert!((result.overhead_vs(&baseline) - 1.0).abs() < 1e-9);
        }
    }
}
