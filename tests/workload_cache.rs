//! End-to-end tests of workload acquisition. The figure generators compile
//! nothing against a warm result store, because result keys derive from the
//! workload descriptor rather than the compiled program. The on-disk artifact
//! cache, which the traced pipeline replay still uses, serves a warm sweep
//! with zero compilation, and every corruption/staleness mode forces
//! recompilation instead of serving a stale artifact.

use lsqca::experiment::{ExperimentConfig, Workload};
use lsqca::prelude::*;
use lsqca::workloads::{compile_count, CacheEvent, InstanceSize};
use lsqca_bench::{fig13, Scale};
use lsqca_store::TempDir;
use std::sync::{Mutex, MutexGuard};

/// `compile_count()` is process-global, so tests that assert on its deltas
/// (or compile at all) must not interleave with each other.
static COMPILES: Mutex<()> = Mutex::new(());

fn compile_lock() -> MutexGuard<'static, ()> {
    COMPILES.lock().unwrap_or_else(|e| e.into_inner())
}

/// A cache in a fresh directory, which the returned guard removes.
fn temp_cache(tag: &str) -> (TempDir, WorkloadCache) {
    let dir = TempDir::new(&format!("itest-cache-{tag}"));
    let cache = WorkloadCache::at(dir.path());
    (dir, cache)
}

/// The acceptance criterion of the artifact subsystem: once the cache is warm,
/// re-running a whole multi-configuration sweep compiles nothing — the compile
/// counter stays exactly flat while every configuration still simulates.
#[test]
fn warm_cache_sweep_performs_zero_compilation() {
    let _serial = compile_lock();
    let (_dir, cache) = temp_cache("sweep");
    let compiler = CompilerConfig::default();
    let benchmarks = [Benchmark::Ghz, Benchmark::SquareRoot, Benchmark::Cat];

    let run_sweep = |cache: &WorkloadCache| -> Vec<u64> {
        let mut beats = Vec::new();
        for benchmark in benchmarks {
            let cfg = benchmark.config(InstanceSize::Reduced);
            let (artifact, _) = cache.load_or_compile(&cfg.descriptor(), compiler, || cfg.build());
            let workload = Workload::from_artifact(artifact);
            // The paper's access pattern: one compile, many configurations.
            for floorplan in [
                FloorplanKind::Conventional,
                FloorplanKind::PointSam { banks: 1 },
                FloorplanKind::LineSam { banks: 1 },
            ] {
                let result = workload.run(&ExperimentConfig::new(floorplan, 1));
                beats.push(result.total_beats.as_u64());
            }
        }
        beats
    };

    let cold = run_sweep(&cache);
    let compiles_after_cold = compile_count();

    let warm = run_sweep(&cache);
    assert_eq!(
        compile_count(),
        compiles_after_cold,
        "the warm-cache sweep must perform zero workload compilation"
    );
    assert_eq!(
        cold, warm,
        "cache-served artifacts must simulate identically"
    );
    let stats = cache.stats();
    assert_eq!(stats.compiled, benchmarks.len() as u64);
    assert_eq!(stats.hits, benchmarks.len() as u64);
    assert_eq!(stats.invalidated, 0);
}

/// The figure generators key every sweep point without compiling and compile
/// a workload only when one of its points misses the result store, so
/// regenerating fig13 against a warm store compiles nothing and yields
/// identical points.
#[test]
fn figure_generators_compile_nothing_against_a_warm_store() {
    let _serial = compile_lock();
    // The process-wide store reads its directory once, at first use; no other
    // test in this binary touches it.
    let dir = TempDir::new("itest-warm-store");
    std::env::remove_var("LSQCA_NO_STORE");
    std::env::set_var("LSQCA_STORE_DIR", dir.path());

    let before = compile_count();
    let first = fig13::generate(Scale::Quick, &[Benchmark::Ghz], &[1]);
    let compiles_after_first = compile_count();
    assert_eq!(
        compiles_after_first,
        before + 1,
        "the cold generation compiles its one workload exactly once"
    );
    let cold = lsqca_bench::result_store().stats();
    assert_eq!(cold.computed, first.len() as u64);
    assert_eq!(cold.hits, 0);

    // The second generation must be served entirely from the store.
    let second = fig13::generate(Scale::Quick, &[Benchmark::Ghz], &[1]);
    assert_eq!(
        compile_count(),
        compiles_after_first,
        "regenerating fig13 against a warm store must not compile"
    );
    let warm = lsqca_bench::result_store().stats();
    assert_eq!(warm.computed, cold.computed);
    assert_eq!(warm.hits, second.len() as u64);
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            (&a.benchmark, &a.floorplan, a.factories, a.beats),
            (&b.benchmark, &b.floorplan, b.factories, b.beats)
        );
        assert_eq!(a.cpi.to_bits(), b.cpi.to_bits(), "{}", a.floorplan);
        assert_eq!(a.density.to_bits(), b.density.to_bits(), "{}", a.floorplan);
    }
}

/// Every tamper mode recompiles rather than serving the stale artifact.
#[test]
fn tampered_cache_entries_are_never_served() {
    let _serial = compile_lock();
    let (_dir, cache) = temp_cache("tamper");
    let compiler = CompilerConfig::default();
    let cfg = Benchmark::Ghz.config(InstanceSize::Reduced);
    let (pristine, event) = cache.load_or_compile(&cfg.descriptor(), compiler, || cfg.build());
    assert_eq!(event, CacheEvent::Compiled);
    let path = cache.path_for(&cfg.descriptor(), &compiler).unwrap();

    // Truncation (simulated torn write).
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 3]).unwrap();
    let (artifact, event) = cache.load_or_compile(&cfg.descriptor(), compiler, || cfg.build());
    assert!(matches!(event, CacheEvent::Invalidated(_)), "{event:?}");
    assert_eq!(artifact, pristine);

    // Stale ISA version.
    let text = std::fs::read_to_string(&path).unwrap();
    let stale = text.replace("\"isa_version\": ", "\"isa_version\": 99");
    std::fs::write(&path, stale).unwrap();
    let (artifact, event) = cache.load_or_compile(&cfg.descriptor(), compiler, || cfg.build());
    assert!(matches!(event, CacheEvent::Invalidated(_)), "{event:?}");
    assert_eq!(artifact, pristine);

    // After the recompile-and-rewrite, the entry serves hits again.
    let (_, event) = cache.load_or_compile(&cfg.descriptor(), compiler, || cfg.build());
    assert_eq!(event, CacheEvent::Hit);
}

/// A mutated generator configuration hashes to a different key, so the old
/// artifact is never consulted for it.
#[test]
fn mutated_config_gets_its_own_artifact() {
    let _serial = compile_lock();
    let (_dir, cache) = temp_cache("mutated-config");
    let compiler = CompilerConfig::default();
    let small = lsqca::workloads::BenchmarkConfig::Ghz(lsqca::workloads::GhzConfig { qubits: 8 });
    let large = lsqca::workloads::BenchmarkConfig::Ghz(lsqca::workloads::GhzConfig { qubits: 9 });
    cache.load_or_compile(&small.descriptor(), compiler, || small.build());
    let (artifact, event) = cache.load_or_compile(&large.descriptor(), compiler, || large.build());
    assert_eq!(
        event,
        CacheEvent::Compiled,
        "one changed parameter = new key"
    );
    assert_eq!(artifact.num_qubits(), 9);
}
