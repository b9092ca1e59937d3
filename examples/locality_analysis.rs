//! Reproduces the Sec. III-B motivation study: collect the memory reference
//! trace of a benchmark under idealized conditions (unbounded parallelism,
//! instant magic states) and report its temporal/spatial locality and
//! magic-state demand rate — the observations that justify trading access
//! latency for memory density.
//!
//! ```text
//! cargo run --release --example locality_analysis [benchmark]
//! ```

use lsqca::analysis::AccessLocalityReport;
use lsqca::experiment::{ExperimentConfig, Workload};
use lsqca::prelude::*;

fn main() {
    let benchmark = std::env::args()
        .nth(1)
        .and_then(|name| Benchmark::from_name(&name))
        .unwrap_or(Benchmark::Select);
    let circuit = benchmark.reduced_instance();
    println!(
        "locality analysis for `{benchmark}` ({} qubits, {} gates)",
        circuit.num_qubits(),
        circuit.len()
    );

    let workload = Workload::from_circuit(circuit);
    // The paper's motivation-study assumptions.
    let result = workload.run(
        &ExperimentConfig::baseline(1)
            .with_trace()
            .with_infinite_magic(),
    );
    let report = AccessLocalityReport::from_trace(&result.trace, Some(result.stats.magic_states));

    println!("\n{report}");
    println!(
        "execution horizon: {} beats, {} magic states ({} beats per magic state)",
        result.total_beats.as_u64(),
        result.stats.magic_states,
        report
            .beats_per_magic_state
            .map(|b| format!("{b:.1}"))
            .unwrap_or_else(|| "-".to_string())
    );

    println!("\nreference-period cumulative distribution (log-spaced):");
    for (period, fraction) in report.reference_periods.log_spaced_points(2) {
        let bar = "#".repeat((fraction * 40.0).round() as usize);
        println!("  <= {period:>7} beats  {fraction:>6.3}  {bar}");
    }

    // Every memory operand of the trace is one reference of the run, so the
    // per-qubit reference counts are the trace's operand counts.
    println!("\nhottest qubits (by reference count):");
    let trace = workload.compiled().trace();
    let mut counts = vec![0u64; trace.mem_bound() as usize];
    trace.for_each_memory_operand(|addr| counts[addr as usize] += 1);
    let mut counts: Vec<_> = (0u32..)
        .map(MemAddr)
        .zip(counts)
        .filter(|c| c.1 > 0)
        .collect();
    counts.sort_by_key(|c| std::cmp::Reverse(c.1));
    for (addr, count) in counts.iter().take(10) {
        let role = workload
            .registers()
            .role_of(addr.index())
            .map(|r| r.to_string())
            .unwrap_or_else(|| "?".to_string());
        println!("  {addr:>6}  {count:>8} references  ({role} register)");
    }
    println!(
        "\nA few qubits (the control/temporal registers for SELECT) absorb most references — \
         exactly the asymmetry the hybrid floorplan exploits."
    );
}
