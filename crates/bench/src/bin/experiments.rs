//! Regenerates the paper's tables and figures as text tables or JSON.
//!
//! ```text
//! cargo run --release -p lsqca-bench --bin experiments -- <command> [--full] [--json]
//!
//! commands:
//!   table1     the LSQCA instruction set (Table I)
//!   fig8       memory reference locality of SELECT and the multiplier
//!   fig13      CPI for every benchmark, floorplan, and factory count
//!   fig14      hybrid-floorplan trade-off curves (density vs overhead)
//!   fig15      SELECT scaling with hybrid layouts
//!   headline        the headline density/overhead claims
//!   ablation        store-policy × in-memory-ops ablation on the point SAM
//!   hybrid-migrate  runtime hot-set migration policies vs the static hot set
//!   hotpath         simulator throughput per floorplan, each row with its
//!                   own calibration measurement
//!   all             every deterministic generator above (excludes `hotpath`,
//!                   whose timing output differs run to run)
//!   merge           audit all shard journals in the store and emit the merged
//!                   `all` report (no new simulation unless records are missing)
//! ```
//!
//! Flag matrix (any combination is valid; unknown flags are rejected):
//!
//! | flags            | behaviour                                              |
//! |------------------|--------------------------------------------------------|
//! | *(none)*         | quick-scale instances, human-readable text tables      |
//! | `--full`         | paper-sized instances (minutes instead of seconds)     |
//! | `--json`         | machine-readable JSON on stdout (stable schema: every  |
//! |                  | generator emits an array of flat objects; `hotpath`    |
//! |                  | emits the `lsqca-bench-hotpath-v2` document used as    |
//! |                  | the `BENCH_hotpath.json` baseline)                     |
//! | `--full --json`  | paper-sized instances, JSON output                     |
//! | `--shards N`     | supervised sharded run: N worker processes partition   |
//! |                  | the sweep, crash/hang-tolerant (see `supervisor`)      |
//! | `--shard k/N`    | run as worker shard k of N (spawned by the supervisor) |
//! | `--metrics-out F`| write the `lsqca-metrics-v1` registry snapshot to F    |
//! |                  | (sharded/merge runs aggregate `metrics-<shard>.json`)  |
//! | `--trace-out F`  | record spans and write Chrome trace-event JSON to F    |
//! |                  | (load in Perfetto / `chrome://tracing`)                |
//!
//! The figure sweeps run in parallel across CPU cores; set `LSQCA_THREADS=1`
//! to force serial execution.
//!
//! Simulation results are persisted to a crash-safe result store (default
//! `target/lsqca-store/`, override with `--store-dir`/`LSQCA_STORE_DIR`,
//! disable with `--no-store`/`LSQCA_NO_STORE=1`). Every point is journaled and
//! durably written before use, so an invocation killed mid-sweep loses at most
//! the in-flight points: rerunning the same command picks up the stored
//! results and produces the same report, and `--resume` prints a journal
//! audit (intact/torn/missing record counts) before doing so.
//!
//! Workloads are compiled in process, at most once per process, and only
//! when one of their sweep points misses the store: store keys derive from
//! the workload's generator descriptor and compiler configuration, not from
//! the compiled program, so a warm rerun compiles nothing. Nothing about
//! workloads is written to disk.
//!
//! After every command, stderr gets a four-line summary:
//! `workloads: N compiled`, `result store: N computed, M hits, K quarantined`,
//! `trace engine: N lowered` (in-process trace lowerings, one per compile)
//! and `simulator: N warmed`. A warm rerun compiles, computes, lowers and
//! warms nothing.
//!
//! Exit codes: `0` = complete, `2` = completed with quarantined sweep points
//! (see `--help`), `1` = fatal.

use lsqca_bench::{supervisor, Scale, REPORT_COMMANDS};
use std::process::ExitCode;
use std::time::Duration;

/// Commands beside the [`REPORT_COMMANDS`] generators.
const OTHER_COMMANDS: [&str; 3] = ["hotpath", "all", "merge"];

fn usage_line() -> String {
    format!(
        "usage: experiments <{}|{}> [--full] [--json] [--store-dir <dir>] [--no-store] \
         [--resume] [--shards <n>] [--shard <k/n>] [--stall-timeout-ms <ms>] \
         [--metrics-out <file>] [--trace-out <file>]",
        REPORT_COMMANDS.join("|"),
        OTHER_COMMANDS.join("|")
    )
}

fn help() -> String {
    format!(
        "{usage}\n\n\
         sharded execution:\n  \
         --shards <n>             supervise <n> worker processes that partition the\n  \
                                  sweep by result-key hash; crashed or hung workers\n  \
                                  are restarted with backoff and resume through the\n  \
                                  store journal; points that kill a worker repeatedly\n  \
                                  are quarantined instead of wedging the sweep\n  \
         --shard <k/n>            run as worker shard k of n (spawned by --shards)\n  \
         --stall-timeout-ms <ms>  restart a worker whose journal has not grown for\n  \
                                  this long (default 30000)\n\n\
         observability:\n  \
         --metrics-out <file>     write the telemetry registry (counters, gauges,\n  \
                                  log2 histograms) as a `lsqca-metrics-v1` JSON\n  \
                                  document; sharded and merge runs aggregate the\n  \
                                  workers' metrics-<shard>.json files into it\n  \
         --trace-out <file>       enable span recording and write the run's spans\n  \
                                  as Chrome trace-event JSON (Perfetto-loadable)\n\n\
         exit codes:\n  \
         0  report complete: every sweep point computed or served from the store\n  \
         2  report complete, but quarantined sweep points were skipped and their\n     \
         rows are placeholders (listed on stderr by the merge audit)\n  \
         1  fatal: bad usage, unspawnable worker, shard journals that disagree on\n     \
         a record's content hash, or a shard failing repeatedly without progress",
        usage = usage_line()
    )
}

fn usage(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("{}", usage_line());
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Strict parsing: exactly one command, only the known flags.
    let mut command: Option<&str> = None;
    let mut full = false;
    let mut json = false;
    let mut no_store = false;
    let mut store_dir: Option<String> = None;
    let mut resume = false;
    let mut shards: Option<u32> = None;
    let mut shard: Option<(u32, u32)> = None;
    let mut stall_timeout = Duration::from_millis(30_000);
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--json" => json = true,
            "--no-store" => no_store = true,
            "--resume" => resume = true,
            "--store-dir" => {
                let Some(dir) = iter.next() else {
                    return usage("`--store-dir` requires a directory argument");
                };
                store_dir = Some(dir.clone());
            }
            "--shards" => {
                let parsed = iter.next().and_then(|v| v.parse::<u32>().ok());
                let Some(n) = parsed.filter(|&n| n >= 1) else {
                    return usage("`--shards` requires a worker count of at least 1");
                };
                shards = Some(n);
            }
            "--shard" => {
                let parsed = iter.next().and_then(|v| {
                    let (k, n) = v.split_once('/')?;
                    Some((k.parse::<u32>().ok()?, n.parse::<u32>().ok()?))
                });
                let Some((k, n)) = parsed.filter(|&(k, n)| n >= 1 && k < n) else {
                    return usage("`--shard` requires an index/count pair like `2/4` with k < n");
                };
                shard = Some((k, n));
            }
            "--metrics-out" => {
                let Some(path) = iter.next() else {
                    return usage("`--metrics-out` requires a file argument");
                };
                metrics_out = Some(path.clone());
            }
            "--trace-out" => {
                let Some(path) = iter.next() else {
                    return usage("`--trace-out` requires a file argument");
                };
                trace_out = Some(path.clone());
            }
            "--stall-timeout-ms" => {
                let Some(ms) = iter.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage("`--stall-timeout-ms` requires a duration in milliseconds");
                };
                stall_timeout = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                println!("{}", help());
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                return usage(&format!("unknown flag `{flag}`"));
            }
            name => {
                if command.is_some() {
                    return usage(&format!("unexpected extra argument `{name}`"));
                }
                let Some(&known) = REPORT_COMMANDS
                    .iter()
                    .chain(&OTHER_COMMANDS)
                    .find(|&&c| c == name)
                else {
                    return usage(&format!("unknown experiment `{name}`"));
                };
                command = Some(known);
            }
        }
    }
    let Some(command) = command else {
        return usage("missing command");
    };
    if resume && no_store {
        return usage("`--resume` needs the result store; drop `--no-store`");
    }
    if shards.is_some() && shard.is_some() {
        return usage("`--shards` (supervisor) and `--shard` (worker) are mutually exclusive");
    }
    if (shards.is_some() || shard.is_some() || command == "merge") && no_store {
        return usage("sharded execution and `merge` need the result store; drop `--no-store`");
    }
    if (shards.is_some() || shard.is_some()) && matches!(command, "hotpath" | "merge") {
        return usage(&format!("`{command}` cannot run sharded"));
    }

    // Anchor the span clock at startup so trace timestamps count from
    // process start; recording itself stays off unless requested.
    lsqca_telemetry::init_clock();
    if trace_out.is_some() {
        lsqca_telemetry::set_spans_enabled(true);
    }

    // The store flags travel to `lsqca_bench::result_store()` via the same
    // environment variables a wrapper script would set; the store is
    // initialized lazily on first use, strictly after this point.
    if no_store {
        std::env::set_var("LSQCA_NO_STORE", "1");
    }
    if let Some(dir) = &store_dir {
        std::env::set_var("LSQCA_STORE_DIR", dir);
    }
    // Sharded modes need a concrete shared directory even when the caller
    // relied on the default, and a journal label of their own: workers label
    // as their shard index, while the supervisor and `merge` must never
    // journal under a worker's label.
    let resolved_store_dir = store_dir
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(lsqca_store::default_store_dir);
    if let Some((index, count)) = shard {
        std::env::set_var("LSQCA_SHARD", index.to_string());
        std::env::set_var("LSQCA_STORE_DIR", &resolved_store_dir);
        supervisor::install_worker(index, count, &resolved_store_dir);
    } else if shards.is_some() || command == "merge" {
        std::env::set_var("LSQCA_SHARD", "merge");
        std::env::set_var("LSQCA_STORE_DIR", &resolved_store_dir);
    }

    // Supervise the worker fleet to completion before this process renders
    // the merged report (from the records the workers published).
    if let Some(count) = shards {
        let mut config =
            supervisor::ShardRunConfig::new(command, resolved_store_dir.clone(), count);
        config.full = full;
        config.stall_timeout = stall_timeout;
        match supervisor::run_sharded(&config) {
            Ok(outcome) => {
                eprintln!(
                    "supervisor: {} shards complete, {} restarts, {} quarantined points",
                    count,
                    outcome.restarts,
                    outcome.quarantined.len()
                );
            }
            Err(err) => {
                eprintln!("error: sharded run failed: {err}");
                return ExitCode::FAILURE;
            }
        }
        supervisor::install_merge(&resolved_store_dir);
    }

    if resume {
        // Audit the shard journals against the records on disk before the
        // sweeps run: intact records will be served as hits, torn or missing
        // ones recomputed.
        eprintln!("{}", lsqca_bench::result_store().verify_resume());
    }

    // `merge` and every post-supervision render audit the shard journals
    // first: conflicting content hashes for the same record are fatal, and
    // quarantined points downgrade the final exit code to 2.
    let mut quarantined_points = 0usize;
    if command == "merge" || shards.is_some() {
        if command == "merge" {
            supervisor::install_merge(&resolved_store_dir);
        }
        match lsqca_bench::result_store().merge_audit() {
            Ok(report) => {
                eprintln!("merge audit: {report}");
                for key in &report.quarantined_points {
                    eprintln!("merge audit: quarantined: {key}");
                }
                quarantined_points = report.quarantined_points.len();
            }
            Err(err) => {
                eprintln!("error: merge refused: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    // `all` covers the deterministic figure/table generators only, so its
    // output can be diffed across runs; the timing-dependent `hotpath`
    // measurements must be requested explicitly. `merge` renders the same
    // report from the shard-published records, byte-identical to a
    // single-process `all` over the same sweep.
    let rendered = if command == "merge" { "all" } else { command };
    println!(
        "{}",
        lsqca_bench::report(rendered, Scale::from_flag(full), json)
    );
    // A worker leaves its final metrics snapshot next to its journal so the
    // supervisor/merge aggregation sees the completed totals (a no-op in
    // every other mode).
    supervisor::export_worker_metrics();

    // Stderr so `--json` stdout stays machine-readable. The block is
    // rendered from one registry snapshot; its four line formats are stable
    // and CI-greppable. A warm run answers every point from the result store,
    // so it compiles, lowers and warms nothing.
    eprintln!("{}", lsqca_bench::telemetry_summary());

    if let Some(path) = &metrics_out {
        let mut snapshot = lsqca_bench::telemetry::metrics_snapshot();
        if command == "merge" || shards.is_some() {
            // Fold in what the shard workers measured; a missing or corrupt
            // per-shard file degrades to partial aggregation with a warning,
            // never a failure — the results themselves are safe in the store.
            for warning in
                lsqca_bench::telemetry::aggregate_shard_metrics(&mut snapshot, &resolved_store_dir)
            {
                eprintln!("warning: {warning}");
            }
        }
        if let Err(err) = std::fs::write(path, snapshot.to_json().pretty() + "\n") {
            eprintln!("error: cannot write metrics to `{path}`: {err}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "metrics: wrote {} ({path})",
            lsqca_telemetry::METRICS_SCHEMA
        );
    }
    if let Some(path) = &trace_out {
        let spans = lsqca_telemetry::take_spans();
        let dropped = lsqca_telemetry::dropped_spans();
        let document = lsqca_telemetry::chrome_trace(&spans);
        if let Err(err) = std::fs::write(path, document.pretty() + "\n") {
            eprintln!("error: cannot write trace to `{path}`: {err}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "trace: wrote {} spans ({dropped} dropped) as Chrome trace events ({path})",
            spans.len()
        );
    }

    if quarantined_points > 0 {
        eprintln!(
            "warning: {quarantined_points} quarantined sweep points rendered as placeholders"
        );
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
