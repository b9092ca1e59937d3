//! Supervised multi-process sharded sweep execution.
//!
//! A sweep's points are partitioned across N worker shards by result-key
//! hash ([`owning_shard`]), so the partition is deterministic under the
//! work-stealing parallel drivers (which visit points in nondeterministic
//! order) and stable across runs. Each worker is a separate OS process —
//! this same `experiments` binary re-invoked with `--shard k/N` and
//! `LSQCA_SHARD=k` — publishing into one shared result store, each into its
//! own results log. The supervisor ([`run_sharded`]):
//!
//! * watches per-worker liveness through log-growth heartbeats (results-log
//!   byte length + in-flight marker content) with a configurable stall
//!   timeout, killing and restarting a wedged worker;
//! * restarts crashed / nonzero-exit workers with bounded exponential
//!   backoff — a restarted worker resumes from its results log, so no
//!   completed point is ever recomputed;
//! * quarantines poisoned points: a worker that dies repeatedly with the
//!   same point in flight gets that point recorded in
//!   `quarantine-<shard>.log` and skipped on the next restart, so one bad
//!   point cannot wedge the sweep;
//! * declares the sweep fatal only after a worker fails
//!   [`ShardRunConfig::max_stalled_restarts`] consecutive times with no
//!   progress (no log growth, no quarantine decision).
//!
//! In-process, the worker side consists of a partition plan installed before
//! the sweep starts ([`install_worker`] / [`install_merge`]) and consulted by
//! the store funnel via [`should_compute`], plus an [`InflightGuard`] wrapped
//! around every computation so the supervisor can attribute a crash to a
//! point post-mortem.

use lsqca_store::{
    fnv1a64, progress_signature, quarantined_keys, DiskIo, InflightLog, QuarantineEntry,
    QuarantineLog,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How this process participates in a sharded sweep: which result keys it
/// computes and which it merely renders from other shards' records.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    index: u32,
    count: u32,
    quarantined: BTreeSet<String>,
}

impl ShardPlan {
    /// Whether this process computes `key` (owned by its shard and not
    /// quarantined).
    fn computes(&self, key: &str) -> bool {
        owning_shard(key, self.count) == self.index && !self.quarantined.contains(key)
    }
}

/// The shard that owns `key` in a `shards`-way partition: a stable hash of
/// the full result key, so the partition is independent of sweep iteration
/// order (the parallel drivers steal work nondeterministically) and of which
/// driver enumerates the point.
///
/// The FNV hash is passed through a SplitMix64-style finalizer before the
/// modulus: raw FNV-1a's low bit is just the XOR of every byte's low bit, so
/// keys whose varying substring appears an even number of times all share a
/// parity and a 2-way partition would starve one shard.
pub fn owning_shard(key: &str, shards: u32) -> u32 {
    let mut h = fnv1a64(key.as_bytes());
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    (h % u64::from(shards.max(1))) as u32
}

static PLAN: OnceLock<ShardPlan> = OnceLock::new();
static INFLIGHT: OnceLock<InflightTracker> = OnceLock::new();
/// `(shard label, store dir)` of this process when it is a worker — where
/// [`export_worker_metrics`] writes `metrics-<shard>.json`.
static WORKER_EXPORT: OnceLock<(String, PathBuf)> = OnceLock::new();

/// The in-flight point tracker a worker writes through (see
/// [`lsqca_store::InflightLog`]); `keys` mirrors the file so concurrent
/// sweep threads can each mark their own point.
struct InflightTracker {
    log: InflightLog,
    keys: Mutex<BTreeSet<String>>,
}

impl InflightTracker {
    fn add(&self, key: &str) {
        let mut keys = self.keys.lock().unwrap();
        keys.insert(key.to_string());
        let _ = self.log.set(&keys);
    }

    fn remove(&self, key: &str) {
        let mut keys = self.keys.lock().unwrap();
        keys.remove(key);
        let _ = self.log.set(&keys);
    }
}

/// Installs this process as worker `index` of `count`, resuming past any
/// quarantined points recorded in `store_dir`. Call once, before the first
/// sweep point runs. Subsequent calls are ignored (the plan is process-wide).
pub fn install_worker(index: u32, count: u32, store_dir: &Path) {
    let io = DiskIo;
    let _ = PLAN.set(ShardPlan {
        index,
        count,
        quarantined: quarantined_keys(&io, store_dir),
    });
    let log = InflightLog::new(Arc::new(DiskIo), store_dir, &index.to_string());
    // Start from an empty marker: keys left by a previous (killed) incarnation
    // were already counted against the point by the supervisor.
    let _ = log.set(&BTreeSet::new());
    let _ = INFLIGHT.set(InflightTracker {
        log,
        keys: Mutex::new(BTreeSet::new()),
    });
    let _ = WORKER_EXPORT.set((index.to_string(), store_dir.to_path_buf()));
}

/// In worker mode, writes this process's metrics snapshot to
/// `metrics-<shard>.json` in the store directory (atomic replace); a no-op
/// otherwise. Called after every completed point (the log-heartbeat
/// cadence) and again at worker exit, so the supervisor's aggregation sees
/// counters that are at most one point stale even if the worker is later
/// SIGKILLed. Export failures are logged, never fatal — metrics must not
/// take down a sweep.
pub fn export_worker_metrics() {
    let Some((label, dir)) = WORKER_EXPORT.get() else {
        return;
    };
    if let Err(err) = crate::telemetry::write_shard_metrics(dir, label) {
        eprintln!("worker: metrics export failed (ignored): {err}");
    }
}

/// Installs this process as the merge/render side of a sharded sweep: it may
/// compute any missing point itself (self-healing) but skips quarantined
/// points, rendering placeholders for them instead of re-triggering whatever
/// killed the workers.
pub fn install_merge(store_dir: &Path) {
    let io = DiskIo;
    let _ = PLAN.set(ShardPlan {
        index: 0,
        count: 1,
        quarantined: quarantined_keys(&io, store_dir),
    });
}

/// Whether this process computes `key` (true when no shard plan is
/// installed — the ordinary single-process mode).
pub fn should_compute(key: &str) -> bool {
    PLAN.get().is_none_or(|plan| plan.computes(key))
}

/// The poison conjunction `LSQCA_POISON_KEY` selects (test hook): a worker
/// aborts when it starts computing a key containing every `&`-separated
/// fragment. Lets the CI smoke manufacture a deterministically crashing sweep
/// point without shipping one.
fn poison_fragments() -> &'static Option<Vec<String>> {
    static POISON: OnceLock<Option<Vec<String>>> = OnceLock::new();
    POISON.get_or_init(|| {
        std::env::var("LSQCA_POISON_KEY")
            .ok()
            .filter(|v| !v.is_empty())
            .map(|v| v.split('&').map(str::to_string).collect())
    })
}

/// Marks a sweep point as in flight for the lifetime of the guard, so a
/// worker death mid-computation is attributable to the point. Dropping the
/// guard clears the mark — except on panic, where the mark must survive into
/// the post-mortem (the panicking thread is exactly the evidence).
pub struct InflightGuard {
    key: Option<String>,
}

impl InflightGuard {
    /// Marks `key` in flight (a no-op outside worker mode). Aborts the
    /// process if `key` matches the poison conjunction, after the mark is
    /// durably on disk.
    pub fn enter(key: &str) -> InflightGuard {
        let Some(tracker) = INFLIGHT.get() else {
            return InflightGuard { key: None };
        };
        tracker.add(key);
        if is_poisoned(key) {
            eprintln!("worker: poisoned point `{key}`; aborting");
            std::process::abort();
        }
        InflightGuard {
            key: Some(key.to_string()),
        }
    }

    /// Marks every key of a group computed together (one shared simulation
    /// walk) in flight, in order. A poisoned key is entered before any of
    /// its siblings, so its synthetic abort blames only itself; a real crash
    /// in the shared computation blames the whole group.
    pub fn enter_all(keys: &[&str]) -> Vec<InflightGuard> {
        if INFLIGHT.get().is_some() {
            if let Some(poisoned) = keys.iter().find(|key| is_poisoned(key)) {
                InflightGuard::enter(poisoned);
            }
        }
        keys.iter().map(|key| InflightGuard::enter(key)).collect()
    }
}

/// Whether `key` matches the `LSQCA_POISON_KEY` conjunction.
fn is_poisoned(key: &str) -> bool {
    poison_fragments()
        .as_ref()
        .is_some_and(|fragments| fragments.iter().all(|f| key.contains(f.as_str())))
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        // A panicking computation must leave its mark for the supervisor.
        if std::thread::panicking() {
            return;
        }
        if let (Some(key), Some(tracker)) = (&self.key, INFLIGHT.get()) {
            tracker.remove(key);
            // A cleared in-flight mark means one point just finished: refresh
            // this worker's on-disk metrics alongside the log heartbeat.
            export_worker_metrics();
        }
    }
}

/// Configuration of one supervised sharded run.
#[derive(Debug, Clone)]
pub struct ShardRunConfig {
    /// The `experiments` subcommand every worker runs (e.g. `all`, `fig13`).
    pub command: String,
    /// Run paper-scale instances (`--full`).
    pub full: bool,
    /// The shared store directory (workers receive it via `--store-dir`).
    pub store_dir: PathBuf,
    /// Number of worker shards.
    pub shards: u32,
    /// Kill-and-restart a worker whose results log and in-flight marker have not
    /// changed for this long.
    pub stall_timeout: Duration,
    /// Worker deaths with the same point in flight before that point is
    /// quarantined.
    pub max_point_attempts: u32,
    /// Consecutive no-progress failures of one shard before the whole run is
    /// declared fatal. Must be at least `max_point_attempts`, or a poisoned
    /// point would trip the fatal limit before it can be quarantined.
    pub max_stalled_restarts: u32,
    /// Base of the exponential restart backoff (doubles per consecutive
    /// failure, capped at 2^6 bases).
    pub backoff_base: Duration,
}

impl ShardRunConfig {
    /// A config with the production defaults: 30 s stall timeout, 3 attempts
    /// per point, fatal after 5 consecutive no-progress failures, 100 ms
    /// backoff base.
    pub fn new(command: impl Into<String>, store_dir: impl Into<PathBuf>, shards: u32) -> Self {
        ShardRunConfig {
            command: command.into(),
            full: false,
            store_dir: store_dir.into(),
            shards: shards.max(1),
            stall_timeout: Duration::from_secs(30),
            max_point_attempts: 3,
            max_stalled_restarts: 5,
            backoff_base: Duration::from_millis(100),
        }
    }
}

/// What a supervised run did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ShardRunOutcome {
    /// Worker restarts across all shards (crash, nonzero exit, or stall).
    pub restarts: u32,
    /// Result keys quarantined during this run (or found already quarantined
    /// in the store), sorted.
    pub quarantined: Vec<String>,
}

/// One worker slot's supervision state.
struct Slot {
    index: u32,
    child: Option<Child>,
    restart_at: Option<Instant>,
    last_progress: Instant,
    signature: (u64, String),
    log_len: u64,
    consecutive_failures: u32,
    attempts: BTreeMap<String, u32>,
    done: bool,
}

/// Runs `config.command` across `config.shards` supervised worker processes
/// and blocks until every shard completes (or the run is declared fatal).
/// The caller renders the merged report afterwards; this function only
/// executes.
///
/// # Errors
///
/// An [`io::Error`] when a worker cannot be spawned, or when a shard fails
/// [`ShardRunConfig::max_stalled_restarts`] consecutive times without making
/// progress. All other worker failures are handled by restart or quarantine.
pub fn run_sharded(config: &ShardRunConfig) -> io::Result<ShardRunOutcome> {
    let exe = std::env::current_exe()?;
    std::fs::create_dir_all(&config.store_dir)?;
    let io = DiskIo;
    let now = Instant::now();
    let mut slots: Vec<Slot> = (0..config.shards)
        .map(|index| Slot {
            index,
            child: None,
            restart_at: None,
            last_progress: now,
            signature: (0, String::new()),
            log_len: 0,
            consecutive_failures: 0,
            attempts: BTreeMap::new(),
            done: false,
        })
        .collect();
    let mut restarts = 0u32;

    let result = loop {
        if slots.iter().all(|s| s.done) {
            break Ok(());
        }
        let mut fatal = None;
        for slot in slots.iter_mut().filter(|s| !s.done) {
            let step = supervise_slot(slot, config, &exe, &io, &mut restarts);
            if let Err(err) = step {
                fatal = Some(err);
                break;
            }
        }
        if let Some(err) = fatal {
            break Err(err);
        }
        std::thread::sleep(Duration::from_millis(25));
    };

    // Fatal or not, never leave orphan workers behind.
    for slot in &mut slots {
        if let Some(child) = &mut slot.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    result?;

    Ok(ShardRunOutcome {
        restarts,
        quarantined: quarantined_keys(&io, &config.store_dir)
            .into_iter()
            .collect(),
    })
}

/// One supervision step for one slot: spawn when due, reap exits, check the
/// heartbeat. Returns the fatal error that aborts the whole run, if any.
fn supervise_slot(
    slot: &mut Slot,
    config: &ShardRunConfig,
    exe: &Path,
    io: &DiskIo,
    restarts: &mut u32,
) -> io::Result<()> {
    let label = slot.index.to_string();
    match &mut slot.child {
        None => {
            if slot.restart_at.is_some_and(|t| Instant::now() < t) {
                return Ok(());
            }
            let mut command = Command::new(exe);
            command
                .arg(&config.command)
                .arg("--shard")
                .arg(format!("{}/{}", slot.index, config.shards))
                .arg("--store-dir")
                .arg(&config.store_dir)
                // One point in flight at a time, so a death post-mortem
                // attributes to exactly one point.
                .env("LSQCA_THREADS", "1")
                .env("LSQCA_SHARD", &label)
                .stdout(Stdio::null())
                .stderr(Stdio::null());
            if config.full {
                command.arg("--full");
            }
            let child = command.spawn()?;
            slot.child = Some(child);
            slot.restart_at = None;
            slot.last_progress = Instant::now();
            slot.signature = progress_signature(io, &config.store_dir, &label);
            slot.log_len = slot.signature.0;
            Ok(())
        }
        Some(child) => match child.try_wait() {
            Ok(Some(status)) if status.success() => {
                slot.child = None;
                slot.done = true;
                Ok(())
            }
            Ok(Some(status)) => {
                slot.child = None;
                eprintln!(
                    "supervisor: shard {} exited with {status}; handling",
                    slot.index
                );
                handle_failure(slot, config, io, restarts)
            }
            Ok(None) => {
                let signature = progress_signature(io, &config.store_dir, &label);
                let progressed = signature != slot.signature;
                if progressed {
                    slot.signature = signature;
                    slot.last_progress = Instant::now();
                }
                // Supervisor-side per-shard liveness gauge: how long since
                // this worker's results log or in-flight marker last changed.
                lsqca_telemetry::gauge(&format!("shard.{label}.heartbeat_lag_ms"))
                    .set(slot.last_progress.elapsed().as_millis() as i64);
                if !progressed && slot.last_progress.elapsed() > config.stall_timeout {
                    eprintln!(
                        "supervisor: shard {} made no progress for {:?}; killing",
                        slot.index, config.stall_timeout
                    );
                    let _ = child.kill();
                    let _ = child.wait();
                    slot.child = None;
                    return handle_failure(slot, config, io, restarts);
                }
                Ok(())
            }
            Err(err) => Err(err),
        },
    }
}

/// Accounts one worker death: bump the attempt count of every in-flight
/// point, quarantine the ones past the attempt limit, and schedule the
/// restart with exponential backoff — or declare the run fatal after too many
/// consecutive failures with nothing to show for them.
fn handle_failure(
    slot: &mut Slot,
    config: &ShardRunConfig,
    io: &DiskIo,
    restarts: &mut u32,
) -> io::Result<()> {
    let label = slot.index.to_string();
    let inflight = InflightLog::new(Arc::new(DiskIo), &config.store_dir, &label).read();
    let mut progressed = false;
    for key in inflight {
        let attempts = slot.attempts.entry(key.clone()).or_insert(0);
        *attempts += 1;
        if *attempts >= config.max_point_attempts {
            QuarantineLog::new(Arc::new(DiskIo), &config.store_dir, &label).append(
                &QuarantineEntry {
                    attempts: *attempts,
                    key: key.clone(),
                },
            )?;
            eprintln!(
                "supervisor: quarantined point after {attempts} failed attempts: {key}",
                attempts = *attempts
            );
            lsqca_telemetry::gauge(&format!("shard.{label}.quarantined")).add(1);
            slot.attempts.remove(&key);
            // A quarantine decision is progress: the sweep shrank.
            progressed = true;
        }
    }
    let log_len = progress_signature(io, &config.store_dir, &label).0;
    if log_len > slot.log_len {
        slot.log_len = log_len;
        progressed = true;
    }
    if progressed {
        slot.consecutive_failures = 0;
    } else {
        slot.consecutive_failures += 1;
    }
    if slot.consecutive_failures > config.max_stalled_restarts {
        return Err(io::Error::other(format!(
            "shard {} failed {} consecutive times without progress; giving up",
            slot.index, slot.consecutive_failures
        )));
    }
    *restarts += 1;
    let backoff = config.backoff_base * 2u32.pow(slot.consecutive_failures.min(6));
    // Per-shard supervision gauges for the final metrics artifact: restart
    // total, the backoff currently in force, and the consecutive-failure
    // streak feeding it.
    lsqca_telemetry::gauge(&format!("shard.{label}.restarts")).add(1);
    lsqca_telemetry::gauge(&format!("shard.{label}.backoff_ms")).set(backoff.as_millis() as i64);
    lsqca_telemetry::gauge(&format!("shard.{label}.consecutive_failures"))
        .set(i64::from(slot.consecutive_failures));
    slot.restart_at = Some(Instant::now() + backoff);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_total_and_stable() {
        let keys: Vec<String> = (0..200).map(|n| format!("key-{n}|cfg={n}")).collect();
        for shards in 1..=8u32 {
            let mut counts = vec![0u32; shards as usize];
            for key in &keys {
                let owner = owning_shard(key, shards);
                assert!(owner < shards);
                assert_eq!(owner, owning_shard(key, shards), "stable per key");
                counts[owner as usize] += 1;
            }
            assert_eq!(counts.iter().sum::<u32>(), keys.len() as u32);
            if shards > 1 {
                // FNV spreads these keys across shards (not all in one).
                assert!(counts.iter().filter(|&&c| c > 0).count() > 1);
            }
        }
        assert_eq!(owning_shard("anything", 1), 0);
        assert_eq!(owning_shard("anything", 0), 0, "degenerate count clamps");
    }

    #[test]
    fn plan_excludes_foreign_and_quarantined_keys() {
        let count = 4;
        let mut plan = ShardPlan {
            index: 0,
            count,
            quarantined: BTreeSet::new(),
        };
        let keys: Vec<String> = (0..64).map(|n| format!("key-{n}")).collect();
        let owned: Vec<&String> = keys
            .iter()
            .filter(|k| owning_shard(k, count) == 0)
            .collect();
        assert!(!owned.is_empty());
        for key in &keys {
            assert_eq!(plan.computes(key), owning_shard(key, count) == 0);
        }
        plan.quarantined.insert(owned[0].clone());
        assert!(!plan.computes(owned[0]));
    }

    #[test]
    fn guard_is_inert_without_a_worker_installation() {
        // Must not touch any file or panic when no tracker is installed
        // (single-process mode): the drop path exercises the None branch.
        let guard = InflightGuard::enter("some-key");
        drop(guard);
        assert!(should_compute("some-key"));
    }

    #[test]
    fn shard_run_config_defaults_allow_quarantine_before_fatal() {
        let config = ShardRunConfig::new("all", "/tmp/store", 0);
        assert_eq!(config.shards, 1, "zero shards clamps to one");
        assert!(
            config.max_stalled_restarts >= config.max_point_attempts,
            "a poisoned point must be quarantined before the fatal limit trips"
        );
    }
}
