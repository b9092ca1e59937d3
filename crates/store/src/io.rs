//! Filesystem abstraction for the result store.
//!
//! Every byte the store reads or writes goes through the [`StoreIo`] trait, so
//! the same persistence code runs against the real filesystem ([`DiskIo`]) in
//! production and against a deterministic in-memory filesystem with seeded
//! fault injection ([`FaultyIo`]) under test. The in-memory backend models
//! durability the way a crash-consistency checker does: data written but not
//! fsynced does not survive [`FaultyIo::crash`], and a rename only becomes
//! durable once its parent directory has been synced.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Filesystem operations used by the store and the workload cache.
///
/// The trait is object-safe and implementations must be shareable across
/// threads; sweep drivers hit the store from `par_map` workers.
pub trait StoreIo: fmt::Debug + Send + Sync {
    /// Read the full contents of `path` as UTF-8.
    fn read(&self, path: &Path) -> io::Result<String>;
    /// The byte length of the file at `path`, without reading it.
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// Create or truncate `path` and write `bytes` to it.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Append `bytes` to `path`, creating it if absent.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically replace `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Create `path` and any missing parent directories.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Flush the contents of `path` to durable storage.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Flush directory metadata (completed renames) to durable storage.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// List the entries of the directory at `path`.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

/// Production [`StoreIo`] backend over the real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiskIo;

impl StoreIo for DiskIo {
    fn read(&self, path: &Path) -> io::Result<String> {
        fs::read_to_string(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use io::Write as _;
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Not every platform lets a directory be opened as a file (Windows
        // notably does not); directory sync is best-effort there, which only
        // weakens the durability of the most recent rename, never integrity.
        match fs::File::open(path) {
            Ok(dir) => dir.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries = Vec::new();
        for entry in fs::read_dir(path)? {
            entries.push(entry?.path());
        }
        entries.sort();
        Ok(entries)
    }
}

/// Fault classes the deterministic backend can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Injected {
    /// Write a prefix of the payload, then fail (`ENOSPC`-style short write).
    ShortWrite,
    /// Fail without touching the file (`EIO`).
    Eio,
    /// Fail a rename, leaving the temporary file behind (torn rename).
    RenameFail,
}

/// Deterministic fault schedule for [`FaultyIo`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Seed for the per-operation fault decision.
    pub seed: u64,
    /// Probability of a fault per operation, in permille (0..=1000).
    pub fault_permille: u32,
    /// When set, every mutating operation fails with `PermissionDenied`
    /// (models a read-only store directory).
    pub unwritable: bool,
    /// When set, the backend crashes at this operation index: volatile state
    /// is dropped and every subsequent operation fails until
    /// [`FaultyIo::revive`] is called (models SIGKILL mid-sweep).
    pub kill_at_op: Option<u64>,
}

#[derive(Debug, Default)]
struct MemState {
    /// Current (volatile) view of every file.
    files: BTreeMap<PathBuf, Vec<u8>>,
    /// What survives a crash: content as of the last `sync_file` per path.
    durable: BTreeMap<PathBuf, Vec<u8>>,
    /// Renames applied to `files` but not yet made durable by a `sync_dir`.
    pending_renames: Vec<(PathBuf, PathBuf)>,
    ops: u64,
    killed: bool,
}

/// Deterministic in-memory [`StoreIo`] backend with seeded fault injection.
///
/// With the default [`FaultPlan`] it behaves as a reliable in-memory
/// filesystem; with a plan it injects short writes, `EIO`, torn renames, and a
/// kill-point, all as a pure function of `(seed, operation index)` so every
/// failing schedule replays exactly.
#[derive(Debug)]
pub struct FaultyIo {
    state: Mutex<MemState>,
    plan: Mutex<FaultPlan>,
}

impl Default for FaultyIo {
    fn default() -> Self {
        Self::reliable()
    }
}

impl FaultyIo {
    /// In-memory backend with no injected faults.
    pub fn reliable() -> Self {
        Self::with_plan(FaultPlan::default())
    }

    /// In-memory backend that fails ~`fault_permille`/1000 of operations,
    /// chosen deterministically from `seed`.
    pub fn seeded(seed: u64, fault_permille: u32) -> Self {
        Self::with_plan(FaultPlan {
            seed,
            fault_permille,
            ..FaultPlan::default()
        })
    }

    /// In-memory backend where every mutating operation fails.
    pub fn unwritable() -> Self {
        Self::with_plan(FaultPlan {
            unwritable: true,
            ..FaultPlan::default()
        })
    }

    /// In-memory backend with an explicit fault schedule.
    pub fn with_plan(plan: FaultPlan) -> Self {
        FaultyIo {
            state: Mutex::new(MemState::default()),
            plan: Mutex::new(plan),
        }
    }

    /// Replace the fault schedule (e.g. to make a store unwritable mid-run).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock().unwrap() = plan;
    }

    /// Number of operations performed so far (kill-points index into this).
    pub fn op_count(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// Simulate a crash: drop all volatile state, keeping only what was
    /// synced. Un-synced renames roll back (the torn-rename case).
    pub fn crash(&self) {
        let mut state = self.state.lock().unwrap();
        state.files = state.durable.clone();
        state.pending_renames.clear();
    }

    /// Clear the killed flag after a [`FaultPlan::kill_at_op`] fired so a
    /// resumed process can reuse the same backend image.
    pub fn revive(&self) {
        let mut state = self.state.lock().unwrap();
        state.killed = false;
        let mut plan = self.plan.lock().unwrap();
        plan.kill_at_op = None;
    }

    /// Snapshot of the durable (crash-surviving) filesystem image.
    pub fn durable_snapshot(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        self.state.lock().unwrap().durable.clone()
    }

    /// Snapshot of the current (volatile) filesystem image.
    pub fn files_snapshot(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        self.state.lock().unwrap().files.clone()
    }

    /// Overwrite a file in both the volatile and durable images, bypassing the
    /// fault schedule. Test hook for modelling hand-edited or torn records.
    pub fn tamper(&self, path: &Path, bytes: &[u8]) {
        let mut state = self.state.lock().unwrap();
        state.files.insert(path.to_path_buf(), bytes.to_vec());
        state.durable.insert(path.to_path_buf(), bytes.to_vec());
    }

    /// Decide the fate of the next operation. `mutates` marks operations that
    /// an unwritable filesystem rejects.
    fn admit(&self, mutates: bool) -> Result<Option<Injected>, io::Error> {
        let plan = *self.plan.lock().unwrap();
        let mut state = self.state.lock().unwrap();
        state.ops += 1;
        if state.killed {
            return Err(io::Error::other("faulty io: killed"));
        }
        if plan.kill_at_op == Some(state.ops) {
            state.killed = true;
            state.files = state.durable.clone();
            state.pending_renames.clear();
            return Err(io::Error::other("faulty io: killed"));
        }
        if plan.unwritable && mutates {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "faulty io: unwritable",
            ));
        }
        if plan.fault_permille > 0 {
            let roll = splitmix64(plan.seed ^ state.ops);
            if ((roll % 1000) as u32) < plan.fault_permille {
                let injected = match (roll / 1000) % 3 {
                    0 => Injected::ShortWrite,
                    1 => Injected::Eio,
                    _ => Injected::RenameFail,
                };
                return Ok(Some(injected));
            }
        }
        Ok(None)
    }
}

fn eio() -> io::Error {
    io::Error::other("faulty io: injected EIO")
}

fn enospc() -> io::Error {
    io::Error::new(io::ErrorKind::StorageFull, "faulty io: injected ENOSPC")
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("faulty io: no such file {}", path.display()),
    )
}

impl StoreIo for FaultyIo {
    fn read(&self, path: &Path) -> io::Result<String> {
        match self.admit(false)? {
            None | Some(Injected::RenameFail) => {}
            Some(Injected::ShortWrite) | Some(Injected::Eio) => return Err(eio()),
        }
        let state = self.state.lock().unwrap();
        let bytes = state.files.get(path).ok_or_else(|| not_found(path))?;
        String::from_utf8(bytes.clone())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "faulty io: not UTF-8"))
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        match self.admit(false)? {
            None | Some(Injected::RenameFail) => {}
            Some(Injected::ShortWrite) | Some(Injected::Eio) => return Err(eio()),
        }
        let state = self.state.lock().unwrap();
        let bytes = state.files.get(path).ok_or_else(|| not_found(path))?;
        Ok(bytes.len() as u64)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let injected = self.admit(true)?;
        let mut state = self.state.lock().unwrap();
        match injected {
            Some(Injected::ShortWrite) => {
                let keep = (splitmix64(state.ops) as usize) % (bytes.len() + 1);
                state
                    .files
                    .insert(path.to_path_buf(), bytes[..keep].to_vec());
                Err(enospc())
            }
            Some(Injected::Eio) => Err(eio()),
            Some(Injected::RenameFail) | None => {
                state.files.insert(path.to_path_buf(), bytes.to_vec());
                Ok(())
            }
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let injected = self.admit(true)?;
        let mut state = self.state.lock().unwrap();
        let ops = state.ops;
        let file = state.files.entry(path.to_path_buf()).or_default();
        match injected {
            Some(Injected::ShortWrite) => {
                let keep = (splitmix64(ops) as usize) % (bytes.len() + 1);
                file.extend_from_slice(&bytes[..keep]);
                Err(enospc())
            }
            Some(Injected::Eio) => Err(eio()),
            Some(Injected::RenameFail) | None => {
                file.extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let injected = self.admit(true)?;
        let mut state = self.state.lock().unwrap();
        if injected.is_some() {
            return Err(eio());
        }
        let bytes = state.files.remove(from).ok_or_else(|| not_found(from))?;
        state.files.insert(to.to_path_buf(), bytes);
        state
            .pending_renames
            .push((from.to_path_buf(), to.to_path_buf()));
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let injected = self.admit(true)?;
        let mut state = self.state.lock().unwrap();
        if injected.is_some() {
            return Err(eio());
        }
        state.files.remove(path).ok_or_else(|| not_found(path))?;
        state.durable.remove(path);
        Ok(())
    }

    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        match self.admit(true)? {
            Some(Injected::Eio) => Err(eio()),
            _ => Ok(()),
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let injected = self.admit(true)?;
        let mut state = self.state.lock().unwrap();
        if injected.is_some() {
            return Err(eio());
        }
        let bytes = state
            .files
            .get(path)
            .ok_or_else(|| not_found(path))?
            .clone();
        state.durable.insert(path.to_path_buf(), bytes);
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let injected = self.admit(true)?;
        let mut state = self.state.lock().unwrap();
        if injected.is_some() {
            return Err(eio());
        }
        let renames = std::mem::take(&mut state.pending_renames);
        let (commit, keep): (Vec<_>, Vec<_>) = renames
            .into_iter()
            .partition(|(_, to)| to.parent() == Some(path));
        for (from, to) in commit {
            // The rename becomes durable with the content the source had
            // synced. Renaming a never-synced file publishes a torn record:
            // the directory entry lands but only part of the data does — the
            // corruption mode that checksums (and the fsync in
            // [`atomic_write`]) exist for.
            if let Some(bytes) = state.durable.remove(&from) {
                state.durable.insert(to, bytes);
            } else if let Some(bytes) = state.files.get(&to) {
                let torn = bytes[..bytes.len() / 2].to_vec();
                state.durable.insert(to, torn);
            }
        }
        state.pending_renames = keep;
        Ok(())
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        match self.admit(false)? {
            None | Some(Injected::RenameFail) => {}
            Some(Injected::ShortWrite) | Some(Injected::Eio) => return Err(eio()),
        }
        let state = self.state.lock().unwrap();
        Ok(state
            .files
            .keys()
            .filter(|p| p.parent() == Some(path))
            .cloned()
            .collect())
    }
}

/// Write `bytes` to `path` crash-safely: unique temporary file in the same
/// directory, fsync the data, rename over the target, fsync the directory.
/// A crash at any point leaves either the old record or the new one, never a
/// truncated hybrid; at worst a stale `*.tmp.*` file remains, which loaders
/// ignore.
pub fn atomic_write(io: &dyn StoreIo, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no parent"))?;
    io.create_dir_all(dir)?;
    static WRITER: AtomicU64 = AtomicU64::new(0);
    let unique = WRITER.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{unique}", std::process::id()));
    let publish = (|| {
        io.write(&tmp, bytes)?;
        io.sync_file(&tmp)?;
        io.rename(&tmp, path)
    })();
    if let Err(err) = publish {
        let _ = io.remove_file(&tmp);
        return Err(err);
    }
    io.sync_dir(dir)
}

/// SplitMix64 mix function: the deterministic core of the fault schedule.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynced_writes_do_not_survive_a_crash() {
        let io = FaultyIo::reliable();
        io.write(Path::new("/s/a"), b"synced").unwrap();
        io.sync_file(Path::new("/s/a")).unwrap();
        io.write(Path::new("/s/b"), b"volatile").unwrap();
        io.crash();
        assert_eq!(io.read(Path::new("/s/a")).unwrap(), "synced");
        assert!(io.read(Path::new("/s/b")).is_err());
    }

    #[test]
    fn rename_needs_a_directory_sync_to_become_durable() {
        let io = FaultyIo::reliable();
        io.write(Path::new("/s/x.tmp"), b"payload").unwrap();
        io.sync_file(Path::new("/s/x.tmp")).unwrap();
        io.rename(Path::new("/s/x.tmp"), Path::new("/s/x")).unwrap();
        // Crash before sync_dir: the rename rolls back to the synced tmp file.
        let durable = io.durable_snapshot();
        assert!(durable.contains_key(Path::new("/s/x.tmp")));
        assert!(!durable.contains_key(Path::new("/s/x")));

        io.sync_dir(Path::new("/s")).unwrap();
        let durable = io.durable_snapshot();
        assert_eq!(durable.get(Path::new("/s/x")).unwrap(), b"payload");
        assert!(!durable.contains_key(Path::new("/s/x.tmp")));
    }

    #[test]
    fn atomic_write_is_all_or_nothing_across_crashes() {
        let io = FaultyIo::reliable();
        atomic_write(&io, Path::new("/s/rec.json"), b"v1").unwrap();
        io.crash();
        assert_eq!(io.read(Path::new("/s/rec.json")).unwrap(), "v1");
    }

    #[test]
    fn len_is_the_volatile_byte_length() {
        let io = FaultyIo::reliable();
        let path = Path::new("/s/log");
        assert_eq!(io.len(path).unwrap_err().kind(), io::ErrorKind::NotFound);
        for chunk in ["first line\n", "second\n", "torn"] {
            io.append(path, chunk.as_bytes()).unwrap();
            assert_eq!(io.len(path).unwrap(), io.read(path).unwrap().len() as u64);
        }
    }

    #[test]
    fn kill_point_fails_everything_until_revived() {
        let io = FaultyIo::with_plan(FaultPlan {
            kill_at_op: Some(3),
            ..FaultPlan::default()
        });
        io.write(Path::new("/s/a"), b"one").unwrap();
        io.sync_file(Path::new("/s/a")).unwrap();
        assert!(io.write(Path::new("/s/b"), b"two").is_err());
        assert!(io.read(Path::new("/s/a")).is_err());
        io.revive();
        assert_eq!(io.read(Path::new("/s/a")).unwrap(), "one");
        assert!(io.read(Path::new("/s/b")).is_err());
    }

    #[test]
    fn unwritable_backend_rejects_mutation_but_serves_reads() {
        let io = FaultyIo::reliable();
        io.write(Path::new("/s/a"), b"before").unwrap();
        io.set_plan(FaultPlan {
            unwritable: true,
            ..FaultPlan::default()
        });
        assert!(io.write(Path::new("/s/a"), b"after").is_err());
        assert_eq!(io.read(Path::new("/s/a")).unwrap(), "before");
    }

    #[test]
    fn seeded_faults_are_deterministic() {
        let run = |seed| {
            let io = FaultyIo::seeded(seed, 400);
            (0..64)
                .map(|i| {
                    io.write(Path::new("/s/f"), format!("{i}").as_bytes())
                        .is_ok()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn disk_io_round_trips_through_a_real_directory() {
        let dir = std::env::temp_dir().join(format!("lsqca-store-io-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let io = DiskIo;
        let path = dir.join("rec.json");
        atomic_write(&io, &path, b"{\"k\":1}").unwrap();
        assert_eq!(io.read(&path).unwrap(), "{\"k\":1}");
        io.append(&path, b"\n").unwrap();
        assert_eq!(io.read(&path).unwrap(), "{\"k\":1}\n");
        assert_eq!(io.len(&path).unwrap(), 8);
        assert_eq!(io.list_dir(&dir).unwrap(), vec![path.clone()]);
        io.remove_file(&path).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
