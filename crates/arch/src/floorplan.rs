//! Runtime hot-set migration for hybrid floorplans.
//!
//! The paper's hybrid floorplan (Sec. V-D / VI-C) pins a *statically chosen*
//! hot set into a conventional unit-latency region and leaves the rest in
//! SAM. The memory-hierarchy literature it builds on (Thaker et al., ISCA
//! 2006) treats **dynamic** promotion/demotion between hierarchy levels as
//! the defining feature of a memory hierarchy; this module supplies it. The
//! banks themselves are uniform: a [`FloorplanKind`](crate::FloorplanKind)
//! names one bank flavour and a count, and
//! [`MemorySystem::new`](crate::MemorySystem::new) builds them.
//!
//! * [`MigrationPolicy`] — the pluggable runtime policy deciding, on every
//!   load/store event, whether the accessed qubit should swap places with a
//!   conventional-region resident. [`StaticPolicy`] (never migrate — the
//!   paper's compile-time hot set), [`LruPolicy`] (promote every cold access,
//!   evict the least-recently-used hot qubit), and [`FreqDecayPolicy`]
//!   (promote when a decayed access-frequency score overtakes the coldest
//!   hot qubit's) are provided; [`PolicyKind`] names them for configuration
//!   plumbing.
//!
//! The migration itself is performed by
//! [`MemorySystem::migrate`](crate::MemorySystem::migrate), which keeps the
//! per-bank cell invariants and the cross-bank checkout audit intact; the
//! simulator charges the returned movement latency plus the policy's
//! [`overhead`](MigrationPolicy::overhead) to the run's
//! `ExecutionStats::migration_beats`.

use crate::lattice::{Beats, QubitTag};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// A runtime promotion/demotion policy for hybrid floorplans.
///
/// The simulator calls [`on_access`](MigrationPolicy::on_access) for every
/// memory operand of every load/store/in-memory instruction. A returned
/// victim is a *proposal*: the simulator applies it only when the swap is
/// legal (the accessed qubit is stored in a bank and the victim is a
/// conventional resident) and then confirms via
/// [`applied`](MigrationPolicy::applied) — a policy must keep its hot-set
/// bookkeeping in `applied`, never in `on_access`, because proposals made
/// while the qubit is checked out (store events) are dropped.
pub trait MigrationPolicy: fmt::Debug + Send {
    /// The policy's short name, used in sweep output and labels.
    fn name(&self) -> &'static str;

    /// Resets the policy for a fresh run over `num_qubits` qubits with `hot`
    /// initially pinned in the conventional region.
    fn begin(&mut self, num_qubits: u32, hot: &[QubitTag]);

    /// Records an access to `qubit` at logical time `now` (a monotone event
    /// counter). Returns the conventional-region victim to demote if `qubit`
    /// should be promoted, or `None` to leave the floorplan unchanged.
    fn on_access(&mut self, qubit: QubitTag, now: u64) -> Option<QubitTag>;

    /// Confirms that a proposed migration was applied.
    fn applied(&mut self, promoted: QubitTag, demoted: QubitTag);

    /// Fixed bookkeeping latency charged per applied migration, on top of the
    /// physical movement cost returned by
    /// [`MemorySystem::migrate`](crate::MemorySystem::migrate).
    fn overhead(&self) -> Beats {
        Beats(1)
    }

    /// Clones the policy behind its trait object (policies ride inside the
    /// clonable `Simulator`).
    fn boxed_clone(&self) -> Box<dyn MigrationPolicy>;
}

impl Clone for Box<dyn MigrationPolicy> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Dense per-qubit hot-set membership shared by the stateful policies.
#[derive(Debug, Clone, Default)]
struct HotSet {
    member: Vec<bool>,
    list: Vec<QubitTag>,
}

impl HotSet {
    fn begin(&mut self, num_qubits: u32, hot: &[QubitTag]) {
        self.member.clear();
        self.member.resize(num_qubits as usize, false);
        self.list.clear();
        for &q in hot {
            if (q.0 as usize) < self.member.len() && !self.member[q.0 as usize] {
                self.member[q.0 as usize] = true;
                self.list.push(q);
            }
        }
    }

    fn contains(&self, q: QubitTag) -> bool {
        self.member.get(q.0 as usize).copied().unwrap_or(false)
    }

    /// The most entries a lazily-invalidated victim heap over this hot set
    /// may hold before [`rebuild_if_bloated`] rebuilds it from the live
    /// entries.
    fn heap_bound(&self) -> usize {
        4 * self.list.len() + 64
    }

    fn swap(&mut self, promoted: QubitTag, demoted: QubitTag) {
        if let Some(m) = self.member.get_mut(promoted.0 as usize) {
            *m = true;
        }
        if let Some(m) = self.member.get_mut(demoted.0 as usize) {
            *m = false;
        }
        if let Some(slot) = self.list.iter_mut().find(|q| **q == demoted) {
            *slot = promoted;
        }
    }
}

/// A min-heap of `(key, qubit)` victim candidates with lazily invalidated
/// stale entries.
type VictimHeap<K> = BinaryHeap<Reverse<(K, u32)>>;

/// Rebuilds `queue` from one live entry per hot qubit once it holds more
/// than [`HotSet::heap_bound`] entries, reusing its allocation. Exact: the
/// victim is the minimum `(key, qubit)` over the hot set's live entries,
/// which a total order makes independent of which stale entries the heap
/// also holds.
fn rebuild_if_bloated<K: Ord>(
    queue: &mut VictimHeap<K>,
    hot: &HotSet,
    key: impl Fn(QubitTag) -> K,
) {
    if queue.len() <= hot.heap_bound() {
        return;
    }
    let mut entries = std::mem::take(queue).into_vec();
    entries.clear();
    entries.extend(hot.list.iter().map(|&q| Reverse((key(q), q.0))));
    *queue = BinaryHeap::from(entries);
}

/// Never migrates: the compile-time hot set stays pinned for the whole run —
/// the paper's static hybrid floorplan, used as the baseline every dynamic
/// policy is compared against.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticPolicy;

impl MigrationPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "static"
    }

    fn begin(&mut self, _num_qubits: u32, _hot: &[QubitTag]) {}

    fn on_access(&mut self, _qubit: QubitTag, _now: u64) -> Option<QubitTag> {
        None
    }

    fn applied(&mut self, _promoted: QubitTag, _demoted: QubitTag) {
        unreachable!("the static policy never proposes a migration");
    }

    fn overhead(&self) -> Beats {
        Beats::ZERO
    }

    fn boxed_clone(&self) -> Box<dyn MigrationPolicy> {
        Box::new(*self)
    }
}

/// Classic LRU: every access to a cold qubit proposes promoting it over the
/// least-recently-used hot qubit. Aggressive — on streaming access patterns
/// it thrashes (each migration pays real movement beats), which is exactly
/// the behaviour the policy comparison in the `hybrid-migrate` sweep is
/// there to expose.
///
/// Victim selection is a lazily-invalidated min-heap over `(stamp, qubit)`
/// instead of an `O(hot)` scan per access. Stale heap entries (a re-accessed
/// or demoted qubit) are detected by comparing the entry's stamp against the
/// live `last_used` table and popped when they reach the top. Every hot
/// access pushes an entry, and stale entries below the top are never popped,
/// so the heap is rebuilt from its live entries (one per hot qubit) whenever
/// it outgrows `4·|hot| + 64`. It therefore stays `O(hot)` in size, and an
/// access costs `O(log hot)` amortized, the rebuilds included.
#[derive(Debug, Clone, Default)]
pub struct LruPolicy {
    last_used: Vec<u64>,
    hot: HotSet,
    queue: VictimHeap<u64>,
}

impl LruPolicy {
    /// The least-recently-used hot qubit, skipping stale heap entries. Peeks
    /// without popping the winning entry: a proposal may be dropped by the
    /// simulator, in which case the victim stays ranked exactly where it was.
    fn coldest(&mut self) -> Option<QubitTag> {
        while let Some(&Reverse((stamp, tag))) = self.queue.peek() {
            let q = QubitTag(tag);
            if self.hot.contains(q) && self.last_used.get(tag as usize).copied() == Some(stamp) {
                return Some(q);
            }
            self.queue.pop();
        }
        None
    }

    /// Pushes `q`'s live entry, rebuilding a bloated heap.
    fn push(&mut self, q: QubitTag) {
        self.queue
            .push(Reverse((self.last_used[q.0 as usize], q.0)));
        let last_used = &self.last_used;
        rebuild_if_bloated(&mut self.queue, &self.hot, |q| last_used[q.0 as usize]);
    }
}

impl MigrationPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn begin(&mut self, num_qubits: u32, hot: &[QubitTag]) {
        self.last_used.clear();
        self.last_used.resize(num_qubits as usize, 0);
        self.hot.begin(num_qubits, hot);
        self.queue.clear();
        for &q in &self.hot.list {
            self.queue.push(Reverse((0, q.0)));
        }
    }

    fn on_access(&mut self, qubit: QubitTag, now: u64) -> Option<QubitTag> {
        let idx = qubit.0 as usize;
        if idx >= self.last_used.len() {
            return None;
        }
        self.last_used[idx] = now + 1;
        if self.hot.contains(qubit) {
            self.push(qubit);
            return None;
        }
        self.coldest().filter(|&v| v != qubit)
    }

    fn applied(&mut self, promoted: QubitTag, demoted: QubitTag) {
        self.hot.swap(promoted, demoted);
        if (promoted.0 as usize) < self.last_used.len() {
            self.push(promoted);
        }
    }

    fn boxed_clone(&self) -> Box<dyn MigrationPolicy> {
        Box::new(self.clone())
    }
}

/// Exponentially-decayed access-frequency ranking: each access adds one to
/// the qubit's score, and scores halve every 64 accesses (the half-life). A
/// cold qubit is promoted only when its decayed score overtakes the coldest
/// hot qubit's by a margin factor of 1.5, so one-off touches never
/// trigger the (physically expensive) migration but a phase shift in the
/// working set does.
///
/// Like [`LruPolicy`], victim selection is a lazily-invalidated min-heap,
/// rebuilt from its live entries once it outgrows `4·|hot| + 64`. Decayed
/// scores themselves cannot be heap keys (every score changes on every
/// tick), but their *ordering* is time-invariant:
/// `decayed(v, now) = score_v · 2^((last_v − now)/h)`, so ranking by the
/// log-domain key `ln(score_v) + last_v · ln2 / h` — constant between
/// accesses to `v` — orders hot qubits identically for every `now`. Only hot
/// qubits are ranked, so the key is computed when a hot access or a
/// promotion pushes it. Decay factors for ages below 1 024 come from a table
/// built at [`begin`](MigrationPolicy::begin) with the same expression, so
/// they are bit-identical to computing them per access.
#[derive(Debug, Clone, Default)]
pub struct FreqDecayPolicy {
    score: Vec<f64>,
    last_seen: Vec<u64>,
    /// Per-qubit log-domain rank, current for every hot qubit (set when it
    /// is pushed); the heap's validity check compares entries against it.
    rank: Vec<f64>,
    /// `0.5^(age / HALF_LIFE)` for every age below [`DECAY_TABLE_AGES`].
    decay: Vec<f64>,
    hot: HotSet,
    queue: VictimHeap<RankKey>,
}

/// Accesses after which a [`FreqDecayPolicy`] score halves.
const HALF_LIFE: u64 = 64;

/// [`FreqDecayPolicy`] promotes only when
/// `cold_score > MARGIN * coldest_hot_score`.
const MARGIN: f64 = 1.5;

/// Ages whose decay factor [`FreqDecayPolicy`] tabulates.
const DECAY_TABLE_AGES: u64 = 1024;

/// A total order over log-domain ranks (`f64::total_cmp`), so the values can
/// serve as heap keys. Never NaN: scores are sums of non-negative decays, so
/// a rank is finite or `-inf` (the never-accessed score of zero).
#[derive(Debug, Clone, Copy)]
struct RankKey(f64);

impl PartialEq for RankKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}

impl Eq for RankKey {}

impl PartialOrd for RankKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The time-invariant log-domain rank of a qubit with `score` last touched
/// at `last_seen`: `ln(score) + last_seen · ln2 / HALF_LIFE`.
fn rank_key(score: f64, last_seen: u64) -> f64 {
    score.ln() + (last_seen as f64) * std::f64::consts::LN_2 / HALF_LIFE as f64
}

impl FreqDecayPolicy {
    /// `0.5^(age / HALF_LIFE)`, the factor a score decays by over `age`.
    fn decay_factor(age: u64) -> f64 {
        0.5f64.powf(age as f64 / HALF_LIFE as f64)
    }

    /// The score of `q` decayed to time `now`.
    fn decayed(&self, q: QubitTag, now: u64) -> f64 {
        let idx = q.0 as usize;
        let age = now.saturating_sub(self.last_seen[idx]);
        let factor = match self.decay.get(age as usize) {
            Some(&factor) => factor,
            None => Self::decay_factor(age),
        };
        self.score[idx] * factor
    }

    /// The lowest-ranked hot qubit, skipping stale heap entries; peeks
    /// without popping so a dropped proposal leaves the ranking untouched.
    fn coldest(&mut self) -> Option<QubitTag> {
        while let Some(&Reverse((key, tag))) = self.queue.peek() {
            let q = QubitTag(tag);
            if self.hot.contains(q) && self.rank.get(tag as usize).map(|&r| RankKey(r)) == Some(key)
            {
                return Some(q);
            }
            self.queue.pop();
        }
        None
    }

    /// Ranks hot qubit `q` from its current score and pushes its live
    /// entry, rebuilding a bloated heap.
    fn push(&mut self, q: QubitTag) {
        let idx = q.0 as usize;
        self.rank[idx] = rank_key(self.score[idx], self.last_seen[idx]);
        self.queue.push(Reverse((RankKey(self.rank[idx]), q.0)));
        let rank = &self.rank;
        rebuild_if_bloated(&mut self.queue, &self.hot, |q| RankKey(rank[q.0 as usize]));
    }
}

impl MigrationPolicy for FreqDecayPolicy {
    fn name(&self) -> &'static str {
        "freq-decay"
    }

    fn begin(&mut self, num_qubits: u32, hot: &[QubitTag]) {
        self.score.clear();
        self.score.resize(num_qubits as usize, 0.0);
        self.last_seen.clear();
        self.last_seen.resize(num_qubits as usize, 0);
        self.rank.clear();
        self.rank.resize(num_qubits as usize, rank_key(0.0, 0));
        self.decay.clear();
        self.decay
            .extend((0..DECAY_TABLE_AGES).map(Self::decay_factor));
        self.hot.begin(num_qubits, hot);
        self.queue.clear();
        for &q in &self.hot.list {
            self.queue
                .push(Reverse((RankKey(self.rank[q.0 as usize]), q.0)));
        }
    }

    fn on_access(&mut self, qubit: QubitTag, now: u64) -> Option<QubitTag> {
        let idx = qubit.0 as usize;
        if idx >= self.score.len() {
            return None;
        }
        let fresh = self.decayed(qubit, now) + 1.0;
        self.score[idx] = fresh;
        self.last_seen[idx] = now;
        if self.hot.contains(qubit) {
            self.push(qubit);
            return None;
        }
        let victim = self.coldest()?;
        let coldest = self.decayed(victim, now);
        (victim != qubit && fresh > MARGIN * coldest).then_some(victim)
    }

    fn applied(&mut self, promoted: QubitTag, demoted: QubitTag) {
        self.hot.swap(promoted, demoted);
        if (promoted.0 as usize) < self.rank.len() {
            self.push(promoted);
        }
    }

    fn overhead(&self) -> Beats {
        Beats(2)
    }

    fn boxed_clone(&self) -> Box<dyn MigrationPolicy> {
        Box::new(self.clone())
    }
}

/// Names the built-in migration policies, for configuration plumbing (sweep
/// configs, CLI flags, experiment labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// [`StaticPolicy`]: the compile-time hot set, never migrated.
    Static,
    /// [`LruPolicy`]: promote every cold access, evict least-recently-used.
    Lru,
    /// [`FreqDecayPolicy`]: promote on decayed-frequency overtake.
    FreqDecay,
}

impl PolicyKind {
    /// Every built-in policy, in comparison order.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Static, PolicyKind::Lru, PolicyKind::FreqDecay];

    /// The policy's short name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Static => "static",
            PolicyKind::Lru => "lru",
            PolicyKind::FreqDecay => "freq-decay",
        }
    }

    /// Parses a policy name (case-insensitive).
    pub fn from_name(name: &str) -> Option<PolicyKind> {
        let lower = name.to_ascii_lowercase();
        PolicyKind::ALL.into_iter().find(|k| k.name() == lower)
    }

    /// Instantiates the policy with its default parameters.
    pub fn build(self) -> Box<dyn MigrationPolicy> {
        match self {
            PolicyKind::Static => Box::new(StaticPolicy),
            PolicyKind::Lru => Box::new(LruPolicy::default()),
            PolicyKind::FreqDecay => Box::new(FreqDecayPolicy::default()),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(v: &[u32]) -> Vec<QubitTag> {
        v.iter().map(|&t| QubitTag(t)).collect()
    }

    #[test]
    fn static_policy_never_proposes() {
        let mut policy = StaticPolicy;
        policy.begin(10, &tags(&[0, 1]));
        for now in 0..50 {
            assert_eq!(policy.on_access(QubitTag(5), now), None);
        }
        assert_eq!(policy.overhead(), Beats::ZERO);
    }

    #[test]
    fn lru_policy_evicts_the_least_recently_used() {
        let mut policy = LruPolicy::default();
        policy.begin(10, &tags(&[0, 1, 2]));
        // Touch hot qubits 1 and 2; qubit 0 becomes the LRU victim.
        assert_eq!(policy.on_access(QubitTag(1), 0), None);
        assert_eq!(policy.on_access(QubitTag(2), 1), None);
        assert_eq!(policy.on_access(QubitTag(7), 2), Some(QubitTag(0)));
        policy.applied(QubitTag(7), QubitTag(0));
        // Qubit 7 is now hot; 0 is cold and proposes evicting the stalest.
        assert_eq!(policy.on_access(QubitTag(7), 3), None);
        assert_eq!(policy.on_access(QubitTag(0), 4), Some(QubitTag(1)));
    }

    #[test]
    fn freq_decay_promotes_only_on_overtake() {
        let mut policy = FreqDecayPolicy::default();
        policy.begin(10, &tags(&[0, 1]));
        // Build up the hot qubits' scores.
        for now in 0..6 {
            policy.on_access(QubitTag(now as u32 % 2), now);
        }
        // A single cold touch does not overtake.
        assert_eq!(policy.on_access(QubitTag(5), 6), None);
        // A burst does.
        let mut promoted = false;
        for now in 7..40 {
            if let Some(victim) = policy.on_access(QubitTag(5), now) {
                policy.applied(QubitTag(5), victim);
                promoted = true;
                break;
            }
        }
        assert!(promoted, "a sustained burst must overtake the hot set");
    }

    #[test]
    fn tabulated_decay_equals_powf_on_both_sides_of_the_table() {
        let mut policy = FreqDecayPolicy::default();
        policy.begin(2, &[]);
        policy.score[0] = 3.0;
        for age in (0..DECAY_TABLE_AGES + 8).chain([5_000, 1 << 40]) {
            let expected = 3.0 * 0.5f64.powf(age as f64 / 64.0);
            assert_eq!(
                policy.decayed(QubitTag(0), age).to_bits(),
                expected.to_bits(),
                "age {age}"
            );
        }
    }

    #[test]
    fn policies_clone_behind_the_trait_object() {
        for kind in PolicyKind::ALL {
            let mut policy = kind.build();
            policy.begin(8, &tags(&[0, 1]));
            let _ = policy.on_access(QubitTag(5), 0);
            let cloned = policy.clone();
            assert_eq!(cloned.name(), policy.name());
        }
    }

    #[test]
    fn policy_kind_round_trips() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(PolicyKind::from_name("nope"), None);
        assert_eq!(
            PolicyKind::from_name("FREQ-DECAY"),
            Some(PolicyKind::FreqDecay)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// A deliberately naive LRU model: a `HashMap` of last-use times and a
    /// `HashSet` hot set, re-ranked from scratch on every access.
    #[derive(Debug, Default)]
    struct NaiveLru {
        last_used: HashMap<u32, u64>,
        hot: HashSet<u32>,
    }

    impl NaiveLru {
        fn on_access(&mut self, q: u32, now: u64) -> Option<u32> {
            self.last_used.insert(q, now + 1);
            if self.hot.contains(&q) || self.hot.is_empty() {
                return None;
            }
            self.hot
                .iter()
                .copied()
                .min_by_key(|v| (self.last_used.get(v).copied().unwrap_or(0), *v))
        }

        fn applied(&mut self, promoted: u32, demoted: u32) {
            self.hot.remove(&demoted);
            self.hot.insert(promoted);
        }
    }

    /// A naive frequency-decay model recomputing every decayed score with
    /// plain `powf` on demand, and every log-domain rank (the victim order
    /// shared with the heap-based policy — see [`FreqDecayPolicy`]) from
    /// scratch each access.
    #[derive(Debug)]
    struct NaiveFreqDecay {
        half_life: f64,
        margin: f64,
        score: HashMap<u32, f64>,
        last: HashMap<u32, u64>,
        hot: HashSet<u32>,
    }

    impl NaiveFreqDecay {
        fn decayed(&self, q: u32, now: u64) -> f64 {
            let age = now.saturating_sub(self.last.get(&q).copied().unwrap_or(0));
            self.score.get(&q).copied().unwrap_or(0.0) * 0.5f64.powf(age as f64 / self.half_life)
        }

        /// The same formula as the policy's `rank_key`, recomputed on demand.
        fn rank(&self, q: u32) -> f64 {
            let score = self.score.get(&q).copied().unwrap_or(0.0);
            let last = self.last.get(&q).copied().unwrap_or(0);
            score.ln() + (last as f64) * std::f64::consts::LN_2 / self.half_life
        }

        fn on_access(&mut self, q: u32, now: u64) -> Option<u32> {
            let fresh = self.decayed(q, now) + 1.0;
            self.score.insert(q, fresh);
            self.last.insert(q, now);
            if self.hot.contains(&q) {
                return None;
            }
            let victim = self
                .hot
                .iter()
                .copied()
                .map(|v| (self.rank(v), v))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))?
                .1;
            (fresh > self.margin * self.decayed(victim, now)).then_some(victim)
        }

        fn applied(&mut self, promoted: u32, demoted: u32) {
            self.hot.remove(&demoted);
            self.hot.insert(promoted);
        }
    }

    /// Access traces of up to 3 000 `(qubit, roll)` events, a proposal
    /// being applied when its roll falls below a per-case threshold. Half of
    /// the events hammer qubits 0 and 1, whose proposals are applied half the
    /// time; the rest touch any qubit. In the cases that apply no other
    /// qubit's proposal, a hot set holding a hammered qubit and an old
    /// resident piles up stale heap entries above the resident's live entry,
    /// which only a rebuild removes.
    fn any_trace() -> impl Strategy<Value = Vec<(u32, u32)>> {
        proptest::collection::vec(
            prop_oneof![(0u32..2, 0u32..64), (0u32..60, 0u32..64)],
            1..3000,
        )
    }

    proptest! {
        /// The dense-table `LruPolicy` proposes exactly what the naive
        /// map/set reference model proposes over random load/store traces,
        /// with proposals randomly applied or dropped (the simulator drops
        /// proposals made while the qubit is checked out). Traces run long
        /// enough to rebuild the victim heap, whose length stays within its
        /// bound after every call.
        #[test]
        fn lru_policy_matches_the_naive_model(
            n in 4u32..60,
            hot in proptest::collection::hash_set(0u32..60, 1..6),
            trace in any_trace(),
            cold_apply in prop_oneof![Just(32u32), Just(0)],
        ) {
            let hot: Vec<QubitTag> = hot.into_iter().filter(|&t| t < n).map(QubitTag).collect();
            let mut policy = LruPolicy::default();
            policy.begin(n, &hot);
            let bound = policy.hot.heap_bound();
            prop_assert!(policy.queue.len() <= bound);
            let mut naive = NaiveLru {
                hot: hot.iter().map(|q| q.0).collect(),
                ..NaiveLru::default()
            };

            for (now, &(tag, roll)) in trace.iter().enumerate() {
                let apply = roll < if tag < 2 { 32 } else { cold_apply };
                let now = now as u64;
                let q = QubitTag(tag % n);
                let proposal = policy.on_access(q, now);
                prop_assert!(policy.queue.len() <= bound);
                let expected = naive.on_access(q.0, now);
                prop_assert_eq!(proposal.map(|v| v.0), expected);
                if let (Some(victim), true) = (proposal, apply) {
                    policy.applied(q, victim);
                    prop_assert!(policy.queue.len() <= bound);
                    naive.applied(q.0, victim.0);
                }
            }
        }

        /// The incremental `FreqDecayPolicy` scores and proposals equal the
        /// naive recompute-everything model over random traces, long enough
        /// to rebuild the victim heap, whose length stays within its bound
        /// after every call.
        #[test]
        fn freq_decay_policy_matches_the_naive_model(
            n in 4u32..60,
            hot in proptest::collection::hash_set(0u32..60, 1..6),
            trace in any_trace(),
            cold_apply in prop_oneof![Just(32u32), Just(0)],
        ) {
            let hot: Vec<QubitTag> = hot.into_iter().filter(|&t| t < n).map(QubitTag).collect();
            let mut policy = FreqDecayPolicy::default();
            policy.begin(n, &hot);
            let bound = policy.hot.heap_bound();
            prop_assert!(policy.queue.len() <= bound);
            let mut naive = NaiveFreqDecay {
                half_life: 64.0,
                margin: 1.5,
                score: HashMap::new(),
                last: HashMap::new(),
                hot: hot.iter().map(|q| q.0).collect(),
            };

            for (now, &(tag, roll)) in trace.iter().enumerate() {
                let apply = roll < if tag < 2 { 32 } else { cold_apply };
                let now = now as u64;
                let q = QubitTag(tag % n);
                let proposal = policy.on_access(q, now);
                prop_assert!(policy.queue.len() <= bound);
                let expected = naive.on_access(q.0, now);
                prop_assert_eq!(proposal.map(|v| v.0), expected);
                if let (Some(victim), true) = (proposal, apply) {
                    policy.applied(q, victim);
                    prop_assert!(policy.queue.len() <= bound);
                    naive.applied(q.0, victim.0);
                }
            }
        }

        /// The static policy is inert on any trace.
        #[test]
        fn static_policy_matches_the_pinned_hot_set(
            trace in proptest::collection::vec(0u32..40, 1..60),
        ) {
            let mut policy = StaticPolicy;
            policy.begin(40, &[QubitTag(0)]);
            for (now, &tag) in trace.iter().enumerate() {
                prop_assert_eq!(policy.on_access(QubitTag(tag), now as u64), None);
            }
        }
    }
}
