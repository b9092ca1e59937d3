//! The memory system: hybrid floorplans, bank placement, density accounting.
//!
//! [`MemorySystem`] is what the simulator talks to. It owns:
//!
//! * an optional **conventional region** holding the "hot" qubits of a hybrid
//!   floorplan (Sec. V-D / VI-C) at 50% density with zero access latency, and
//! * zero or more **SAM banks** (point, dual-port point, or line — mixed
//!   flavours are allowed via [`MemorySystem::from_spec`]) holding the
//!   remaining qubits, distributed round-robin over the banks as in the
//!   paper's evaluation, plus
//! * the **CR** cell accounting, and
//! * the **memory-level checkout audit**: a record of which bank every
//!   checked-out qubit left, so a store that would land in a *different* bank
//!   (possible once hot-set migration mutates residences at runtime) is a
//!   typed [`LatticeError::CrossBankCheckout`] instead of silent scan-vacancy
//!   corruption.
//!
//! Memory density is `application qubits / (conventional cells + SAM cells + CR
//! cells)`, excluding MSFs, exactly as defined in Sec. VI-A.

use crate::config::{ArchConfig, FloorplanKind};
use crate::dual::DualPointSamBank;
use crate::floorplan::{BankKind, FloorplanSpec};
use crate::line::LineSamBank;
use crate::point::PointSamBank;
use lsqca_lattice::{Beats, LatticeError, QubitTag};
use std::fmt;

/// Where a qubit lives in the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Residence {
    /// The qubit is pinned in the conventional (unit-latency) region.
    Conventional,
    /// The qubit is stored in the SAM bank with this index.
    SamBank(usize),
}

/// The CR-facing port(s) of one SAM bank, in bank-local coordinates.
///
/// Point-SAM banks register their port(s) as the anchor(s) of their grid's
/// vacancy-ring sets at construction; line-SAM banks expose the anchor row
/// their scan line starts at (the CR column spans the full bank height).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankPort {
    /// A point-SAM port: the single cell adjacent to the CR.
    Cell(lsqca_lattice::Coord),
    /// A dual-port point-SAM bank's two port cells (west, east).
    Cells(lsqca_lattice::Coord, lsqca_lattice::Coord),
    /// A line-SAM port: the anchor row facing the full-height CR column.
    Row(u32),
}

/// One SAM bank of any flavour.
#[derive(Debug, Clone, PartialEq)]
enum Bank {
    Point(PointSamBank),
    Dual(DualPointSamBank),
    Line(LineSamBank),
}

impl Bank {
    fn build(kind: BankKind, qubits: &[QubitTag], locality_aware_store: bool) -> Bank {
        match kind {
            BankKind::PointSam => Bank::Point(PointSamBank::new(qubits, locality_aware_store)),
            BankKind::DualPointSam => {
                Bank::Dual(DualPointSamBank::new(qubits, locality_aware_store))
            }
            BankKind::LineSam => Bank::Line(LineSamBank::new(qubits, locality_aware_store)),
        }
    }

    fn cell_count(&self) -> u64 {
        match self {
            Bank::Point(b) => b.cell_count(),
            Bank::Dual(b) => b.cell_count(),
            Bank::Line(b) => b.cell_count(),
        }
    }

    fn total_height(&self) -> u32 {
        match self {
            Bank::Point(_) | Bank::Dual(_) => 3,
            Bank::Line(b) => b.total_height(),
        }
    }

    fn contains(&self, q: QubitTag) -> bool {
        match self {
            Bank::Point(b) => b.contains(q),
            Bank::Dual(b) => b.contains(q),
            Bank::Line(b) => b.contains(q),
        }
    }

    fn peek_load(&self, q: QubitTag) -> Result<Beats, LatticeError> {
        match self {
            Bank::Point(b) => b.peek_load(q),
            Bank::Dual(b) => b.peek_load(q),
            Bank::Line(b) => b.peek_load(q),
        }
    }

    fn load(&mut self, q: QubitTag) -> Result<Beats, LatticeError> {
        match self {
            Bank::Point(b) => b.load(q),
            Bank::Dual(b) => b.load(q),
            Bank::Line(b) => b.load(q),
        }
    }

    fn store(&mut self, q: QubitTag) -> Result<Beats, LatticeError> {
        match self {
            Bank::Point(b) => b.store(q),
            Bank::Dual(b) => b.store(q),
            Bank::Line(b) => b.store(q),
        }
    }

    fn in_memory_seek(&mut self, q: QubitTag) -> Result<Beats, LatticeError> {
        match self {
            Bank::Point(b) => b.in_memory_seek(q),
            Bank::Dual(b) => b.in_memory_seek(q),
            Bank::Line(b) => b.in_memory_seek(q),
        }
    }

    fn in_memory_two_qubit_access(&mut self, q: QubitTag) -> Result<Beats, LatticeError> {
        match self {
            Bank::Point(b) => b.in_memory_two_qubit_access(q),
            Bank::Dual(b) => b.in_memory_two_qubit_access(q),
            Bank::Line(b) => b.in_memory_two_qubit_access(q),
        }
    }

    fn migrate_swap(
        &mut self,
        outgoing: QubitTag,
        incoming: QubitTag,
    ) -> Result<Beats, LatticeError> {
        match self {
            Bank::Point(b) => b.migrate_swap(outgoing, incoming),
            Bank::Dual(b) => b.migrate_swap(outgoing, incoming),
            Bank::Line(b) => b.migrate_swap(outgoing, incoming),
        }
    }

    fn checked_out_count(&self) -> usize {
        match self {
            Bank::Point(b) => b.checked_out_count(),
            Bank::Dual(b) => b.checked_out_count(),
            Bank::Line(b) => b.checked_out_count(),
        }
    }
}

/// The complete memory system for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    /// Human-readable floorplan label (the `FloorplanKind` label for uniform
    /// systems, the [`FloorplanSpec`] label for mixed ones).
    label: String,
    cr_slots: u32,
    /// Residence per qubit tag, indexed directly by `QubitTag::index()`.
    /// Tags are contiguous `0..num_qubits`, so a dense table replaces the
    /// former `HashMap<QubitTag, Residence>` and turns every lookup on the
    /// simulator's hot path into one bounds-checked array read. Hot-set
    /// migration rewrites entries at runtime via [`MemorySystem::migrate`].
    residence: Vec<Residence>,
    banks: Vec<Bank>,
    conventional_qubits: u64,
    num_qubits: u32,
    /// Memory-level checkout audit: for every qubit currently checked out to
    /// the CR, the index of the bank it left. Cross-checked against the
    /// residence table on every load/store so a migrated residence can never
    /// silently redirect a store into a foreign bank.
    out_of: Vec<Option<u32>>,
}

impl MemorySystem {
    /// Builds the memory system for `num_qubits` data qubits from a uniform
    /// [`ArchConfig`] floorplan.
    ///
    /// `hot_qubits` lists the qubits pinned into the conventional region of a
    /// hybrid floorplan (ignored duplicates and out-of-range tags are dropped).
    /// With [`FloorplanKind::Conventional`] every qubit is treated as hot
    /// regardless of the list. The remaining qubits are distributed round-robin
    /// over the configured number of SAM banks.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero.
    pub fn new(config: &ArchConfig, num_qubits: u32, hot_qubits: &[QubitTag]) -> Self {
        let kind = match config.floorplan {
            FloorplanKind::PointSam { .. } => Some(BankKind::PointSam),
            FloorplanKind::DualPointSam { .. } => Some(BankKind::DualPointSam),
            FloorplanKind::LineSam { .. } => Some(BankKind::LineSam),
            FloorplanKind::Conventional => None,
        };
        let spec = FloorplanSpec {
            banks: match kind {
                Some(kind) => vec![kind; config.floorplan.bank_count() as usize],
                None => Vec::new(),
            },
            cr_slots: config.cr_slots,
            locality_aware_store: config.locality_aware_store,
        };
        Self::build(config.floorplan.label(), &spec, num_qubits, hot_qubits)
    }

    /// Builds the memory system from a [`FloorplanSpec`], which may compose
    /// banks of *different* flavours (e.g. a fast dual-port point bank backed
    /// by a dense line bank). An empty bank list is the conventional
    /// baseline: every qubit is hot.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero.
    pub fn from_spec(spec: &FloorplanSpec, num_qubits: u32, hot_qubits: &[QubitTag]) -> Self {
        Self::build(spec.label(), spec, num_qubits, hot_qubits)
    }

    fn build(
        label: String,
        spec: &FloorplanSpec,
        num_qubits: u32,
        hot_qubits: &[QubitTag],
    ) -> Self {
        assert!(num_qubits > 0, "the memory system needs at least one qubit");

        // Dense hot-set membership: tags are contiguous, so a bit per tag
        // replaces the former `HashSet` dedup pass.
        let all_hot = spec.banks.is_empty();
        let mut is_hot = vec![all_hot; num_qubits as usize];
        let mut hot_count: u64 = 0;
        if all_hot {
            hot_count = num_qubits as u64;
        } else {
            for &q in hot_qubits {
                if q.0 < num_qubits && !is_hot[q.0 as usize] {
                    is_hot[q.0 as usize] = true;
                    hot_count += 1;
                }
            }
        }

        let cold: Vec<QubitTag> = (0..num_qubits)
            .map(QubitTag)
            .filter(|q| !is_hot[q.0 as usize])
            .collect();

        let bank_count = if cold.is_empty() { 0 } else { spec.banks.len() };
        let mut residence = vec![Residence::Conventional; num_qubits as usize];
        let mut per_bank: Vec<Vec<QubitTag>> = vec![Vec::new(); bank_count];
        for (i, &q) in cold.iter().enumerate() {
            let bank = i % bank_count.max(1);
            residence[q.0 as usize] = Residence::SamBank(bank);
            per_bank[bank].push(q);
        }

        // Round-robin fills banks front to back, so only *trailing* banks can
        // be empty; dropping them keeps the bank indices in `residence` valid.
        let banks: Vec<Bank> = spec
            .banks
            .iter()
            .zip(per_bank)
            .filter(|(_, qs)| !qs.is_empty())
            .map(|(&kind, qs)| Bank::build(kind, &qs, spec.locality_aware_store))
            .collect();

        MemorySystem {
            label,
            cr_slots: spec.cr_slots,
            residence,
            banks,
            conventional_qubits: hot_count,
            num_qubits,
            out_of: vec![None; num_qubits as usize],
        }
    }

    /// The floorplan label this memory system was built with (a
    /// [`FloorplanKind`] label for uniform systems, a [`FloorplanSpec`] label
    /// for mixed ones).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of data qubits managed by the system.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of SAM banks actually instantiated.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Number of qubits currently resident in the conventional region. With a
    /// migration policy attached this is still constant over a run — hot-set
    /// migration is a strict swap.
    pub fn conventional_qubits(&self) -> u64 {
        self.conventional_qubits
    }

    /// Where `qubit` lives. `None` for tags outside `0..num_qubits`.
    pub fn residence(&self, qubit: QubitTag) -> Option<Residence> {
        self.residence.get(qubit.0 as usize).copied()
    }

    /// The SAM bank index holding `qubit`, or `None` for conventional residents.
    pub fn bank_of(&self, qubit: QubitTag) -> Option<usize> {
        match self.residence(qubit) {
            Some(Residence::SamBank(i)) => Some(i),
            _ => None,
        }
    }

    /// The CR-facing port(s) of bank `bank`, registered as the bank's vacancy
    /// anchor(s) at construction. `None` for out-of-range bank indices.
    pub fn bank_port(&self, bank: usize) -> Option<BankPort> {
        self.banks.get(bank).map(|b| match b {
            Bank::Point(p) => BankPort::Cell(p.port()),
            Bank::Dual(d) => {
                let (west, east) = d.ports();
                BankPort::Cells(west, east)
            }
            Bank::Line(l) => BankPort::Row(l.port_row()),
        })
    }

    /// True if the qubit is currently held by the memory system (conventional
    /// region or stored in its bank). Qubits checked out to the CR are not
    /// resident until they are stored back.
    pub fn is_resident(&self, qubit: QubitTag) -> bool {
        match self.residence(qubit) {
            Some(Residence::Conventional) => self.checked_out_of(qubit).is_none(),
            Some(Residence::SamBank(i)) => self.banks[i].contains(qubit),
            None => false,
        }
    }

    /// Cells occupied by the conventional region (50% density: two cells per
    /// hot data qubit, as in the paper's baseline).
    pub fn conventional_cells(&self) -> u64 {
        2 * self.conventional_qubits
    }

    /// Cells occupied by all SAM banks.
    pub fn sam_cells(&self) -> u64 {
        self.banks.iter().map(Bank::cell_count).sum()
    }

    /// Cells occupied by the computational register.
    ///
    /// The point-SAM CR is charged at three cells per register slot: the
    /// minimal six-cell block of Fig. 10a holds the default
    /// [`MemorySystem::MIN_CR_SLOTS`] register cells (plus surgery-ancilla and
    /// routing space), and a wider configured CR grows proportionally, so the
    /// area charged always contains the slot count the simulator schedules
    /// with ([`MemorySystem::effective_cr_slots`]). A dual-port point bank
    /// claims that block on *both* its sides, doubling the charge. The
    /// line-SAM CR is two columns spanning the bank height (Fig. 10b); with
    /// more than two line banks the CR is stacked, growing proportionally.
    /// Mixed floorplans are charged the sum of both shapes. When every qubit
    /// is hot (or the floorplan is conventional) no CR is charged.
    pub fn cr_cells(&self) -> u64 {
        if self.banks.is_empty() {
            return 0;
        }
        let mut cells = 0u64;
        let line_count = self
            .banks
            .iter()
            .filter(|b| matches!(b, Bank::Line(_)))
            .count() as u64;
        if line_count > 0 {
            let height = self
                .banks
                .iter()
                .filter(|b| matches!(b, Bank::Line(_)))
                .map(|b| b.total_height() as u64)
                .max()
                .unwrap_or(0);
            cells += 2 * height * line_count.div_ceil(2);
        }
        // One Fig. 10a CR block per point-bank side facing it: single-port
        // banks share one block, a dual-port bank claims one on each side.
        let point_sides = if self.banks.iter().any(|b| matches!(b, Bank::Dual(_))) {
            2
        } else if self.banks.iter().any(|b| matches!(b, Bank::Point(_))) {
            1
        } else {
            0
        };
        cells += point_sides * 3 * self.effective_cr_slots() as u64;
        cells
    }

    /// Total cells charged to the architecture (conventional + SAM + CR),
    /// excluding magic-state factories.
    pub fn total_cells(&self) -> u64 {
        self.conventional_cells() + self.sam_cells() + self.cr_cells()
    }

    /// Memory density: application data qubits over total cells.
    pub fn memory_density(&self) -> f64 {
        self.num_qubits as f64 / self.total_cells() as f64
    }

    /// Number of CR register slots available to hold loaded qubits, as
    /// configured (the paper fixes this to two).
    pub fn cr_slots(&self) -> u32 {
        self.cr_slots
    }

    /// Minimum number of register slots any physical CR provides: the minimal
    /// six-cell point-SAM CR block of Fig. 10a and the two-column line-SAM CR
    /// of Fig. 10b both hold two register cells, so [`MemorySystem::cr_cells`]
    /// always charges at least this many slots and the simulator always
    /// schedules with at least this many.
    pub const MIN_CR_SLOTS: u32 = 2;

    /// Number of CR register slots the simulator should schedule with: the
    /// configured count, floored at [`MemorySystem::MIN_CR_SLOTS`] because the
    /// smallest CR charged by [`MemorySystem::cr_cells`] already contains two
    /// register cells. Zero when the floorplan has no CR at all (conventional,
    /// or a hybrid whose hot set covers every qubit) — register slots impose
    /// no constraint there.
    pub fn effective_cr_slots(&self) -> u32 {
        if self.banks.is_empty() {
            0
        } else {
            self.cr_slots.max(Self::MIN_CR_SLOTS)
        }
    }

    /// True if `qubit` is currently checked out of its SAM bank to the CR.
    /// Conventional residents never check out (every access is in place), and
    /// unknown tags are never checked out.
    pub fn is_checked_out(&self, qubit: QubitTag) -> bool {
        self.checked_out_of(qubit).is_some()
    }

    /// The bank `qubit` is currently checked out of, per the memory-level
    /// audit record, or `None` if it is not checked out.
    pub fn checked_out_of(&self, qubit: QubitTag) -> Option<u32> {
        self.out_of.get(qubit.0 as usize).copied().flatten()
    }

    /// Total number of qubits currently checked out across all SAM banks.
    pub fn checked_out_count(&self) -> usize {
        self.banks.iter().map(Bank::checked_out_count).sum()
    }

    fn bank_mut(&mut self, qubit: QubitTag) -> Result<Option<&mut Bank>, LatticeError> {
        match self.residence(qubit) {
            Some(Residence::Conventional) => Ok(None),
            Some(Residence::SamBank(i)) => Ok(Some(&mut self.banks[i])),
            None => Err(LatticeError::QubitNotPresent { qubit }),
        }
    }

    /// Estimated load latency without mutating any bank state. Zero for
    /// conventional residents.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] for unknown or checked-out qubits.
    pub fn peek_load(&self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        match self.residence(qubit) {
            Some(Residence::Conventional) => Ok(Beats::ZERO),
            Some(Residence::SamBank(i)) => self.banks[i].peek_load(qubit),
            None => Err(LatticeError::QubitNotPresent { qubit }),
        }
    }

    /// Loads `qubit` towards the CR; returns the latency. Zero (and a no-op) for
    /// conventional residents, which are always directly accessible. The
    /// memory-level audit records which bank the qubit left.
    ///
    /// # Errors
    ///
    /// Returns a [`LatticeError`] if the qubit is unknown, already checked
    /// out, or fails the cross-bank audit.
    pub fn load(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        match self.residence(qubit) {
            None => Err(LatticeError::QubitNotPresent { qubit }),
            Some(Residence::Conventional) => match self.checked_out_of(qubit) {
                None => Ok(Beats::ZERO),
                // The qubit left a bank but its residence was since migrated
                // into the conventional region: surface the inconsistency.
                Some(bank) => Err(LatticeError::CrossBankCheckout {
                    qubit,
                    checked_out_of: bank,
                    resident_bank: None,
                }),
            },
            Some(Residence::SamBank(i)) => {
                if let Some(bank) = self.checked_out_of(qubit) {
                    if bank as usize != i {
                        return Err(LatticeError::CrossBankCheckout {
                            qubit,
                            checked_out_of: bank,
                            resident_bank: Some(i as u32),
                        });
                    }
                    // Checked out of this very bank: fall through so the bank
                    // reports the same double-load error as before the audit.
                }
                let cost = self.banks[i].load(qubit)?;
                self.out_of[qubit.0 as usize] = Some(i as u32);
                Ok(cost)
            }
        }
    }

    /// Stores `qubit` back into its bank (locality-aware by configuration);
    /// returns the latency. Zero for conventional residents. The store is
    /// audited against the memory-level checkout record: it must return the
    /// qubit to the bank it was loaded from.
    ///
    /// # Errors
    ///
    /// * [`LatticeError::CrossBankCheckout`] if the qubit's residence no
    ///   longer names the bank it was checked out of (the audit the runtime
    ///   hot-set migration makes necessary).
    /// * Other [`LatticeError`]s if the qubit is unknown or was never loaded.
    pub fn store(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        match self.residence(qubit) {
            None => Err(LatticeError::QubitNotPresent { qubit }),
            Some(Residence::Conventional) => match self.checked_out_of(qubit) {
                None => Ok(Beats::ZERO),
                Some(bank) => Err(LatticeError::CrossBankCheckout {
                    qubit,
                    checked_out_of: bank,
                    resident_bank: None,
                }),
            },
            Some(Residence::SamBank(i)) => {
                match self.checked_out_of(qubit) {
                    Some(bank) if bank as usize == i => {
                        let cost = self.banks[i].store(qubit)?;
                        self.out_of[qubit.0 as usize] = None;
                        Ok(cost)
                    }
                    Some(bank) => Err(LatticeError::CrossBankCheckout {
                        qubit,
                        checked_out_of: bank,
                        resident_bank: Some(i as u32),
                    }),
                    // Never checked out at the system level: delegate so the
                    // bank produces its own typed error (`QubitAlreadyPlaced`
                    // for a store of a qubit that never left,
                    // `QubitNotCheckedOut` for a foreign tag).
                    None => self.banks[i].store(qubit),
                }
            }
        }
    }

    /// Access latency for an in-memory single-qubit operation on `qubit`
    /// (the gate latency itself is not included). Zero for conventional residents.
    ///
    /// # Errors
    ///
    /// Returns a [`LatticeError`] if the qubit is unknown or checked out.
    pub fn in_memory_seek(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        match self.bank_mut(qubit)? {
            None => Ok(Beats::ZERO),
            Some(bank) => bank.in_memory_seek(qubit),
        }
    }

    /// Access latency for an in-memory two-qubit operation between a CR slot and
    /// `qubit` (the one-beat surgery is not included). Zero for conventional
    /// residents.
    ///
    /// # Errors
    ///
    /// Returns a [`LatticeError`] if the qubit is unknown or checked out.
    pub fn in_memory_two_qubit_access(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        match self.bank_mut(qubit)? {
            None => Ok(Beats::ZERO),
            Some(bank) => bank.in_memory_two_qubit_access(qubit),
        }
    }

    /// Fused CX access: the paper's runtime CX sequence — peek both
    /// operands, load the cheaper one, access the other in memory, store the
    /// loaded one back — as one call returning the `(load, access, store)`
    /// latencies.
    ///
    /// When both operands are stored in the same single-port point bank with
    /// clean checkout records (the dominant shape in every point-SAM sweep),
    /// the whole sequence runs as one fused bank call that shares the
    /// residence lookups, checkout audits, and position/cost computations
    /// the five separate calls would repeat; the memory-level audit record
    /// is provably unchanged by the balanced checkout/check-in pair, so it
    /// is not touched. Every other shape — conventional or mixed residence,
    /// dual-port or line banks, a checked-out operand, or the degenerate
    /// self-CX — takes the literal five-call sequence, so errors and partial
    /// state on failure are identical to issuing the calls separately (the
    /// executable spec `Simulator::execute` runs on a `Classified` program).
    ///
    /// # Errors
    ///
    /// Exactly those of the five-call sequence, surfaced from the first
    /// failing step.
    pub fn cx_access(
        &mut self,
        control: QubitTag,
        target: QubitTag,
    ) -> Result<(Beats, Beats, Beats), LatticeError> {
        if control != target {
            match (self.residence(control), self.residence(target)) {
                (Some(Residence::SamBank(i)), Some(Residence::SamBank(j)))
                    if i == j
                        && self.checked_out_of(control).is_none()
                        && self.checked_out_of(target).is_none() =>
                {
                    if let Bank::Point(bank) = &mut self.banks[i] {
                        return bank.cx_access(control, target);
                    }
                }
                // Both operands directly accessible: every step of the spec
                // is a zero-latency no-op (loads and stores of conventional
                // residents with clean audit records do not change any
                // state).
                (Some(Residence::Conventional), Some(Residence::Conventional))
                    if self.checked_out_of(control).is_none()
                        && self.checked_out_of(target).is_none() =>
                {
                    return Ok((Beats::ZERO, Beats::ZERO, Beats::ZERO));
                }
                _ => {}
            }
        }
        let peek_c = self.peek_load(control)?;
        let peek_t = self.peek_load(target)?;
        let (loaded, other) = if peek_c <= peek_t {
            (control, target)
        } else {
            (target, control)
        };
        let load = self.load(loaded)?;
        let access = self.in_memory_two_qubit_access(other)?;
        let store = self.store(loaded)?;
        Ok((load, access, store))
    }

    /// Runtime hot-set migration: promotes `promote` out of its SAM bank into
    /// the conventional region and demotes `demote` (a conventional resident)
    /// into the freed bank capacity, as one balanced swap. Returns the
    /// physical movement latency (the promoted qubit's extraction plus the
    /// demoted qubit's insertion); the conventional-region size and every
    /// bank's cell shape are conserved.
    ///
    /// # Errors
    ///
    /// * [`LatticeError::InvalidMigration`] if `promote` is not a SAM-bank
    ///   resident or `demote` is not a conventional resident.
    /// * [`LatticeError::CrossBankCheckout`] if `promote` is currently
    ///   checked out to the CR — migrating it would desynchronize its
    ///   residence from the bank holding its checkout record.
    pub fn migrate(&mut self, promote: QubitTag, demote: QubitTag) -> Result<Beats, LatticeError> {
        let bank = match self.residence(promote) {
            Some(Residence::SamBank(i)) => i,
            _ => return Err(LatticeError::InvalidMigration { promote, demote }),
        };
        if let Some(out) = self.checked_out_of(promote) {
            return Err(LatticeError::CrossBankCheckout {
                qubit: promote,
                checked_out_of: out,
                resident_bank: Some(bank as u32),
            });
        }
        match self.residence(demote) {
            Some(Residence::Conventional) => {}
            _ => return Err(LatticeError::InvalidMigration { promote, demote }),
        }
        if self.checked_out_of(demote).is_some() {
            // Unreachable through the audited load path (conventional
            // residents never check out), kept as defense in depth.
            return Err(LatticeError::InvalidMigration { promote, demote });
        }
        let cost = self.banks[bank].migrate_swap(promote, demote)?;
        self.residence[promote.0 as usize] = Residence::Conventional;
        self.residence[demote.0 as usize] = Residence::SamBank(bank);
        debug_assert_eq!(
            self.residence
                .iter()
                .filter(|r| matches!(r, Residence::Conventional))
                .count() as u64,
            self.conventional_qubits,
            "migration must conserve the conventional-region size"
        );
        Ok(cost)
    }

    /// Test-only hook: rewrites a residence entry *without* moving anything,
    /// to stage the desynchronized states the cross-bank audit exists to
    /// catch. Hidden from docs; never called outside tests.
    #[doc(hidden)]
    pub fn force_residence_for_audit_test(&mut self, qubit: QubitTag, residence: Residence) {
        self.residence[qubit.0 as usize] = residence;
    }
}

impl fmt::Display for MemorySystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} qubits in {} cells ({} conventional, {} SAM, {} CR), density {:.1}%",
            self.label,
            self.num_qubits,
            self.total_cells(),
            self.conventional_cells(),
            self.sam_cells(),
            self.cr_cells(),
            100.0 * self.memory_density()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(banks: u32) -> ArchConfig {
        ArchConfig::new(FloorplanKind::PointSam { banks }, 1)
    }

    fn line(banks: u32) -> ArchConfig {
        ArchConfig::new(FloorplanKind::LineSam { banks }, 1)
    }

    #[test]
    fn line_sam_multiplier_density_matches_the_paper() {
        // 400 qubits, one line-SAM bank: 420 SAM cells + 42 CR cells = 462,
        // the paper's "approximately 400/462 ≃ 87%".
        let mem = MemorySystem::new(&line(1), 400, &[]);
        assert_eq!(mem.sam_cells(), 420);
        assert_eq!(mem.cr_cells(), 42);
        assert_eq!(mem.total_cells(), 462);
        assert!((mem.memory_density() - 400.0 / 462.0).abs() < 1e-9);
    }

    #[test]
    fn point_sam_density_approaches_one() {
        let mem = MemorySystem::new(&point(1), 400, &[]);
        assert_eq!(mem.sam_cells(), 401);
        assert_eq!(mem.cr_cells(), 6);
        assert!(mem.memory_density() > 0.97);
    }

    #[test]
    fn dual_point_sam_trades_density_for_latency() {
        let config = ArchConfig::new(FloorplanKind::DualPointSam { banks: 1 }, 1);
        let mem = MemorySystem::new(&config, 400, &[]);
        // One extra cell per bank plus a CR block on both sides.
        assert_eq!(mem.sam_cells(), 402);
        assert_eq!(mem.cr_cells(), 12);
        assert!(mem.memory_density() > 0.95);
        let single = MemorySystem::new(&point(1), 400, &[]);
        assert!(mem.memory_density() < single.memory_density());
        // Worst-case loads are cheaper through the nearer port.
        let worst = |m: &MemorySystem| {
            (0..400)
                .map(|q| m.peek_load(QubitTag(q)).unwrap())
                .max()
                .unwrap()
        };
        assert!(worst(&mem) < worst(&single));
        assert!(matches!(mem.bank_port(0), Some(BankPort::Cells(_, _))));
    }

    #[test]
    fn mixed_spec_composes_heterogeneous_banks() {
        use crate::floorplan::{BankKind, FloorplanSpec};
        let spec = FloorplanSpec {
            banks: vec![BankKind::DualPointSam, BankKind::LineSam],
            cr_slots: 2,
            locality_aware_store: true,
        };
        let mut mem = MemorySystem::from_spec(&spec, 100, &[]);
        assert_eq!(mem.bank_count(), 2);
        assert_eq!(mem.label(), "dual-point+line floorplan");
        assert!(matches!(mem.bank_port(0), Some(BankPort::Cells(_, _))));
        assert!(matches!(mem.bank_port(1), Some(BankPort::Row(_))));
        // CR charge combines both shapes: two point blocks + line columns.
        assert!(mem.cr_cells() > 12);
        // Round-robin: even tags in bank 0, odd in bank 1.
        assert_eq!(mem.bank_of(QubitTag(0)), Some(0));
        assert_eq!(mem.bank_of(QubitTag(1)), Some(1));
        // Both flavours serve loads and stores through one facade.
        for q in [QubitTag(4), QubitTag(5)] {
            let load = mem.load(q).unwrap();
            assert!(load > Beats::ZERO);
            mem.store(q).unwrap();
        }
        assert_eq!(mem.checked_out_count(), 0);
    }

    #[test]
    fn conventional_floorplan_has_half_density() {
        let mem = MemorySystem::new(&ArchConfig::conventional(1), 400, &[]);
        assert_eq!(mem.total_cells(), 800);
        assert!((mem.memory_density() - 0.5).abs() < 1e-12);
        assert_eq!(mem.bank_count(), 0);
        // Every access is free.
        let mut mem = mem;
        assert_eq!(mem.load(QubitTag(7)).unwrap(), Beats::ZERO);
        assert_eq!(mem.store(QubitTag(7)).unwrap(), Beats::ZERO);
    }

    #[test]
    fn multi_bank_distribution_is_round_robin() {
        let mem = MemorySystem::new(&line(4), 100, &[]);
        assert_eq!(mem.bank_count(), 4);
        assert_eq!(mem.bank_of(QubitTag(0)), Some(0));
        assert_eq!(mem.bank_of(QubitTag(1)), Some(1));
        assert_eq!(mem.bank_of(QubitTag(5)), Some(1));
        // Density is lower than the single-bank case but still far above 50%.
        let single = MemorySystem::new(&line(1), 100, &[]);
        assert!(mem.memory_density() < single.memory_density());
        assert!(mem.memory_density() > 0.6);
    }

    #[test]
    fn hybrid_floorplan_mixes_conventional_and_sam_cells() {
        let hot: Vec<QubitTag> = (0..50).map(QubitTag).collect();
        let config = point(1).with_hybrid_fraction(0.5);
        let mem = MemorySystem::new(&config, 100, &hot);
        assert_eq!(mem.conventional_qubits(), 50);
        assert_eq!(mem.conventional_cells(), 100);
        assert_eq!(mem.sam_cells(), 51);
        assert_eq!(mem.residence(QubitTag(3)), Some(Residence::Conventional));
        assert_eq!(mem.residence(QubitTag(60)), Some(Residence::SamBank(0)));
        // Hot qubits are free to access; cold ones are not.
        let mut mem = mem;
        assert_eq!(mem.load(QubitTag(3)).unwrap(), Beats::ZERO);
        assert!(mem.load(QubitTag(60)).unwrap() > Beats::ZERO);
    }

    #[test]
    fn fully_hot_hybrid_equals_the_conventional_baseline_density() {
        let hot: Vec<QubitTag> = (0..100).map(QubitTag).collect();
        let config = line(1).with_hybrid_fraction(1.0);
        let mem = MemorySystem::new(&config, 100, &hot);
        assert_eq!(mem.bank_count(), 0);
        assert_eq!(mem.total_cells(), 200);
        assert!((mem.memory_density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn load_store_round_trip_keeps_residency_consistent() {
        let mut mem = MemorySystem::new(&point(2), 60, &[]);
        let q = QubitTag(59);
        assert!(mem.is_resident(q));
        let load = mem.load(q).unwrap();
        assert!(load > Beats::ZERO);
        assert!(!mem.is_resident(q));
        // Loading again fails until it is stored back.
        assert!(mem.load(q).is_err());
        mem.store(q).unwrap();
        assert!(mem.is_resident(q));
    }

    #[test]
    fn unknown_qubits_are_rejected() {
        let mut mem = MemorySystem::new(&point(1), 10, &[]);
        assert!(mem.load(QubitTag(10)).is_err());
        assert!(mem.peek_load(QubitTag(99)).is_err());
        assert_eq!(mem.residence(QubitTag(10)), None);
        assert!(!mem.is_resident(QubitTag(10)));
    }

    #[test]
    fn bank_ports_are_exposed_per_flavour() {
        let mem = MemorySystem::new(&point(2), 60, &[]);
        for bank in 0..mem.bank_count() {
            assert!(matches!(mem.bank_port(bank), Some(BankPort::Cell(_))));
        }
        let mem = MemorySystem::new(&line(2), 60, &[]);
        for bank in 0..mem.bank_count() {
            assert!(matches!(mem.bank_port(bank), Some(BankPort::Row(_))));
        }
        assert_eq!(mem.bank_port(99), None);
        // The conventional baseline has no banks, hence no ports.
        let mem = MemorySystem::new(&ArchConfig::conventional(1), 10, &[]);
        assert_eq!(mem.bank_port(0), None);
    }

    #[test]
    fn checkout_state_is_visible_through_the_memory_system() {
        let mut mem = MemorySystem::new(&point(2), 60, &[]);
        assert_eq!(mem.checked_out_count(), 0);
        let q = QubitTag(5);
        mem.load(q).unwrap();
        assert!(mem.is_checked_out(q));
        assert_eq!(mem.checked_out_of(q), Some(1));
        assert_eq!(mem.checked_out_count(), 1);
        // Another bank's qubit is independent.
        let other = QubitTag(6);
        assert!(!mem.is_checked_out(other));
        mem.load(other).unwrap();
        assert_eq!(mem.checked_out_count(), 2);
        mem.store(q).unwrap();
        assert!(!mem.is_checked_out(q));
        assert_eq!(mem.checked_out_of(q), None);
        assert_eq!(mem.checked_out_count(), 1);
        // Conventional residents and unknown tags never check out.
        let mut hybrid = MemorySystem::new(&point(1).with_hybrid_fraction(0.5), 10, &[QubitTag(0)]);
        hybrid.load(QubitTag(0)).unwrap();
        assert!(!hybrid.is_checked_out(QubitTag(0)));
        assert!(!hybrid.is_checked_out(QubitTag(999)));
    }

    #[test]
    fn store_of_a_never_loaded_bank_qubit_is_a_typed_error() {
        let mut mem = MemorySystem::new(&line(2), 40, &[]);
        let err = mem.store(QubitTag(3)).unwrap_err();
        assert!(matches!(err, LatticeError::QubitAlreadyPlaced { .. }));
        mem.load(QubitTag(3)).unwrap();
        mem.load(QubitTag(5)).unwrap();
        mem.store(QubitTag(3)).unwrap();
        // Stored twice: the second store finds the ledger empty for this tag.
        let err = mem.store(QubitTag(3)).unwrap_err();
        assert!(matches!(err, LatticeError::QubitAlreadyPlaced { .. }));
        mem.store(QubitTag(5)).unwrap();
        assert_eq!(mem.checked_out_count(), 0);
    }

    #[test]
    fn migration_swaps_hot_and_cold_residences() {
        let hot: Vec<QubitTag> = vec![QubitTag(0), QubitTag(1)];
        let config = point(1).with_hybrid_fraction(0.1);
        let mut mem = MemorySystem::new(&config, 20, &hot);
        let cold = QubitTag(10);
        assert_eq!(mem.residence(cold), Some(Residence::SamBank(0)));
        let before = mem.conventional_qubits();
        let cost = mem.migrate(cold, QubitTag(0)).unwrap();
        assert!(cost > Beats::ZERO);
        assert_eq!(mem.residence(cold), Some(Residence::Conventional));
        assert_eq!(mem.residence(QubitTag(0)), Some(Residence::SamBank(0)));
        assert_eq!(mem.conventional_qubits(), before);
        // The promoted qubit now loads for free; the demoted one pays.
        assert_eq!(mem.load(cold).unwrap(), Beats::ZERO);
        assert!(mem.load(QubitTag(0)).unwrap() > Beats::ZERO);
        mem.store(QubitTag(0)).unwrap();
        // Shape violations are typed errors.
        assert!(matches!(
            mem.migrate(QubitTag(1), QubitTag(2)),
            Err(LatticeError::InvalidMigration { .. })
        ));
        assert!(matches!(
            mem.migrate(QubitTag(5), QubitTag(6)),
            Err(LatticeError::InvalidMigration { .. })
        ));
    }

    #[test]
    fn migrating_a_checked_out_qubit_is_a_cross_bank_error() {
        let hot = vec![QubitTag(0)];
        let config = point(1).with_hybrid_fraction(0.05);
        let mut mem = MemorySystem::new(&config, 20, &hot);
        let q = QubitTag(7);
        mem.load(q).unwrap();
        let err = mem.migrate(q, QubitTag(0)).unwrap_err();
        assert!(matches!(
            err,
            LatticeError::CrossBankCheckout {
                qubit: QubitTag(7),
                ..
            }
        ));
        // Nothing moved: the round trip still settles cleanly.
        mem.store(q).unwrap();
        assert_eq!(mem.checked_out_count(), 0);
    }

    #[test]
    fn foreign_bank_store_after_migration_is_the_typed_audit_error() {
        // Regression for the cross-bank audit: check a qubit out of bank 0,
        // then desynchronize its residence (as a buggy migration engine
        // might). The store must be the typed `CrossBankCheckout`, *not* a
        // silent consumption of the other bank's scan vacancy.
        let mut mem = MemorySystem::new(&point(2), 40, &[]);
        let q = QubitTag(0);
        assert_eq!(mem.bank_of(q), Some(0));
        mem.load(q).unwrap();
        let vacancies_before: usize = mem.checked_out_count();
        mem.force_residence_for_audit_test(q, Residence::SamBank(1));
        let err = mem.store(q).unwrap_err();
        assert_eq!(
            err,
            LatticeError::CrossBankCheckout {
                qubit: q,
                checked_out_of: 0,
                resident_bank: Some(1),
            }
        );
        // A load through the desynchronized residence is audited too.
        assert!(matches!(
            mem.load(q),
            Err(LatticeError::CrossBankCheckout { .. })
        ));
        // ... and a residence migrated into the conventional region as well.
        mem.force_residence_for_audit_test(q, Residence::Conventional);
        assert!(matches!(
            mem.store(q),
            Err(LatticeError::CrossBankCheckout {
                resident_bank: None,
                ..
            })
        ));
        // The rejections consumed nothing.
        assert_eq!(mem.checked_out_count(), vacancies_before);
        // Restoring the true residence lets the round trip settle.
        mem.force_residence_for_audit_test(q, Residence::SamBank(0));
        mem.store(q).unwrap();
        assert_eq!(mem.checked_out_count(), 0);
    }

    #[test]
    fn effective_cr_slots_floors_at_the_physical_minimum() {
        // The minimal CR already holds two register cells.
        assert_eq!(MemorySystem::MIN_CR_SLOTS, 2);
        let mut config = point(1);
        config.cr_slots = 1;
        let mem = MemorySystem::new(&config, 20, &[]);
        assert_eq!(mem.cr_slots(), 1);
        assert_eq!(mem.effective_cr_slots(), 2);
        // The charged point CR always contains the scheduled slots: the
        // six-cell Fig. 10a block for the default two, growing with wider
        // configurations.
        assert_eq!(mem.cr_cells(), 6);
        let mut config = point(1);
        config.cr_slots = 4;
        let mem = MemorySystem::new(&config, 20, &[]);
        assert_eq!(mem.effective_cr_slots(), 4);
        assert_eq!(mem.cr_cells(), 12);
        // Larger configured CRs are taken as configured.
        let mut config = line(1);
        config.cr_slots = 4;
        let mem = MemorySystem::new(&config, 20, &[]);
        assert_eq!(mem.effective_cr_slots(), 4);
        // No banks → no CR → no slot constraint.
        let mem = MemorySystem::new(&ArchConfig::conventional(1), 20, &[]);
        assert_eq!(mem.effective_cr_slots(), 0);
    }

    #[test]
    fn hot_list_ignores_duplicates_and_out_of_range_tags() {
        let hot = vec![QubitTag(1), QubitTag(1), QubitTag(500)];
        let mem = MemorySystem::new(&point(1).with_hybrid_fraction(0.1), 10, &hot);
        assert_eq!(mem.conventional_qubits(), 1);
    }

    #[test]
    fn in_memory_accesses_are_cheaper_than_loads_for_point_sam() {
        let mut mem = MemorySystem::new(&point(1), 100, &[]);
        let far = QubitTag(99);
        let load_estimate = mem.peek_load(far).unwrap();
        let seek = mem.in_memory_seek(far).unwrap();
        assert!(seek < load_estimate);
    }

    #[test]
    fn display_mentions_density() {
        let mem = MemorySystem::new(&line(1), 400, &[]);
        let s = mem.to_string();
        assert!(s.contains("density"));
        assert!(s.contains("Line #SAM=1"));
        assert_eq!(mem.label(), "Line #SAM=1");
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn zero_qubits_panics() {
        let _ = MemorySystem::new(&point(1), 0, &[]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// For any realistic qubit count (small memories are dominated by the CR
        /// overhead) the density of LSQCA without a hybrid region is strictly
        /// higher than the conventional baseline's 50%, and at most 100%.
        #[test]
        fn lsqca_density_beats_the_baseline(
            n in 64u32..2000,
            line_sam in proptest::bool::ANY,
            banks in 1u32..3,
        ) {
            let floorplan = if line_sam {
                FloorplanKind::LineSam { banks }
            } else {
                FloorplanKind::PointSam { banks }
            };
            let config = ArchConfig::new(floorplan, 1);
            let mem = MemorySystem::new(&config, n, &[]);
            let density = mem.memory_density();
            prop_assert!(density > 0.5, "density {density} should beat 50%");
            prop_assert!(density <= 1.0);
            // Every qubit is resident and assigned to exactly one bank.
            for q in 0..n {
                prop_assert!(mem.is_resident(QubitTag(q)));
                prop_assert!(mem.bank_of(QubitTag(q)).unwrap() < mem.bank_count());
            }
        }

        /// The dense residence table is observationally identical to the
        /// seed's `HashMap<QubitTag, Residence>` semantics through random
        /// load/store/seek sequences, including out-of-range and hot tags.
        #[test]
        fn dense_residence_matches_hashmap_semantics(
            n in 8u32..200,
            hot in proptest::collection::vec(0u32..200, 0..8),
            ops in proptest::collection::vec((0u32..250, 0u32..3), 1..80),
            line_sam in proptest::bool::ANY,
        ) {
            let floorplan = if line_sam {
                FloorplanKind::LineSam { banks: 2 }
            } else {
                FloorplanKind::PointSam { banks: 2 }
            };
            let config = ArchConfig::new(floorplan, 1).with_hybrid_fraction(0.2);
            let hot: Vec<QubitTag> = hot.into_iter().map(QubitTag).collect();
            let mut mem = MemorySystem::new(&config, n, &hot);

            // Shadow map with the legacy semantics: insert exactly what the
            // constructor assigned, keyed by tag.
            let mirror: std::collections::HashMap<QubitTag, Residence> = (0..n)
                .map(QubitTag)
                .filter_map(|q| mem.residence(q).map(|r| (q, r)))
                .collect();
            prop_assert_eq!(mirror.len(), n as usize, "every tag has a residence");

            for (tag, op) in ops {
                let q = QubitTag(tag);
                // Residence answers must match the map at every point,
                // including tags that were never assigned (tag >= n).
                prop_assert_eq!(mem.residence(q), mirror.get(&q).copied());
                prop_assert_eq!(mem.bank_of(q), match mirror.get(&q) {
                    Some(Residence::SamBank(i)) => Some(*i),
                    _ => None,
                });
                match op {
                    0 => {
                        if mem.is_resident(q) && mem.load(q).is_ok() {
                            let _ = mem.store(q);
                        }
                    }
                    1 => { let _ = mem.in_memory_seek(q); }
                    _ => { let _ = mem.in_memory_two_qubit_access(q); }
                }
                // Non-migrating accesses never change where a qubit *belongs*.
                prop_assert_eq!(mem.residence(q), mirror.get(&q).copied());
            }
        }

        /// Random migration traces interleaved with load/store/seek traffic
        /// keep the system consistent: the conventional-region size is
        /// conserved, residences and bank membership agree, the memory-level
        /// checkout audit matches the per-bank ledgers, and rejected
        /// operations (including every typed cross-bank/shape error) never
        /// corrupt any count.
        #[test]
        fn random_migration_traces_preserve_consistency(
            n in 12u32..120,
            hot_count in 1u32..6,
            ops in proptest::collection::vec(
                (0u32..130, 0u32..130, 0u32..4), 1..120
            ),
            flavour in 0u32..3,
        ) {
            let floorplan = match flavour {
                0 => FloorplanKind::PointSam { banks: 2 },
                1 => FloorplanKind::DualPointSam { banks: 1 },
                _ => FloorplanKind::LineSam { banks: 2 },
            };
            let hot: Vec<QubitTag> = (0..hot_count.min(n / 2)).map(QubitTag).collect();
            let config = ArchConfig::new(floorplan, 1).with_hybrid_fraction(0.2);
            let mut mem = MemorySystem::new(&config, n, &hot);
            let conventional = mem.conventional_qubits();
            let total_cells = mem.total_cells();
            let mut out: std::collections::HashSet<QubitTag> =
                std::collections::HashSet::new();

            for (a, b, op) in ops {
                let (qa, qb) = (QubitTag(a), QubitTag(b));
                match op {
                    0 => {
                        // Conventional loads are free no-ops; only bank loads
                        // check the qubit out.
                        if mem.load(qa).is_ok() && mem.is_checked_out(qa) {
                            prop_assert!(a < n);
                            out.insert(qa);
                        }
                    }
                    1 => {
                        if mem.store(qa).is_ok() && out.contains(&qa) {
                            out.remove(&qa);
                        }
                    }
                    2 => {
                        let before_a = mem.residence(qa);
                        let before_b = mem.residence(qb);
                        match mem.migrate(qa, qb) {
                            Ok(_) => {
                                // Legal swaps flip exactly the two residences.
                                prop_assert!(matches!(before_a, Some(Residence::SamBank(_))));
                                prop_assert_eq!(before_b, Some(Residence::Conventional));
                                prop_assert_eq!(
                                    mem.residence(qa),
                                    Some(Residence::Conventional)
                                );
                                prop_assert_eq!(mem.residence(qb), before_a);
                                prop_assert!(!out.contains(&qa));
                            }
                            Err(_) => {
                                // Rejections leave both residences untouched.
                                prop_assert_eq!(mem.residence(qa), before_a);
                                prop_assert_eq!(mem.residence(qb), before_b);
                            }
                        }
                    }
                    _ => { let _ = mem.in_memory_seek(qa); }
                }
                // Global invariants after every operation.
                prop_assert_eq!(mem.conventional_qubits(), conventional);
                prop_assert_eq!(mem.total_cells(), total_cells);
                prop_assert_eq!(mem.checked_out_count(), out.len());
                for &q in &out {
                    prop_assert!(mem.is_checked_out(q));
                    // The audit record names the bank whose ledger has it.
                    let bank = mem.checked_out_of(q).unwrap() as usize;
                    prop_assert_eq!(mem.bank_of(q), Some(bank));
                }
                for q in (0..n).map(QubitTag) {
                    match mem.residence(q).unwrap() {
                        Residence::Conventional => {
                            prop_assert!(!out.contains(&q));
                        }
                        Residence::SamBank(i) => {
                            prop_assert!(i < mem.bank_count());
                            prop_assert_eq!(
                                mem.is_resident(q),
                                !out.contains(&q)
                            );
                        }
                    }
                }
            }
        }
    }
}
