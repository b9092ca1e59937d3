//! Hot-path micro measurements and the `BENCH_hotpath.json` baseline.
//!
//! The simulator's per-instruction loop used to heap-allocate a `Vec` for
//! every operand-list query, hash every memory-residence lookup, scan every
//! grid cell to find the vacancy nearest the bank port, mutate the grid's
//! three tables twice per relocation (remove → nearest_vacant → place instead
//! of the fused `relocate_into_nearest_vacancy`), run its vacant-path
//! BFS through a `HashMap` frontier, re-match on the instruction variant
//! for the CPI command count, and dispatch every instruction through a full
//! `Instruction` enum match (the interpreter the trace engine replaced).
//! This module keeps faithful *reference
//! implementations* of those legacy code paths ([`legacy`]) and measures them
//! against the allocation-free / dense-index / vacancy-indexed replacements,
//! so the speedup is tracked in-repo instead of relying on a historical
//! build. `experiments hotpath --json` writes the resulting [`HotpathReport`]
//! as the `BENCH_hotpath.json` baseline.

use crate::Scale;
use lsqca::experiment::{ExperimentConfig, Workload};
use lsqca::isa::{LatencyClass, LatencyTable};
use lsqca::lattice::{CellGrid, Coord, PathScratch};
use lsqca::prelude::*;
use lsqca::workloads::Benchmark;
use lsqca_json::{Json, ToJson};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reference implementations of the pre-optimization hot path, kept verbatim
/// (modulo the return-type rename) so the hot-path report can compare against
/// them.
pub mod legacy {
    use lsqca::arch::Residence;
    use lsqca::isa::{
        Instruction, LatencyClass, LatencyTable, MemAddr, OperandLocation, Program, RegId,
    };
    use lsqca::lattice::{CellGrid, Coord, LatticeError, QubitTag};
    use lsqca::prelude::MemorySystem;
    use lsqca::sim::{Classified, SimError, SimOutcome, Simulator};
    use std::collections::{HashMap, VecDeque};

    /// The pre-trace dispatch loop: the engine's reference interpreter, which
    /// matches on the full `Instruction` enum (and re-derives operands and
    /// flags from it) at every step. The interpreter is retained in the
    /// engine (behind [`Classified`]) as the executable specification the
    /// trace engine is shadow-tested against; this wrapper is the legacy side
    /// of the `trace_dispatch` micro comparison.
    ///
    /// # Errors
    ///
    /// Same contract as `Simulator::execute` on a [`Classified`] program.
    pub fn interpret(
        simulator: &mut Simulator,
        program: &Program,
        classes: &[LatencyClass],
    ) -> Result<SimOutcome, SimError> {
        simulator.execute(&Classified::new(program, classes))
    }

    /// The seed's `Instruction::qubit_operands`: one `Vec` allocation per call.
    pub fn qubit_operands(instr: &Instruction) -> Vec<OperandLocation> {
        use Instruction::*;
        use OperandLocation::{Memory, Register};
        match *instr {
            Ld { mem, reg } => vec![Memory(mem), Register(reg)],
            St { reg, mem } => vec![Register(reg), Memory(mem)],
            PzC { reg } | PpC { reg } | Pm { reg } | HdC { reg } | PhC { reg } => {
                vec![Register(reg)]
            }
            MxC { reg, .. } | MzC { reg, .. } => vec![Register(reg)],
            MxxC { reg1, reg2, .. } | MzzC { reg1, reg2, .. } => {
                vec![Register(reg1), Register(reg2)]
            }
            Sk { .. } => vec![],
            PzM { mem } | PpM { mem } | HdM { mem } | PhM { mem } => vec![Memory(mem)],
            MxM { mem, .. } | MzM { mem, .. } => vec![Memory(mem)],
            MxxM { reg, mem, .. } | MzzM { reg, mem, .. } => vec![Register(reg), Memory(mem)],
            Cx { control, target } => vec![Memory(control), Memory(target)],
        }
    }

    /// The seed's `Instruction::memory_operands`: filters a fresh `Vec`.
    pub fn memory_operands(instr: &Instruction) -> Vec<MemAddr> {
        qubit_operands(instr)
            .into_iter()
            .filter_map(|op| match op {
                OperandLocation::Memory(m) => Some(m),
                OperandLocation::Register(_) => None,
            })
            .collect()
    }

    /// The seed's `Instruction::register_operands`: filters a fresh `Vec`.
    pub fn register_operands(instr: &Instruction) -> Vec<RegId> {
        qubit_operands(instr)
            .into_iter()
            .filter_map(|op| match op {
                OperandLocation::Register(r) => Some(r),
                OperandLocation::Memory(_) => None,
            })
            .collect()
    }

    /// Rebuilds the seed's `HashMap<QubitTag, Residence>` residence table from
    /// a (dense-index) memory system, for lookup-cost comparison.
    pub fn residence_map(memory: &MemorySystem) -> HashMap<QubitTag, Residence> {
        (0..memory.num_qubits())
            .map(QubitTag)
            .filter_map(|q| memory.residence(q).map(|r| (q, r)))
            .collect()
    }

    /// The pre-index `CellGrid::nearest_vacant`: an O(cells) linear scan over
    /// every vacant cell, run on every point-SAM store.
    pub fn nearest_vacant(grid: &CellGrid, target: Coord) -> Option<Coord> {
        grid.vacant_cells()
            .min_by_key(|&c| (c.manhattan_distance(target), c.y, c.x))
    }

    /// The pre-scratch `CellGrid::vacant_path_len`: BFS with a
    /// `HashMap<Coord, u32>` frontier — the last hash map that lived on a
    /// lattice query path.
    ///
    /// # Errors
    ///
    /// Same contract as `CellGrid::vacant_path_len`.
    pub fn vacant_path_len(grid: &CellGrid, from: Coord, to: Coord) -> Result<u32, LatticeError> {
        if from == to {
            return Ok(0);
        }
        let mut dist: HashMap<Coord, u32> = HashMap::new();
        let mut queue = VecDeque::new();
        dist.insert(from, 0);
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            let d = dist[&cur];
            for next in cur.neighbors() {
                if !grid.in_bounds(next) || dist.contains_key(&next) {
                    continue;
                }
                if next == to {
                    return Ok(d + 1);
                }
                if grid.is_vacant(next) {
                    dist.insert(next, d + 1);
                    queue.push_back(next);
                }
            }
        }
        Err(LatticeError::NoVacantPath { from, to })
    }

    /// The pre-bitmask `VacancyIndex`: vacant cells bucketed by Manhattan
    /// distance to the anchor with each ring kept as a **sorted `Vec`** of
    /// cell indices — every arbitrary removal is a binary search plus an
    /// O(ring) element shuffle, where the bitmask rings clear one bit.
    #[derive(Debug, Clone)]
    pub struct SortedRingIndex {
        anchor: Coord,
        width: u32,
        rings: Vec<Vec<u32>>,
        min_ring: usize,
        len: usize,
    }

    impl SortedRingIndex {
        /// Builds the index for a `width × height` grid from the vacant cells.
        pub fn new(
            anchor: Coord,
            width: u32,
            height: u32,
            vacancies: impl Iterator<Item = Coord>,
        ) -> Self {
            let max_distance = (width - 1 + height - 1) as usize;
            let mut index = SortedRingIndex {
                anchor,
                width,
                rings: vec![Vec::new(); max_distance + 1],
                min_ring: max_distance + 1,
                len: 0,
            };
            for coord in vacancies {
                index.insert(coord);
            }
            index
        }

        fn cell_index(&self, coord: Coord) -> u32 {
            coord.y * self.width + coord.x
        }

        /// Number of vacancies currently tracked.
        pub fn len(&self) -> usize {
            self.len
        }

        /// True if no vacancy is tracked.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Records that `coord` became vacant (sorted insert).
        pub fn insert(&mut self, coord: Coord) {
            let d = coord.manhattan_distance(self.anchor) as usize;
            let idx = self.cell_index(coord);
            let ring = &mut self.rings[d];
            if let Err(pos) = ring.binary_search(&idx) {
                ring.insert(pos, idx);
                self.len += 1;
                self.min_ring = self.min_ring.min(d);
            }
        }

        /// Records that `coord` became occupied (binary search + removal).
        pub fn remove(&mut self, coord: Coord) {
            let d = coord.manhattan_distance(self.anchor) as usize;
            let idx = self.cell_index(coord);
            let ring = &mut self.rings[d];
            if let Ok(pos) = ring.binary_search(&idx) {
                ring.remove(pos);
                self.len -= 1;
                while self.min_ring < self.rings.len() && self.rings[self.min_ring].is_empty() {
                    self.min_ring += 1;
                }
            }
        }

        /// The vacant cell nearest the anchor, ties broken row-major.
        pub fn nearest(&self) -> Option<Coord> {
            self.rings
                .get(self.min_ring)?
                .first()
                .map(|&idx| Coord::new(idx % self.width, idx / self.width))
        }
    }

    /// The pre-classification CPI command count: one `is_negligible` latency
    /// match per instruction, as the engine used to do every run.
    pub fn command_count(table: &LatencyTable, program: &Program) -> usize {
        program
            .iter()
            .filter(|instr| !table.is_negligible(instr))
            .count()
    }

    /// The pre-fusion relocation walk of `in_memory_two_qubit_access` (and,
    /// modulo the checkout, of every locality-aware store): three separate
    /// grid mutations — `remove` (position table + cells + vacancy-ring
    /// insert), `nearest_vacant` (index read), `place` (the same three tables
    /// again) — where `relocate_into_nearest_vacancy` now makes one pass.
    pub fn relocate_via_triple_walk(
        grid: &mut CellGrid,
        qubit: QubitTag,
        target: Coord,
    ) -> (Coord, Coord) {
        let from = grid.remove(qubit).expect("qubit is on the grid");
        let dest = grid
            .nearest_vacant(target)
            .expect("the freed cell is vacant");
        grid.place(qubit, dest).expect("destination is vacant");
        (from, dest)
    }
}

/// How much wall time each measurement may spend.
#[derive(Debug, Clone, Copy)]
pub struct MeasureBudget {
    /// Samples per measurement; the median is reported.
    pub samples: usize,
    /// Target duration of one sample.
    pub sample_target: Duration,
    /// Warm-up duration before sampling.
    pub warmup: Duration,
}

impl MeasureBudget {
    /// The budget used for the published `BENCH_hotpath.json` baseline.
    pub fn baseline() -> Self {
        MeasureBudget {
            samples: 7,
            sample_target: Duration::from_millis(20),
            warmup: Duration::from_millis(20),
        }
    }

    /// A near-zero budget for shape-only tests: one call per sample.
    pub fn smoke() -> Self {
        MeasureBudget {
            samples: 1,
            sample_target: Duration::ZERO,
            warmup: Duration::ZERO,
        }
    }
}

/// Median-of-samples wall time per call of `f`, in nanoseconds.
fn measure_ns(budget: MeasureBudget, mut f: impl FnMut()) -> f64 {
    // Warm-up and per-call estimate.
    let warmup = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        if warmup.elapsed() >= budget.warmup {
            break;
        }
    }
    let per_call = warmup.elapsed().as_secs_f64() / calls as f64;
    let calls_per_sample =
        ((budget.sample_target.as_secs_f64() / per_call.max(1e-9)) as u64).max(1);

    let mut samples = Vec::with_capacity(budget.samples);
    for _ in 0..budget.samples.max(1) {
        let start = Instant::now();
        for _ in 0..calls_per_sample {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / calls_per_sample as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// One walk of the engine's per-instruction operand queries over `program`
/// with the current inline implementation, as [`generate`] measures it.
pub fn operand_walk(program: &lsqca::isa::Program) -> usize {
    let mut acc = 0usize;
    for instr in program.iter() {
        acc += instr.memory_operands().len();
        acc += instr.register_operands().len();
    }
    acc
}

/// The same walk through the legacy `Vec`-returning reference implementation.
pub fn operand_walk_legacy(program: &lsqca::isa::Program) -> usize {
    let mut acc = 0usize;
    for instr in program.iter() {
        acc += legacy::memory_operands(instr).len();
        acc += legacy::register_operands(instr).len();
    }
    acc
}

/// One sweep of residence lookups over `tags` through the dense table.
pub fn residence_sweep(memory: &MemorySystem, tags: &[QubitTag]) -> usize {
    tags.iter()
        .filter(|&&q| memory.residence(q).is_some())
        .count()
}

/// The same sweep through a legacy hash-map residence table.
pub fn residence_sweep_legacy(
    map: &std::collections::HashMap<QubitTag, lsqca::arch::Residence>,
    tags: &[QubitTag],
) -> usize {
    tags.iter().filter(|&&q| map.contains_key(&q)).count()
}

/// One CPI command-count pass over a precompiled latency-class vector: the
/// word-parallel count the dense `repr(u8)` vector enables, eight classes per
/// machine word, versus the legacy one-match-per-instruction walk.
pub fn command_count_classes(classes: &[LatencyClass]) -> usize {
    lsqca::isa::latency::command_count(classes)
}

/// One round of port-directed relocations over `tags` through the fused
/// primitive — the access pattern of the CX hot path, where each operand is
/// dragged next to the port in turn.
pub fn relocation_walk(grid: &mut CellGrid, port: Coord, tags: &[QubitTag]) -> u32 {
    let mut acc = 0u32;
    for &q in tags {
        let (from, to) = grid
            .relocate_into_nearest_vacancy(q, port)
            .expect("tags are on the grid");
        acc += from.manhattan_distance(to);
    }
    acc
}

/// The same round through the legacy remove → nearest_vacant → place triple.
pub fn relocation_walk_legacy(grid: &mut CellGrid, port: Coord, tags: &[QubitTag]) -> u32 {
    let mut acc = 0u32;
    for &q in tags {
        let (from, to) = legacy::relocate_via_triple_walk(grid, q, port);
        acc += from.manhattan_distance(to);
    }
    acc
}

/// The working set the relocation walks cycle over: tags spread across the
/// bank grid so the walk mixes already-near and far-from-port qubits, like a
/// CX stream over a rotating working set does once locality kicks in.
pub fn relocation_working_set(grid: &CellGrid) -> Vec<QubitTag> {
    let occupied = grid.occupied_count();
    let step = (occupied / 16).max(1);
    (0..occupied)
        .step_by(step)
        .map(|i| QubitTag(i as u32))
        .filter(|&q| grid.contains(q))
        .collect()
}

/// The working set of the ring-removal micro: a deterministically shuffled
/// list of vacant coordinates on a `size × size` grid with roughly half the
/// cells vacant — the state a vacancy index holds when many qubits are
/// checked out or a bank runs half-full. Shuffled so the removals are
/// *arbitrary* (hitting random positions inside rings), not front-pops.
pub fn ring_removal_working_set(size: u32) -> (Coord, Vec<Coord>) {
    let anchor = Coord::new(0, size / 2);
    let mut coords: Vec<Coord> = (0..size)
        .flat_map(|y| (0..size).map(move |x| Coord::new(x, y)))
        .filter(|c| (c.x + c.y) % 2 == 0)
        .collect();
    // Deterministic LCG shuffle (no RNG dependency, stable across runs).
    let mut state = 0x2545f491u64;
    for i in (1..coords.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        coords.swap(i, j);
    }
    (anchor, coords)
}

/// One round of arbitrary ring removals through the bitmask
/// [`VacancyIndex`](lsqca::lattice::VacancyIndex):
/// every working-set cell is removed and re-inserted, the update pattern
/// `place`/`remove`/`relocate` drive on every simulated store.
pub fn ring_removal_walk(index: &mut lsqca::lattice::VacancyIndex, coords: &[Coord]) -> usize {
    for &c in coords {
        index.remove(c);
        index.insert(c);
    }
    index.len()
}

/// The same round through the legacy sorted-`Vec` rings.
pub fn ring_removal_walk_legacy(index: &mut legacy::SortedRingIndex, coords: &[Coord]) -> usize {
    for &c in coords {
        index.remove(c);
        index.insert(c);
    }
    index.len()
}

/// A point-SAM-shaped occupancy grid at `num_qubits` scale: near-square with
/// the port on the west edge, filled row-major except the scan vacancy at the
/// port and two vacancies that stores have peeled open, with the port
/// registered as the vacancy anchor — the state `nearest_vacant(port)` is
/// queried against on every simulated store.
pub fn bank_grid(num_qubits: u32) -> (CellGrid, Coord) {
    let n = num_qubits as u64;
    let width = ((n + 1) as f64).sqrt().ceil() as u32;
    let height = ((n + 1) as f64 / width as f64).ceil() as u32;
    let mut grid = CellGrid::new(width, height);
    let port = Coord::new(0, height / 2);
    let mid = Coord::new(width / 2, height / 2);
    let far = Coord::new(width - 1, height - 1);
    let mut tag = 0u32;
    for y in 0..height {
        for x in 0..width {
            let c = Coord::new(x, y);
            if c == port || c == mid || c == far {
                continue;
            }
            grid.place(QubitTag(tag), c).expect("cells are distinct");
            tag += 1;
        }
    }
    grid.register_anchor(port).expect("the port is in bounds");
    (grid, port)
}

/// One legacy-vs-optimized comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What was measured.
    pub name: String,
    /// Nanoseconds per operation for the legacy reference implementation.
    pub legacy_ns: f64,
    /// Nanoseconds per operation for the current implementation.
    pub optimized_ns: f64,
}

impl Comparison {
    /// Legacy over optimized time (>1 means the optimization wins).
    pub fn speedup(&self) -> f64 {
        self.legacy_ns / self.optimized_ns.max(1e-9)
    }
}

impl ToJson for Comparison {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("legacy_ns_per_op", self.legacy_ns.to_json()),
            ("optimized_ns_per_op", self.optimized_ns.to_json()),
            ("speedup", self.speedup().to_json()),
        ])
    }
}

/// Absolute throughput of the end-to-end simulator on one floorplan.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Floorplan label.
    pub floorplan: String,
    /// Instructions in the simulated program.
    pub instructions: u64,
    /// Nanoseconds per simulated instruction.
    pub ns_per_instruction: f64,
}

impl ToJson for EndToEnd {
    fn to_json(&self) -> Json {
        Json::obj([
            ("floorplan", self.floorplan.to_json()),
            ("instructions", self.instructions.to_json()),
            ("ns_per_instruction", self.ns_per_instruction.to_json()),
            (
                "instructions_per_second",
                (1e9 / self.ns_per_instruction.max(1e-9)).to_json(),
            ),
        ])
    }
}

/// The `BENCH_hotpath.json` baseline: legacy-vs-optimized comparisons plus
/// absolute end-to-end simulator throughput for trajectory tracking.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Scale of the measured workload.
    pub scale: Scale,
    /// Legacy-vs-optimized micro comparisons.
    pub comparisons: Vec<Comparison>,
    /// Absolute end-to-end throughput per floorplan.
    pub end_to_end: Vec<EndToEnd>,
    /// Same-machine calibration: nanoseconds per run of a fixed reference
    /// workload (the frozen legacy HashMap BFS on an open 48×48 grid) that
    /// never changes across PRs. The CI regression gate compares
    /// `ns_per_instruction / calibration_ns_per_op` *ratios* between the
    /// committed baseline and a fresh run, so a slower or noisier machine
    /// shifts both sides equally instead of tripping the gate.
    pub calibration_ns_per_op: f64,
}

impl ToJson for HotpathReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", "lsqca-bench-hotpath-v1".to_json()),
            ("scale", self.scale.name().to_json()),
            (
                "calibration_ns_per_op",
                self.calibration_ns_per_op.to_json(),
            ),
            ("comparisons", self.comparisons.to_json()),
            ("end_to_end", self.end_to_end.to_json()),
        ])
    }
}

/// The workload the hot-path measurements run on: the mid-sized multiplier of
/// `micro_simulator` (Quick) or the paper-sized instance (Full), compiled or
/// cache-loaded through the shared workload cache.
pub fn workload(scale: Scale) -> Workload {
    crate::cached_workload(Benchmark::Multiplier, scale)
}

/// Runs every hot-path measurement with the baseline budget.
pub fn generate(scale: Scale) -> HotpathReport {
    generate_with(scale, MeasureBudget::baseline())
}

/// Runs every hot-path measurement under an explicit time budget.
pub fn generate_with(scale: Scale, budget: MeasureBudget) -> HotpathReport {
    let workload = workload(scale);
    let program = workload.compiled().program();
    let instructions = program.len() as u64;

    let mut comparisons = Vec::new();

    // Operand extraction: the engine queries memory and register operands for
    // every instruction; measure one full program walk per call.
    let legacy_ns = measure_ns(budget, || {
        black_box(operand_walk_legacy(program));
    }) / instructions as f64;
    let optimized_ns = measure_ns(budget, || {
        black_box(operand_walk(program));
    }) / instructions as f64;
    comparisons.push(Comparison {
        name: "operand_extraction".to_string(),
        legacy_ns,
        optimized_ns,
    });

    // Residence lookup: dense table vs the seed's hash map, one sweep over
    // every qubit per call.
    let arch = ArchConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
    let memory = MemorySystem::new(&arch, workload.num_qubits().max(1), &[]);
    let map = legacy::residence_map(&memory);
    let tags: Vec<QubitTag> = (0..memory.num_qubits()).map(QubitTag).collect();
    let legacy_ns = measure_ns(budget, || {
        black_box(residence_sweep_legacy(&map, &tags));
    }) / tags.len() as f64;
    let optimized_ns = measure_ns(budget, || {
        black_box(residence_sweep(&memory, &tags));
    }) / tags.len() as f64;
    comparisons.push(Comparison {
        name: "residence_lookup".to_string(),
        legacy_ns,
        optimized_ns,
    });

    // Nearest-vacant query: the anchor-registered `VacancyIndex` vs the
    // legacy O(cells) linear scan, per query on a bank-shaped grid.
    let (grid, port) = bank_grid(workload.num_qubits().max(64));
    let legacy_ns = measure_ns(budget, || {
        black_box(legacy::nearest_vacant(black_box(&grid), port));
    });
    let optimized_ns = measure_ns(budget, || {
        black_box(black_box(&grid).nearest_vacant(port));
    });
    comparisons.push(Comparison {
        name: "nearest_vacant".to_string(),
        legacy_ns,
        optimized_ns,
    });

    // Fused relocation: `relocate_into_nearest_vacancy` vs the legacy
    // remove → nearest_vacant → place triple walk, cycling port-directed
    // relocations over a working set the way the CX hot path does. Both
    // sides run on their own grid and converge to the same steady state.
    let working = relocation_working_set(&grid);
    let mut legacy_grid = grid.clone();
    let legacy_ns = measure_ns(budget, || {
        black_box(relocation_walk_legacy(
            &mut legacy_grid,
            port,
            black_box(&working),
        ));
    }) / working.len() as f64;
    let mut fused_grid = grid.clone();
    let optimized_ns = measure_ns(budget, || {
        black_box(relocation_walk(&mut fused_grid, port, black_box(&working)));
    }) / working.len() as f64;
    comparisons.push(Comparison {
        name: "relocate".to_string(),
        legacy_ns,
        optimized_ns,
    });

    // Arbitrary ring removal: the bitmask rings (one bit clear/set per
    // update) vs the legacy sorted-`Vec` rings (binary search + element
    // shuffle), over a shuffled half-vacant working set — the update pattern
    // behind every place/remove/relocate once qubits are checked out.
    let ring_size = 64u32.max((workload.num_qubits() as f64).sqrt() as u32 * 2);
    let (ring_anchor, ring_coords) = ring_removal_working_set(ring_size);
    let mut legacy_rings = legacy::SortedRingIndex::new(
        ring_anchor,
        ring_size,
        ring_size,
        ring_coords.iter().copied(),
    );
    let legacy_ns = measure_ns(budget, || {
        black_box(ring_removal_walk_legacy(
            &mut legacy_rings,
            black_box(&ring_coords),
        ));
    }) / ring_coords.len() as f64;
    let mut bitmask_rings = lsqca::lattice::VacancyIndex::new(
        ring_anchor,
        ring_size,
        ring_size,
        ring_coords.iter().copied(),
    );
    let optimized_ns = measure_ns(budget, || {
        black_box(ring_removal_walk(
            &mut bitmask_rings,
            black_box(&ring_coords),
        ));
    }) / ring_coords.len() as f64;
    comparisons.push(Comparison {
        name: "ring_removal".to_string(),
        legacy_ns,
        optimized_ns,
    });

    // Vacant-path BFS: the reusable dense `PathScratch` distance grid vs the
    // legacy `HashMap` frontier, per corner-to-corner query on an open region
    // of the same dimensions (the worst case: the frontier visits every cell).
    let route = CellGrid::new(grid.width(), grid.height());
    let from = Coord::new(0, route.height() / 2);
    let to = Coord::new(route.width() - 1, route.height() - 1);
    let legacy_ns = measure_ns(budget, || {
        black_box(legacy::vacant_path_len(black_box(&route), from, to).expect("open region"));
    });
    let mut scratch = PathScratch::new();
    let optimized_ns = measure_ns(budget, || {
        black_box(
            black_box(&route)
                .vacant_path_len_in(from, to, &mut scratch)
                .expect("open region"),
        );
    });
    comparisons.push(Comparison {
        name: "vacant_path".to_string(),
        legacy_ns,
        optimized_ns,
    });

    // Latency classification: the precompiled per-program class vector vs the
    // legacy per-instruction `is_negligible` match, per instruction.
    let table = LatencyTable::paper();
    let classes = table.classify_program(program);
    let legacy_ns = measure_ns(budget, || {
        black_box(legacy::command_count(&table, black_box(program)));
    }) / instructions as f64;
    let optimized_ns = measure_ns(budget, || {
        black_box(command_count_classes(black_box(&classes)));
    }) / instructions as f64;
    comparisons.push(Comparison {
        name: "latency_class".to_string(),
        legacy_ns,
        optimized_ns,
    });

    // Trace lowering: a fresh `ExecutionTrace` (seven new column vectors) per
    // lowering vs the engine's reused scratch (`lower_into` keeps the
    // capacity of the previous program), per instruction — the cost
    // `Simulator::run` pays on a cache miss vs on every subsequent call.
    let legacy_ns = measure_ns(budget, || {
        black_box(lsqca::isa::lower(black_box(program)));
    }) / instructions as f64;
    let mut lowering_scratch = lsqca::isa::ExecutionTrace::new();
    let optimized_ns = measure_ns(budget, || {
        lsqca::isa::lower_into(black_box(program), &mut lowering_scratch);
        black_box(&lowering_scratch);
    }) / instructions as f64;
    comparisons.push(Comparison {
        name: "trace_lowering".to_string(),
        legacy_ns,
        optimized_ns,
    });

    // Trace dispatch: the legacy per-instruction interpreter (an enum match
    // plus operand re-derivation per step) vs the branchless walk over the
    // pre-lowered SoA trace, end-to-end on the point SAM. This is the
    // tentpole comparison: everything around the dispatch — memory system,
    // latencies, stats — is identical, so the delta is dispatch cost alone.
    let dispatch_arch = ArchConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
    let sim_config = lsqca::sim::SimConfig::default();
    let qubits = workload.num_qubits().max(1);
    let trace = lsqca::isa::lower(program);
    let mut interpreter = lsqca::sim::Simulator::builder(&dispatch_arch, qubits)
        .config(sim_config)
        .build()
        .expect("valid bench configuration");
    let legacy_ns = measure_ns(budget, || {
        black_box(legacy::interpret(
            &mut interpreter,
            black_box(program),
            &classes,
        ))
        .ok();
    }) / instructions as f64;
    let mut engine = lsqca::sim::Simulator::builder(&dispatch_arch, qubits)
        .config(sim_config)
        .build()
        .expect("valid bench configuration");
    let optimized_ns = measure_ns(budget, || {
        black_box(engine.execute(black_box(&trace))).ok();
    }) / instructions as f64;
    comparisons.push(Comparison {
        name: "trace_dispatch".to_string(),
        legacy_ns,
        optimized_ns,
    });

    // Same-machine calibration for the ratio-based CI gate: the frozen
    // legacy BFS on a fixed open grid, untouched by any optimization work,
    // so its wall time tracks only the machine's speed.
    let cal_grid = CellGrid::new(48, 48);
    let cal_from = Coord::new(0, 0);
    let cal_to = Coord::new(47, 47);
    let calibration_ns_per_op = measure_ns(budget, || {
        black_box(
            legacy::vacant_path_len(black_box(&cal_grid), cal_from, cal_to).expect("open region"),
        );
    });

    // End-to-end simulator throughput per floorplan (absolute numbers; the
    // trajectory across PRs is what matters here).
    let end_to_end = [
        FloorplanKind::PointSam { banks: 1 },
        FloorplanKind::LineSam { banks: 1 },
        FloorplanKind::Conventional,
    ]
    .iter()
    .map(|&floorplan| {
        let config = ExperimentConfig::new(floorplan, 1);
        let ns = measure_ns(budget, || {
            black_box(workload.run(&config));
        });
        EndToEnd {
            floorplan: floorplan.label(),
            instructions,
            ns_per_instruction: ns / instructions as f64,
        }
    })
    .collect();

    HotpathReport {
        scale,
        comparisons,
        end_to_end,
        calibration_ns_per_op,
    }
}

/// Renders the report as a text table.
pub fn render(scale: Scale) -> String {
    let report = generate(scale);
    let mut rows: Vec<Vec<String>> = report
        .comparisons
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                format!("{:.2}", c.legacy_ns),
                format!("{:.2}", c.optimized_ns),
                format!("{:.2}x", c.speedup()),
            ]
        })
        .collect();
    for e in &report.end_to_end {
        rows.push(vec![
            format!("simulate {}", e.floorplan),
            "-".to_string(),
            format!("{:.2}", e.ns_per_instruction),
            "-".to_string(),
        ]);
    }
    crate::render_table(&["measurement", "legacy ns/op", "ns/op", "speedup"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_operand_extraction_matches_the_optimized_one() {
        let workload = workload(Scale::Quick);
        for instr in workload.compiled().program().iter() {
            assert_eq!(
                instr.memory_operands().as_slice(),
                legacy::memory_operands(instr).as_slice()
            );
            assert_eq!(
                instr.register_operands().as_slice(),
                legacy::register_operands(instr).as_slice()
            );
            assert_eq!(
                instr.qubit_operands().as_slice(),
                legacy::qubit_operands(instr).as_slice()
            );
        }
    }

    #[test]
    fn residence_map_mirrors_the_dense_table() {
        let arch = ArchConfig::new(FloorplanKind::LineSam { banks: 2 }, 1);
        let memory = MemorySystem::new(&arch, 50, &[]);
        let map = legacy::residence_map(&memory);
        assert_eq!(map.len(), 50);
        for q in 0..50 {
            assert_eq!(
                map.get(&QubitTag(q)).copied(),
                memory.residence(QubitTag(q))
            );
        }
    }

    #[test]
    fn report_has_the_expected_shape() {
        // Shape-only with a near-zero time budget: timing assertions live in
        // `scripts/bench.sh`, not unit tests.
        let report = generate_with(Scale::Quick, MeasureBudget::smoke());
        assert_eq!(report.comparisons.len(), 9);
        assert_eq!(report.end_to_end.len(), 3);
        assert!(report.calibration_ns_per_op > 0.0);
        let json = report.to_json().pretty();
        assert!(json.contains("lsqca-bench-hotpath-v1"));
        assert!(json.contains("calibration_ns_per_op"));
        for name in [
            "operand_extraction",
            "residence_lookup",
            "nearest_vacant",
            "relocate",
            "ring_removal",
            "vacant_path",
            "latency_class",
            "trace_lowering",
            "trace_dispatch",
        ] {
            assert!(json.contains(name), "missing comparison `{name}`");
        }
        for c in &report.comparisons {
            assert!(c.legacy_ns > 0.0 && c.optimized_ns > 0.0);
        }
    }

    #[test]
    fn legacy_sorted_rings_match_the_bitmask_rings() {
        let (anchor, coords) = ring_removal_working_set(24);
        assert!(coords.len() > 200);
        let mut legacy = legacy::SortedRingIndex::new(anchor, 24, 24, coords.iter().copied());
        let mut bitmask = lsqca::lattice::VacancyIndex::new(anchor, 24, 24, coords.iter().copied());
        assert_eq!(legacy.len(), bitmask.len());
        assert_eq!(legacy.nearest(), bitmask.nearest());
        // Arbitrary removals and reinserts stay in lock-step.
        for (i, &c) in coords.iter().enumerate() {
            legacy.remove(c);
            bitmask.remove(c);
            if i % 3 == 0 {
                legacy.insert(c);
                bitmask.insert(c);
            }
            assert_eq!(legacy.len(), bitmask.len());
            assert_eq!(legacy.nearest(), bitmask.nearest());
        }
        assert_eq!(legacy.is_empty(), bitmask.is_empty());
        // The walk used by the micro leaves both at the same state.
        let (anchor, coords) = ring_removal_working_set(16);
        let mut legacy = legacy::SortedRingIndex::new(anchor, 16, 16, coords.iter().copied());
        let mut bitmask = lsqca::lattice::VacancyIndex::new(anchor, 16, 16, coords.iter().copied());
        assert_eq!(
            ring_removal_walk_legacy(&mut legacy, &coords),
            ring_removal_walk(&mut bitmask, &coords)
        );
        assert_eq!(legacy.nearest(), bitmask.nearest());
    }

    #[test]
    fn legacy_nearest_vacant_matches_the_indexed_query() {
        let (mut grid, port) = bank_grid(150);
        assert_eq!(
            grid.nearest_vacant(port),
            legacy::nearest_vacant(&grid, port)
        );
        // Stays in agreement as the occupancy pattern shifts.
        let dest = grid.nearest_vacant(port).unwrap();
        grid.place(QubitTag(9999), dest).unwrap();
        assert_eq!(
            grid.nearest_vacant(port),
            legacy::nearest_vacant(&grid, port)
        );
        grid.remove(QubitTag(0)).unwrap();
        assert_eq!(
            grid.nearest_vacant(port),
            legacy::nearest_vacant(&grid, port)
        );
    }

    #[test]
    fn legacy_bfs_matches_the_dense_scratch() {
        let (grid, port) = bank_grid(80);
        let mut scratch = PathScratch::new();
        let far = Coord::new(grid.width() - 1, grid.height() - 1);
        assert_eq!(
            grid.vacant_path_len_in(port, far, &mut scratch).ok(),
            legacy::vacant_path_len(&grid, port, far).ok()
        );
        let open = CellGrid::new(7, 5);
        for (from, to) in [
            (Coord::new(0, 0), Coord::new(6, 4)),
            (Coord::new(3, 2), Coord::new(3, 2)),
        ] {
            assert_eq!(
                open.vacant_path_len_in(from, to, &mut scratch).unwrap(),
                legacy::vacant_path_len(&open, from, to).unwrap()
            );
        }
    }

    #[test]
    fn legacy_relocation_walk_matches_the_fused_walk() {
        let (grid, port) = bank_grid(150);
        let working = relocation_working_set(&grid);
        assert!(!working.is_empty());
        let mut fused = grid.clone();
        let mut triple = grid.clone();
        // Step-by-step agreement through several rounds, including the
        // steady state where qubits oscillate near the port.
        for _ in 0..4 {
            for &q in &working {
                let a = fused.relocate_into_nearest_vacancy(q, port).unwrap();
                let b = legacy::relocate_via_triple_walk(&mut triple, q, port);
                assert_eq!(a, b);
            }
            assert_eq!(fused, triple);
            assert_eq!(fused.nearest_vacant(port), triple.nearest_vacant(port));
        }
    }

    #[test]
    fn legacy_interpreter_matches_the_trace_engine_on_the_bench_workload() {
        // The micro comparison's two sides must compute the same thing: the
        // interpreter and the trace walk agree on the full outcome for the
        // exact workload and floorplan `trace_dispatch` measures. (The broad
        // equivalence over random programs lives in the sim crate's shadow
        // proptests; this pins the measured configuration.)
        let workload = workload(Scale::Quick);
        let program = workload.compiled().program();
        let classes = LatencyTable::paper().classify_program(program);
        let trace = lsqca::isa::lower(program);
        let arch = ArchConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
        let config = lsqca::sim::SimConfig::default();
        let qubits = workload.num_qubits().max(1);
        let build = || {
            lsqca::sim::Simulator::builder(&arch, qubits)
                .config(config)
                .build()
                .expect("valid bench configuration")
        };
        let mut interpreter = build();
        let mut engine = build();
        let expected = legacy::interpret(&mut interpreter, program, &classes);
        let actual = engine.execute(&trace);
        assert_eq!(expected, actual);
        // And again on the dirty simulators, as the measurement loop does.
        let expected = legacy::interpret(&mut interpreter, program, &classes);
        assert_eq!(expected, engine.execute(&trace));
    }

    #[test]
    fn legacy_command_count_matches_the_class_vector() {
        let workload = workload(Scale::Quick);
        let program = workload.compiled().program();
        let table = LatencyTable::paper();
        let classes = table.classify_program(program);
        assert_eq!(classes.len(), program.len());
        assert_eq!(
            command_count_classes(&classes),
            legacy::command_count(&table, program)
        );
    }
}
