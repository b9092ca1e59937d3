//! SELECT circuits for 2-D Heisenberg models.
//!
//! The SELECT operation applies the `i`-th Pauli term of a Hamiltonian to the
//! system register, controlled on the index register being `|i⟩`
//! (`U_S Σ_i |i⟩|ψ_i⟩ = Σ_i |i⟩ P_i|ψ_i⟩`, Sec. II-D). It dominates the runtime
//! of qubitization-based material simulation, which is why the paper studies its
//! memory access pattern in detail (Figs. 8, 13–15).
//!
//! This module synthesizes SELECT for the nearest-neighbour 2-D Heisenberg model
//! on an `L×L` square lattice (`XX`, `YY`, `ZZ` couplings on every edge), using
//! the unary-iteration construction of Fig. 5:
//!
//! * the **control register** holds the binary term index,
//! * the **temporal register** holds the AND-ladder of Toffolis that recognizes
//!   the current index (Fig. 5b),
//! * the **system register** holds one qubit per lattice site.
//!
//! Consecutive term indices share the high bits of their binary representation,
//! so only the bottom few ladder stages are uncomputed and recomputed between
//! terms — the duplication-removal optimization of Fig. 5c. This is what creates
//! the strong sequential locality the paper observes: control and temporal qubits
//! are touched every term, while each system qubit is touched only when one of
//! its incident edges comes up in raster order.
//!
//! Register widths match the paper's instances exactly: `control = temporal =
//! ⌈log₂(6·L·(L−1))⌉ + 1` and `system = L²`, giving 143 qubits for `L = 11` and
//! 467 / 1,711 / 3,753 / 6,595 / 10,235 for `L = 21 / 41 / 61 / 81 / 101`
//! (Fig. 15).

use lsqca_circuit::register::RegisterRole;
use lsqca_circuit::{Circuit, Qubit};

/// A single-qubit Pauli operator: the coupling a Hamiltonian term applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pauli {
    /// The identity operator.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

/// Emission-logic revision of this generator, part of the workload key (see
/// `lsqca_workloads::workload_key`) that result-store records and cached
/// artifacts are keyed on. Bump it whenever the circuit emitted for an
/// *unchanged* configuration changes, so stale records and artifacts are
/// never found again; a config-field change already changes the key by itself.
pub const REVISION: u32 = 1;

/// A nearest-neighbour 2-D Heisenberg model on an `L×L` square lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeisenbergModel {
    /// Side length `L` of the square spin lattice.
    pub width: u32,
}

impl HeisenbergModel {
    /// Creates a model on an `L×L` lattice.
    ///
    /// # Panics
    ///
    /// Panics if `width < 2` (a single site has no couplings).
    pub fn new(width: u32) -> Self {
        assert!(width >= 2, "heisenberg lattice needs width >= 2");
        HeisenbergModel { width }
    }

    /// Number of lattice sites (`L²`).
    pub fn num_sites(&self) -> u32 {
        self.width * self.width
    }

    /// Nearest-neighbour edges in raster order: for each site, its east
    /// neighbour then its south neighbour.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let l = self.width;
        let site = |x: u32, y: u32| y * l + x;
        let mut edges = Vec::new();
        for y in 0..l {
            for x in 0..l {
                if x + 1 < l {
                    edges.push((site(x, y), site(x + 1, y)));
                }
                if y + 1 < l {
                    edges.push((site(x, y), site(x, y + 1)));
                }
            }
        }
        edges
    }

    /// Number of Hamiltonian terms: three couplings (`XX`, `YY`, `ZZ`) per edge.
    pub fn num_terms(&self) -> u64 {
        3 * self.edges().len() as u64
    }

    /// The Hamiltonian terms in iteration order: `(pauli, site_a, site_b)`.
    pub fn terms(&self) -> Vec<(Pauli, u32, u32)> {
        let mut terms = Vec::new();
        for (a, b) in self.edges() {
            for pauli in [Pauli::X, Pauli::Y, Pauli::Z] {
                terms.push((pauli, a, b));
            }
        }
        terms
    }
}

/// Parameters of the SELECT benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectConfig {
    /// The target Heisenberg model.
    pub model: HeisenbergModel,
    /// Optional cap on the number of Hamiltonian terms iterated; `None` iterates
    /// the full Hamiltonian. Smaller values give shorter circuits with the same
    /// register widths and access structure, for tests and quick benchmarks.
    pub max_terms: Option<u64>,
}

impl SelectConfig {
    /// SELECT for an `L×L` Heisenberg model with the full term list.
    pub fn for_width(width: u32) -> Self {
        SelectConfig {
            model: HeisenbergModel::new(width),
            max_terms: None,
        }
    }

    /// The 10×10 instance used in the motivation study (Fig. 8).
    pub fn paper_motivation() -> Self {
        SelectConfig::for_width(10)
    }

    /// The 11×11 instance (143 logical qubits) used in Fig. 13/14.
    pub fn paper_benchmark() -> Self {
        SelectConfig::for_width(11)
    }

    /// Width of the control register in bits: `⌈log₂(#terms)⌉ + 1`.
    pub fn control_bits(&self) -> u32 {
        let terms = self.model.num_terms().max(2);
        let bits = 64 - (terms - 1).leading_zeros();
        bits + 1
    }

    /// Width of the temporal register (equal to the control register).
    pub fn temporal_bits(&self) -> u32 {
        self.control_bits()
    }

    /// Total logical qubits: control + temporal + system.
    pub fn total_qubits(&self) -> u32 {
        self.control_bits() + self.temporal_bits() + self.model.num_sites()
    }
}

impl Default for SelectConfig {
    fn default() -> Self {
        SelectConfig::paper_benchmark()
    }
}

/// Internal helper tracking the AND-ladder state during unary iteration.
struct Ladder {
    control: Vec<Qubit>,
    temporal: Vec<Qubit>,
    /// Bits (MSB-first order per stage) of the currently computed index, one
    /// entry per computed stage.
    computed: Vec<u64>,
    bits: u32,
}

impl Ladder {
    fn stage_count(&self) -> usize {
        self.bits as usize - 1
    }

    /// Control-register qubit used by stage `s` (plus the extra MSB for stage 0).
    fn stage_bit_position(&self, stage: usize) -> u32 {
        self.bits - 2 - stage as u32
    }

    fn flag(&self) -> Qubit {
        self.temporal[self.stage_count() - 1]
    }

    /// Emits an X-wrapped Toffoli computing (or uncomputing) stage `stage` for
    /// term index `index`.
    fn emit_stage(&self, circuit: &mut Circuit, stage: usize, index: u64) {
        let bit = |pos: u32| (index >> pos) & 1 == 1;
        let pos = self.stage_bit_position(stage);
        let ctrl_qubit = self.control[pos as usize];
        if stage == 0 {
            let msb_pos = self.bits - 1;
            let msb_qubit = self.control[msb_pos as usize];
            if !bit(msb_pos) {
                circuit.x(msb_qubit);
            }
            if !bit(pos) {
                circuit.x(ctrl_qubit);
            }
            circuit.toffoli(msb_qubit, ctrl_qubit, self.temporal[0]);
            if !bit(pos) {
                circuit.x(ctrl_qubit);
            }
            if !bit(msb_pos) {
                circuit.x(msb_qubit);
            }
        } else {
            if !bit(pos) {
                circuit.x(ctrl_qubit);
            }
            circuit.toffoli(self.temporal[stage - 1], ctrl_qubit, self.temporal[stage]);
            if !bit(pos) {
                circuit.x(ctrl_qubit);
            }
        }
    }

    /// Brings the ladder from its current state to fully recognizing `index`,
    /// uncomputing only the stages whose control bits changed (duplication
    /// removal, Fig. 5c).
    fn advance_to(&mut self, circuit: &mut Circuit, index: u64) {
        // Find the deepest stage that can be kept: all its bits must agree with
        // the previously computed index.
        let mut keep = 0usize;
        while keep < self.computed.len() {
            let prev = self.computed[keep];
            let pos = self.stage_bit_position(keep);
            let same_low = (prev >> pos) & 1 == (index >> pos) & 1;
            let same_high = if keep == 0 {
                let msb = self.bits - 1;
                (prev >> msb) & 1 == (index >> msb) & 1
            } else {
                true
            };
            if same_low && same_high {
                keep += 1;
            } else {
                break;
            }
        }
        // Uncompute invalidated stages from the top of the ladder down.
        while self.computed.len() > keep {
            let stage = self.computed.len() - 1;
            let prev = self.computed[stage];
            self.emit_stage(circuit, stage, prev);
            self.computed.pop();
        }
        // Recompute the remaining stages for the new index.
        while self.computed.len() < self.stage_count() {
            let stage = self.computed.len();
            self.emit_stage(circuit, stage, index);
            self.computed.push(index);
        }
    }

    /// Uncomputes every remaining stage (end of the iteration).
    fn tear_down(&mut self, circuit: &mut Circuit) {
        while let Some(prev) = self.computed.last().copied() {
            let stage = self.computed.len() - 1;
            self.emit_stage(circuit, stage, prev);
            self.computed.pop();
        }
    }
}

/// Applies the flag-controlled two-site Pauli coupling to the system register.
fn apply_controlled_term(circuit: &mut Circuit, flag: Qubit, pauli: Pauli, sites: [Qubit; 2]) {
    for site in sites {
        match pauli {
            Pauli::X => circuit.cnot(flag, site),
            Pauli::Y => {
                circuit.sdg(site);
                circuit.cnot(flag, site);
                circuit.s(site);
            }
            Pauli::Z => circuit.cz(flag, site),
            Pauli::I => {}
        }
    }
}

/// Generates the SELECT circuit for the configured Heisenberg model.
///
/// The circuit prepares the control register in uniform superposition (standing
/// in for the output of PREPARE), then performs the unary iteration over every
/// Hamiltonian term with duplication removal, and finally measures the system
/// register.
pub fn select_heisenberg(config: SelectConfig) -> Circuit {
    let bits = config.control_bits();
    let model = config.model;
    let mut circuit = Circuit::with_registers(format!(
        "select_heisenberg_{l}x{l}_n{n}",
        l = model.width,
        n = config.total_qubits()
    ));
    let control: Vec<Qubit> = circuit
        .add_register("control", RegisterRole::Control, bits)
        .collect();
    let temporal: Vec<Qubit> = circuit
        .add_register("temporal", RegisterRole::Temporal, config.temporal_bits())
        .collect();
    let system: Vec<Qubit> = circuit
        .add_register("system", RegisterRole::System, model.num_sites())
        .collect();

    for q in 0..circuit.num_qubits() {
        circuit.prep_z(q);
    }
    // Control register in superposition over term indices (PREPARE's output).
    for &q in &control {
        circuit.h(q);
    }

    let mut ladder = Ladder {
        control,
        temporal,
        computed: Vec::new(),
        bits,
    };

    let terms = model.terms();
    let limit = config
        .max_terms
        .map(|m| m.min(terms.len() as u64))
        .unwrap_or(terms.len() as u64) as usize;

    for (index, &(pauli, a, b)) in terms.iter().take(limit).enumerate() {
        ladder.advance_to(&mut circuit, index as u64);
        let flag = ladder.flag();
        apply_controlled_term(
            &mut circuit,
            flag,
            pauli,
            [system[a as usize], system[b as usize]],
        );
    }
    ladder.tear_down(&mut circuit);

    for &q in &system {
        circuit.measure_z(q);
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_widths_match_the_paper_instances() {
        // (lattice width, expected total qubits) from Sec. VI-B and Fig. 15.
        let expected = [
            (11u32, 143u32),
            (21, 467),
            (41, 1711),
            (61, 3753),
            (81, 6595),
            (101, 10235),
        ];
        for (width, qubits) in expected {
            let cfg = SelectConfig::for_width(width);
            assert_eq!(
                cfg.total_qubits(),
                qubits,
                "width {width} should need {qubits} qubits"
            );
        }
    }

    #[test]
    fn model_geometry() {
        let model = HeisenbergModel::new(3);
        assert_eq!(model.num_sites(), 9);
        // 2 * 3 * 2 = 12 edges, 36 terms.
        assert_eq!(model.edges().len(), 12);
        assert_eq!(model.num_terms(), 36);
        assert_eq!(model.terms().len(), 36);
        // Every edge joins adjacent sites.
        for (a, b) in model.edges() {
            let (ax, ay) = (a % 3, a / 3);
            let (bx, by) = (b % 3, b / 3);
            assert_eq!(ax.abs_diff(bx) + ay.abs_diff(by), 1);
        }
    }

    #[test]
    fn small_select_builds_and_touches_all_registers() {
        let cfg = SelectConfig::for_width(2);
        let c = select_heisenberg(cfg);
        assert_eq!(c.num_qubits(), cfg.total_qubits());
        let regs = c.registers();
        assert_eq!(regs.by_name("system").unwrap().len(), 4);
        assert_eq!(
            regs.by_name("control").unwrap().len(),
            cfg.control_bits() as usize
        );
        let stats = c.stats();
        assert!(stats.toffoli_count > 0);
        assert!(stats.two_qubit_gates > 0);
    }

    #[test]
    fn duplication_removal_reduces_toffoli_count() {
        // Without duplication removal each of the T terms would need
        // 2*(bits-1) Toffolis; with it the average is much smaller.
        let cfg = SelectConfig::for_width(4);
        let c = select_heisenberg(cfg);
        let toffolis = c.stats().toffoli_count;
        let terms = cfg.model.num_terms();
        let naive = terms * 2 * (cfg.control_bits() as u64 - 1);
        assert!(
            toffolis < naive / 2,
            "expected < {} Toffolis, got {toffolis}",
            naive / 2
        );
    }

    #[test]
    fn max_terms_caps_the_iteration() {
        let full = select_heisenberg(SelectConfig::for_width(3));
        let capped = select_heisenberg(SelectConfig {
            model: HeisenbergModel::new(3),
            max_terms: Some(5),
        });
        assert!(capped.len() < full.len());
        assert_eq!(capped.num_qubits(), full.num_qubits());
    }

    #[test]
    fn ladder_is_fully_uncomputed_at_the_end() {
        // Every temporal qubit must be written an even number of times, so the
        // ladder ends clean.
        let c = select_heisenberg(SelectConfig::for_width(3));
        let temporal = c.registers().by_name("temporal").unwrap().range.clone();
        for q in temporal {
            let writes = c
                .gates()
                .iter()
                .filter(
                    |g| matches!(g, lsqca_circuit::Gate::Toffoli { target, .. } if *target == q),
                )
                .count();
            assert_eq!(writes % 2, 0, "temporal qubit {q} left dirty");
        }
    }

    #[test]
    #[should_panic(expected = "width >= 2")]
    fn degenerate_lattice_panics() {
        let _ = HeisenbergModel::new(1);
    }
}
