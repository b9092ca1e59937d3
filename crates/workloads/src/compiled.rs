//! Compiled-workload artifacts: compile once, simulate many times.
//!
//! The paper's evaluation re-simulates the same compiled benchmark across
//! dozens of SAM configurations (floorplans × factory counts × hybrid
//! fractions), so everything derivable from the circuit alone is worth
//! computing exactly once. A [`CompiledWorkload`] bundles that per-workload
//! state:
//!
//! * the [`ExecutionTrace`], which the compiler writes straight into
//!   ([`lsqca_compiler::compile_into`]); it is the one compiled form of the
//!   instruction stream, and it reconstructs any instruction losslessly
//!   ([`ExecutionTrace::instruction`]), so no `Program` or latency-class
//!   vector is kept next to it,
//! * the circuit's register map, which role-based hybrid placement
//!   (Fig. 15) needs,
//! * the circuit name and qubit-count metadata (`num_qubits`, `t_gates`),
//! * the descriptor that identifies the workload: normally its
//!   [`workload_key`], which names the generator configuration, the compiler
//!   configuration, the ISA version and the trace revision.
//!
//! Result-store keys are derived from the descriptor alone, so keying a
//! result never needs the compiled workload. The FNV-1a payload hash over
//! the metadata and the rendered trace is computed on demand
//! ([`CompiledWorkload::payload_hash`]): the artifact codec stores and
//! verifies it, and ad-hoc workloads without a generator identity fold it
//! into their descriptor once, at construction
//! ([`CompiledWorkload::compile_adhoc`]).
//!
//! Artifacts serialize to a JSON document (`lsqca-json`) whose integrity is
//! protected by that content hash, which is what the on-disk cache of
//! [`crate::cache`] stores; see that module for the invalidation rules.

use lsqca_circuit::{Circuit, RegisterMap, RegisterRole};
use lsqca_compiler::{compile_into, CompilerConfig};
use lsqca_isa::{ExecutionTrace, TraceShape, ISA_VERSION, TRACE_REVISION};
use lsqca_json::{Json, ToJson};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema identifier embedded in every serialized artifact.
pub const ARTIFACT_SCHEMA: &str = "lsqca-workload-artifact-v2";

/// Number of circuit compilations performed by this process (every
/// [`CompiledWorkload::compile`] call, cached or not). The warm-cache
/// acceptance tests assert this stays flat across a cache-served sweep.
static COMPILE_COUNT: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// The calling thread's share of [`COMPILE_COUNT`], so a test can assert
    /// on its own compilations while sibling tests compile concurrently.
    static THREAD_COMPILE_COUNT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Total circuit compilations performed by this process so far.
pub fn compile_count() -> u64 {
    COMPILE_COUNT.load(Ordering::Relaxed)
}

/// Circuit compilations performed by the calling thread so far.
#[cfg(test)]
pub(crate) fn thread_compile_count() -> u64 {
    THREAD_COMPILE_COUNT.with(std::cell::Cell::get)
}

/// The identity of a workload for every key derived from it: the generator
/// `descriptor` (every generator parameter plus the generator's `REVISION`),
/// the compiler configuration's canonical encoding, [`ISA_VERSION`], and
/// [`TRACE_REVISION`]. Computable without compiling anything; the default
/// compiler configuration gives
///
/// ```text
/// <descriptor>|compiler=v1;in-memory-ops=1;expand-toffoli=1;expand-cz=1|isa=v1|trace=v<n>
/// ```
pub fn workload_key(descriptor: &str, config: &CompilerConfig) -> String {
    format!(
        "{descriptor}|compiler={}|isa=v{ISA_VERSION}|trace=v{TRACE_REVISION}",
        config.canonical_encoding()
    )
}

/// A workload compiled down to everything the simulator consumes, produced
/// once per `(generator config, compiler config)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledWorkload {
    name: String,
    descriptor: String,
    num_qubits: u32,
    t_gates: u64,
    trace: ExecutionTrace,
    registers: RegisterMap,
}

impl CompiledWorkload {
    /// Compiles `circuit` straight into an execution trace, then renumbers
    /// its classical operands into live slots
    /// ([`ExecutionTrace::compact_classical`]), so a walk's classical ready
    /// table holds a few entries instead of one per measurement. A counting
    /// pass over the same stream ([`TraceShape`]) comes first, so the trace
    /// is allocated once, at its final length and slot width. `descriptor`
    /// identifies the workload and is what result-store keys are derived
    /// from, so it must determine the compiled content: pass the
    /// [`workload_key`] of the generator configuration (ad-hoc circuits use
    /// [`CompiledWorkload::compile_adhoc`]). Nothing is rendered or hashed.
    pub fn compile(
        descriptor: impl Into<String>,
        circuit: &Circuit,
        config: CompilerConfig,
    ) -> Self {
        COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        THREAD_COMPILE_COUNT.with(|n| n.set(n.get() + 1));
        // A counting pass first, so the trace is allocated once at its final
        // length and slot width instead of growing by doubling.
        let mut shape = TraceShape::default();
        compile_into(circuit, config, &mut shape);
        let mut trace = ExecutionTrace::with_shape(&shape);
        let (num_qubits, t_gates) = compile_into(circuit, config, &mut trace);
        trace.compact_classical();
        CompiledWorkload {
            name: circuit.name().to_string(),
            descriptor: descriptor.into(),
            num_qubits,
            t_gates,
            trace,
            registers: circuit.registers().clone(),
        }
    }

    /// Compiles an ad-hoc `circuit`, one without a generator identity. Its
    /// descriptor is the [`workload_key`] of `adhoc:<name>#payload=<hex>`,
    /// where `<hex>` is the payload hash of the compiled content, so two
    /// different circuits that share a name never share a key. The hash is
    /// computed once, here.
    pub fn compile_adhoc(circuit: &Circuit, config: CompilerConfig) -> Self {
        let name = format!("adhoc:{}", circuit.name());
        let mut artifact = CompiledWorkload::compile(name.as_str(), circuit, config);
        artifact.descriptor = workload_key(
            &format!("{name}#payload={:016x}", artifact.payload_hash()),
            &config,
        );
        artifact
    }

    /// The name of the compiled circuit (Clifford+T lowering keeps it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of data qubits (SAM addresses) the workload was compiled for.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of T / T† gates translated into magic-state teleportations.
    pub fn t_gates(&self) -> u64 {
        self.t_gates
    }

    /// The workload-generator descriptor this artifact was compiled from.
    pub fn descriptor(&self) -> &str {
        &self.descriptor
    }

    /// The execution trace: the compiled instruction stream, one record per
    /// instruction, its classical operands renumbered into live slots (so
    /// [`ExecutionTrace::instruction`] reports slots, not the compiler's
    /// classical identifiers). Built once by [`CompiledWorkload::compile`]; a
    /// cached artifact carries the serialized trace and decodes it on load.
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// One past the highest SAM address the workload touches (0 for an
    /// empty one): the trace's [`ExecutionTrace::mem_bound`], so per-run
    /// simulator sizing is O(1).
    pub fn memory_footprint(&self) -> u32 {
        self.trace.mem_bound()
    }

    /// The circuit's register structure, kept so role-based hybrid placement
    /// works without the source circuit.
    pub fn registers(&self) -> &RegisterMap {
        &self.registers
    }

    /// The FNV-1a content hash covering every field that influences
    /// simulation results. The hash is defined over the *serialized text* of
    /// the execution trace, so loading verifies the stored string directly,
    /// before decoding it.
    fn payload_hash_of(
        descriptor: &str,
        name: &str,
        num_qubits: u32,
        t_gates: u64,
        registers: &RegisterMap,
        trace_text: &str,
    ) -> u64 {
        let mut hash = Fnv1a::new();
        for line in [descriptor, name] {
            hash.update(line.as_bytes());
            hash.update(b"\n");
        }
        hash.update(format!("qubits={num_qubits} t_gates={t_gates}\n").as_bytes());
        for r in registers.registers() {
            hash.update(format!("reg {} {} {}\n", r.name, r.role, r.len()).as_bytes());
        }
        hash.update(trace_text.as_bytes());
        hash.finish()
    }

    /// The FNV-1a content hash of the artifact payload, exactly the
    /// `payload_hash` that [`CompiledWorkload::to_json`] stores. Computed on
    /// demand: it renders the trace, which costs tens of milliseconds on a
    /// paper-sized workload.
    pub fn payload_hash(&self) -> u64 {
        self.hash_rendered(&self.trace.encode())
    }

    /// `payload_hash_of` over this artifact's metadata and its rendered
    /// `trace_text`.
    fn hash_rendered(&self, trace_text: &str) -> u64 {
        Self::payload_hash_of(
            &self.descriptor,
            &self.name,
            self.num_qubits,
            self.t_gates,
            &self.registers,
            trace_text,
        )
    }

    /// Serializes the artifact to its on-disk JSON document. The stored
    /// `payload_hash` is recomputed from the rendered trace, so the document
    /// always describes exactly the content it carries.
    pub fn to_json(&self) -> Json {
        let trace_text = self.trace.encode();
        let payload_hash = self.hash_rendered(&trace_text);
        Json::obj([
            ("schema", ARTIFACT_SCHEMA.to_json()),
            ("isa_version", ISA_VERSION.to_json()),
            ("trace_revision", TRACE_REVISION.to_json()),
            ("descriptor", self.descriptor.to_json()),
            ("name", self.name.to_json()),
            ("num_qubits", self.num_qubits.to_json()),
            ("t_gates", self.t_gates.to_json()),
            (
                "registers",
                Json::arr(self.registers.registers().iter().map(|r| {
                    Json::obj([
                        ("name", r.name.to_json()),
                        ("role", r.role.name().to_json()),
                        ("len", (r.len() as u64).to_json()),
                    ])
                })),
            ),
            ("trace", trace_text.to_json()),
            ("payload_hash", format!("{payload_hash:016x}").to_json()),
        ])
    }

    /// Deserializes an artifact document, verifying schema, ISA version,
    /// trace revision and the payload hash.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError`] naming the first check that failed; the
    /// cache treats every variant as "recompile".
    pub fn from_json(doc: &Json) -> Result<Self, ArtifactError> {
        let field = |key: &'static str| {
            doc.get(key)
                .ok_or(ArtifactError::MissingField { field: key })
        };
        let str_field = |key: &'static str| {
            field(key).and_then(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or(ArtifactError::MissingField { field: key })
            })
        };
        let u64_field = |key: &'static str| {
            field(key).and_then(|v| v.as_u64().ok_or(ArtifactError::MissingField { field: key }))
        };
        // Narrowing is checked, never truncated: the hash covers the
        // narrowed value, so a wrapped one would verify and be served.
        let to_u32 = |value: u64, what: &str| {
            u32::try_from(value).map_err(|_| ArtifactError::Malformed {
                what: format!("{what} {value} does not fit in 32 bits"),
            })
        };

        let schema = str_field("schema")?;
        if schema != ARTIFACT_SCHEMA {
            return Err(ArtifactError::SchemaMismatch { found: schema });
        }
        let isa_version = u64_field("isa_version")?;
        if isa_version != u64::from(ISA_VERSION) {
            return Err(ArtifactError::IsaVersionMismatch {
                found: isa_version,
                expected: ISA_VERSION,
            });
        }
        let trace_revision = u64_field("trace_revision")?;
        if trace_revision != u64::from(TRACE_REVISION) {
            return Err(ArtifactError::TraceRevisionMismatch {
                found: trace_revision,
                expected: TRACE_REVISION,
            });
        }

        let descriptor = str_field("descriptor")?;
        let name = str_field("name")?;
        let num_qubits = to_u32(u64_field("num_qubits")?, "num_qubits")?;
        let t_gates = u64_field("t_gates")?;

        let mut registers = RegisterMap::new();
        for entry in field("registers")?
            .as_array()
            .ok_or(ArtifactError::MissingField { field: "registers" })?
        {
            let reg_name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or(ArtifactError::MissingField { field: "registers" })?;
            let role_name = entry
                .get("role")
                .and_then(Json::as_str)
                .ok_or(ArtifactError::MissingField { field: "registers" })?;
            let role =
                RegisterRole::from_name(role_name).ok_or_else(|| ArtifactError::Malformed {
                    what: format!("unknown register role `{role_name}`"),
                })?;
            let len = entry
                .get("len")
                .and_then(Json::as_u64)
                .ok_or(ArtifactError::MissingField { field: "registers" })?;
            registers.add(reg_name, role, to_u32(len, "register length")?);
        }

        let trace_text = str_field("trace")?;

        // Verify the payload hash over the stored text *before* decoding the
        // (potentially multi-megabyte) trace: corruption is rejected at
        // memcmp cost, and a verified artifact is decoded once.
        let stored_hash = str_field("payload_hash")?;
        let actual = Self::payload_hash_of(
            &descriptor,
            &name,
            num_qubits,
            t_gates,
            &registers,
            &trace_text,
        );
        let actual = format!("{actual:016x}");
        if stored_hash != actual {
            return Err(ArtifactError::PayloadHashMismatch {
                stored: stored_hash,
                actual,
            });
        }

        let trace = ExecutionTrace::decode(&trace_text).map_err(|e| ArtifactError::Malformed {
            what: e.to_string(),
        })?;

        Ok(CompiledWorkload {
            name,
            descriptor,
            num_qubits,
            t_gates,
            trace,
            registers,
        })
    }
}

// The FNV-1a hasher moved to `lsqca-store` so the result store and this cache
// share one implementation; re-exported here to keep the historical paths.
pub use lsqca_store::{fnv1a64, Fnv1a};

/// Why a serialized artifact was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The document lacks a required field (or it has the wrong type).
    MissingField {
        /// Name of the missing field.
        field: &'static str,
    },
    /// The document carries a different schema identifier.
    SchemaMismatch {
        /// The schema string found in the document.
        found: String,
    },
    /// The artifact was compiled against a different ISA version.
    IsaVersionMismatch {
        /// The version recorded in the document.
        found: u64,
        /// The version this build implements.
        expected: u32,
    },
    /// The artifact's execution trace was built by a different trace
    /// revision; the cache quarantines the artifact and recompiles.
    TraceRevisionMismatch {
        /// The trace revision recorded in the document.
        found: u64,
        /// The trace revision this build lowers.
        expected: u32,
    },
    /// A field failed to decode (trace text, register role, an out-of-range
    /// number).
    Malformed {
        /// Description of the malformed content.
        what: String,
    },
    /// The recomputed content hash disagrees with the stored one.
    PayloadHashMismatch {
        /// Hash recorded in the document.
        stored: String,
        /// Hash recomputed from the decoded payload.
        actual: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::MissingField { field } => {
                write!(f, "missing or mistyped field `{field}`")
            }
            ArtifactError::SchemaMismatch { found } => {
                write!(f, "schema `{found}` is not `{ARTIFACT_SCHEMA}`")
            }
            ArtifactError::IsaVersionMismatch { found, expected } => {
                write!(f, "ISA version {found} (this build implements {expected})")
            }
            ArtifactError::TraceRevisionMismatch { found, expected } => {
                write!(
                    f,
                    "trace revision {found} (this build writes trace revision {expected})"
                )
            }
            ArtifactError::Malformed { what } => write!(f, "malformed artifact: {what}"),
            ArtifactError::PayloadHashMismatch { stored, actual } => {
                write!(f, "payload hash {stored} != recomputed {actual}")
            }
        }
    }
}

impl Error for ArtifactError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Benchmark, InstanceSize};
    use lsqca_circuit::DecomposeConfig;
    use lsqca_compiler::compile;
    use lsqca_isa::{Instruction, MemAddr, Program};
    use proptest::prelude::*;

    fn sample() -> CompiledWorkload {
        let cfg = Benchmark::Ghz.config(InstanceSize::Reduced);
        CompiledWorkload::compile(cfg.descriptor(), &cfg.build(), CompilerConfig::default())
    }

    /// `circuit` compiled through the `Program` sink and through the trace
    /// sink: the lowered program, compacted, equals the trace column by
    /// column, and the name, T count, qubit count and footprint agree.
    fn assert_sinks_agree(circuit: &Circuit, config: CompilerConfig) {
        let compiled = compile(circuit, config);
        let w = CompiledWorkload::compile("sinks", circuit, config);
        let mut lowered = lsqca_isa::lower(&compiled.program);
        lowered.compact_classical();
        assert_eq!(lowered, *w.trace());
        let footprint = compiled
            .program
            .iter()
            .flat_map(|i| i.memory_operands())
            .map(|m| m.index() + 1)
            .max()
            .unwrap_or(0);
        assert_eq!(w.memory_footprint(), footprint);
        assert_eq!(w.name(), compiled.program.name());
        assert_eq!(w.t_gates(), compiled.t_gates);
        assert_eq!(w.num_qubits(), compiled.num_qubits);
    }

    #[test]
    fn both_sinks_agree_on_every_benchmark() {
        for benchmark in Benchmark::ALL {
            let circuit = benchmark.reduced_instance();
            for use_in_memory_ops in [true, false] {
                let config = CompilerConfig {
                    use_in_memory_ops,
                    ..CompilerConfig::default()
                };
                assert_sinks_agree(&circuit, config);
            }
        }
    }

    /// The counting pass sizes the trace exactly: on every registry
    /// benchmark it counts as many records as the compile pushes, and the
    /// compiled trace's columns hold no spare capacity. Every benchmark's
    /// trace is narrow, so that is 9 bytes per record.
    #[test]
    fn traces_are_allocated_once_at_nine_bytes_per_record() {
        for benchmark in Benchmark::ALL {
            let circuit = benchmark.reduced_instance();
            for use_in_memory_ops in [true, false] {
                let config = CompilerConfig {
                    use_in_memory_ops,
                    ..CompilerConfig::default()
                };
                let mut shape = TraceShape::default();
                compile_into(&circuit, config, &mut shape);
                let w = CompiledWorkload::compile("shape", &circuit, config);
                let trace = w.trace();
                let name = benchmark.name();
                assert_eq!(shape.records(), trace.len(), "{name}");
                assert!(trace.is_narrow(), "{name}");
                assert_eq!(trace.heap_bytes(), 9 * trace.len(), "{name}");
            }
        }
    }

    /// Every paper multiplier T gate writes two classical values and skips
    /// on one of them two records later, so its 420 200 identifiers fit in
    /// the two reserved slots plus at most two live ones, with and without
    /// in-memory operations.
    #[test]
    fn paper_multiplier_compacts_to_a_handful_of_slots() {
        let circuit = Benchmark::Multiplier.paper_instance();
        for use_in_memory_ops in [true, false] {
            let config = CompilerConfig {
                use_in_memory_ops,
                ..CompilerConfig::default()
            };
            let w = CompiledWorkload::compile("multiplier", &circuit, config);
            let bound = w.trace().classical_bound();
            assert!(bound <= 4, "in-memory {use_in_memory_ops}: {bound} slots");
        }
    }

    const QUBITS: u32 = 6;

    /// Random circuits over every gate the compiler translates: preparations,
    /// measurements, Cliffords, Paulis, T/T†, CNOT, CZ, Toffoli and MCX.
    fn circuit_strategy() -> impl Strategy<Value = Circuit> {
        proptest::collection::vec((0u32..16, 0u32..QUBITS, proptest::bool::ANY), 0..60).prop_map(
            |gates| {
                let mut c = Circuit::new("prop", QUBITS);
                for (op, q, reverse) in gates {
                    // Strides 1 and 5 are coprime with 6: four distinct qubits.
                    let stride = if reverse { 5 } else { 1 };
                    let d = |k: u32| (q + k * stride) % QUBITS;
                    match op {
                        0 => c.prep_z(q),
                        1 => c.prep_x(q),
                        2 => c.h(q),
                        3 => c.s(q),
                        4 => c.sdg(q),
                        5 => c.t(q),
                        6 => c.tdg(q),
                        7 => c.x(q),
                        8 => c.y(q),
                        9 => c.z(q),
                        10 => c.measure_z(q),
                        11 => c.measure_x(q),
                        12 => c.cnot(q, d(1)),
                        13 => c.cz(q, d(1)),
                        14 => c.toffoli(q, d(1), d(2)),
                        _ => c.mcx(vec![q, d(1), d(2)], d(3)),
                    }
                }
                c
            },
        )
    }

    proptest! {
        /// The two sinks agree on random circuits under every compiler
        /// configuration that can compile them (Toffoli expansion stays on:
        /// the compiler needs Toffolis lowered).
        #[test]
        fn both_sinks_agree_on_random_circuits(
            circuit in circuit_strategy(),
            use_in_memory_ops in proptest::bool::ANY,
            expand_cz in proptest::bool::ANY,
        ) {
            let config = CompilerConfig {
                use_in_memory_ops,
                decompose: DecomposeConfig {
                    expand_toffoli: true,
                    expand_cz,
                },
            };
            assert_sinks_agree(&circuit, config);
        }
    }

    #[test]
    fn compile_fills_every_table() {
        let before = thread_compile_count();
        let w = sample();
        assert_eq!(thread_compile_count(), before + 1);
        assert!(!w.trace().is_empty());
        assert_eq!(w.num_qubits, 16);
        assert!(w.memory_footprint() <= w.num_qubits);
        assert!(w.memory_footprint() > 0);
        assert!(w.descriptor().contains("Ghz"));
        assert_eq!(w.name(), Benchmark::Ghz.reduced_instance().name());
    }

    #[test]
    fn json_round_trip_preserves_the_artifact() {
        let select = Benchmark::Select.config(InstanceSize::Reduced);
        let w = CompiledWorkload::compile(
            select.descriptor(),
            &select.build(),
            CompilerConfig::default(),
        );
        let doc = w.to_json();
        let restored = CompiledWorkload::from_json(&doc).unwrap();
        assert_eq!(restored, w);
        assert!(!restored.registers().registers().is_empty());
        assert_eq!(
            restored.registers().qubits_with_role(RegisterRole::Control),
            w.registers().qubits_with_role(RegisterRole::Control)
        );
        assert!(!restored
            .registers()
            .qubits_with_role(RegisterRole::Control)
            .is_empty());
        // Round-trips through text too (the on-disk representation).
        let reparsed = lsqca_json::parse(&doc.pretty()).unwrap();
        assert_eq!(CompiledWorkload::from_json(&reparsed).unwrap(), w);
    }

    /// The on-demand hash is the one `to_json` stores, both for a fresh
    /// compile and for a verified load.
    #[test]
    fn on_demand_payload_hash_matches_the_serialized_one() {
        let stored = |w: &CompiledWorkload| {
            w.to_json()
                .get("payload_hash")
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap()
        };
        for benchmark in [Benchmark::Ghz, Benchmark::Select] {
            let cfg = benchmark.config(InstanceSize::Reduced);
            let w = CompiledWorkload::compile(
                cfg.descriptor(),
                &cfg.build(),
                CompilerConfig::default(),
            );
            assert_eq!(format!("{:016x}", w.payload_hash()), stored(&w));
            let restored = CompiledWorkload::from_json(&w.to_json()).unwrap();
            assert_eq!(restored.payload_hash(), w.payload_hash());
            assert_eq!(
                format!("{:016x}", restored.payload_hash()),
                stored(&restored)
            );
        }
    }

    #[test]
    fn workload_keys_name_every_identity_component() {
        let cfg = Benchmark::Ghz.config(InstanceSize::Reduced);
        let config = CompilerConfig::default();
        assert_eq!(
            workload_key(&cfg.descriptor(), &config),
            format!(
                "{}|compiler={}|isa=v{ISA_VERSION}|trace=v{TRACE_REVISION}",
                cfg.descriptor(),
                config.canonical_encoding()
            )
        );
        let load_store = CompilerConfig {
            use_in_memory_ops: false,
            ..config
        };
        assert_ne!(
            workload_key(&cfg.descriptor(), &config),
            workload_key(&cfg.descriptor(), &load_store)
        );
    }

    /// Ad-hoc artifacts carry their payload hash in the descriptor, and a
    /// codec round trip preserves it.
    #[test]
    fn adhoc_descriptors_embed_the_payload_hash() {
        let circuit = Benchmark::Ghz.reduced_instance();
        let config = CompilerConfig::default();
        let w = CompiledWorkload::compile_adhoc(&circuit, config);
        let name = format!("adhoc:{}", circuit.name());
        let plain = CompiledWorkload::compile(name.as_str(), &circuit, config);
        assert_eq!(
            w.descriptor(),
            workload_key(
                &format!("{name}#payload={:016x}", plain.payload_hash()),
                &config
            )
        );
        assert_eq!(CompiledWorkload::from_json(&w.to_json()).unwrap(), w);
    }

    #[test]
    fn tampered_documents_are_rejected() {
        let w = sample();
        let pretty = w.to_json().pretty();

        // Flipped ISA version.
        let bumped = pretty.replace(
            &format!("\"isa_version\": {ISA_VERSION}"),
            "\"isa_version\": 999",
        );
        assert!(matches!(
            CompiledWorkload::from_json(&lsqca_json::parse(&bumped).unwrap()),
            Err(ArtifactError::IsaVersionMismatch { found: 999, .. })
        ));

        // Wrong schema string.
        let wrong = pretty.replace(ARTIFACT_SCHEMA, "lsqca-workload-artifact-v0");
        assert!(matches!(
            CompiledWorkload::from_json(&lsqca_json::parse(&wrong).unwrap()),
            Err(ArtifactError::SchemaMismatch { .. })
        ));

        // Mutated qubit count: caught by the payload hash.
        let mutated = pretty.replace(
            &format!("\"num_qubits\": {}", w.num_qubits),
            "\"num_qubits\": 1",
        );
        assert!(matches!(
            CompiledWorkload::from_json(&lsqca_json::parse(&mutated).unwrap()),
            Err(ArtifactError::PayloadHashMismatch { .. })
        ));

        // Missing field.
        let dropped = pretty.replace("\"t_gates\"", "\"t_gates_gone\"");
        assert!(matches!(
            CompiledWorkload::from_json(&lsqca_json::parse(&dropped).unwrap()),
            Err(ArtifactError::MissingField { field: "t_gates" })
        ));

        // Flipped trace revision: the error names both revisions.
        let stale = pretty.replace(
            &format!("\"trace_revision\": {}", lsqca_isa::TRACE_REVISION),
            "\"trace_revision\": 777",
        );
        let err = CompiledWorkload::from_json(&lsqca_json::parse(&stale).unwrap()).unwrap_err();
        assert!(matches!(
            err,
            ArtifactError::TraceRevisionMismatch { found: 777, .. }
        ));
        assert!(err.to_string().contains("trace revision 777"));
        assert!(err
            .to_string()
            .contains(&lsqca_isa::TRACE_REVISION.to_string()));
    }

    /// A number past `u32::MAX` is rejected, not truncated: with the hash
    /// over the truncated value, `n + 2³²` qubits would verify as `n`.
    #[test]
    fn out_of_range_numbers_are_rejected() {
        let w = sample();
        let pretty = w.to_json().pretty();
        let wrapped = pretty.replace(
            &format!("\"num_qubits\": {}", w.num_qubits),
            &format!("\"num_qubits\": {}", u64::from(w.num_qubits) + (1 << 32)),
        );
        assert_ne!(wrapped, pretty);
        assert!(matches!(
            CompiledWorkload::from_json(&lsqca_json::parse(&wrapped).unwrap()),
            Err(ArtifactError::Malformed { what }) if what.contains("num_qubits")
        ));

        let select = Benchmark::Select.config(InstanceSize::Reduced);
        let w = CompiledWorkload::compile(
            select.descriptor(),
            &select.build(),
            CompilerConfig::default(),
        );
        let len = w.registers().registers()[0].len();
        let pretty = w.to_json().pretty();
        let wrapped = pretty.replacen(
            &format!("\"len\": {len}"),
            &format!("\"len\": {}", len as u64 + (1 << 32)),
            1,
        );
        assert_ne!(wrapped, pretty);
        assert!(matches!(
            CompiledWorkload::from_json(&lsqca_json::parse(&wrapped).unwrap()),
            Err(ArtifactError::Malformed { what }) if what.contains("register length")
        ));
    }

    /// Trace text that verifies against its hash but does not decode is
    /// malformed.
    #[test]
    fn undecodable_trace_text_is_rejected() {
        let w = sample();
        let trace_text = w.trace.encode();
        let forged = CompiledWorkload::payload_hash_of(
            &w.descriptor,
            &w.name,
            w.num_qubits,
            w.t_gates,
            &w.registers,
            "7f.0",
        );
        let pretty = w.to_json().pretty().replace(&trace_text, "7f.0").replace(
            &format!("{:016x}", w.payload_hash()),
            &format!("{forged:016x}"),
        );
        assert!(matches!(
            CompiledWorkload::from_json(&lsqca_json::parse(&pretty).unwrap()),
            Err(ArtifactError::Malformed { what }) if what.contains("no instruction shape")
        ));
    }

    #[test]
    fn empty_and_registerless_programs_serialize() {
        let circuit = Circuit::new("empty", 0);
        let w = CompiledWorkload::compile("adhoc:empty", &circuit, CompilerConfig::default());
        assert_eq!(w.memory_footprint(), 0);
        let restored = CompiledWorkload::from_json(&w.to_json()).unwrap();
        assert_eq!(restored, w);
    }

    #[test]
    fn footprint_tracks_the_highest_address() {
        let mut circuit = Circuit::new("wide", 9);
        circuit.h(8);
        let w = CompiledWorkload::compile("adhoc:wide", &circuit, CompilerConfig::default());
        assert_eq!(w.memory_footprint(), 9);
        assert_eq!(
            w.trace().instruction(0),
            Instruction::HdM { mem: MemAddr(8) }
        );
        assert_eq!(
            *w.trace(),
            lsqca_isa::lower(&Program::from_iter([Instruction::HdM { mem: MemAddr(8) }]))
        );
    }

    #[test]
    fn fnv_is_stable() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn artifact_errors_render() {
        assert!(ArtifactError::MissingField { field: "x" }
            .to_string()
            .contains("x"));
        assert!(ArtifactError::IsaVersionMismatch {
            found: 9,
            expected: 1
        }
        .to_string()
        .contains("9"));
    }
}
