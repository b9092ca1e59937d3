//! Compiled-workload artifacts: compile once, simulate many times.
//!
//! The paper's evaluation re-simulates the same compiled benchmark across
//! dozens of SAM configurations (floorplans × factory counts × hybrid
//! fractions), so everything derivable from the circuit alone is worth
//! computing exactly once. A [`CompiledWorkload`] bundles that per-program
//! state:
//!
//! * the lowered LSQCA instruction stream,
//! * the precompiled per-instruction [`LatencyClass`] vector (immutable per
//!   program, previously re-derived by every `Simulator::run`),
//! * the operand tables — memory footprint and the circuit's register map,
//!   which role-based hybrid placement (Fig. 15) needs,
//! * qubit-count metadata (`num_qubits`, `t_gates`),
//! * the FNV-1a payload hash that identifies all of the above.
//!
//! Artifacts serialize to a JSON document (`lsqca-json`) whose integrity is
//! protected by that content hash, which is what the on-disk cache of
//! [`crate::cache`] stores; see that module for the keying and invalidation
//! rules. The hash is computed once per artifact — at compile time, or taken
//! from the verified document at load time — so callers that key results on
//! it (`Workload::result_key` in `lsqca`) pay nothing per call. Every field it
//! covers is private, so nothing can change the content behind it.

use lsqca_circuit::{Circuit, RegisterMap, RegisterRole};
use lsqca_compiler::{compile, CompilerConfig};
use lsqca_isa::asm::{format_program, parse_program};
use lsqca_isa::{ExecutionTrace, LatencyClass, LatencyTable, Program, ISA_VERSION, TRACE_REVISION};
use lsqca_json::{Json, ToJson};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema identifier embedded in every serialized artifact.
pub const ARTIFACT_SCHEMA: &str = "lsqca-workload-artifact-v1";

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

/// A workload compiled down to everything the simulator consumes, produced
/// once per `(generator config, compiler config)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledWorkload {
    program: Program,
    num_qubits: u32,
    t_gates: u64,
    descriptor: String,
    classes: Vec<LatencyClass>,
    trace: ExecutionTrace,
    memory_footprint: u32,
    registers: RegisterMap,
    payload_hash: u64,
}

impl CompiledWorkload {
    /// Compiles `circuit` into an artifact. `descriptor` identifies the
    /// workload-generator configuration that produced the circuit and becomes
    /// part of the cache key; ad-hoc callers can pass any stable string.
    pub fn compile(
        descriptor: impl Into<String>,
        circuit: &Circuit,
        config: CompilerConfig,
    ) -> Self {
        COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        THREAD_COMPILE_COUNT.with(|n| n.set(n.get() + 1));
        let compiled = compile(circuit, config);
        let classes = LatencyTable::paper().classify_program(&compiled.program);
        let trace = lsqca_isa::lower(&compiled.program);
        let memory_footprint = compiled
            .program
            .iter()
            .flat_map(|i| i.memory_operands())
            .map(|m| m.index() + 1)
            .max()
            .unwrap_or(0);
        let descriptor = descriptor.into();
        let registers = circuit.registers().clone();
        let payload_hash = Self::payload_hash_of(
            &descriptor,
            compiled.num_qubits,
            compiled.t_gates,
            memory_footprint,
            &registers,
            [
                &format_program(&compiled.program),
                &encode_classes(&classes),
                &trace.encode(),
            ],
        );
        CompiledWorkload {
            descriptor,
            classes,
            trace,
            memory_footprint,
            registers,
            num_qubits: compiled.num_qubits,
            t_gates: compiled.t_gates,
            program: compiled.program,
            payload_hash,
        }
    }

    /// The LSQCA instruction stream.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of data qubits (SAM addresses) the program was compiled for.
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

    /// The precompiled per-instruction latency classes (parallel to the
    /// instruction stream).
    pub fn classes(&self) -> &[LatencyClass] {
        &self.classes
    }

    /// The pre-lowered execution trace (parallel to the instruction stream).
    /// Lowered exactly once at [`CompiledWorkload::compile`] time — a cached
    /// artifact carries the serialized trace and decodes it on load, so warm
    /// sweeps perform zero lowerings (`lsqca_isa::lowering_count` stays flat).
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// One past the highest SAM address the program touches (0 for an empty
    /// program) — precomputed so per-run simulator sizing is O(1).
    pub fn memory_footprint(&self) -> u32 {
        self.memory_footprint
    }

    /// The circuit's register structure, kept so role-based hybrid placement
    /// works without the source circuit.
    pub fn registers(&self) -> &RegisterMap {
        &self.registers
    }

    /// The FNV-1a content hash covering every field that influences
    /// simulation results. The hash is defined over the *serialized text* of
    /// the program, class vector, and execution trace (passed together as
    /// `texts`, in that order), so loading verifies the stored strings
    /// directly without re-rendering a multi-megabyte instruction stream.
    fn payload_hash_of(
        descriptor: &str,
        num_qubits: u32,
        t_gates: u64,
        memory_footprint: u32,
        registers: &RegisterMap,
        texts: [&str; 3],
    ) -> u64 {
        let mut hash = Fnv1a::new();
        hash.update(descriptor.as_bytes());
        hash.update(b"\n");
        hash.update(
            format!("qubits={num_qubits} t_gates={t_gates} footprint={memory_footprint}\n")
                .as_bytes(),
        );
        for r in registers.registers() {
            hash.update(format!("reg {} {} {}\n", r.name, r.role, r.len()).as_bytes());
        }
        for text in texts {
            hash.update(text.as_bytes());
        }
        hash.finish()
    }

    /// The FNV-1a content hash of the artifact payload, computed once when
    /// the artifact was compiled or loaded (O(1) per call).
    pub fn payload_hash(&self) -> u64 {
        self.payload_hash
    }

    /// Serializes the artifact to its on-disk JSON document. The stored
    /// `payload_hash` is recomputed from the rendered texts, so the document
    /// always describes exactly the content it carries.
    pub fn to_json(&self) -> Json {
        let program_text = format_program(&self.program);
        let classes_text = encode_classes(&self.classes);
        let trace_text = self.trace.encode();
        let payload_hash = Self::payload_hash_of(
            &self.descriptor,
            self.num_qubits,
            self.t_gates,
            self.memory_footprint,
            &self.registers,
            [&program_text, &classes_text, &trace_text],
        );
        Json::obj([
            ("schema", ARTIFACT_SCHEMA.to_json()),
            ("isa_version", ISA_VERSION.to_json()),
            ("trace_revision", TRACE_REVISION.to_json()),
            ("descriptor", self.descriptor.to_json()),
            ("name", self.program.name().to_json()),
            ("num_qubits", self.num_qubits.to_json()),
            ("t_gates", self.t_gates.to_json()),
            ("memory_footprint", self.memory_footprint.to_json()),
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
            ("program", program_text.to_json()),
            ("classes", classes_text.to_json()),
            ("trace", trace_text.to_json()),
            ("payload_hash", format!("{payload_hash:016x}").to_json()),
        ])
    }

    /// Deserializes an artifact document, verifying schema, ISA version, and
    /// the payload hash.
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
        let num_qubits = u64_field("num_qubits")? as u32;
        let t_gates = u64_field("t_gates")?;
        let memory_footprint = u64_field("memory_footprint")? as u32;

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
            registers.add(reg_name, role, len as u32);
        }

        let program_text = str_field("program")?;
        let classes_text = str_field("classes")?;
        let trace_text = str_field("trace")?;

        // Verify the payload hash over the stored text *before* decoding the
        // (potentially multi-megabyte) instruction stream: corruption is
        // rejected at memcmp cost, and a verified artifact is decoded once.
        let stored_hash = str_field("payload_hash")?;
        let payload_hash = Self::payload_hash_of(
            &descriptor,
            num_qubits,
            t_gates,
            memory_footprint,
            &registers,
            [&program_text, &classes_text, &trace_text],
        );
        let actual = format!("{payload_hash:016x}");
        if stored_hash != actual {
            return Err(ArtifactError::PayloadHashMismatch {
                stored: stored_hash,
                actual,
            });
        }

        let program =
            parse_program(&name, &program_text).map_err(|e| ArtifactError::Malformed {
                what: format!("program text: {e}"),
            })?;
        let classes = decode_classes(&classes_text)?;
        if classes.len() != program.len() {
            return Err(ArtifactError::Malformed {
                what: format!(
                    "class vector length {} does not match the {}-instruction program",
                    classes.len(),
                    program.len()
                ),
            });
        }
        // Decoding (not re-lowering) keeps warm loads off the lowering
        // counter: a cache hit must leave `lsqca_isa::lowering_count` flat.
        let trace = ExecutionTrace::decode(&trace_text).map_err(|e| ArtifactError::Malformed {
            what: e.to_string(),
        })?;
        if trace.len() != program.len() {
            return Err(ArtifactError::Malformed {
                what: format!(
                    "execution trace length {} does not match the {}-instruction program (trace revision {TRACE_REVISION})",
                    trace.len(),
                    program.len()
                ),
            });
        }

        Ok(CompiledWorkload {
            descriptor,
            classes,
            trace,
            memory_footprint,
            registers,
            num_qubits,
            t_gates,
            program,
            payload_hash,
        })
    }
}

/// One ASCII digit per instruction (the `repr(u8)` discriminant).
fn encode_classes(classes: &[LatencyClass]) -> String {
    classes
        .iter()
        .map(|c| char::from(b'0' + c.as_u8()))
        .collect()
}

fn decode_classes(text: &str) -> Result<Vec<LatencyClass>, ArtifactError> {
    text.bytes()
        .map(|b| {
            b.checked_sub(b'0')
                .and_then(LatencyClass::from_u8)
                .ok_or_else(|| ArtifactError::Malformed {
                    what: format!("invalid latency-class byte `{}`", b as char),
                })
        })
        .collect()
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
    /// The artifact's execution trace was lowered by a different trace
    /// revision; the cache quarantines the artifact and re-lowers.
    TraceRevisionMismatch {
        /// The trace revision recorded in the document.
        found: u64,
        /// The trace revision this build lowers.
        expected: u32,
    },
    /// A field failed to decode (program text, class vector, register role).
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
                    "trace revision {found} (this build lowers trace revision {expected})"
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
    use lsqca_isa::{Instruction, MemAddr};

    fn sample() -> CompiledWorkload {
        let cfg = Benchmark::Ghz.config(InstanceSize::Reduced);
        CompiledWorkload::compile(cfg.descriptor(), &cfg.build(), CompilerConfig::default())
    }

    #[test]
    fn compile_fills_every_table() {
        let before = thread_compile_count();
        let w = sample();
        assert_eq!(thread_compile_count(), before + 1);
        assert!(!w.program.is_empty());
        assert_eq!(w.classes().len(), w.program.len());
        assert_eq!(w.num_qubits, 16);
        assert!(w.memory_footprint() <= w.num_qubits);
        assert!(w.memory_footprint() > 0);
        assert!(w.descriptor().contains("Ghz"));
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

    /// The memoized hash is the one `to_json` derives from the rendered
    /// texts, both for a fresh compile and for a verified load.
    #[test]
    fn memoized_payload_hash_matches_the_serialized_one() {
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
        let relowered = pretty.replace(
            &format!("\"trace_revision\": {}", lsqca_isa::TRACE_REVISION),
            "\"trace_revision\": 777",
        );
        let err = CompiledWorkload::from_json(&lsqca_json::parse(&relowered).unwrap()).unwrap_err();
        assert!(matches!(
            err,
            ArtifactError::TraceRevisionMismatch { found: 777, .. }
        ));
        assert!(err.to_string().contains("trace revision 777"));
        assert!(err
            .to_string()
            .contains(&lsqca_isa::TRACE_REVISION.to_string()));
    }

    #[test]
    fn class_vector_must_match_the_program_length() {
        let mut w = sample();
        w.classes.pop();
        let doc = w.to_json();
        assert!(matches!(
            CompiledWorkload::from_json(&doc),
            Err(ArtifactError::Malformed { .. })
        ));
    }

    #[test]
    fn trace_must_match_the_program_length() {
        let mut w = sample();
        w.trace = lsqca_isa::ExecutionTrace::new();
        let doc = w.to_json();
        assert!(matches!(
            CompiledWorkload::from_json(&doc),
            Err(ArtifactError::Malformed { what }) if what.contains("trace revision")
        ));
    }

    #[test]
    fn loading_an_artifact_does_not_relower() {
        let w = sample();
        let doc = w.to_json();
        let before = lsqca_isa::lowering_count();
        let restored = CompiledWorkload::from_json(&doc).unwrap();
        assert_eq!(lsqca_isa::lowering_count(), before);
        assert_eq!(restored.trace(), w.trace());
        assert_eq!(restored.trace().len(), w.program.len());
    }

    #[test]
    fn classes_agree_with_fresh_classification() {
        let w = sample();
        assert_eq!(
            w.classes(),
            LatencyTable::paper()
                .classify_program(&w.program)
                .as_slice()
        );
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
        assert!(w
            .program
            .iter()
            .any(|i| matches!(i, Instruction::HdM { mem } if *mem == MemAddr(8))));
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
