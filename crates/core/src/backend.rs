//! Pluggable emission backends: one IR, many in-memory targets.
//!
//! PR 5 split translation into lower → optimize → emit, leaving emission as
//! the only target-specific phase. This module opens that seam: a
//! [`Backend`] consumes the optimized [`IrProgram`] event stream and
//! produces a target-native [`Artifact`], scores trial edits for the pass
//! pipeline through its own [`Cost`] model, and executes its artifact
//! bit-parallel so exhaustive equivalence proofs work on every target.
//!
//! The built-in [`Rm3Backend`] is the paper's ReRAM target and delegates to
//! [`crate::ir::emit`] unchanged, so `-O0` RM3 output stays byte-identical
//! to the pre-trait compiler (the goldens in `tests/golden/` pin this).
//! Additional targets — the Ambit-style bulk-bitwise and MAGIC NOR-style
//! backends live in the `plim-backends` crate — announce themselves through
//! [`register`]; [`Target`] names resolve against that registry, which is
//! also what `plimc targets` and the service's stats advertisement list.

use std::fmt;
use std::sync::RwLock;

use crate::ir::IrProgram;
use crate::program::Rm3Program;

/// The cost of a program under a backend's model.
///
/// The pass pipeline's quality gates compare these triples exactly the way
/// they compared the hard-coded `(#I, #R, max-writes)` metrics before the
/// trait existed: [`Cost::worse_than`] reverts a pass, [`Cost::improves_on`]
/// commits a forwarding edit. For the RM3 backend the fields are exactly the
/// historical metrics, which keeps every gating decision — and therefore
/// every emitted byte — unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Native instruction count (`#I` for RM3, row operations for Ambit,
    /// NOR steps for MAGIC).
    pub instructions: usize,
    /// Memory footprint in the target's allocation unit (work RRAMs for
    /// RM3, subarray rows for Ambit, memristor cells for MAGIC).
    pub footprint: u32,
    /// Highest write count on one cell/row in a single execution (the
    /// endurance-limiting element).
    pub wear: u64,
    /// Weighted execution cost: instructions × their per-instruction cost
    /// from [`Backend::instruction_set`] (row activations for Ambit).
    pub units: u64,
}

impl Cost {
    /// `true` when this cost regresses `other` on any gated axis — the pass
    /// pipeline's revert condition.
    #[must_use]
    pub fn worse_than(self, other: Cost) -> bool {
        self.instructions > other.instructions
            || self.footprint > other.footprint
            || self.wear > other.wear
    }

    /// `true` when this cost strictly improves instruction count without
    /// regressing footprint or wear — the forwarding pass's commit
    /// condition.
    #[must_use]
    pub fn improves_on(self, other: Cost) -> bool {
        self.instructions < other.instructions
            && self.footprint <= other.footprint
            && self.wear <= other.wear
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#I={} #R={} maxw={} units={}",
            self.instructions, self.footprint, self.wear, self.units
        )
    }
}

/// One instruction of a backend's native instruction set, with its unit
/// cost under the backend's model (`plimc targets` prints these).
#[derive(Debug, Clone, Copy)]
pub struct InstructionInfo {
    /// Assembly mnemonic.
    pub mnemonic: &'static str,
    /// Cost in [`Cost::units`] per executed instruction.
    pub cost: u64,
    /// One-line semantics.
    pub summary: &'static str,
}

/// A target-native compiled program: what a [`Backend`] emits.
///
/// Besides rendering (listing/stats), an artifact must *execute*
/// bit-parallel — 64 input patterns per step, one lane per bit — so
/// [`crate::verify::verify_artifact`] and
/// [`crate::verify::verify_exhaustive_artifact`] can check it against the
/// source MIG without knowing anything about the target's semantics. They
/// reject an executor that returns a different number of output words
/// than the MIG has outputs.
pub trait Artifact {
    /// Name of the target that produced this artifact.
    fn target(&self) -> &'static str;

    /// Number of primary inputs the artifact reads.
    fn num_inputs(&self) -> usize;

    /// Cost of the artifact under its backend's model.
    fn cost(&self) -> Cost;

    /// Target-native assembly listing.
    fn listing(&self) -> String;

    /// Human-readable stats block (the `--emit stats` form).
    fn stats_text(&self) -> String;

    /// Declared primary-output names, in order.
    fn output_names(&self) -> Vec<String>;

    /// Executes the artifact on 64 input patterns at once: `inputs[i]`
    /// carries input `i`'s value for lanes 0–63; the result carries one
    /// word per declared output.
    ///
    /// # Errors
    ///
    /// Returns a one-line message when the artifact is malformed (reads an
    /// out-of-range row, wrong input count).
    fn run_wide(&self, inputs: &[u64]) -> Result<Vec<u64>, String>;
}

/// An emission backend: lowers the optimized IR event stream onto one
/// in-memory computing architecture.
///
/// Implementations must be stateless (`Sync`, shared as `&'static`): one
/// registered instance serves every compile on every thread.
pub trait Backend: Sync {
    /// The registry/CLI name (`rm3`, `ambit`, `magic`).
    fn name(&self) -> &'static str;

    /// One-line description shown by `plimc targets`.
    fn description(&self) -> &'static str;

    /// The target's native instruction set with per-instruction costs.
    fn instruction_set(&self) -> &'static [InstructionInfo];

    /// Scores the IR under this backend's cost model **without** building
    /// the artifact — called per trial edit by the pass pipeline, where
    /// full emission would dominate compile time.
    fn cost(&self, ir: &IrProgram) -> Cost;

    /// Emits the target-native artifact.
    fn emit(&self, ir: &IrProgram) -> Box<dyn Artifact>;
}

/// The built-in reference backend: the paper's ReRAM RM3 target.
///
/// Delegates to [`crate::ir::emit`] and the [`crate::ir::replay`] metrics the
/// pass pipeline always used, so compiling through the trait is
/// byte-identical to the pre-trait compiler at every `-O` level.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rm3Backend;

/// RM3's instruction set: a single resistive-majority instruction.
const RM3_ISA: [InstructionInfo; 1] = [InstructionInfo {
    mnemonic: "rm3",
    cost: 1,
    summary: "Z ← ⟨A B̄ Z⟩ (3-input resistive majority, B inverted intrinsically)",
}];

impl Backend for Rm3Backend {
    fn name(&self) -> &'static str {
        "rm3"
    }

    fn description(&self) -> &'static str {
        "ReRAM resistive-majority PLiM computer (the paper's architecture)"
    }

    fn instruction_set(&self) -> &'static [InstructionInfo] {
        &RM3_ISA
    }

    fn cost(&self, ir: &IrProgram) -> Cost {
        let replay = crate::ir::replay(ir).expect("scored a malformed event stream");
        Cost {
            instructions: replay.instructions,
            footprint: replay.rams,
            wear: replay.max_cell_writes,
            units: replay.instructions as u64,
        }
    }

    fn emit(&self, ir: &IrProgram) -> Box<dyn Artifact> {
        Box::new(Rm3Artifact {
            compiled: crate::ir::emit(ir),
        })
    }
}

/// The RM3 backend's artifact: the classic [`Rm3Program`] behind the
/// [`Artifact`] interface.
#[derive(Debug, Clone)]
pub struct Rm3Artifact {
    /// The wrapped physical program.
    pub compiled: Rm3Program,
}

impl Artifact for Rm3Artifact {
    fn target(&self) -> &'static str {
        "rm3"
    }

    fn num_inputs(&self) -> usize {
        self.compiled.program.num_inputs()
    }

    fn cost(&self) -> Cost {
        Cost {
            instructions: self.compiled.stats.instructions,
            footprint: self.compiled.stats.rams,
            wear: self.compiled.stats.max_cell_writes,
            units: self.compiled.stats.instructions as u64,
        }
    }

    fn listing(&self) -> String {
        self.compiled.program.to_string()
    }

    fn stats_text(&self) -> String {
        format!("{}\n", self.compiled.stats)
    }

    fn output_names(&self) -> Vec<String> {
        self.compiled
            .program
            .outputs()
            .iter()
            .map(|(name, _)| name.clone())
            .collect()
    }

    fn run_wide(&self, inputs: &[u64]) -> Result<Vec<u64>, String> {
        let program = &self.compiled.program;
        crate::verify::poisoned_machine::<u64>(program)
            .run(program, inputs)
            .map_err(|e| e.to_string())
    }
}

/// The one registered RM3 backend instance.
static RM3_BACKEND: Rm3Backend = Rm3Backend;

/// Backends registered beyond the built-in RM3 one.
static EXTRA: RwLock<Vec<&'static dyn Backend>> = RwLock::new(Vec::new());

/// Registers a backend with the global target registry.
///
/// Registration is idempotent per name: a second backend under an existing
/// name is ignored, so library users and test binaries can call their
/// `install()` hooks freely. The RM3 backend is always registered.
pub fn register(backend: &'static dyn Backend) {
    let mut extra = EXTRA.write().expect("backend registry poisoned");
    if backend.name() == RM3_BACKEND.name() || extra.iter().any(|b| b.name() == backend.name()) {
        return;
    }
    extra.push(backend);
}

/// Every registered backend, RM3 first, then registration order.
pub fn backends() -> Vec<&'static dyn Backend> {
    let mut all: Vec<&'static dyn Backend> = vec![&RM3_BACKEND];
    all.extend(
        EXTRA
            .read()
            .expect("backend registry poisoned")
            .iter()
            .copied(),
    );
    all
}

/// A compilation target: a name resolved against the backend registry.
///
/// `Copy`-cheap (it carries only the backend's static name) so it can live
/// inside [`crate::CompilerOptions`]; the default is [`Target::RM3`], which
/// keeps every existing call site compiling the paper's architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target(&'static str);

impl Target {
    /// The built-in RM3 target (always registered).
    pub const RM3: Target = Target("rm3");

    /// The registry/CLI/spec name of the target.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.0
    }

    /// The backend behind this target.
    ///
    /// # Panics
    ///
    /// Panics if the backend was never registered — impossible for targets
    /// obtained through [`Target::parse`] or [`Target::all`].
    #[must_use]
    pub fn backend(self) -> &'static dyn Backend {
        backends()
            .into_iter()
            .find(|b| b.name() == self.0)
            .expect("target backend not registered")
    }

    /// Every registered target, in registry order (RM3 first).
    #[must_use]
    pub fn all() -> Vec<Target> {
        backends().into_iter().map(|b| Target(b.name())).collect()
    }

    /// Parses a registry name.
    ///
    /// # Errors
    ///
    /// Returns a one-line message listing the registered target names when
    /// `name` is not one of them (the `--schedule`/`--alloc` convention).
    pub fn parse(name: &str) -> Result<Self, String> {
        let all = backends();
        all.iter()
            .find(|b| b.name() == name)
            .map(|b| Target(b.name()))
            .ok_or_else(|| {
                let names: Vec<&str> = all.iter().map(|b| b.name()).collect();
                format!("unknown target `{name}` (expected {})", names.join("|"))
            })
    }
}

impl Default for Target {
    fn default() -> Self {
        Target::RM3
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::CompilerOptions;

    /// A do-nothing backend for registry tests.
    struct Dummy;

    impl Backend for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn description(&self) -> &'static str {
            "test backend"
        }
        fn instruction_set(&self) -> &'static [InstructionInfo] {
            &[]
        }
        fn cost(&self, _ir: &IrProgram) -> Cost {
            Cost::default()
        }
        fn emit(&self, ir: &IrProgram) -> Box<dyn Artifact> {
            Rm3Backend.emit(ir)
        }
    }

    #[test]
    fn rm3_is_always_registered_and_is_the_default() {
        assert_eq!(Target::default(), Target::RM3);
        assert_eq!(Target::parse("rm3"), Ok(Target::RM3));
        assert_eq!(Target::RM3.backend().name(), "rm3");
        assert!(Target::all().contains(&Target::RM3));
    }

    #[test]
    fn unknown_targets_list_the_valid_names() {
        let err = Target::parse("tpu").unwrap_err();
        assert!(err.contains("unknown target `tpu`"), "{err}");
        assert!(err.contains("rm3"), "{err}");
    }

    #[test]
    fn registration_is_idempotent_per_name() {
        static DUMMY: Dummy = Dummy;
        let before = backends().len();
        register(&DUMMY);
        let after_first = backends().len();
        register(&DUMMY);
        assert_eq!(backends().len(), after_first);
        assert!(after_first >= before);
        assert_eq!(Target::parse("dummy").unwrap().name(), "dummy");
    }

    #[test]
    fn cost_gates_mirror_the_historical_tuple_comparisons() {
        let base = Cost {
            instructions: 10,
            footprint: 4,
            wear: 6,
            units: 10,
        };
        assert!(!base.worse_than(base));
        assert!(Cost {
            instructions: 11,
            ..base
        }
        .worse_than(base));
        assert!(Cost {
            footprint: 5,
            ..base
        }
        .worse_than(base));
        assert!(Cost { wear: 7, ..base }.worse_than(base));
        assert!(Cost {
            instructions: 9,
            ..base
        }
        .improves_on(base));
        assert!(!base.improves_on(base));
        assert!(!Cost {
            instructions: 9,
            footprint: 5,
            ..base
        }
        .improves_on(base));
    }

    #[test]
    fn rm3_backend_cost_equals_emitted_stats() {
        let mut mig = mig::Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let f = mig.maj(a, b, c);
        let g = mig.xor(a, c);
        mig.add_output("f", f);
        mig.add_output("g", g);
        let compilation = crate::compile_full(&mig, CompilerOptions::new());
        let backend = Rm3Backend;
        let cost = backend.cost(&compilation.ir);
        assert_eq!(cost.instructions, compilation.compiled.stats.instructions);
        assert_eq!(cost.footprint, compilation.compiled.stats.rams);
        assert_eq!(cost.wear, compilation.compiled.stats.max_cell_writes);
        // And the artifact is the same program, byte for byte.
        let artifact = backend.emit(&compilation.ir);
        assert_eq!(artifact.listing(), compilation.compiled.program.to_string());
        assert_eq!(artifact.cost(), cost);
        assert_eq!(artifact.target(), "rm3");
        assert_eq!(artifact.num_inputs(), 3);
        assert_eq!(artifact.output_names(), ["f", "g"]);
    }

    #[test]
    fn rm3_artifact_runs_wide_like_the_machine() {
        let mut mig = mig::Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.and(a, b);
        mig.add_output("f", f);
        let compilation = crate::compile_full(&mig, CompilerOptions::new());
        let artifact = Rm3Backend.emit(&compilation.ir);
        let got = artifact.run_wide(&[0b1100, 0b1010]).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0] & 0b1111, 0b1000);
        assert!(artifact.run_wide(&[0]).is_err(), "input count mismatch");
    }
}
