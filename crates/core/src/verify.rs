//! End-to-end verification of compiled programs.
//!
//! A compiled program is correct when executing it reproduces the MIG's
//! Boolean function for every primary output. Every entry point here is a
//! few lines over one private kernel, `check`: it generates the input
//! patterns (all 2ⁿ in order, or seeded random words), runs the executor
//! one [`LaneWord`] group at a time, simulates the MIG per 64-pattern
//! block, checks the executor's output count, and reports the first
//! differing lane as the one [`VerifyError::Mismatch`]. RM3 programs run
//! on a poisoned bit-parallel [`WideMachine`]; backend artifacts run
//! through their own 64-lane [`Artifact::run_wide`] executor. RM3 paths
//! also check the initialization discipline statically first
//! ([`check_init_discipline`]).
//!
//! Two exhaustive limits apply, with different jobs:
//!
//! * [`EXHAUSTIVE_LIMIT`] (12) bounds the check run inside every compile
//!   ([`verify`], [`verify_artifact`]); above it they sample. Raising it
//!   would put up to 2²⁰-pattern proofs into compile time.
//! * [`EXHAUSTIVE_WIDE_LIMIT`] (20) bounds explicit proofs
//!   ([`verify_exhaustive`], [`verify_exhaustive_artifact`]); beyond it
//!   they refuse with [`VerifyError::TooManyInputs`], which `plimc verify`
//!   turns into exit code 2.
//!
//! [`mig::equiv`]'s own limit of 14 bounds graph-versus-graph checks and
//! is independent of both.

use std::fmt;

use mig::simulate::{variable_word, XorShift64};
use mig::Mig;
use plim::wide::{LaneWord, WideMachine, W256};
use plim::{MachineError, Program, RamAddr};

use crate::backend::Artifact;
use crate::ir::analysis::analyze_program;
use crate::program::Rm3Program;

/// Number of primary inputs up to which [`verify`] and [`verify_artifact`]
/// are exhaustive.
pub const EXHAUSTIVE_LIMIT: usize = 12;

/// Number of primary inputs up to which [`verify_exhaustive`] and
/// [`verify_exhaustive_artifact`] accept a circuit: 2²⁰ patterns execute
/// as 4096 runs of the 256-wide machine.
pub const EXHAUSTIVE_WIDE_LIMIT: usize = 20;

/// Error raised when a compiled program does not match its source MIG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The machine rejected the program.
    Machine(MachineError),
    /// Outputs differ on some input pattern.
    Mismatch {
        /// Name of the first differing output.
        output: String,
        /// The offending input assignment.
        inputs: Vec<bool>,
    },
    /// The executor returned a different number of outputs than the MIG
    /// declares.
    OutputCountMismatch {
        /// The MIG's primary-output count.
        expected: usize,
        /// The number of output words the executor returned.
        got: usize,
    },
    /// An instruction reads a work cell that no earlier instruction wrote
    /// and whose result depends on that cell (initialization-discipline
    /// violation, detected statically).
    UninitializedRead {
        /// 0-based index of the offending instruction.
        pc: usize,
    },
    /// The circuit has too many inputs for exhaustive enumeration.
    TooManyInputs {
        /// The circuit's primary-input count.
        inputs: usize,
    },
    /// A backend artifact's executor rejected the run.
    Backend(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Machine(e) => write!(f, "machine error: {e}"),
            VerifyError::Mismatch { output, inputs } => {
                let pattern: String = inputs.iter().map(|&b| if b { '1' } else { '0' }).collect();
                write!(f, "output `{output}` differs on input pattern {pattern}")
            }
            VerifyError::OutputCountMismatch { expected, got } => {
                write!(f, "executor returned {got} outputs; the circuit has {expected}")
            }
            VerifyError::UninitializedRead { pc } => {
                write!(f, "instruction {} reads an uninitialized cell", pc + 1)
            }
            VerifyError::TooManyInputs { inputs } => write!(
                f,
                "circuit has {inputs} inputs; exhaustive verification supports at most {EXHAUSTIVE_WIDE_LIMIT}"
            ),
            VerifyError::Backend(message) => write!(f, "backend executor error: {message}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<MachineError> for VerifyError {
    fn from(e: MachineError) -> Self {
        VerifyError::Machine(e)
    }
}

/// Verifies that the compiled program computes the MIG's function.
///
/// Exhaustive for up to [`EXHAUSTIVE_LIMIT`] inputs; otherwise `rounds × 64`
/// random patterns seeded by `seed` are checked. Both modes run on the
/// bit-parallel [`WideMachine`]; the work array is poisoned before the
/// first run and then reused across runs, which also exercises the
/// compiler's write-before-read initialization discipline dynamically (on
/// top of the static [`check_init_discipline`] pass).
///
/// # Errors
///
/// Returns [`VerifyError::UninitializedRead`] if the static
/// initialization check fails, [`VerifyError::Machine`] if the program is
/// malformed, [`VerifyError::OutputCountMismatch`] if it declares a
/// different number of outputs than the MIG, or
/// [`VerifyError::Mismatch`] with a counterexample.
pub fn verify(
    mig: &Mig,
    compiled: &Rm3Program,
    rounds: usize,
    seed: u64,
) -> Result<(), VerifyError> {
    check_init_discipline(compiled)?;
    if mig.num_inputs() <= EXHAUSTIVE_LIMIT {
        check::<W256>(mig, Patterns::Exhaustive, rm3(compiled))
    } else {
        check::<u64>(mig, Patterns::Sampled { rounds, seed }, rm3(compiled))
    }
}

/// Proves the compiled program equal to its source MIG over the **full**
/// input space, using the 256-wide machine (2ⁿ patterns in `2ⁿ⁻⁸` runs).
///
/// # Errors
///
/// Returns [`VerifyError::TooManyInputs`] for circuits beyond
/// [`EXHAUSTIVE_WIDE_LIMIT`] inputs, [`VerifyError::Mismatch`] with the
/// first counterexample (in pattern order) on failure, or one of
/// [`verify`]'s other errors if the program is malformed.
pub fn verify_exhaustive(mig: &Mig, compiled: &Rm3Program) -> Result<(), VerifyError> {
    within_wide_limit(mig)?;
    check_init_discipline(compiled)?;
    check::<W256>(mig, Patterns::Exhaustive, rm3(compiled))
}

/// Proves a backend [`Artifact`] equal to its source MIG over the **full**
/// input space, through the artifact's own bit-parallel executor (64
/// patterns per run).
///
/// This is the target-independent sibling of [`verify_exhaustive`]: any
/// backend that can execute its own instruction set 64 lanes at a time can
/// be proven equivalent to the source graph with it, regardless of what the
/// instructions mean physically. Counterexamples are numbered exactly as
/// [`verify_exhaustive`] numbers them.
///
/// # Errors
///
/// Returns [`VerifyError::TooManyInputs`] for circuits beyond
/// [`EXHAUSTIVE_WIDE_LIMIT`] inputs, [`VerifyError::Mismatch`] with the
/// first counterexample (in pattern order) on failure,
/// [`VerifyError::OutputCountMismatch`] if the executor returns the wrong
/// number of outputs, or [`VerifyError::Backend`] if it rejects the run.
pub fn verify_exhaustive_artifact(mig: &Mig, artifact: &dyn Artifact) -> Result<(), VerifyError> {
    within_wide_limit(mig)?;
    check(mig, Patterns::Exhaustive, |inputs: &[u64]| {
        artifact.run_wide(inputs).map_err(VerifyError::Backend)
    })
}

/// Verifies a backend artifact against its source MIG the way [`verify`]
/// checks the RM3 program: exhaustive through the artifact's executor up
/// to [`EXHAUSTIVE_LIMIT`] inputs, otherwise `rounds × 64` random patterns
/// seeded by `seed`. The pipeline's `--verify` runs it for non-RM3
/// targets.
///
/// # Errors
///
/// Returns [`VerifyError::Mismatch`] with a counterexample on failure,
/// [`VerifyError::OutputCountMismatch`] if the executor returns the wrong
/// number of outputs, or [`VerifyError::Backend`] if it rejects the run.
pub fn verify_artifact(
    mig: &Mig,
    artifact: &dyn Artifact,
    rounds: usize,
    seed: u64,
) -> Result<(), VerifyError> {
    let patterns = if mig.num_inputs() <= EXHAUSTIVE_LIMIT {
        Patterns::Exhaustive
    } else {
        Patterns::Sampled { rounds, seed }
    };
    check(mig, patterns, |inputs: &[u64]| {
        artifact.run_wide(inputs).map_err(VerifyError::Backend)
    })
}

/// Statically checks that no instruction's result depends on a work cell
/// that has not been written yet: the first instruction finding of
/// [`analyze_program`].
///
/// An instruction masks its destination (result independent of the old
/// value) exactly when its constant operands satisfy `A = ¬B̄`, i.e. the
/// pairs `(0, 1)` and `(1, 0)` — the reset/set idioms and constant loads.
///
/// # Errors
///
/// Returns [`VerifyError::UninitializedRead`] at the first offending
/// instruction.
pub fn check_init_discipline(compiled: &Rm3Program) -> Result<(), VerifyError> {
    match analyze_program(compiled).iter().find_map(|d| d.event) {
        Some(pc) => Err(VerifyError::UninitializedRead { pc }),
        None => Ok(()),
    }
}

/// Where a [`check`]'s input patterns come from.
#[derive(Clone, Copy)]
enum Patterns {
    /// All 2ⁿ patterns, in order: block `b`, lane `l` is pattern `64·b + l`.
    Exhaustive,
    /// `rounds` blocks of 64 random patterns, drawn input by input per
    /// block from an [`XorShift64`] seeded by `seed`.
    Sampled { rounds: usize, seed: u64 },
}

/// The one dynamic check: runs `run` on `patterns`, [`LaneWord::WORDS`]
/// 64-pattern blocks at a time, and compares every block against MIG word
/// simulation.
fn check<W: LaneWord>(
    mig: &Mig,
    patterns: Patterns,
    mut run: impl FnMut(&[W]) -> Result<Vec<W>, VerifyError>,
) -> Result<(), VerifyError> {
    let n = mig.num_inputs();
    let (blocks, mut rng) = match patterns {
        Patterns::Exhaustive => (1usize << n.saturating_sub(6), None),
        Patterns::Sampled { rounds, seed } => (rounds.max(1), Some(XorShift64::new(seed))),
    };
    // One input word per variable for each block of the current group.
    let mut block_inputs = vec![vec![0u64; n]; W::WORDS];
    for first in (0..blocks).step_by(W::WORDS) {
        let live = W::WORDS.min(blocks - first);
        for (w, words) in block_inputs[..live].iter_mut().enumerate() {
            for (var, word) in words.iter_mut().enumerate() {
                *word = match &mut rng {
                    Some(rng) => rng.next_word(),
                    None => variable_word(var, first + w),
                };
            }
        }
        let inputs: Vec<W> = (0..n)
            .map(|var| W::from_blocks(|w| block_inputs[w][var]))
            .collect();
        let got = run(&inputs)?;
        if got.len() != mig.num_outputs() {
            return Err(VerifyError::OutputCountMismatch {
                expected: mig.num_outputs(),
                got: got.len(),
            });
        }
        for (w, words) in block_inputs[..live].iter().enumerate() {
            let expected = mig::simulate::simulate(mig, words);
            for ((name, _), (&e, g)) in mig.outputs().iter().zip(expected.iter().zip(&got)) {
                let diff = e ^ g.block(w);
                if diff != 0 {
                    // Bit `i` of the pattern is the value of input `i`
                    // (the row order of `mig::simulate::TruthTable`).
                    let lane = diff.trailing_zeros() as usize;
                    return Err(VerifyError::Mismatch {
                        output: name.clone(),
                        inputs: words.iter().map(|word| word.lane(lane)).collect(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Refuses circuits beyond [`EXHAUSTIVE_WIDE_LIMIT`] inputs.
fn within_wide_limit(mig: &Mig) -> Result<(), VerifyError> {
    match mig.num_inputs() {
        inputs if inputs > EXHAUSTIVE_WIDE_LIMIT => Err(VerifyError::TooManyInputs { inputs }),
        _ => Ok(()),
    }
}

/// An RM3 executor for [`check`]: one poisoned machine reused across runs.
fn rm3<'a, W: LaneWord + 'a>(
    compiled: &'a Rm3Program,
) -> impl FnMut(&[W]) -> Result<Vec<W>, VerifyError> + 'a {
    let mut machine = poisoned_machine::<W>(&compiled.program);
    move |inputs| Ok(machine.run(&compiled.program, inputs)?)
}

/// A wide machine whose work array is pre-filled with a nonzero pattern,
/// so a read of a never-written cell cannot masquerade as a correct zero.
pub(crate) fn poisoned_machine<W: LaneWord>(program: &Program) -> WideMachine<W> {
    let mut machine = WideMachine::new();
    machine.ensure_cells(program.num_rams() as usize);
    for addr in 0..program.num_rams() {
        machine.write_cell(
            RamAddr(addr),
            W::from_blocks(|_| 0xAAAA_AAAA_AAAA_AAAA ^ u64::from(addr)),
        );
    }
    machine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::options::CompilerOptions;
    use crate::program::Rm3Stats;
    use plim::{Instruction, Operand};

    #[test]
    fn verify_accepts_correct_compilation() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let f = mig.maj(a, !b, c);
        mig.add_output("f", f);
        let compiled = compile(&mig, CompilerOptions::new());
        verify(&mig, &compiled, 4, 1).unwrap();
    }

    #[test]
    fn verify_detects_wrong_program() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.and(a, b);
        mig.add_output("f", f);
        let mut compiled = compile(&mig, CompilerOptions::new());
        // Sabotage: flip the output location to a constant.
        let mut program = Program::new(2);
        for &i in compiled.program.instructions() {
            program.push(i);
        }
        program.add_output("f", plim::OutputLoc::Const(true));
        compiled.program = program;
        let err = verify(&mig, &compiled, 4, 1).unwrap_err();
        assert!(matches!(err, VerifyError::Mismatch { .. }));
    }

    #[test]
    fn verify_exhaustive_accepts_correct_compilation() {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 8);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig.xor(acc, x);
        }
        mig.add_output("parity", acc);
        let compiled = compile(&mig, CompilerOptions::new());
        verify_exhaustive(&mig, &compiled).unwrap();
    }

    #[test]
    fn verify_exhaustive_rejects_oversized_interface() {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", EXHAUSTIVE_WIDE_LIMIT + 1);
        mig.add_output("f", xs[0]);
        let compiled = compile(&mig, CompilerOptions::new());
        assert_eq!(
            verify_exhaustive(&mig, &compiled),
            Err(VerifyError::TooManyInputs {
                inputs: EXHAUSTIVE_WIDE_LIMIT + 1
            })
        );
    }

    #[test]
    fn verify_exhaustive_reports_first_pattern_counterexample() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.and(a, b);
        mig.add_output("f", f);
        let mut compiled = compile(&mig, CompilerOptions::new());
        let mut program = Program::new(2);
        for &i in compiled.program.instructions() {
            program.push(i);
        }
        // Doctor the program: claim the output is constant 1; the first
        // differing pattern is 00 (AND = 0 there).
        program.add_output("f", plim::OutputLoc::Const(true));
        compiled.program = program;
        assert_eq!(
            verify_exhaustive(&mig, &compiled),
            Err(VerifyError::Mismatch {
                output: "f".into(),
                inputs: vec![false, false],
            })
        );
    }

    #[test]
    fn wide_random_path_detects_wrong_program_on_large_interface() {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", EXHAUSTIVE_LIMIT + 2);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig.xor(acc, x);
        }
        mig.add_output("f", acc);
        let mut compiled = compile(&mig, CompilerOptions::new());
        verify(&mig, &compiled, 4, 1).unwrap();
        let mut program = Program::new(EXHAUSTIVE_LIMIT + 2);
        for &i in compiled.program.instructions() {
            program.push(i);
        }
        program.add_output("f", plim::OutputLoc::Const(false));
        compiled.program = program;
        let err = verify(&mig, &compiled, 4, 1).unwrap_err();
        match err {
            VerifyError::Mismatch { inputs, .. } => {
                assert_eq!(inputs.len(), EXHAUSTIVE_LIMIT + 2);
                // Parity of the counterexample must actually be 1 (the
                // doctored constant says 0).
                assert!(inputs.iter().filter(|&&b| b).count() % 2 == 1);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn verify_exhaustive_artifact_accepts_the_rm3_backend() {
        use crate::backend::Target;
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 7);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig.maj(acc, !x, xs[0]);
        }
        mig.add_output("f", acc);
        mig.add_output("nf", !acc);
        let compilation = crate::compile::compile_full(&mig, CompilerOptions::new());
        let artifact = Target::RM3.backend().emit(&compilation.ir);
        verify_exhaustive_artifact(&mig, artifact.as_ref()).unwrap();
    }

    #[test]
    fn verify_exhaustive_artifact_rejects_oversized_interface() {
        use crate::backend::Target;
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", EXHAUSTIVE_WIDE_LIMIT + 1);
        mig.add_output("f", xs[0]);
        let compilation = crate::compile::compile_full(&mig, CompilerOptions::new());
        let artifact = Target::RM3.backend().emit(&compilation.ir);
        assert_eq!(
            verify_exhaustive_artifact(&mig, artifact.as_ref()),
            Err(VerifyError::TooManyInputs {
                inputs: EXHAUSTIVE_WIDE_LIMIT + 1
            })
        );
    }

    #[test]
    fn init_discipline_catches_unwritten_destination() {
        let mut program = Program::new(0);
        // Non-masking instruction on an unwritten cell.
        program.push(Instruction::new(
            Operand::Const(true),
            Operand::Const(true),
            RamAddr(0),
        ));
        let compiled = Rm3Program {
            program,
            stats: Rm3Stats::default(),
        };
        assert_eq!(
            check_init_discipline(&compiled),
            Err(VerifyError::UninitializedRead { pc: 0 })
        );
    }

    #[test]
    fn init_discipline_catches_unwritten_operand() {
        let mut program = Program::new(0);
        program.push(Instruction::reset(RamAddr(0)));
        program.push(Instruction::new(
            Operand::Ram(RamAddr(1)),
            Operand::Const(true),
            RamAddr(0),
        ));
        let compiled = Rm3Program {
            program,
            stats: Rm3Stats::default(),
        };
        assert_eq!(
            check_init_discipline(&compiled),
            Err(VerifyError::UninitializedRead { pc: 1 })
        );
    }

    #[test]
    fn init_discipline_accepts_masking_idioms() {
        let mut program = Program::new(0);
        program.push(Instruction::reset(RamAddr(0)));
        program.push(Instruction::set(RamAddr(1)));
        program.push(Instruction::new(
            Operand::Ram(RamAddr(0)),
            Operand::Ram(RamAddr(1)),
            RamAddr(0),
        ));
        let compiled = Rm3Program {
            program,
            stats: Rm3Stats::default(),
        };
        check_init_discipline(&compiled).unwrap();
    }

    #[test]
    fn compiled_programs_satisfy_init_discipline() {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 5);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig.xor(acc, x);
        }
        mig.add_output("f", !acc);
        for opts in [CompilerOptions::new(), CompilerOptions::naive()] {
            let compiled = compile(&mig, opts);
            check_init_discipline(&compiled).unwrap();
        }
    }

    /// A copy of `compiled` declaring only its first `keep` outputs, plus
    /// `extra` more outputs reading input 0.
    fn with_outputs(compiled: &Rm3Program, keep: usize, extra: usize) -> Rm3Program {
        let mut program = Program::new(compiled.program.num_inputs());
        for &i in compiled.program.instructions() {
            program.push(i);
        }
        for (name, loc) in compiled.program.outputs().iter().take(keep) {
            program.add_output(name, *loc);
        }
        for k in 0..extra {
            let loc = plim::OutputLoc::Input {
                index: 0,
                complemented: false,
            };
            program.add_output(format!("extra{k}"), loc);
        }
        Rm3Program {
            program,
            stats: compiled.stats,
        }
    }

    /// Every entry point's verdict on `compiled`: the two RM3 paths, then
    /// the two artifact paths over the same program.
    fn all_entry_points(mig: &Mig, compiled: &Rm3Program) -> [Result<(), VerifyError>; 4] {
        let artifact = crate::backend::Rm3Artifact {
            compiled: compiled.clone(),
        };
        [
            verify(mig, compiled, 4, 1),
            verify_exhaustive(mig, compiled),
            verify_artifact(mig, &artifact, 4, 1),
            verify_exhaustive_artifact(mig, &artifact),
        ]
    }

    #[test]
    fn every_entry_point_rejects_a_different_output_count() {
        // 14 inputs: above EXHAUSTIVE_LIMIT, so `verify` and
        // `verify_artifact` sample; 8 inputs: every path is exhaustive.
        for inputs in [EXHAUSTIVE_LIMIT + 2, 8] {
            let mut mig = Mig::new();
            let xs = mig.add_inputs("x", inputs);
            let mut acc = xs[0];
            for &x in &xs[1..] {
                acc = mig.xor(acc, x);
            }
            mig.add_output("f", acc);
            mig.add_output("nf", !acc);
            let compiled = compile(&mig, CompilerOptions::new());
            for result in all_entry_points(&mig, &compiled) {
                result.unwrap();
            }
            for (keep, extra) in [(1, 0), (0, 0), (2, 1)] {
                let doctored = with_outputs(&compiled, keep, extra);
                for result in all_entry_points(&mig, &doctored) {
                    assert_eq!(
                        result,
                        Err(VerifyError::OutputCountMismatch {
                            expected: 2,
                            got: keep + extra,
                        }),
                        "{inputs} inputs, {keep} kept, {extra} extra"
                    );
                }
            }
        }
    }

    #[test]
    fn counterexamples_are_numbered_alike_at_every_lane_width() {
        // 10 inputs: 16 blocks of 64 patterns, i.e. 4 groups of the
        // 256-wide machine but 16 runs of the 64-wide artifact executor.
        const N: usize = 10;
        let mut source = Mig::new();
        let xs = source.add_inputs("x", N);
        let mut parity = xs[0];
        for &x in &xs[1..] {
            parity = source.xor(parity, x);
        }
        source.add_output("p", parity);
        source.add_output("f", parity);
        let compiled = compile(&source, CompilerOptions::new());
        let artifact = crate::backend::Rm3Artifact {
            compiled: compiled.clone(),
        };
        // Minterm 869 = 64·13 + 37 lies in the last group, 389 = 64·6 + 5
        // in a middle one.
        for minterm in [869usize, 389] {
            let mut reference = Mig::new();
            let xs = reference.add_inputs("x", N);
            let mut parity = xs[0];
            for &x in &xs[1..] {
                parity = reference.xor(parity, x);
            }
            let literal = |i: usize| if minterm >> i & 1 == 1 { xs[i] } else { !xs[i] };
            let mut hit = literal(0);
            for i in 1..N {
                hit = reference.and(hit, literal(i));
            }
            let flipped = reference.xor(parity, hit);
            reference.add_output("p", parity);
            reference.add_output("f", flipped);
            let expected = Err(VerifyError::Mismatch {
                output: "f".into(),
                inputs: (0..N).map(|i| minterm >> i & 1 == 1).collect(),
            });
            assert_eq!(verify_exhaustive(&reference, &compiled), expected);
            assert_eq!(verify_exhaustive_artifact(&reference, &artifact), expected);
        }
    }
}
