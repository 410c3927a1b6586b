//! The `BENCH.json` fidelity axis: measured correctness and reliability.
//!
//! The bench gate tracks compilation *cost* (instructions, RAMs, wear);
//! this module adds what the compiled artifacts are *worth*: whether the
//! program is exhaustively proven equivalent to its source MIG, how it
//! degrades under drifted writes, and how long the device survives it.
//! [`annotate_bench`] fills the three fidelity columns of a
//! [`BenchRun`]'s records from the run's own compiled artifacts (no
//! recompilation), which is what `plimc bench` emits and the CI gate
//! compares against the committed baseline.

use mig::Mig;
use plim::MachineError;
use plim_compiler::batch::{BenchRun, Circuit};
use plim_compiler::verify::verify_exhaustive;
use plim_compiler::Rm3Program;
use plim_parallel::Parallelism;

use crate::fault::{fault_sweep, FaultModel, FaultScenario};
use crate::lifetime::{simulate_lifetime, LifetimeScenario};

/// Knobs of the fidelity measurement (all deterministic given the seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityConfig {
    /// Per-write bit-flip probability of the drift fault model.
    pub drift_probability: f64,
    /// Random input patterns of the fault sweep.
    pub fault_patterns: u64,
    /// Endurance budget per cell for the lifetime simulation.
    pub cell_endurance: u64,
    /// Master seed for the fault sweep.
    pub seed: u64,
    /// Worker threads for the fault sweep.
    pub parallelism: Parallelism,
}

impl Default for FidelityConfig {
    fn default() -> Self {
        FidelityConfig {
            drift_probability: 1e-3,
            fault_patterns: 4096,
            cell_endurance: 1_000_000,
            seed: 0xDAC2016,
            parallelism: Parallelism::Auto,
        }
    }
}

/// The measured fidelity of one circuit's compiled artifacts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Every opt level proven equal to the source MIG over the full input
    /// space (`false` when any proof fails or [`verify_exhaustive`]
    /// refuses the interface as too wide).
    pub verified_exhaustive: bool,
    /// Pattern error rate of the default program under drifted writes.
    pub fault_error_rate: f64,
    /// Invocations before the first cell of the default program exceeds
    /// the endurance budget (ideal-device closed form).
    pub lifetime_invocations: u64,
}

/// Measures one circuit's fidelity from its already-compiled artifacts.
///
/// `default_program` is the record's main compilation (`-O0`); the
/// `optimized` slice holds further opt levels that must *also* pass the
/// exhaustive proof for `verified_exhaustive` to hold. All proofs are
/// against the **raw** source MIG, so they cover rewriting and
/// compilation end to end.
///
/// # Errors
///
/// Propagates a [`MachineError`] from the fault sweep — compiled
/// programs never trigger one.
pub fn fidelity_for(
    mig: &Mig,
    default_program: &Rm3Program,
    optimized: &[&Rm3Program],
    config: &FidelityConfig,
) -> Result<Fidelity, MachineError> {
    let verified_exhaustive = std::iter::once(default_program)
        .chain(optimized.iter().copied())
        .all(|compiled| verify_exhaustive(mig, compiled).is_ok());
    let fault = fault_sweep(
        &default_program.program,
        &FaultScenario {
            model: FaultModel::drift(config.drift_probability),
            patterns: config.fault_patterns,
            seed: config.seed,
            parallelism: config.parallelism,
        },
    )?;
    let lifetime = simulate_lifetime(
        &default_program.program,
        &LifetimeScenario {
            cell_endurance: config.cell_endurance,
            max_invocations: u64::MAX,
            write_noise: 0.0,
            seed: config.seed,
        },
    );
    Ok(Fidelity {
        verified_exhaustive,
        fault_error_rate: fault.error_rate(),
        lifetime_invocations: lifetime.invocations,
    })
}

/// Fills the fidelity columns of every record of a [`BenchRun`] from the
/// run's own compiled artifacts: per circuit, the `-O0` default job plus
/// the `-O1`/`-O2` pass-pipeline jobs (jobs 2, 5 and 6 of
/// [`BenchRun::circuit_jobs`]), each proven against the raw source MIG.
///
/// # Errors
///
/// Propagates a [`MachineError`] from the fault sweep — compiled
/// programs never trigger one.
///
/// # Panics
///
/// Panics if `circuits` is not the slice the run was produced from
/// (record/circuit counts must match).
pub fn annotate_bench(
    run: &mut BenchRun,
    circuits: &[Circuit],
    config: &FidelityConfig,
) -> Result<(), MachineError> {
    assert_eq!(
        run.records.len(),
        circuits.len(),
        "bench run has {} records but {} circuits were supplied",
        run.records.len(),
        circuits.len()
    );
    let fidelities: Vec<Fidelity> = circuits
        .iter()
        .enumerate()
        .map(|(index, circuit)| {
            let jobs = run.circuit_jobs(index);
            fidelity_for(
                &circuit.mig,
                &jobs[2].compiled,
                &[&jobs[5].compiled, &jobs[6].compiled],
                config,
            )
        })
        .collect::<Result<_, _>>()?;
    for (record, fidelity) in run.records.iter_mut().zip(fidelities) {
        record.verified_exhaustive = fidelity.verified_exhaustive;
        record.fault_error_rate = fidelity.fault_error_rate;
        record.lifetime_invocations = fidelity.lifetime_invocations;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use plim_benchmarks::suite::{build, Scale};
    use plim_compiler::batch::bench_suite;
    use plim_compiler::verify::EXHAUSTIVE_WIDE_LIMIT;
    use plim_compiler::{compile, CompilerOptions};

    fn xor_chain(inputs: usize) -> Mig {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", inputs);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig.xor(acc, x);
        }
        mig.add_output("f", acc);
        mig
    }

    #[test]
    fn fidelity_of_a_correct_compilation() {
        let mig = xor_chain(6);
        let compiled = compile(&mig, CompilerOptions::new());
        let fidelity = fidelity_for(&mig, &compiled, &[], &FidelityConfig::default()).unwrap();
        assert!(fidelity.verified_exhaustive);
        // Drift at 1e-3 must corrupt *some* patterns of a multi-write
        // program, but nowhere near all of them.
        assert!(fidelity.fault_error_rate > 0.0 && fidelity.fault_error_rate < 0.5);
        assert!(fidelity.lifetime_invocations > 0);
    }

    #[test]
    fn oversized_interface_reports_unverified_not_error() {
        let mig = xor_chain(EXHAUSTIVE_WIDE_LIMIT + 1);
        let compiled = compile(&mig, CompilerOptions::new());
        let fidelity = fidelity_for(&mig, &compiled, &[], &FidelityConfig::default()).unwrap();
        assert!(!fidelity.verified_exhaustive);
        assert!(fidelity.lifetime_invocations > 0);
    }

    #[test]
    fn annotate_bench_fills_every_record() {
        // ctrl (7 PIs) and int2float (11 PIs) are exhaustively provable;
        // router (60 PIs) exceeds the wide limit and must be annotated as
        // unverified rather than erroring.
        let circuits = [
            Circuit::new("ctrl", build("ctrl", Scale::Reduced).unwrap()),
            Circuit::new("int2float", build("int2float", Scale::Reduced).unwrap()),
            Circuit::new("router", build("router", Scale::Reduced).unwrap()),
        ];
        let mut run = bench_suite(&circuits, 2, Parallelism::Auto);
        assert!(run.records.iter().all(|r| !r.verified_exhaustive));
        annotate_bench(&mut run, &circuits, &FidelityConfig::default()).unwrap();
        for record in &run.records {
            assert_eq!(record.verified_exhaustive, record.circuit != "router");
            assert!(record.fault_error_rate >= 0.0);
            assert!(record.lifetime_invocations > 0, "{}", record.circuit);
        }
    }

    #[test]
    fn target_dispatch_chooses_the_right_executor() {
        use plim_compiler::verify::{verify_exhaustive_artifact, VerifyError};
        use plim_compiler::Target;
        plim_backends::install();
        let ambit = Target::parse("ambit").expect("registered");
        // RM3 proves on the PLiM machine, every other target through its
        // artifact's own executor; both refuse the same oversized circuit.
        for (inputs, provable) in [(6, true), (EXHAUSTIVE_WIDE_LIMIT + 1, false)] {
            let mig = xor_chain(inputs);
            let compilation = plim_compiler::compile_full(&mig, CompilerOptions::new());
            let artifact = ambit.backend().emit(&compilation.ir);
            for result in [
                verify_exhaustive(&mig, &compilation.compiled),
                verify_exhaustive_artifact(&mig, artifact.as_ref()),
            ] {
                if provable {
                    result.unwrap();
                } else {
                    assert_eq!(result, Err(VerifyError::TooManyInputs { inputs }));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "records but")]
    fn annotate_bench_rejects_mismatched_circuits() {
        let circuits = [Circuit::new("ctrl", build("ctrl", Scale::Reduced).unwrap())];
        let mut run = bench_suite(&circuits, 1, Parallelism::Serial);
        annotate_bench(&mut run, &[], &FidelityConfig::default()).unwrap();
    }
}
