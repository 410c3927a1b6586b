//! Timed benchmarks for the pipeline stages and the batch driver.
//!
//! These measure compiler *throughput* (the paper reports only program
//! quality, not compile time; a practical compiler needs both). The harness
//! is criterion-free so the workspace builds offline (`harness = false`);
//! each measurement reports the best of `--iters` runs.
//!
//! Headline measurements:
//!
//! * **in-place vs rebuild rewriting** — the exact Algorithm 1 schedule run
//!   by the reusable-arena engine (`mig::arena::RewriteArena`, the default
//!   behind `rewrite`) and by the rebuild reference engine
//!   (`rewrite_rebuild`), per circuit, with the in-place engine's per-pass
//!   wall-clock breakdown and peak node-arena size. The in-place engine
//!   performs one import and one compaction per call instead of ~5 graph
//!   reconstructions per cycle, and is expected to win on every circuit.
//! * **arena vs equality saturation** — the `--rewrite egraph` stage
//!   (arena baseline + saturation + extraction + compiled-cost scoring)
//!   against the plain arena stage, with compiled `#I` at -O2 for both
//!   and per-circuit saturation statistics (e-nodes, iterations, and the
//!   budget axis that stopped the run). The Σ row enforces the 10×
//!   wall-clock acceptance bound. A second table splits the e-graph stage
//!   into its phases — saturate, extract, score — with the saturation's
//!   deterministic work count.
//! * **the `-O2` pass pipeline** — `PassManager::run` wall time per
//!   circuit, its rounds and fixpoint status, and per pass the edits and
//!   decision counters (trials, accepted, rejected, blocked, memo hits).
//! * **serial vs batch** full-suite compilation: the exact Table 1 workload
//!   (three compilations per circuit, one shared rewrite) run job-by-job on
//!   one thread and fanned across cores by `plim_compiler::batch`. On a
//!   ≥ 4-core machine the batch pipeline is expected to finish the suite
//!   ≥ 2× faster; the achieved speedup and the worker count are printed
//!   either way.
//!
//! Run with
//! `cargo bench -p plim-bench --bench pipeline [-- --full] [-- --iters N]`.
//! `cargo bench -p plim-bench --bench pipeline -- --smoke` runs everything
//! in a reduced one-iteration configuration (the CI smoke step), so the
//! harness itself cannot rot. `-- --json PATH` additionally writes the
//! `BENCH.json` bench-gate artifact (`plim_compiler::benchfile`) for the
//! suite that was benchmarked.

use std::time::{Duration, Instant};

use mig::arena::RewriteArena;
use mig::rewrite::{rewrite, rewrite_rebuild};
use plim_bench::{measure, measure_suite, suite_circuits, Parallelism};
use plim_benchmarks::suite::{build, Scale};
use plim_compiler::{batch, benchfile, compile, CompilerOptions};

const CIRCUITS: [&str; 4] = ["adder", "bar", "voter", "i2c"];
const SMOKE_CIRCUITS: [&str; 2] = ["ctrl", "voter"];

/// Best-of-`iters` wall-clock time of `f`.
fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters.max(1) {
        let clock = Instant::now();
        std::hint::black_box(f());
        best = best.min(clock.elapsed());
    }
    best
}

fn bench_stages(circuits: &[&str], iters: usize) {
    println!("── stage benchmarks (reduced scale, best of {iters}) ──");
    println!(
        "{:<11} {:>12} {:>14} {:>14} {:>12}",
        "circuit", "rewrite", "compile naive", "compile smart", "machine run"
    );
    for &name in circuits {
        let mig = build(name, Scale::Reduced).unwrap();
        let rewritten = rewrite(&mig, 4);
        let compiled = compile(&rewritten, CompilerOptions::new());
        let inputs = vec![false; rewritten.num_inputs()];
        let t_rewrite = best_of(iters, || rewrite(&mig, 4));
        let t_naive = best_of(iters, || compile(&rewritten, CompilerOptions::naive()));
        let t_smart = best_of(iters, || compile(&rewritten, CompilerOptions::new()));
        let mut machine = plim::Machine::new();
        let t_machine = best_of(iters, || machine.run(&compiled.program, &inputs).unwrap());
        println!(
            "{name:<11} {t_rewrite:>12.1?} {t_naive:>14.1?} {t_smart:>14.1?} {t_machine:>12.1?}"
        );
    }
    println!();
}

/// The in-place-vs-rebuild rewrite comparison: total wall-clock per engine
/// plus the arena engine's per-pass breakdown and peak arena size. The two
/// engines must agree functionally and the in-place node count must be no
/// worse — both are asserted here so the bench doubles as a smoke check.
fn bench_rewrite_engines(circuits: &[&str], scale: Scale, iters: usize) {
    println!("── rewrite engines: rebuild vs in-place (effort 4, best of {iters}) ──");
    println!(
        "{:<11} {:>11} {:>11} {:>8} | {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "circuit",
        "rebuild",
        "in-place",
        "speedup",
        "load",
        "Ω.D",
        "Ω.A",
        "Ω.I",
        "compact",
        "peak-arena"
    );
    let mut arena = RewriteArena::new();
    let mut total_rebuild = Duration::ZERO;
    let mut total_inplace = Duration::ZERO;
    for &name in circuits {
        let mig = build(name, scale).unwrap();
        let t_rebuild = best_of(iters, || rewrite_rebuild(&mig, 4));
        let t_inplace = best_of(iters, || arena.rewrite(&mig, 4));
        total_rebuild += t_rebuild;
        total_inplace += t_inplace;

        let inplace = arena.rewrite(&mig, 4);
        let profile = arena.profile().clone();
        let rebuild = rewrite_rebuild(&mig, 4);
        assert!(
            mig::equiv::check_equivalence(&rebuild, &inplace, 16, 0xDAC)
                .unwrap()
                .holds(),
            "{name}: engines disagree"
        );
        assert!(
            inplace.num_majority_nodes() <= rebuild.num_majority_nodes(),
            "{name}: in-place produced more nodes"
        );
        let speedup = t_rebuild.as_secs_f64() / t_inplace.as_secs_f64().max(f64::EPSILON);
        println!(
            "{:<11} {:>11.1?} {:>11.1?} {:>7.2}x | {:>9.1?} {:>9.1?} {:>9.1?} {:>9.1?} {:>9.1?} {:>10}",
            name,
            t_rebuild,
            t_inplace,
            speedup,
            profile.load,
            profile.distributivity,
            profile.associativity,
            profile.inverter,
            profile.compact,
            profile.peak_arena_nodes,
        );
    }
    let overall = total_rebuild.as_secs_f64() / total_inplace.as_secs_f64().max(f64::EPSILON);
    println!(
        "{:<11} {:>11.1?} {:>11.1?} {:>7.2}x",
        "Σ", total_rebuild, total_inplace, overall
    );
    if overall < 1.0 {
        println!("WARNING: in-place engine slower than rebuild overall");
    }
    println!();
}

/// The arena-vs-equality-saturation comparison, measured as the pipeline
/// a user actually runs: rewrite stage plus the -O2 compile of its result
/// (for `--rewrite egraph` the stage is arena baseline + saturation +
/// extraction + compiled-cost scoring). Reports compiled `#I` for both
/// engines and the per-circuit saturation statistics (final e-nodes,
/// iterations, and which budget axis stopped the run). Functional
/// equivalence and the never-worse compiled cost are asserted so the
/// bench doubles as a smoke check; at full scale the Σ row enforces the
/// 10× wall-clock acceptance bound (at reduced scale the compile stage is
/// microseconds, so the ratio is dominated by the saturation floor and is
/// reported without judgment).
///
/// The phase table times the stage's steps one by one through the
/// e-graph's public API (best of `iters` each): *saturate* is
/// `plim_egraph::seed` plus `saturate` under the effort-scaled budget,
/// *extract* is `plim_egraph::candidates` (every objective's extraction,
/// polished and deduplicated), and *score* compiles the baseline and every
/// candidate at -O2 serially (the stage itself fans the candidates across
/// the worker pool).
fn bench_egraph(circuits: &[&str], scale: Scale, iters: usize, effort: usize) {
    use plim_compiler::OptLevel;
    println!(
        "── compile pipeline: --rewrite arena vs --rewrite egraph (effort {effort}, -O2, best of {iters}) ──"
    );
    println!(
        "{:<11} {:>11} {:>11} {:>7} | {:>8} {:>9} | {:>8} {:>5} {:>10}",
        "circuit", "arena", "egraph", "ratio", "#I arena", "#I egraph", "e-nodes", "iters", "stop"
    );
    let options = CompilerOptions::new().opt(OptLevel::O2);
    let mut total_arena = Duration::ZERO;
    let mut total_egraph = Duration::ZERO;
    let mut phases = Vec::new();
    for &name in circuits {
        let mig = build(name, scale).unwrap();
        let arena = rewrite(&mig, effort);
        let t_arena = best_of(iters, || compile(&rewrite(&mig, effort), options));
        let t_egraph = best_of(iters, || {
            let chosen = plim_egraph::optimize(&mig, &rewrite(&mig, effort), effort, options);
            compile(&chosen, options)
        });
        total_arena += t_arena;
        total_egraph += t_egraph;

        let (chosen, stats) = plim_egraph::optimize_with_stats(&mig, &arena, effort, options);
        assert!(
            mig::equiv::check_equivalence(&arena, &chosen, 16, 0xDAC)
                .unwrap()
                .holds(),
            "{name}: engines disagree"
        );
        let arena_i = compile(&arena, options).stats.instructions;
        let egraph_i = compile(&chosen, options).stats.instructions;
        assert!(
            egraph_i <= arena_i,
            "{name}: e-graph extraction compiled to more instructions"
        );
        let ratio = t_egraph.as_secs_f64() / t_arena.as_secs_f64().max(f64::EPSILON);
        println!(
            "{:<11} {:>11.1?} {:>11.1?} {:>6.2}x | {:>8} {:>9} | {:>8} {:>5} {:>10}",
            name,
            t_arena,
            t_egraph,
            ratio,
            arena_i,
            egraph_i,
            stats.final_enodes,
            stats.iterations,
            stats.stop.name(),
        );
        let timed = egraph_phases(&mig, &arena, effort, options, iters);
        assert_eq!(
            (timed.enodes, timed.candidates),
            (stats.final_enodes, stats.candidates_scored),
            "{name}: the timed phases drifted from optimize_with_stats"
        );
        phases.push((name, timed));
    }
    let overall = total_egraph.as_secs_f64() / total_arena.as_secs_f64().max(f64::EPSILON);
    println!(
        "{:<11} {:>11.1?} {:>11.1?} {:>6.2}x",
        "Σ", total_arena, total_egraph, overall
    );
    if scale == Scale::Full && overall > 10.0 {
        println!("WARNING: equality saturation exceeded the 10x wall-clock bound");
    }
    println!();

    println!("── e-graph stage phases (best of {iters}; score compiles serially) ──");
    println!(
        "{:<11} {:>11} {:>11} {:>11} {:>10} {:>10}",
        "circuit", "saturate", "extract", "score", "work", "candidates"
    );
    let mut totals = [Duration::ZERO; 3];
    for (name, timed) in &phases {
        for (total, time) in totals.iter_mut().zip(timed.times) {
            *total += time;
        }
        let [saturate, extract, score] = timed.times;
        println!(
            "{name:<11} {saturate:>11.1?} {extract:>11.1?} {score:>11.1?} {:>10} {:>10}",
            timed.work, timed.candidates
        );
    }
    let [saturate, extract, score] = totals;
    println!(
        "{:<11} {saturate:>11.1?} {extract:>11.1?} {score:>11.1?}",
        "Σ"
    );
    println!();
}

/// One circuit's e-graph stage, phase by phase (see [`bench_egraph`]).
struct EgraphPhases {
    /// Best-of-`iters` wall time of saturate, extract and score.
    times: [Duration; 3],
    /// The saturation's deterministic work count.
    work: u64,
    /// E-nodes when saturation stopped.
    enodes: usize,
    /// Candidates scored besides the baseline.
    candidates: usize,
}

fn egraph_phases(
    raw: &mig::Mig,
    baseline: &mig::Mig,
    effort: usize,
    options: CompilerOptions,
    iters: usize,
) -> EgraphPhases {
    let saturated = || {
        let mut g = plim_egraph::seed(raw, baseline);
        let budget = plim_egraph::EgraphBudget::for_effort(effort).scaled_to(g.num_enodes());
        plim_egraph::saturate(&mut g, &budget);
        g
    };
    let t_saturate = best_of(iters, saturated);
    let g = saturated();
    let t_extract = best_of(iters, || plim_egraph::candidates(&g, baseline));
    let candidates = plim_egraph::candidates(&g, baseline);
    let t_score = best_of(iters, || {
        std::iter::once(baseline)
            .chain(&candidates)
            .map(|m| compile(m, options).stats.instructions)
            .sum::<usize>()
    });
    EgraphPhases {
        times: [t_saturate, t_extract, t_score],
        work: g.work(),
        enodes: g.num_enodes(),
        candidates: candidates.len(),
    }
}

/// The `-O2` pass pipeline on its own: the wall time of
/// `PassManager::run` on each circuit's lowering (best of `iters`, one IR
/// clone included), the rounds it took and whether it reached its
/// fixpoint, then per pass the summed runs, edits and decision counters
/// (`PassRun::decisions`) of one run.
fn bench_o2_passes(circuits: &[&str], scale: Scale, iters: usize) {
    use plim_compiler::ir::{self, passes::Decisions, passes::PassManager};
    use plim_compiler::OptLevel;
    println!("── -O2 pass pipeline: PassManager::run per circuit (effort 4, best of {iters}) ──");
    println!(
        "{:<11} {:>10} {:>6} {:>9} | {:<14} {:>4} {:>5} {:>6} {:>8} {:>8} {:>7} {:>9}",
        "circuit",
        "run",
        "rounds",
        "converged",
        "pass",
        "runs",
        "edits",
        "trials",
        "accepted",
        "rejected",
        "blocked",
        "memo hits"
    );
    let options = CompilerOptions::new().opt(OptLevel::O2);
    let backend = options.target.backend();
    let manager = PassManager::for_level(OptLevel::O2);
    let mut total = Duration::ZERO;
    for &name in circuits {
        let mig = rewrite(&build(name, scale).unwrap(), 4);
        let lowered = ir::lower(&mig, options);
        let time = best_of(iters, || manager.run(&mut lowered.clone(), &mig, backend));
        total += time;
        let report = manager.run(&mut lowered.clone(), &mig, backend);
        let rounds = report.runs.iter().filter(|r| r.pass == "forward").count();
        let mut passes: Vec<&str> = Vec::new();
        for run in &report.runs {
            if !passes.contains(&run.pass) {
                passes.push(run.pass);
            }
        }
        for (line, pass) in passes.into_iter().enumerate() {
            let mut runs = 0;
            let mut edits = 0;
            let mut decisions = Decisions::default();
            for run in report.runs.iter().filter(|r| r.pass == pass) {
                runs += 1;
                edits += run.edits;
                decisions += run.decisions;
            }
            let lead = if line == 0 {
                format!(
                    "{name:<11} {:>10} {rounds:>6} {:>9}",
                    format!("{time:.1?}"),
                    if report.converged { "yes" } else { "NO" }
                )
            } else {
                format!("{:<11} {:>10} {:>6} {:>9}", "", "", "", "")
            };
            println!(
                "{lead} | {pass:<14} {runs:>4} {edits:>5} {:>6} {:>8} {:>8} {:>7} {:>9}",
                decisions.trials,
                decisions.accepted,
                decisions.rejected,
                decisions.blocked,
                decisions.memo_hits
            );
        }
    }
    println!("{:<11} {:>10}", "Σ", format!("{total:.1?}"));
    println!();
}

fn bench_suite(scale: Scale, effort: usize, iters: usize) {
    let circuits = suite_circuits(scale);
    println!(
        "── full-suite compilation: serial vs batch ({} circuits, effort {effort}, best of {iters}) ──",
        circuits.len()
    );

    let serial = best_of(iters, || {
        circuits
            .iter()
            .map(|c| measure(&c.name, &c.mig, effort))
            .collect::<Vec<_>>()
    });
    let mut workers = 0;
    let batch = best_of(iters, || {
        let run = measure_suite(&circuits, effort, Parallelism::Auto);
        workers = run.report.workers;
        run
    });

    let speedup = serial.as_secs_f64() / batch.as_secs_f64().max(f64::EPSILON);
    println!("serial (1 thread):    {serial:>10.2?}");
    println!("batch  ({workers} workers):   {batch:>10.2?}");
    println!("speedup:              {speedup:>10.2}x");
    if plim_parallel::available_threads() >= 4 && speedup < 2.0 {
        println!("WARNING: expected ≥ 2x on ≥ 4 cores");
    }
    println!();
}

/// Writes the bench-gate artifact for the given scale (one extended batch
/// run: the Table 1 jobs plus the lookahead/wear probe columns).
fn emit_bench_json(path: &str, scale: Scale) {
    let circuits = suite_circuits(scale);
    let mut run = batch::bench_suite(&circuits, 4, Parallelism::Auto);
    // The fidelity columns are required fields of BENCH.json; measure them
    // from the run's own artifacts exactly as `plimc bench` does.
    if let Err(error) = plim_scenario::annotate_bench(
        &mut run,
        &circuits,
        &plim_scenario::FidelityConfig::default(),
    ) {
        eprintln!("pipeline: fidelity annotation: {error}");
        std::process::exit(1);
    }
    // The equality-saturation columns, exactly as `plimc bench` fills them.
    plim_egraph::annotate_bench(&mut run, &circuits, Parallelism::Auto);
    let verified = run
        .records
        .iter()
        .filter(|record| record.verified_exhaustive)
        .count();
    println!(
        "fidelity: {verified}/{} circuits verified exhaustively",
        run.records.len()
    );
    let document = benchfile::to_json(&run.records);
    if let Err(error) = std::fs::write(path, document) {
        eprintln!("pipeline: writing {path}: {error}");
        std::process::exit(1);
    }
    println!("bench records written to {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| match args.get(i + 1) {
            Some(path) => path.clone(),
            None => {
                eprintln!("pipeline: --json requires a path");
                std::process::exit(1);
            }
        });
    let iters = args
        .iter()
        .position(|a| a == "--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1 } else { 3 });
    let scale = if full && !smoke {
        Scale::Full
    } else {
        Scale::Reduced
    };
    let stage_circuits: &[&str] = if smoke { &SMOKE_CIRCUITS } else { &CIRCUITS };
    // Under --full the engine comparison covers the entire Table 1 suite,
    // matching the numbers recorded in the README; otherwise it sticks to
    // the stage-bench subset for speed.
    let engine_circuits: &[&str] = if smoke {
        &SMOKE_CIRCUITS
    } else if full {
        &plim_benchmarks::suite::ALL
    } else {
        &CIRCUITS
    };

    bench_stages(stage_circuits, iters);
    bench_rewrite_engines(engine_circuits, scale, iters);
    bench_egraph(engine_circuits, scale, iters, 4);
    bench_o2_passes(engine_circuits, scale, iters);
    bench_suite(scale, 4, iters);
    if let Some(path) = json {
        emit_bench_json(&path, scale);
    }
}
