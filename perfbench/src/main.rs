//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and how to run it.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile-O0 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every failure (a compile
//! error, an output-check or determinism mismatch, a wrong served answer)
//! is printed to standard error and makes the command exit with code 1.

mod check;
mod compile;
mod host;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use plim_benchmarks::suite::{self, Scale};
use plim_compiler::{OptLevel, RewriteMode};

use compile::{Passes, Traced};
use stats::{median, Metrics};
use trace::Trace;

/// The metrics a user of the compiler or the daemon sees, printed with
/// `--trace 0`.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "compile_s",
    "compile_geomean_ms",
    "program_instructions",
    "program_rams",
    "program_wear",
    "peak_rss_mb",
];

/// The per-layer metrics printed with `--trace 1`, besides the
/// `circuit.<name>.{ms,instructions}` rows (see [`per_layer_names`]).
const PER_LAYER: [&str; 66] = [
    "mig.io.parse_ms",
    "mig.rewrite_ms",
    "mig.rewrite.self_ms",
    "mig.rewrite.load_ms",
    "mig.rewrite.omega_d_ms",
    "mig.rewrite.omega_a_ms",
    "mig.rewrite.omega_i_ms",
    "mig.rewrite.compact_ms",
    "mig.rewrite.nodes_out",
    "egraph_ms",
    "egraph.enodes",
    "egraph.iterations",
    "egraph.candidates_scored",
    "egraph.improved_frac",
    "ir.lower_ms",
    "ir.events",
    "ir.passes_ms",
    "ir.passes.entry_ms",
    "ir.passes.rounds",
    "ir.passes.forward.runs",
    "ir.passes.forward.edits",
    "ir.passes.forward.useful_frac",
    "ir.passes.peephole.runs",
    "ir.passes.peephole.edits",
    "ir.passes.peephole.useful_frac",
    "ir.passes.redundant_init.runs",
    "ir.passes.redundant_init.edits",
    "ir.passes.redundant_init.useful_frac",
    "ir.passes.dead_write.runs",
    "ir.passes.dead_write.edits",
    "ir.passes.dead_write.useful_frac",
    "ir.emit_ms",
    "verify_ms",
    "emit.listing_ms",
    "emit.listing_bytes",
    "trace.compile_s",
    "trace.overhead_s",
    "trace.uncovered_ms",
    "trace.uncovered_frac",
    "trace.spans",
    "serve.p50_ms",
    "serve.hit_p50_ms",
    "serve.hit_p99_ms",
    "serve.hit_frac",
    "serve.miss_p50_ms",
    "serve.miss_p99_ms",
    "serve.gen_late_ms_p99",
    "serve.backlog",
    "serve.r200.p99_ms",
    "serve.r400.p99_ms",
    "serve.r600.p99_ms",
    "serve.r800.p99_ms",
    "serve.r1000.p99_ms",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "store.writes",
    "store.hits",
    "failed_frac",
    "compile.circuits",
    "compile.passes",
    "raw.compile_s",
    "host.kernel_ms",
    "serve.max_rate_per_s",
    "serve.requests",
    "serve.passes",
];

/// Where a traced run writes its spans, one JSON line each, replacing the
/// previous traced run's file for the same workload.
const SPANS_DIR: &str = ".perfbench-spans";

/// The reference-host factor right after a set-up, from three kernel
/// samples (see [`host`]).
fn host_factor() -> f64 {
    let mut speed = host::Speed::default();
    for _ in 0..3 {
        speed.sample();
    }
    speed.factor()
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Untraced passes per run, at least; more run while time remains.
const MIN_PASSES: usize = 2;

/// Traced passes per `--trace 1` run; their span counters must agree.
const TRACED_PASSES: usize = 2;

/// Every per-layer metric name, in print order.
fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = PER_LAYER.iter().map(|s| (*s).to_string()).collect();
    for circuit in suite::ALL {
        names.push(format!("circuit.{circuit}.ms"));
        names.push(format!("circuit.{circuit}.instructions"));
    }
    names
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a whole number")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failures: Vec<String>,
    /// Span dump of the traced run (JSON lines).
    spans: String,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload compile-O0|compile-O2|compile-egraph|serve \
                 --seed N [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // `--rewrite egraph` dispatches through this process-wide hook.
    plim_egraph::install();
    let outcome = match args.workload.as_str() {
        "compile-O0" => compile_workload(&args, OptLevel::O0, RewriteMode::Arena, Scale::Full),
        "compile-O2" => compile_workload(&args, OptLevel::O2, RewriteMode::Arena, Scale::Reduced),
        "compile-egraph" => {
            compile_workload(&args, OptLevel::O2, RewriteMode::Egraph, Scale::Reduced)
        }
        "serve" => serve_workload(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    match peak_rss_mb() {
        Ok(mb) => outcome.metrics.set("peak_rss_mb", mb),
        Err(error) => outcome.failures.push(error),
    }
    if args.trace {
        // The spans stay in memory during the run and are written here.
        let path = PathBuf::from(SPANS_DIR).join(format!("{}.jsonl", args.workload));
        let written =
            std::fs::create_dir_all(SPANS_DIR).and_then(|()| std::fs::write(&path, &outcome.spans));
        if let Err(e) = written {
            outcome
                .failures
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    let failed = outcome.failures.len();
    let attempted = outcome.attempted.max(1);
    outcome
        .metrics
        .set("failed_frac", failed as f64 / attempted as f64);

    let names: Vec<String> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|s| (*s).to_string()).collect()
    };
    for name in &names {
        if outcome.metrics.get(name).is_none() {
            // A layer this workload never enters measured nothing.
            outcome.metrics.set(name.clone(), 0.0);
        }
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    let keep: Vec<&str> = names.iter().map(String::as_str).collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        outcome.metrics.to_json(&keep)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn compile_workload(
    args: &Args,
    opt: OptLevel,
    rewrite: RewriteMode,
    scale: Scale,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setup_seconds = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUPS {
        let clock = Instant::now();
        let generated = compile::suite_jobs(scale);
        setup_seconds.push(clock.elapsed().as_secs_f64() * host_factor());
        jobs = generated;
    }
    outcome.metrics.set("setup_s", median(&setup_seconds));

    let spec = compile::spec(opt, rewrite);
    let passes = Passes::run(&jobs, &spec, args.seed, args.seconds, MIN_PASSES);
    passes.report(&mut outcome.metrics);
    let compile_s = outcome.metrics.get("raw.compile_s").unwrap_or(0.0);
    outcome.metrics.count("compile.circuits", jobs.len());
    outcome
        .metrics
        .count("compile.passes", passes.pass_seconds.len());
    compile::circuit_rows(&mut outcome.metrics, &jobs, &passes);
    outcome.attempted += passes.attempted;
    outcome.failures.extend(passes.failures.iter().cloned());

    if args.trace {
        let traced = Traced::run(Trace::new(), &jobs, &spec, &passes.listings, TRACED_PASSES);
        traced.report(&mut outcome.metrics, compile_s);
        outcome.attempted += jobs.len() * TRACED_PASSES;
        outcome.failures.extend(traced.failures);
        outcome.spans = traced.trace.to_json_lines();
    }
    Ok(outcome)
}

/// Scratch space for daemon stores, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let path = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only removed once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn serve_workload(args: &Args) -> Result<Outcome, String> {
    // Removed, with the daemons' stores, when the run ends.
    let scratch = Scratch::new()?;
    let mut outcome = Outcome::default();
    // The offline reference passes and the two serve passes take a third
    // of the run each.
    let pass_seconds = args.seconds / 3.0;
    let mut setup_seconds = Vec::new();
    let mut daemons = Vec::new();
    let mut plan = None;
    for index in 0..SETUPS {
        let clock = Instant::now();
        let generated = serve::Plan::new(args.seed, pass_seconds, args.trace);
        let mut hot_listings = Vec::new();
        for job in &generated.jobs[..generated.hot] {
            let (_, listing, _) = compile::untraced(job, &serve::spec())?;
            hot_listings.push(listing);
        }
        let daemon = serve::Daemon::start(&scratch.0.join(format!("store-{index}")))?;
        let warmed = daemon.prewarm(&generated, &hot_listings);
        setup_seconds.push(clock.elapsed().as_secs_f64() * host_factor());
        outcome.attempted += generated.hot;
        if let Err(error) = warmed {
            outcome.failures.push(error);
        }
        daemons.push(daemon);
        plan = Some(generated);
    }
    let plan = plan.expect("at least one set-up");
    outcome.metrics.set("setup_s", median(&setup_seconds));
    // Two daemons serve the two passes; the rest only timed set-up.
    for daemon in daemons.drain(2..) {
        daemon.stop()?;
    }

    let reference = serve::reference(&plan, args.seed, pass_seconds);
    reference.report(&mut outcome.metrics);
    // The exact program totals are those of the hot set, which every seed
    // shares; the fresh circuits change with the seed.
    compile::program_totals(&mut outcome.metrics, &reference.counts[..plan.hot]);
    outcome.attempted += reference.attempted;
    outcome.failures.extend(reference.failures.iter().cloned());
    if !reference.failures.is_empty() {
        // Without correct references no answer can be checked.
        for daemon in daemons {
            daemon.stop()?;
        }
        return Ok(outcome);
    }

    // Request spans are timed against this trace's clock.
    let mut trace = Trace::new();
    let mut results = Vec::new();
    for daemon in daemons {
        let result = serve::run_pass(&daemon, &plan, &reference.listings);
        daemon.stop()?;
        results.push(result?);
    }
    for result in &results {
        outcome.attempted += result.requests();
        outcome.failures.extend(result.failures.iter().cloned());
    }
    if results[0].counters != results[1].counters {
        outcome.failures.push(format!(
            "daemon counters differ between passes: {:?} vs {:?}",
            results[0].counters, results[1].counters
        ));
    }
    serve::report(&mut outcome.metrics, &results);
    outcome.metrics.count(
        "serve.requests",
        results.iter().map(serve::PassResult::requests).sum(),
    );
    outcome.metrics.count("serve.passes", results.len());
    outcome.metrics.count("compile.circuits", plan.jobs.len());
    outcome
        .metrics
        .count("compile.passes", reference.pass_seconds.len());
    compile::circuit_rows(&mut outcome.metrics, &plan.jobs, &reference);

    if args.trace {
        results[0].record_spans(&mut trace);
        let spec = serve::spec();
        let traced = Traced::run(trace, &plan.jobs, &spec, &reference.listings, TRACED_PASSES);
        let compile_s = outcome.metrics.get("raw.compile_s").unwrap_or(0.0);
        traced.report(&mut outcome.metrics, compile_s);
        outcome.attempted += plan.jobs.len() * TRACED_PASSES;
        outcome.failures.extend(traced.failures);
        outcome.spans = traced.trace.to_json_lines();
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program prints, in the same groups and with the units
    /// it prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to perfbench/");
        let json = plim_compiler::json::Value::parse(&text).expect("valid JSON");
        let field = |metric: &plim_compiler::json::Value, key: &str| {
            metric
                .get(key)
                .and_then(|v| v.as_str())
                .expect("string field")
                .to_string()
        };
        let names = |key: &str| -> Vec<String> {
            let metrics = json
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list");
            for metric in metrics {
                assert_eq!(
                    field(metric, "unit"),
                    stats::unit_of(&field(metric, "name"))
                );
            }
            metrics.iter().map(|m| field(m, "name")).collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END.to_vec());
        assert_eq!(names("per_layer"), per_layer_names());
    }
}
