//! The compile path, timed untraced and traced stage by stage.
//!
//! The untraced path is exactly `plimc`'s and a plimd cache miss's:
//! `pipeline::parse_network → pipeline::execute → pipeline::emit("listing")`.
//! The traced path calls the same stages one by one — `mig::io::parse_mig`,
//! `RewriteArena::rewrite` (and `plim_egraph::optimize_with_stats` under
//! `--rewrite egraph`), `ir::lower`, `PassManager::run`, `ir::emit`,
//! `verify::verify`, `pipeline::emit` — inside spans, and must produce the
//! same listing byte for byte.

use std::time::Instant;

use mig::arena::RewriteArena;
use mig::Mig;
use plim_benchmarks::suite::{self, Scale};
use plim_compiler::ir::analysis::{analyze_events, AnalysisConfig};
use plim_compiler::ir::passes::{PassManager, PassReport};
use plim_compiler::ir::{self};
use plim_compiler::verify::verify;
use plim_compiler::{Compilation, OptLevel, RewriteMode, Rm3Stats};
use plim_service::pipeline::{self, Artifacts, CompileSpec, InputFormat};

use crate::check::{check_program, fingerprint};
use crate::host::Speed;
use crate::stats::{geomean, median, ms, Metrics};
use crate::trace::Trace;

/// The `-O` passes as the pass report names them, with metric spellings.
pub const PASSES: [(&str, &str); 4] = [
    ("forward", "forward"),
    ("peephole", "peephole"),
    ("redundant-init", "redundant_init"),
    ("dead-write", "dead_write"),
];

/// One circuit of a workload: its generated graph and the MIG text the
/// program under test receives.
#[derive(Debug)]
pub struct Job {
    /// Circuit name (a Table 1 row or `fresh-N`).
    pub name: String,
    /// The generated graph, the reference of the output check.
    pub mig: Mig,
    /// `mig::io::write_mig` of the graph.
    pub source: String,
}

impl Job {
    /// A job for `mig`.
    pub fn new(name: impl Into<String>, mig: Mig) -> Self {
        let source = mig::io::write_mig(&mig);
        Job {
            name: name.into(),
            mig,
            source,
        }
    }
}

/// The Table 1 circuits at `scale`, in suite order. The order is fixed:
/// a circuit's latency depends on what ran before it (allocator and cache
/// state), and shuffling the order by seed made the median circuit's
/// latency swing by a third between seeds.
pub fn suite_jobs(scale: Scale) -> Vec<Job> {
    suite::ALL
        .iter()
        .map(|name| Job::new(*name, suite::build(name, scale).expect("suite circuit")))
        .collect()
}

/// The compile spec of a workload: the `plimc` defaults (effort 4, arena
/// rewrite, RM3, verification on) at the given level and engine.
pub fn spec(opt: OptLevel, rewrite: RewriteMode) -> CompileSpec {
    let mut spec = CompileSpec::default();
    spec.options = spec.options.opt(opt).rewrite(rewrite);
    spec
}

/// The exact counts one compilation produced; two passes over the same
/// inputs must agree on all of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// FNV-1a of the listing.
    pub listing_fingerprint: u64,
    /// `#I`, `#R`, max cell writes.
    pub stats: (usize, u32, u64),
    /// Σ edits per pass, in [`PASSES`] order.
    pub edits: [usize; 4],
}

impl Counts {
    fn new(listing: &str, stats: &Rm3Stats, report: &PassReport) -> Self {
        let mut edits = [0; 4];
        for run in &report.runs {
            if let Some(slot) = PASSES.iter().position(|(name, _)| *name == run.pass) {
                edits[slot] += run.edits;
            }
        }
        Counts {
            listing_fingerprint: fingerprint(listing.as_bytes()),
            stats: (stats.instructions, stats.rams, stats.max_cell_writes),
            edits,
        }
    }
}

/// Compiles `job` on the untraced path, returning the seconds it took,
/// the listing and the artifacts.
///
/// # Errors
///
/// The pipeline's own one-line error.
pub fn untraced(job: &Job, spec: &CompileSpec) -> Result<(f64, String, Artifacts), String> {
    let clock = Instant::now();
    let input = pipeline::parse_network(InputFormat::Mig, &job.source)?;
    let artifacts = pipeline::execute(&input, spec)?;
    let listing = pipeline::emit("listing", &artifacts)?;
    let seconds = clock.elapsed().as_secs_f64();
    Ok((seconds, listing, artifacts))
}

/// Compiles `job` stage by stage inside a `compile` span with its name as id,
/// returning the listing. With `probe`, the `ir.passes.entry` probe runs
/// afterwards, outside the `compile` span: one structural analysis plus
/// one backend cost of the freshly lowered IR, the fixed entry cost of
/// `PassManager::run`.
///
/// # Errors
///
/// A parse, egraph-spec or verification failure.
pub fn traced_compile(
    trace: &mut Trace,
    job: &Job,
    spec: &CompileSpec,
    probe: bool,
) -> Result<String, String> {
    let id = job.name.as_str();
    let root = trace.enter("compile", id);
    let result = traced_stages(trace, job, spec);
    trace.exit(root);
    let (artifacts, listing) = result?;

    if probe {
        let lowered = ir::lower(&artifacts.optimized, spec.options);
        let backend = spec.options.target.backend();
        trace.record("ir.passes.entry", id, || {
            let diagnostics = analyze_events(&lowered, &AnalysisConfig::structural());
            (diagnostics.len(), backend.cost(&lowered))
        });
    }
    Ok(listing)
}

fn traced_stages(
    trace: &mut Trace,
    job: &Job,
    spec: &CompileSpec,
) -> Result<(Artifacts, String), String> {
    let id = job.name.as_str();
    let (parsed, _) = trace.record("mig.io.parse", id, || mig::io::parse_mig(&job.source));
    let input = parsed.map_err(|e| format!("mig: {e}"))?;

    let mut arena = RewriteArena::new();
    let (rewritten, span) = trace.record("mig.rewrite", id, || arena.rewrite(&input, spec.effort));
    let profile = arena.profile();
    for (name, part) in [
        ("load_ms", profile.load),
        ("omega_d_ms", profile.distributivity),
        ("omega_a_ms", profile.associativity),
        ("omega_i_ms", profile.inverter),
        ("compact_ms", profile.compact),
    ] {
        trace.counter(span, name, ms(part.as_secs_f64()));
    }
    trace.counter(span, "nodes_out", rewritten.num_majority_nodes() as f64);

    let optimized = match spec.options.rewrite {
        RewriteMode::Arena => rewritten,
        RewriteMode::Egraph => {
            let ((chosen, stats), span) = trace.record("egraph", id, || {
                plim_egraph::optimize_with_stats(&input, &rewritten, spec.effort, spec.options)
            });
            trace.counter(span, "enodes", stats.final_enodes as f64);
            trace.counter(span, "iterations", stats.iterations as f64);
            trace.counter(span, "candidates_scored", stats.candidates_scored as f64);
            trace.counter(span, "improved", f64::from(u8::from(stats.improved)));
            chosen
        }
        RewriteMode::Rebuild => return Err("the traced path covers arena and egraph only".into()),
    };

    let (mut lowered, span) = trace.record("ir.lower", id, || ir::lower(&optimized, spec.options));
    trace.counter(span, "events", lowered.events.len() as f64);

    let backend = spec.options.target.backend();
    let (report, span) = trace.record("ir.passes", id, || {
        PassManager::for_level(spec.options.opt).run(&mut lowered, &optimized, backend)
    });
    let rounds = report
        .runs
        .iter()
        .filter(|r| r.pass == "dead-write")
        .count();
    trace.counter(span, "rounds", rounds as f64);
    for (pass, metric) in PASSES {
        let runs: Vec<_> = report.runs.iter().filter(|r| r.pass == pass).collect();
        let edits: usize = runs.iter().map(|r| r.edits).sum();
        let useful = runs.iter().filter(|r| r.edits > 0).count();
        trace.counter(span, format!("{metric}.runs"), runs.len() as f64);
        trace.counter(span, format!("{metric}.edits"), edits as f64);
        trace.counter(span, format!("{metric}.useful"), useful as f64);
    }

    let (compiled, _) = trace.record("ir.emit", id, || ir::emit(&lowered));
    let (verdict, _) = trace.record("verify", id, || verify(&optimized, &compiled, 4, 0xDAC2016));
    verdict.map_err(|e| format!("verification: {e}"))?;

    let artifacts = Artifacts {
        optimized,
        compilation: Compilation {
            compiled,
            ir: lowered,
            report,
        },
        target: spec.options.target,
    };
    let (listing, span) =
        trace.record("emit.listing", id, || pipeline::emit("listing", &artifacts));
    let listing = listing?;
    trace.counter(span, "bytes", listing.len() as f64);
    Ok((artifacts, listing))
}

/// What the untraced passes over a job list measured.
#[derive(Debug, Default)]
pub struct Passes {
    /// Reference-host seconds of each pass (Σ of its per-circuit
    /// latencies; see [`crate::host`]).
    pub pass_seconds: Vec<f64>,
    /// Wall seconds of each pass.
    pub raw_pass_seconds: Vec<f64>,
    /// Median host-kernel time during each pass.
    pub kernel_seconds: Vec<f64>,
    /// Per circuit, its reference-host latency in every pass.
    pub latencies: Vec<Vec<f64>>,
    /// Per circuit, the first pass's listing (the byte-identity reference).
    pub listings: Vec<String>,
    /// Per circuit, the first pass's exact counts.
    pub counts: Vec<Counts>,
    /// Compilations attempted.
    pub attempted: usize,
    /// Failures: compile errors, output-check and determinism mismatches.
    pub failures: Vec<String>,
}

impl Passes {
    /// Runs untraced passes over `jobs` until `seconds` have passed and at
    /// least `min_passes` are done. The first pass's programs go through
    /// the output check (outside the timed region); every later pass must
    /// repeat the first pass's counts exactly.
    pub fn run(
        jobs: &[Job],
        spec: &CompileSpec,
        seed: u64,
        seconds: f64,
        min_passes: usize,
    ) -> Passes {
        let mut passes = Passes {
            latencies: vec![Vec::new(); jobs.len()],
            ..Passes::default()
        };
        let clock = Instant::now();
        while passes.pass_seconds.len() < min_passes || clock.elapsed().as_secs_f64() < seconds {
            let first = passes.pass_seconds.is_empty();
            let mut speed = Speed::default();
            let mut wall = vec![None; jobs.len()];
            for (index, job) in jobs.iter().enumerate() {
                speed.sample_before(index, jobs.len());
                passes.attempted += 1;
                let (seconds, listing, artifacts) = match untraced(job, spec) {
                    Ok(done) => done,
                    Err(error) => {
                        passes.failures.push(format!("{}: {error}", job.name));
                        continue;
                    }
                };
                wall[index] = Some(seconds);
                let compiled = &artifacts.compilation.compiled;
                let counts = Counts::new(&listing, &compiled.stats, &artifacts.compilation.report);
                if first {
                    let pattern_seed = seed ^ fingerprint(job.name.as_bytes());
                    if let Err(error) =
                        check_program(&job.mig, &compiled.program, &listing, pattern_seed)
                    {
                        passes
                            .failures
                            .push(format!("{}: output check: {error}", job.name));
                    }
                    passes.listings.push(listing);
                    passes.counts.push(counts);
                } else if passes.counts.get(index) != Some(&counts) {
                    passes
                        .failures
                        .push(format!("{}: counts differ between passes", job.name));
                }
            }
            let factor = speed.factor();
            let mut pass_seconds = 0.0;
            for (latencies, seconds) in passes.latencies.iter_mut().zip(wall) {
                if let Some(seconds) = seconds {
                    pass_seconds += seconds;
                    latencies.push(seconds * factor);
                }
            }
            passes.raw_pass_seconds.push(pass_seconds);
            passes.pass_seconds.push(pass_seconds * factor);
            passes.kernel_seconds.push(speed.kernel_seconds());
        }
        passes
    }

    /// The end-to-end compile metrics of these passes.
    pub fn report(&self, metrics: &mut Metrics) {
        metrics.set("compile_s", median(&self.pass_seconds));
        metrics.set("raw.compile_s", median(&self.raw_pass_seconds));
        metrics.set("host.kernel_ms", ms(median(&self.kernel_seconds)));
        let per_circuit: Vec<f64> = self.latencies.iter().map(|l| ms(median(l))).collect();
        metrics.set("compile_geomean_ms", geomean(&per_circuit));
        program_totals(metrics, &self.counts);
    }
}

/// What the traced passes recorded.
#[derive(Debug)]
pub struct Traced {
    /// The spans of every traced pass.
    pub trace: Trace,
    /// Number of traced passes.
    pub passes: usize,
    /// Failures: stage errors and listings differing from the untraced run.
    pub failures: Vec<String>,
}

/// Counters of the traced passes that must repeat exactly between them.
const REPEATED_COUNTERS: [(&str, &str); 8] = [
    ("mig.rewrite", "nodes_out"),
    ("egraph", "enodes"),
    ("egraph", "iterations"),
    ("egraph", "candidates_scored"),
    ("egraph", "improved"),
    ("ir.lower", "events"),
    ("ir.passes", "forward.edits"),
    ("emit.listing", "bytes"),
];

impl Traced {
    /// Runs `passes` traced passes over `jobs`, adding their spans to
    /// `trace`; each listing must equal the untraced reference in
    /// `listings` byte for byte, and the span counters must repeat exactly
    /// from pass to pass.
    pub fn run(
        trace: Trace,
        jobs: &[Job],
        spec: &CompileSpec,
        listings: &[String],
        passes: usize,
    ) -> Traced {
        let mut traced = Traced {
            trace,
            passes,
            failures: Vec::new(),
        };
        for pass in 0..passes {
            // The untraced passes' host samples, repeated so that both
            // runs start each circuit with the same caches.
            let mut speed = Speed::default();
            for (index, job) in jobs.iter().enumerate() {
                speed.sample_before(index, jobs.len());
                // The entry probe repeats pass work, so it runs once.
                match traced_compile(&mut traced.trace, job, spec, pass == 0) {
                    Ok(listing) if listings.get(index) == Some(&listing) => {}
                    Ok(_) => traced.failures.push(format!(
                        "{}: traced listing differs from the untraced one",
                        job.name
                    )),
                    Err(error) => traced
                        .failures
                        .push(format!("{}: traced: {error}", job.name)),
                }
            }
        }
        for (span, counter) in REPEATED_COUNTERS {
            let values = traced.trace.counter_values(span, counter);
            let per_pass = values.len() / passes.max(1);
            if per_pass > 0
                && values
                    .chunks(per_pass)
                    .any(|pass| pass != &values[..per_pass])
            {
                traced
                    .failures
                    .push(format!("{span}.{counter} differs between traced passes"));
            }
        }
        traced
    }

    /// The per-stage metrics, per pass, in wall time; `untraced_s` is the
    /// untraced wall `compile_s` (`raw.compile_s`) the tracing overhead is
    /// measured against.
    pub fn report(&self, metrics: &mut Metrics, untraced_s: f64) {
        let trace = &self.trace;
        let per_pass = |seconds: f64| ms(seconds) / self.passes as f64;
        let counter = |span: &str, name: &str| trace.counter_total(span, name) / self.passes as f64;

        metrics.set("mig.io.parse_ms", per_pass(trace.total("mig.io.parse")));
        metrics.set("mig.rewrite_ms", per_pass(trace.total("mig.rewrite")));
        let mut profiled = 0.0;
        for part in [
            "load_ms",
            "omega_d_ms",
            "omega_a_ms",
            "omega_i_ms",
            "compact_ms",
        ] {
            let value = counter("mig.rewrite", part);
            profiled += value;
            metrics.set(format!("mig.rewrite.{part}"), value);
        }
        metrics.set(
            "mig.rewrite.self_ms",
            (per_pass(trace.total("mig.rewrite")) - profiled).max(0.0),
        );
        metrics.set("mig.rewrite.nodes_out", counter("mig.rewrite", "nodes_out"));
        metrics.set("egraph_ms", per_pass(trace.total("egraph")));
        metrics.set("egraph.enodes", counter("egraph", "enodes"));
        metrics.set("egraph.iterations", counter("egraph", "iterations"));
        metrics.set(
            "egraph.candidates_scored",
            counter("egraph", "candidates_scored"),
        );
        let improved = counter("egraph", "improved");
        let egraph_runs = trace.counter_values("egraph", "improved").len();
        metrics.set(
            "egraph.improved_frac",
            if egraph_runs == 0 {
                0.0
            } else {
                improved / (egraph_runs as f64 / self.passes as f64)
            },
        );
        metrics.set("ir.lower_ms", per_pass(trace.total("ir.lower")));
        metrics.set("ir.events", counter("ir.lower", "events"));
        metrics.set("ir.passes_ms", per_pass(trace.total("ir.passes")));
        metrics.set("ir.passes.entry_ms", ms(trace.total("ir.passes.entry")));
        metrics.set("ir.passes.rounds", counter("ir.passes", "rounds"));
        for (_, pass) in PASSES {
            let runs = counter("ir.passes", &format!("{pass}.runs"));
            let useful = counter("ir.passes", &format!("{pass}.useful"));
            metrics.set(format!("ir.passes.{pass}.runs"), runs);
            metrics.set(
                format!("ir.passes.{pass}.edits"),
                counter("ir.passes", &format!("{pass}.edits")),
            );
            metrics.set(
                format!("ir.passes.{pass}.useful_frac"),
                if runs > 0.0 { useful / runs } else { 0.0 },
            );
        }
        metrics.set("ir.emit_ms", per_pass(trace.total("ir.emit")));
        metrics.set("verify_ms", per_pass(trace.total("verify")));
        metrics.set("emit.listing_ms", per_pass(trace.total("emit.listing")));
        metrics.set("emit.listing_bytes", counter("emit.listing", "bytes"));

        let traced_s = trace.total("compile") / self.passes as f64;
        metrics.set("trace.compile_s", traced_s);
        metrics.set("trace.overhead_s", traced_s - untraced_s);
        let uncovered = trace.self_total("compile");
        metrics.set("trace.uncovered_ms", per_pass(uncovered));
        metrics.set(
            "trace.uncovered_frac",
            uncovered / trace.total("compile").max(f64::MIN_POSITIVE),
        );
        metrics.count("trace.spans", trace.len());
    }
}

/// `program_instructions`, `program_rams` and `program_wear`: Σ `#I`, Σ
/// `#R` and Σ max cell writes over `counts`.
pub fn program_totals(metrics: &mut Metrics, counts: &[Counts]) {
    let (mut instructions, mut rams, mut wear) = (0, 0, 0);
    for counts in counts {
        instructions += counts.stats.0;
        rams += counts.stats.1 as usize;
        wear += counts.stats.2 as usize;
    }
    metrics.count("program_instructions", instructions);
    metrics.count("program_rams", rams);
    metrics.count("program_wear", wear);
}

/// Per-circuit rows: `circuit.<name>.ms` (median untraced latency) and
/// `circuit.<name>.instructions`.
pub fn circuit_rows(metrics: &mut Metrics, jobs: &[Job], passes: &Passes) {
    for (index, job) in jobs.iter().enumerate() {
        if let (Some(latencies), Some(counts)) =
            (passes.latencies.get(index), passes.counts.get(index))
        {
            metrics.set(format!("circuit.{}.ms", job.name), ms(median(latencies)));
            metrics.count(format!("circuit.{}.instructions", job.name), counts.stats.0);
        }
    }
}
