//! The `serve` workload: an in-process plimd under a seeded open-loop
//! arrival schedule.
//!
//! Each set-up binds a fresh `Server` on loopback with its own artifact
//! store and prewarms it with the hot set (the reduced Table 1 suite).
//! A pass then runs the reference rate, or with tracing the whole ladder of
//! arrival rates. In every rung the requests are due at seeded Poisson
//! times; nine in ten name a hot circuit drawn from a Zipf distribution and
//! are served from the cache, the rest carry a fresh seeded `random_logic`
//! circuit that never repeats and is a cold compile plus a store write. One connection carries the
//! whole pass, pipelined: the calling thread sends on schedule whether or
//! not earlier answers have come back, and one receiver thread reads the
//! in-order responses. Latency is timed from each request's due time, so
//! a stalled sender or a slow miss ahead in the pipeline counts against
//! every request behind it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use mig::simulate::XorShift64;
use plim_benchmarks::random::{random_logic, RandomLogicSpec};
use plim_benchmarks::suite::Scale;
use plim_compiler::{OptLevel, RewriteMode};
use plim_service::client::{self, Connection};
use plim_service::pipeline::CompileSpec;
use plim_service::protocol::{CompileRequest, Request, Response};
use plim_service::server::{Server, ServerConfig};

use crate::compile::{self, Job, Passes};
use crate::stats::{ms, quantile, Metrics};
use crate::trace::Trace;

/// Arrival rates of the ladder, in requests per second, lowest first. The
/// first rung is the reference rate of `serve.p50_ms` and the other
/// reference-rate metrics.
pub const RUNGS: [u32; 5] = [200, 400, 600, 800, 1000];

/// The p99 limit a rung must meet to count as sustained.
pub const P99_LIMIT_MS: f64 = 100.0;

/// Share of a pass's time spent at the reference rate; the other rungs
/// split the rest evenly.
const REFERENCE_SHARE: f64 = 0.5;

/// Share of requests that name a hot circuit.
const HOT_SHARE: f64 = 0.9;

/// Zipf exponent of the hot-set draws (rank = suite order).
const ZIPF_EXPONENT: f64 = 1.0;

/// Fresh circuits take these node counts in turn (give or take hashing),
/// so every seed sends the same mix of sizes; the seed shapes the logic.
const FRESH_NODES: [usize; 5] = [1_000, 2_000, 3_000, 4_000, 5_000];

/// Worker threads of the in-process daemon (capped by the host).
const WORKERS: usize = 2;

/// One planned request.
#[derive(Debug, Clone, Copy)]
struct Planned {
    /// Offset of its due time from the start of its rung.
    due: Duration,
    /// Index into the job list: hot circuits first, then fresh ones.
    job: usize,
}

/// The seeded inputs of the workload.
#[derive(Debug)]
pub struct Plan {
    /// Hot circuits, then fresh ones.
    pub jobs: Vec<Job>,
    /// Number of hot circuits at the front of `jobs`.
    pub hot: usize,
    rungs: Vec<Vec<Planned>>,
    /// One encoded compile request line per job (with its newline).
    lines: Vec<String>,
}

/// The compile spec of every request: the plimd defaults.
pub fn spec() -> CompileSpec {
    compile::spec(OptLevel::O0, RewriteMode::Arena)
}

impl Plan {
    /// Generates the arrival schedule, hot-set draws and fresh circuits of
    /// one pass lasting about `pass_seconds`: the whole rate ladder when
    /// `ladder` is set, otherwise the reference rate alone.
    pub fn new(seed: u64, pass_seconds: f64, ladder: bool) -> Plan {
        let mut jobs = compile::suite_jobs(Scale::Reduced);
        let hot = jobs.len();
        let weights: Vec<f64> = (1..=hot)
            .map(|rank| (rank as f64).powf(-ZIPF_EXPONENT))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cumulative = 0.0;
        let cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                cumulative += w / total;
                cumulative
            })
            .collect();

        let mut rng = XorShift64::for_stream(seed, 0x5E47E);
        let uniform = |rng: &mut XorShift64| (rng.next_word() >> 11) as f64 / (1u64 << 53) as f64;
        let mut rungs = Vec::new();
        let rates = if ladder { &RUNGS[..] } else { &RUNGS[..1] };
        for (index, &rate) in rates.iter().enumerate() {
            let share = if !ladder {
                1.0
            } else if index == 0 {
                REFERENCE_SHARE
            } else {
                (1.0 - REFERENCE_SHARE) / (RUNGS.len() - 1) as f64
            };
            let count = (f64::from(rate) * pass_seconds * share).round().max(1.0) as usize;
            // Exactly the fresh share of the rung's requests, at seeded
            // positions: a seed-dependent count would move the cold work,
            // and with it `compile_s`, from seed to seed.
            let mut fresh_at = vec![false; count];
            let fresh_count = (count as f64 * (1.0 - HOT_SHARE)).round() as usize;
            let mut order: Vec<usize> = (0..count).collect();
            for i in 0..fresh_count.min(count) {
                order.swap(i, i + rng.next_below((count - i) as u64) as usize);
                fresh_at[order[i]] = true;
            }
            let mut at = 0.0;
            let mut planned = Vec::with_capacity(count);
            for is_fresh in fresh_at {
                // Exponential gaps: Poisson arrivals at `rate`.
                at += -(1.0 - uniform(&mut rng)).ln() / f64::from(rate);
                let job = if !is_fresh {
                    let draw = uniform(&mut rng);
                    cdf.iter().position(|&c| draw < c).unwrap_or(hot - 1)
                } else {
                    let fresh = jobs.len() - hot;
                    let nodes = FRESH_NODES[fresh % FRESH_NODES.len()];
                    let spec = RandomLogicSpec::new(32, 16, nodes, rng.next_word());
                    jobs.push(Job::new(format!("fresh-{fresh}"), random_logic(&spec)));
                    jobs.len() - 1
                };
                planned.push(Planned {
                    due: Duration::from_secs_f64(at),
                    job,
                });
            }
            rungs.push(planned);
        }
        let spec = spec();
        let lines = jobs
            .iter()
            .map(|job| {
                let request = Request::Compile(CompileRequest {
                    source: job.source.clone(),
                    spec,
                    ..CompileRequest::default()
                });
                format!("{}\n", request.to_json())
            })
            .collect();
        Plan {
            jobs,
            hot,
            rungs,
            lines,
        }
    }
}

/// An in-process daemon with its own store directory.
#[derive(Debug)]
pub struct Daemon {
    addr: String,
    store: PathBuf,
    thread: thread::JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Binds a daemon on a free loopback port, storing artifacts under
    /// `store`, and starts its reactor.
    ///
    /// # Errors
    ///
    /// The server's bind error.
    pub fn start(store: &Path) -> Result<Daemon, String> {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: WORKERS.min(host_threads()),
            store: Some(store.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        };
        let server = Server::bind(&config)?;
        let addr = server.local_addr()?.to_string();
        let thread = thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            store: store.to_path_buf(),
            thread,
        })
    }

    /// Sends every hot circuit once, so the pass finds them cached; each
    /// answer must equal its offline listing.
    ///
    /// # Errors
    ///
    /// The first failed or mismatching answer.
    pub fn prewarm(&self, plan: &Plan, listings: &[String]) -> Result<(), String> {
        let mut connection = Connection::connect(&self.addr)?;
        for ((line, job), listing) in plan
            .lines
            .iter()
            .zip(&plan.jobs)
            .zip(listings)
            .take(plan.hot)
        {
            let request = Request::from_json(line.trim_end())?;
            match connection.roundtrip(&request)? {
                Response::Compile(answer) if answer.output == *listing => {}
                other => {
                    return Err(format!(
                        "prewarm of {}: unexpected answer {other:?}",
                        job.name
                    ))
                }
            }
        }
        Ok(())
    }

    /// The cache and store counters: hits, misses, evictions, store
    /// writes, store hits.
    fn counters(&self) -> Result<[u64; 5], String> {
        match client::send(&self.addr, &Request::Stats)? {
            Response::Stats(stats) => {
                let totals = stats.totals();
                let store = stats.store.unwrap_or_default();
                Ok([
                    totals.hits,
                    totals.misses,
                    totals.evictions,
                    store.writes,
                    store.hits,
                ])
            }
            other => Err(format!("stats: unexpected answer {other:?}")),
        }
    }

    /// Shuts the daemon down, waits for its reactor, and deletes its store.
    ///
    /// # Errors
    ///
    /// A failed shutdown request or a reactor error.
    pub fn stop(self) -> Result<(), String> {
        let sent = client::send(&self.addr, &Request::Shutdown);
        let joined = self
            .thread
            .join()
            .map_err(|_| "the daemon's reactor panicked".to_string())?;
        let _ = std::fs::remove_dir_all(&self.store);
        sent?;
        joined
    }
}

fn host_threads() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One request's timeline, relative to its rung's start.
#[derive(Debug, Clone, Copy, Default)]
struct Timing {
    due: Duration,
    sent: Duration,
    answered: Duration,
    /// The request named a hot circuit.
    hot: bool,
    /// The answer came from the cache.
    cached: bool,
    /// The answer was a correct listing.
    ok: bool,
}

/// What one pass over the ladder measured.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Per rung, per request.
    rungs: Vec<Vec<Timing>>,
    /// When each rung started; timelines are relative to it.
    starts: Vec<Instant>,
    /// Daemon counters at the end of the pass.
    pub counters: [u64; 5],
    /// Failed or mismatching answers.
    pub failures: Vec<String>,
}

impl PassResult {
    /// Requests sent in the pass.
    pub fn requests(&self) -> usize {
        self.rungs.iter().map(Vec::len).sum()
    }

    /// Adds one `serve.request` span per request (due → answered, id
    /// `request-N`) with its `serve.send_wait` (due → sent) and
    /// `serve.roundtrip` (sent → answered) children.
    pub fn record_spans(&self, trace: &mut Trace) {
        let mut number = 0;
        for (rung, &start) in self.rungs.iter().zip(&self.starts) {
            for timing in rung {
                let id = format!("request-{number}");
                number += 1;
                let (due, sent, answered) = (
                    start + timing.due,
                    start + timing.sent,
                    start + timing.answered,
                );
                let root = trace.add("serve.request", &id, None, due, answered);
                trace.counter(root, "cached", f64::from(u8::from(timing.cached)));
                trace.add("serve.send_wait", &id, Some(root), due, sent);
                trace.add("serve.roundtrip", &id, Some(root), sent, answered);
            }
        }
    }
}

/// Runs one pass of the ladder against `daemon`. `listings` holds the
/// offline listing of every job; each answer must equal its job's.
///
/// # Errors
///
/// A connection that cannot be opened or breaks mid-pass.
pub fn run_pass(daemon: &Daemon, plan: &Plan, listings: &[String]) -> Result<PassResult, String> {
    let stream = TcpStream::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut writer = stream;
    let mut result = PassResult::default();
    for planned in &plan.rungs {
        let (start, mut timings, lines) = run_rung(&mut writer, &mut reader, plan, planned)?;
        result.starts.push(start);
        for ((timing, line), request) in timings.iter_mut().zip(&lines).zip(planned) {
            match Response::from_json(line) {
                Ok(Response::Compile(answer)) if answer.output == listings[request.job] => {
                    timing.ok = true;
                    timing.cached = answer.cached;
                }
                Ok(other) => result.failures.push(format!(
                    "{}: wrong answer {}",
                    plan.jobs[request.job].name,
                    match other {
                        Response::Error(error) => error.message,
                        _ => "(listing differs from the offline one)".to_string(),
                    }
                )),
                Err(error) => result.failures.push(format!("undecodable answer: {error}")),
            }
        }
        result.rungs.push(timings);
    }
    result.counters = daemon.counters()?;
    Ok(result)
}

/// Sends one rung on schedule while a receiver thread reads the answers;
/// returns the rung's start and each request's timeline and raw answer
/// line.
fn run_rung(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    plan: &Plan,
    planned: &[Planned],
) -> Result<(Instant, Vec<Timing>, Vec<String>), String> {
    let start = Instant::now() + Duration::from_millis(2);
    thread::scope(|scope| {
        let receiver = scope.spawn(move || -> Result<(Vec<Duration>, Vec<String>), String> {
            let mut answered = Vec::with_capacity(planned.len());
            let mut lines = Vec::with_capacity(planned.len());
            for _ in planned {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => return Err("the daemon closed the connection".to_string()),
                    Ok(_) => {}
                    Err(e) => return Err(format!("reading an answer: {e}")),
                }
                answered.push(start.elapsed());
                lines.push(line);
            }
            Ok((answered, lines))
        });
        let mut sent = Vec::with_capacity(planned.len());
        let mut send_error = None;
        for request in planned {
            let due = start + request.due;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            if let Err(e) = writer.write_all(plan.lines[request.job].as_bytes()) {
                send_error = Some(format!("sending a request: {e}"));
                break;
            }
            sent.push(start.elapsed());
        }
        if let Some(error) = send_error {
            // The receiver would wait for answers that never come.
            let _ = writer.shutdown(std::net::Shutdown::Both);
            let _ = receiver.join();
            return Err(error);
        }
        let (answered, lines) = receiver
            .join()
            .map_err(|_| "the receiver thread panicked".to_string())??;
        let timings = planned
            .iter()
            .zip(sent.iter().zip(&answered))
            .map(|(request, (&sent, &answered))| Timing {
                due: request.due,
                sent,
                answered,
                hot: request.job < plan.hot,
                ..Timing::default()
            })
            .collect();
        Ok((start, timings, lines))
    })
}

/// Latency of a request from its due time, in ms; a failed request counts
/// as missing every limit.
fn latency_ms(timing: &Timing) -> f64 {
    if timing.ok {
        ms(timing.answered.saturating_sub(timing.due).as_secs_f64())
    } else {
        f64::INFINITY
    }
}

/// The highest sustained rate: rungs are tried lowest first, and between
/// the last rung that meets [`P99_LIMIT_MS`] and the first that misses it
/// the rate is interpolated on log p99, so the figure moves continuously
/// with the system rather than in ladder steps.
fn max_rate(p99s: &[f64]) -> f64 {
    let rates: Vec<f64> = RUNGS.iter().map(|&r| f64::from(r)).collect();
    let Some(first_miss) = p99s.iter().position(|&p| p > P99_LIMIT_MS) else {
        return rates[rates.len() - 1];
    };
    if first_miss == 0 {
        return rates[0] * P99_LIMIT_MS / p99s[0].min(1e9);
    }
    let (low, high) = (p99s[first_miss - 1].max(1e-3), p99s[first_miss].min(1e9));
    let along = (P99_LIMIT_MS.ln() - low.ln()) / (high.ln() - low.ln());
    rates[first_miss - 1] + (rates[first_miss] - rates[first_miss - 1]) * along.clamp(0.0, 1.0)
}

/// Records the serve metrics of the passes (pooled).
pub fn report(metrics: &mut Metrics, passes: &[PassResult]) {
    let mut p99s = Vec::new();
    let rungs = passes.first().map_or(0, |p| p.rungs.len());
    for (rung, &rate) in RUNGS.iter().enumerate().take(rungs) {
        let samples: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.rungs[rung].iter().map(latency_ms))
            .collect();
        let p99 = quantile(&samples, 0.99);
        metrics.set(format!("serve.r{rate}.p99_ms"), p99.min(1e9));
        p99s.push(p99);
    }
    if rungs == RUNGS.len() {
        metrics.set("serve.max_rate_per_s", max_rate(&p99s));
    }

    let reference: Vec<&Timing> = passes.iter().flat_map(|p| &p.rungs[0]).collect();
    let latencies = |keep: fn(&Timing) -> bool| -> Vec<f64> {
        reference
            .iter()
            .filter(|t| keep(t))
            .map(|t| latency_ms(t))
            .collect()
    };
    let all = latencies(|_| true);
    metrics.set("serve.p50_ms", quantile(&all, 0.5).min(1e9));
    let hits = latencies(|t| t.hot);
    let misses = latencies(|t| !t.hot);
    metrics.set("serve.hit_p50_ms", quantile(&hits, 0.5).min(1e9));
    metrics.set("serve.hit_p99_ms", quantile(&hits, 0.99).min(1e9));
    metrics.set("serve.miss_p50_ms", quantile(&misses, 0.5).min(1e9));
    metrics.set("serve.miss_p99_ms", quantile(&misses, 0.99).min(1e9));
    let cached = reference.iter().filter(|t| t.cached).count();
    metrics.set(
        "serve.hit_frac",
        cached as f64 / reference.len().max(1) as f64,
    );
    let late: Vec<f64> = reference
        .iter()
        .map(|t| ms(t.sent.saturating_sub(t.due).as_secs_f64()))
        .collect();
    metrics.set("serve.gen_late_ms_p99", quantile(&late, 0.99));
    // Requests due but unanswered when the reference rung's last request
    // fell due, averaged over the passes.
    let backlog: usize = passes
        .iter()
        .map(|p| {
            let rung = &p.rungs[0];
            let last_due = rung.iter().map(|t| t.due).max().unwrap_or_default();
            rung.iter().filter(|t| t.answered > last_due).count()
        })
        .sum();
    metrics.set("serve.backlog", backlog as f64 / passes.len().max(1) as f64);

    if let Some(first) = passes.first() {
        for (name, value) in [
            "cache.hits",
            "cache.misses",
            "cache.evictions",
            "store.writes",
            "store.hits",
        ]
        .iter()
        .zip(first.counters)
        {
            metrics.count(*name, value as usize);
        }
    }
}

/// Offline reference passes over every distinct circuit of the plan for
/// `seconds` (at least two): the listings every answer is compared with,
/// and the workload's compile metrics.
pub fn reference(plan: &Plan, seed: u64, seconds: f64) -> Passes {
    Passes::run(&plan.jobs, &spec(), seed, seconds, 2)
}
