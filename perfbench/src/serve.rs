//! `serve_mix`: an in-process espserve (`http::serve` + `api::route`,
//! default `EngineConfig`) on loopback, driven by two closed-loop
//! clients. Each client submits the next request of the seeded stream,
//! long-polls until the job is done, fetches its `metrics` artifact and
//! compares it with `request::execute` on the same request, computed
//! before the timed phase.
//!
//! Each round of the stream runs on a fresh server, so every round does
//! the same work from an empty cache and job table. The server never
//! prunes its job table, so `peak_rss_mb` is read after the first round:
//! a fixed amount of work, however fast it completes.

use crate::golden::Goldens;
use crate::host::HostSpeed;
use crate::inputs::{serve_item, ServeItem, SERVE_ROUND};
use crate::spans::{Span, Tracer};
use crate::{
    layered, peak_rss_mb, repeated_setup, stats, write_spans, Args, Metrics, Phase, PER_LAYER,
};
use esp4ml::TrainedModels;
use esp4ml_bench::request;
use esp4ml_serve::{api, http, EngineConfig, HttpResponse, JobEngine, Logger};
use serde::Value;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients.
pub const CLIENTS: u64 = 2;
/// Misses a per-layer run needs, so that ten lie beyond p95.
pub const MIN_MISSES: usize = 200;
/// Longest a per-layer run keeps going to collect [`MIN_MISSES`].
const MAX_PHASE_S: f64 = 60.0;
/// Requests per round of the stream: 96 misses, 32 evictions and 120
/// hits from an empty cache.
pub const JOBS_PER_ROUND: u64 = SERVE_ROUND;
/// Length of one client segment between host-speed samples.
const SEGMENT_S: f64 = 0.5;
/// The API key both clients use.
const TENANT: &str = "perfbench";

/// A running in-process server. Dropping it stops the worker pool and
/// frees the engine; the accept thread stays parked on its listener
/// until the process exits.
struct Server {
    engine: Arc<JobEngine>,
    addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        self.engine.stop();
    }
}

fn start_server() -> Result<Server, String> {
    let engine = Arc::new(JobEngine::new(EngineConfig::default()));
    engine.start();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // `http::serve` never returns, so its accept thread outlives the
    // server; it holds the engine weakly, so dropping the server frees
    // the engine and a discarded set-up leaves no job state behind.
    let handler_engine = Arc::downgrade(&engine);
    std::thread::spawn(move || {
        http::serve(
            listener,
            move |req| match handler_engine.upgrade() {
                Some(engine) => api::route(&engine, &req),
                None => HttpResponse::text(503, "server stopped"),
            },
            Logger::disabled(),
        )
    });
    let server = Server { engine, addr };
    let (status, _) = call(addr, "GET", "/v1/healthz", "")?;
    if status != 200 {
        return Err(format!("healthz answered {status}"));
    }
    Ok(server)
}

/// One HTTP/1.1 exchange on a fresh connection: `(status, body)`.
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nX-Api-Key: {TENANT}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let raw = String::from_utf8(raw).map_err(|_| format!("{method} {path}: non-UTF-8 reply"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: malformed reply"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status"))?;
    Ok((status, body.to_string()))
}

fn json(body: &str) -> Result<Value, String> {
    serde_json::parse_value(body).map_err(|e| format!("bad JSON reply: {e}"))
}

/// The expected artifact and simulated cycles of one stream item.
#[derive(Debug, Clone)]
struct Reference {
    artifact: String,
    cycles: u64,
}

struct Setup {
    models: TrainedModels,
    goldens: Goldens,
    server: Server,
}

fn setup(args: &Args) -> Result<Setup, String> {
    Ok(Setup {
        models: TrainedModels::untrained(),
        goldens: Goldens::load(&args.golden_dir)?,
        server: start_server()?,
    })
}

/// `request::execute` on every distinct stream item, each checked
/// against its golden digest.
fn references(s: &Setup) -> Result<HashMap<ServeItem, Reference>, String> {
    let mut out = HashMap::new();
    for item in ServeItem::all() {
        let resp = request::execute(&item.request(), &s.models).map_err(|e| e.to_string())?;
        let artifact = resp.artifacts.get("metrics").ok_or("no metrics artifact")?;
        s.goldens
            .check(&format!("serve_mix/{}", item.name()), artifact)?;
        let cycles = resp.runs.iter().map(|r| r.metrics.cycles).sum();
        out.insert(
            item,
            Reference {
                artifact: artifact.clone(),
                cycles,
            },
        );
    }
    Ok(out)
}

/// Returns the allocator's free memory to the system before the timed
/// phase. The references leave about 16 MB of freed simulation buffers
/// in the main thread's allocator arena; whether a server worker later
/// reuses them depends on which arena glibc hands it, and left in place
/// they made `peak_rss_mb` read either about 45 or about 61 MB from one
/// process to the next.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only releases free memory; no live
        // allocation is touched.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One client-side job, with raw client-side times.
#[derive(Debug, Clone, Copy)]
struct Job {
    cached: bool,
    submit_ms: f64,
    wait_ms: f64,
    fetch_ms: f64,
    cycles: u64,
    /// Host-speed factor of the segment the job ran in.
    factor: f64,
}

impl Job {
    fn total_ms(&self) -> f64 {
        self.submit_ms + self.wait_ms + self.fetch_ms
    }
}

/// Submit, long-poll until done, fetch and check one job.
fn job(
    addr: SocketAddr,
    item: ServeItem,
    reference: &Reference,
    tr: &mut Option<Tracer>,
    trace: u64,
) -> Result<Job, String> {
    let span = |name: &'static str, tr: &mut Option<Tracer>, begin: bool| {
        if let Some(tr) = tr.as_mut() {
            if begin {
                tr.begin(name, trace);
            } else {
                tr.end();
            }
        }
    };
    let body = format!(
        "{{\"request\":{}}}",
        serde_json::to_string(&item.request()).map_err(|e| e.to_string())?
    );
    let t0 = Instant::now();
    span("serve.submit", tr, true);
    let submitted = call(addr, "POST", "/v1/jobs", &body);
    span("serve.submit", tr, false);
    let (status, reply) = submitted?;
    if status != 200 && status != 201 {
        return Err(format!("submit answered {status}: {reply}"));
    }
    let reply = json(&reply)?;
    let id = reply
        .get("job_id")
        .and_then(Value::as_u64)
        .ok_or("submit reply has no job_id")?;
    let cached = reply.get("cached").and_then(Value::as_bool) == Some(true);
    let mut state = reply
        .get("state")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let t1 = Instant::now();
    span("serve.wait", tr, true);
    let waited = (|| {
        while !matches!(state.as_str(), "done" | "failed" | "cancelled") {
            let (status, reply) = call(addr, "GET", &format!("/v1/jobs/{id}?wait_ms=30000"), "")?;
            if status != 200 {
                return Err(format!("job {id} status answered {status}"));
            }
            state = json(&reply)?
                .get("state")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string();
        }
        Ok(())
    })();
    span("serve.wait", tr, false);
    waited?;
    if state != "done" {
        return Err(format!("job {id} ended {state}"));
    }
    let t2 = Instant::now();
    span("serve.fetch", tr, true);
    let fetched = call(addr, "GET", &format!("/v1/jobs/{id}/artifacts/metrics"), "");
    span("serve.fetch", tr, false);
    let (status, artifact) = fetched?;
    let t3 = Instant::now();
    if status != 200 {
        return Err(format!("job {id} artifact answered {status}"));
    }
    if artifact != reference.artifact {
        return Err(format!(
            "job {id} ({}): artifact differs from request::execute",
            item.name()
        ));
    }
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Ok(Job {
        cached,
        submit_ms: ms(t0, t1),
        wait_ms: ms(t1, t2),
        fetch_ms: ms(t2, t3),
        cycles: if cached { 0 } else { reference.cycles },
        factor: 1.0,
    })
}

/// What a client phase produced.
struct ClientPhase {
    phase: Phase,
    jobs: Vec<Job>,
    spans: Vec<Span>,
    /// The last round's server, for scraping.
    server: Server,
}

/// Two closed-loop clients through round `index` of the stream on
/// `server`, in segments of [`SEGMENT_S`]. At a segment's end the clients
/// stop taking requests, the jobs in flight finish, and the host's speed
/// is sampled to normalize the segment. Returns the jobs, each with its
/// segment's factor, and the round's normalized seconds. Jobs and client
/// threads get ids that are unique across rounds.
fn round(
    server: &Server,
    refs: &HashMap<ServeItem, Reference>,
    seed: u64,
    index: u64,
    host: &mut HostSpeed,
    tracing: &mut Tracing,
) -> (Vec<Result<Job, String>>, f64) {
    let next = AtomicU64::new(0);
    let next = &next;
    let mut jobs = Vec::new();
    let mut secs = 0.0;
    host.mark();
    while next.load(Ordering::Relaxed) < JOBS_PER_ROUND {
        let deadline = Instant::now() + Duration::from_secs_f64(SEGMENT_S);
        let origin = tracing.origin;
        let threads = tracing.threads;
        tracing.threads += CLIENTS;
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    scope.spawn(move || {
                        let mut tr = origin.map(|o| Tracer::new(o, threads + client + 1));
                        let mut out = Vec::new();
                        while Instant::now() < deadline {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= JOBS_PER_ROUND {
                                break;
                            }
                            let i = index * JOBS_PER_ROUND + k;
                            let item = serve_item(seed, i);
                            if let Some(tr) = tr.as_mut() {
                                tr.begin("serve.job", i + 1);
                            }
                            out.push(job(server.addr, item, &refs[&item], &mut tr, i + 1));
                            if let Some(tr) = tr.as_mut() {
                                tr.end();
                            }
                        }
                        (out, tr.map(Tracer::into_spans).unwrap_or_default())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let (raw, factor) = host.lap();
        secs += raw * factor;
        for (out, client_spans) in results {
            tracing.spans.extend(client_spans);
            jobs.extend(out.into_iter().map(|r| r.map(|j| Job { factor, ..j })));
        }
    }
    (jobs, secs)
}

/// Span collection of a traced client phase.
struct Tracing {
    /// Time origin of the spans; `None` when the phase is not traced.
    origin: Option<Instant>,
    /// Client threads started so far.
    threads: u64,
    spans: Vec<Span>,
}

/// Rounds until `seconds` have elapsed and at least `min_misses` misses
/// completed (at least one round). The first round runs on `server`,
/// each later one on a fresh server started before its timing begins.
///
/// # Errors
///
/// A server that does not start, as a printable message.
fn clients(
    mut server: Server,
    refs: &HashMap<ServeItem, Reference>,
    seed: u64,
    seconds: f64,
    min_misses: usize,
    host: &mut HostSpeed,
    origin: Option<Instant>,
) -> Result<ClientPhase, String> {
    let mut phase = Phase::default();
    let mut jobs: Vec<Job> = Vec::new();
    let mut tracing = Tracing {
        origin,
        threads: 0,
        spans: Vec::new(),
    };
    let start = Instant::now();
    for index in 0.. {
        if index > 0 {
            server = start_server()?;
        }
        let (results, secs) = round(&server, refs, seed, index, host, &mut tracing);
        phase.secs += secs;
        if index == 0 {
            phase.peak_rss_mb = Some(peak_rss_mb());
        }
        for result in results {
            phase.attempted += 1;
            match result {
                Ok(j) => {
                    phase.ops += 1;
                    phase.cycles += j.cycles;
                    jobs.push(j);
                }
                Err(e) => phase.fail(1, e),
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let misses = jobs.iter().filter(|j| !j.cached).count();
        if (elapsed >= seconds && misses >= min_misses) || elapsed >= MAX_PHASE_S {
            break;
        }
    }
    // `op_p50_ms` is the hit latency; misses show in the throughput
    // metrics and, per layer, in the miss percentiles.
    phase.op_ms = jobs
        .iter()
        .filter(|j| j.cached)
        .map(|j| j.total_ms() * j.factor)
        .collect();
    if phase.op_ms.is_empty() {
        phase.fail(0, "no job was answered from the cache".to_string());
    }
    Ok(ClientPhase {
        phase,
        jobs,
        spans: tracing.spans,
        server,
    })
}

/// The value of an unlabelled sample in a Prometheus exposition.
fn prometheus_sample(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Fills the server-side metrics scraped from `/v1/metrics` and
/// `/v1/healthz` at the end of a phase.
fn scrape(server: &Server, m: &mut Metrics) -> Result<(), String> {
    let (_, text) = call(server.addr, "GET", "/v1/metrics", "")?;
    let queue_wait = prometheus_sample(&text, "espserve_job_queue_wait_ms_p50")
        .ok_or("no queue-wait p50 in /v1/metrics")?;
    m.set("serve.queue_wait_p50_ms", queue_wait);
    let (_, body) = call(server.addr, "GET", "/v1/healthz", "")?;
    let health = json(&body)?;
    let payload = health.get("payload").ok_or("healthz without payload")?;
    let field = |k: &str| payload.get(k).and_then(Value::as_u64).unwrap_or(0) as f64;
    let lookups = field("cache_hits") + field("cache_misses");
    m.set(
        "serve.cache_hit_ratio",
        if lookups > 0.0 {
            field("cache_hits") / lookups
        } else {
            0.0
        },
    );
    m.set("serve.cache_evictions", field("cache_evictions"));
    m.set(
        "serve.jobs_retained",
        field("queued") + field("running") + field("finished"),
    );
    Ok(())
}

/// Runs `serve_mix`: the measured phase and its metrics.
///
/// # Errors
///
/// Set-up, reference or span-output failures, as a printable message.
pub fn run(args: &Args) -> Result<(Phase, Metrics), String> {
    let mut host = HostSpeed::start();
    let (s, setup_s) = repeated_setup(&mut host, || setup(args))?;
    let refs = references(&s)?;
    release_free_heap();
    let Setup {
        models,
        goldens: _,
        server,
    } = s;
    if !args.trace {
        let plain = clients(server, &refs, args.seed, args.seconds, 0, &mut host, None)?;
        let metrics = plain.phase.end_to_end(setup_s);
        return Ok((plain.phase, metrics));
    }
    let mut m = Metrics::new(&PER_LAYER);
    let mut plain = clients(
        server,
        &refs,
        args.seed,
        args.seconds,
        MIN_MISSES,
        &mut host,
        None,
    )?;
    let misses: Vec<f64> = plain
        .jobs
        .iter()
        .filter(|j| !j.cached)
        .map(Job::total_ms)
        .collect();
    m.set("serve.miss_p50_ms", stats::median(&misses).unwrap_or(0.0));
    match stats::tail(&misses, 0.95) {
        Some(p95) => m.set("serve.miss_p95_ms", p95),
        None => plain.phase.fail(
            0,
            format!("{} misses leave fewer than 10 beyond p95", misses.len()),
        ),
    }
    scrape(&plain.server, &mut m)?;
    drop(plain.server);

    let origin = Instant::now();
    let mut traced = clients(
        start_server()?,
        &refs,
        args.seed,
        args.seconds,
        0,
        &mut host,
        Some(origin),
    )?;
    drop(traced.server);
    for (name, pick) in [
        (
            "serve.submit_ms",
            (|j: &Job| j.submit_ms) as fn(&Job) -> f64,
        ),
        ("serve.wait_ms", |j: &Job| j.wait_ms),
        ("serve.fetch_ms", |j: &Job| j.fetch_ms),
    ] {
        let xs: Vec<f64> = traced.jobs.iter().map(pick).collect();
        m.set(name, stats::median(&xs).unwrap_or(0.0));
    }
    m.set_overhead(&plain.phase, &traced.phase);

    // The miss path layer by layer: every distinct request through the
    // layer functions, checked against the reference bytes.
    let mut tr = Tracer::new(origin, 0);
    let mut next_trace = 1 << 32;
    let mut replay = Vec::new();
    for item in ServeItem::all() {
        let req = item.request();
        match layered::run_request(&mut tr, &mut next_trace, &req, &models) {
            Ok((artifact, runs)) if artifact == refs[&item].artifact => {
                if let Some((point, run)) = layered::points(&req).first().zip(runs.first()) {
                    let same = point
                        .run(&models, req.frames, layered::engine(&req))
                        .is_ok_and(|r| r.metrics == run.metrics);
                    if !same {
                        traced.phase.fail(
                            1,
                            format!("{}: traced metrics differ from GridPoint::run", item.name()),
                        );
                    }
                }
                replay.extend(runs.iter().map(|r| r.metrics));
            }
            Ok(_) => traced.phase.fail(
                1,
                format!(
                    "{}: traced artifact differs from request::execute",
                    item.name()
                ),
            ),
            Err(e) => traced.phase.fail(1, format!("{}: {e}", item.name())),
        }
    }
    let mut spans = traced.spans;
    spans.extend(tr.into_spans());
    m.set("host.reference_kernel_ms", host.median_sample() * 1e3);
    m.set_work_counts(&replay);
    let cycles = replay.iter().map(|r| r.cycles).sum();
    let hops = replay.iter().map(|r| r.noc_flit_hops).sum();
    m.set_layer_times(&spans, 1, cycles, hops);
    write_spans(&args.out_dir, args, &spans)?;
    let mut phase = traced.phase;
    phase.failed += plain.phase.failed;
    phase.errors.extend(plain.phase.errors);
    Ok((phase, m))
}
