//! `fig7_sim` and `grid_setup`: figure grids through
//! `request::execute`, one grid point per operation.

use crate::golden::Goldens;
use crate::host::HostSpeed;
use crate::spans::{Span, Tracer};
use crate::{layered, repeated_setup, write_spans, Args, Metrics, Phase, PER_LAYER};
use esp4ml::experiments::AppRun;
use esp4ml::TrainedModels;
use esp4ml_bench::request::{self, Progress, ProgressSink, RunRequest, WorkloadKind};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The two grid workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// The Fig. 7 grid (15 points) at 64 frames: simulation-bound.
    Fig7Sim,
    /// Table I + Fig. 7 + Fig. 8 (24 points) at 1 frame: SoC-build-bound.
    GridSetup,
}

impl SimWorkload {
    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::Fig7Sim => "fig7_sim",
            SimWorkload::GridSetup => "grid_setup",
        }
    }

    /// The requests of one pass, in order: event engine, one worker
    /// thread. The inputs are the paper's fixed grids, so they do not
    /// depend on the seed.
    pub fn requests(self) -> Vec<RunRequest> {
        let (kinds, frames): (&[WorkloadKind], u64) = match self {
            SimWorkload::Fig7Sim => (&[WorkloadKind::Fig7], 64),
            SimWorkload::GridSetup => (
                &[WorkloadKind::Table1, WorkloadKind::Fig7, WorkloadKind::Fig8],
                1,
            ),
        };
        kinds
            .iter()
            .map(|&kind| {
                let mut req = RunRequest::new(kind);
                req.frames = frames;
                req.engine = "event".to_string();
                req.jobs = 1;
                req
            })
            .collect()
    }

    /// The golden-digest key of one of this workload's requests.
    pub fn golden_name(self, req: &RunRequest) -> String {
        format!("{}/{}", self.name(), req.workload.label())
    }
}

struct Setup {
    models: TrainedModels,
    goldens: Goldens,
    requests: Vec<(String, RunRequest, u64)>,
}

fn setup(workload: SimWorkload, args: &Args) -> Result<Setup, String> {
    let models = TrainedModels::untrained();
    let goldens = Goldens::load(&args.golden_dir)?;
    let requests = workload
        .requests()
        .into_iter()
        .map(|req| {
            let name = workload.golden_name(&req);
            let points = layered::points(&req).len() as u64;
            (name, req, points)
        })
        .collect();
    Ok(Setup {
        models,
        goldens,
        requests,
    })
}

/// Shortest stretch between two host-speed samples inside a pass.
const STRETCH_S: f64 = 0.25;

/// Normalized time of one pass. A stretch closes at the first grid-point
/// boundary after [`STRETCH_S`], so a long pass follows the host's speed
/// as it drifts.
struct PassClock<'h> {
    host: &'h mut HostSpeed,
    /// Start of the operation in progress.
    mark: Instant,
    /// Raw seconds of the operations finished in the current stretch.
    pending: Vec<f64>,
    /// Normalized latencies of the operations in closed stretches.
    op_ms: Vec<f64>,
    /// Normalized seconds of the closed stretches.
    secs: f64,
}

impl PassClock<'_> {
    fn op_start(&mut self) {
        self.mark = Instant::now();
    }

    fn op_done(&mut self) {
        let now = Instant::now();
        self.pending.push((now - self.mark).as_secs_f64());
        self.mark = now;
        if self.host.stretch_s() >= STRETCH_S {
            self.close();
        }
    }

    fn close(&mut self) {
        let (raw, factor) = self.host.lap();
        self.secs += raw * factor;
        let done = self.pending.drain(..).map(|s| s * factor * 1e3);
        self.op_ms.extend(done);
        self.mark = Instant::now();
    }
}

/// The progress sink that ends each grid point's operation.
struct ClockSink<'h>(Mutex<PassClock<'h>>);

impl ProgressSink for ClockSink<'_> {
    fn publish(&self, _: &Progress) {
        self.0.lock().expect("clock lock").op_done();
    }
}

/// Whole passes until `seconds` have elapsed (at least one), each
/// normalized to the host's speed over it.
fn passes(
    host: &mut HostSpeed,
    seconds: f64,
    mut pass: impl FnMut(&mut Phase, &ClockSink),
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    host.mark();
    while phase.passes == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        let sink = ClockSink(Mutex::new(PassClock {
            host: &mut *host,
            mark: Instant::now(),
            pending: Vec::new(),
            op_ms: Vec::new(),
            secs: 0.0,
        }));
        pass(&mut phase, &sink);
        let mut clock = sink.0.into_inner().expect("clock lock");
        clock.close();
        phase.op_ms.extend(clock.op_ms);
        phase.secs += clock.secs;
        phase.passes += 1;
    }
    phase
}

/// Single-point requests over the workload's grid points, untimed.
fn warm_up(s: &Setup) -> Result<(), String> {
    let singles: Vec<RunRequest> = s
        .requests
        .iter()
        .flat_map(|(_, req, points)| {
            (0..*points as usize).map(|i| RunRequest {
                configs: vec![i],
                ..req.clone()
            })
        })
        .collect();
    let mut next = singles.iter().cycle();
    crate::warm_up(|| {
        let req = next.next().expect("a workload has points");
        request::execute(req, &s.models)
            .map(drop)
            .map_err(|e| format!("warm-up: {e}"))
    })
}

/// The end-to-end phase: every request through `request::execute`,
/// each point timed from the progress stream, each artifact checked.
fn untraced(s: &Setup, host: &mut HostSpeed, seconds: f64) -> Phase {
    passes(host, seconds, |phase, sink| {
        for (name, req, points) in &s.requests {
            phase.attempted += points;
            sink.0.lock().expect("clock lock").op_start();
            let result = request::execute_with_progress(req, &s.models, Some(sink))
                .map_err(|e| format!("{name}: {e}"))
                .and_then(|resp| {
                    let artifact = resp.artifacts.get("metrics").ok_or("no metrics artifact")?;
                    s.goldens.check(name, artifact)?;
                    Ok(resp)
                });
            match result {
                Ok(resp) => {
                    phase.ops += points;
                    phase.cycles += resp.runs.iter().map(|r| r.metrics.cycles).sum::<u64>();
                }
                Err(e) => phase.fail(*points, e),
            }
        }
    })
}

/// The traced phase: the same requests layer by layer. Returns the
/// phase, its spans and the runs of the first pass.
fn traced(s: &Setup, host: &mut HostSpeed, seconds: f64) -> (Phase, Vec<Span>, Vec<Vec<AppRun>>) {
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut next_trace = 1;
    let mut first: Vec<Vec<AppRun>> = Vec::new();
    let phase = passes(host, seconds, |phase, _| {
        for (name, req, points) in &s.requests {
            phase.attempted += points;
            let result = layered::run_request(&mut tr, &mut next_trace, req, &s.models).and_then(
                |(artifact, runs)| {
                    s.goldens.check(name, &artifact)?;
                    Ok(runs)
                },
            );
            match result {
                Ok(runs) => {
                    phase.ops += points;
                    phase.cycles += runs.iter().map(|r| r.metrics.cycles).sum::<u64>();
                    if phase.passes == 0 {
                        first.push(runs);
                    }
                }
                Err(e) => phase.fail(*points, e),
            }
        }
    });
    (phase, tr.into_spans(), first)
}

/// Runs a grid workload: the measured phase and its metrics.
///
/// # Errors
///
/// Set-up failures (missing goldens), as a printable message.
pub fn run(workload: SimWorkload, args: &Args) -> Result<(Phase, Metrics), String> {
    let mut host = HostSpeed::start();
    let (s, setup_s) = repeated_setup(&mut host, || setup(workload, args))?;
    warm_up(&s)?;
    let plain = untraced(&s, &mut host, args.seconds);
    if !args.trace {
        let metrics = plain.end_to_end(setup_s);
        return Ok((plain, metrics));
    }
    let (mut phase, spans, first) = traced(&s, &mut host, args.seconds);
    let mut m = Metrics::new(&PER_LAYER);
    m.set("host.reference_kernel_ms", host.median_sample() * 1e3);
    if first.len() == s.requests.len() {
        for ((name, req, _), runs) in s.requests.iter().zip(&first) {
            if let Err(e) = layered::check_against_grid_point(req, runs, &s.models) {
                phase.fail(runs.len() as u64, format!("{name}: {e}"));
            }
        }
        let pass: Vec<_> = first.iter().flatten().map(|r| r.metrics).collect();
        m.set_work_counts(&pass);
        let hops: u64 = pass.iter().map(|r| r.noc_flit_hops).sum::<u64>() * phase.passes;
        m.set_layer_times(&spans, phase.passes, phase.cycles, hops);
    }
    m.set_overhead(&plain, &phase);
    write_spans(&args.out_dir, args, &spans)?;
    Ok((phase, m))
}
