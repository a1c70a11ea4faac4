//! `fault_campaign`: `CampaignReport::generate` over one campaign seed
//! at a time, in an order the benchmark seed decides. Each campaign is
//! one operation; a phase sweeps the whole seed pool in whole passes, so
//! every phase simulates the same campaigns.

use crate::golden::{Goldens, CAMPAIGN_FRAMES};
use crate::host::HostSpeed;
use crate::spans::Tracer;
use crate::{inputs, layered, repeated_setup, write_spans, Args, Metrics, Phase, PER_LAYER};
use esp4ml::experiments::GridPoint;
use esp4ml::faults::CampaignReport;
use esp4ml::runtime::RunMetrics;
use esp4ml::soc::SocEngine;
use esp4ml::TrainedModels;
use esp4ml_bench::request::{self, RunRequest, WorkloadKind};
use std::time::{Duration, Instant};

struct Setup {
    models: TrainedModels,
    goldens: Goldens,
    seeds: Vec<u64>,
}

fn setup(args: &Args) -> Result<Setup, String> {
    Ok(Setup {
        models: TrainedModels::untrained(),
        goldens: Goldens::load(&args.golden_dir)?,
        seeds: inputs::fault_seeds(args.seed),
    })
}

/// Cycles the campaign's runs report: each pipeline's healthy
/// reference, plus every faulted run that completed on the hardware
/// (degraded runs report modelled software cycles and failed runs none).
pub fn campaign_cycles(report: &CampaignReport) -> u64 {
    let mut healthy: Vec<(&str, &str, u64)> = Vec::new();
    let mut faulted = 0;
    for c in &report.cases {
        if !healthy.iter().any(|h| h.0 == c.config && h.1 == c.mode) {
            healthy.push((&c.config, &c.mode, c.healthy_cycles));
        }
        if c.status == "clean" || c.status == "recovered" {
            faulted += c.cycles;
        }
    }
    faulted + healthy.iter().map(|h| h.2).sum::<u64>()
}

/// One checked campaign.
fn campaign(s: &Setup, seeds: &[u64]) -> Result<CampaignReport, String> {
    let report =
        CampaignReport::generate(&s.models, seeds, CAMPAIGN_FRAMES, SocEngine::EventDriven)
            .map_err(|e| format!("campaign: {e}"))?;
    s.goldens.check_campaign(seeds, &report)?;
    Ok(report)
}

/// The traced form of one campaign: the admission and cache-key work a
/// server pays for a campaign request of this size, the campaign and its
/// serialization. With `replay`, also the campaign pipelines' healthy
/// reference runs, replayed layer by layer and checked against the
/// report.
fn traced_campaign(
    s: &Setup,
    seeds: &[u64],
    replay: bool,
    tr: &mut Tracer,
    trace: u64,
) -> Result<(CampaignReport, Vec<RunMetrics>), String> {
    let req = RunRequest {
        frames: CAMPAIGN_FRAMES,
        ..RunRequest::new(WorkloadKind::Faults {
            seeds: seeds.len() as u64,
        })
    };
    tr.span("request.admission", trace, || request::admission(&req));
    tr.span("request.cache_key", trace, || req.cache_key());
    let report = tr.span("fault.campaign", trace, || campaign(s, seeds))?;
    tr.span("request.serialize", trace, || report.to_json())
        .map_err(|e| e.to_string())?;
    let mut healthy = Vec::new();
    if !replay {
        return Ok((report, healthy));
    }
    for (app, mode) in CampaignReport::grid() {
        let point = GridPoint { app, mode };
        let run = layered::run_point(
            tr,
            trace,
            &point,
            &s.models,
            CAMPAIGN_FRAMES,
            SocEngine::EventDriven,
        )?;
        let want = report
            .cases
            .iter()
            .find(|c| c.config == run.label && c.mode == run.mode.label())
            .map(|c| c.healthy_cycles);
        if want != Some(run.metrics.cycles) {
            return Err(format!(
                "{}: traced healthy cycles {} differ from the campaign's {want:?}",
                point.label(),
                run.metrics.cycles
            ));
        }
        healthy.push(run.metrics);
    }
    Ok((report, healthy))
}

/// Whole passes over the seed pool until `seconds` have elapsed (at
/// least one), traced when `tr` is given. Each campaign is normalized to
/// the host's speed around it; a traced pass replays the healthy runs in
/// its first campaign only. Returns the phase and the reports and
/// healthy replays of the first pass.
fn campaigns(
    s: &Setup,
    host: &mut HostSpeed,
    seconds: f64,
    mut tr: Option<&mut Tracer>,
) -> (Phase, Vec<Traced>) {
    let mut phase = Phase::default();
    let mut first = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        host.mark();
        for (i, &seed) in s.seeds.iter().enumerate() {
            let seeds = &[seed];
            phase.attempted += 1;
            let result = match tr.as_deref_mut() {
                None => campaign(s, seeds).map(|r| (r, Vec::new())),
                Some(tr) => traced_campaign(s, seeds, i == 0, tr, phase.attempted),
            };
            let (raw, factor) = host.lap();
            let secs = raw * factor;
            phase.secs += secs;
            match result {
                Ok((report, healthy)) => {
                    phase.op_ms.push(secs * 1e3);
                    phase.ops += 1;
                    phase.cycles += campaign_cycles(&report);
                    if passes == 0 {
                        first.push((report, healthy));
                    }
                }
                Err(e) => phase.fail(1, e),
            }
        }
        passes += 1;
    }
    phase.passes = passes;
    (phase, first)
}

/// A campaign's report and its healthy replay.
type Traced = (CampaignReport, Vec<RunMetrics>);

/// Runs `fault_campaign`: the measured phase and its metrics.
///
/// # Errors
///
/// Set-up or span-output failures, as a printable message.
pub fn run(args: &Args) -> Result<(Phase, Metrics), String> {
    let mut host = HostSpeed::start();
    let (s, setup_s) = repeated_setup(&mut host, || setup(args))?;
    let warm_seed = [s.seeds[0]];
    crate::warm_up(|| {
        CampaignReport::generate(
            &s.models,
            &warm_seed,
            CAMPAIGN_FRAMES,
            SocEngine::EventDriven,
        )
        .map(drop)
        .map_err(|e| format!("warm-up: {e}"))
    })?;
    let (plain, _) = campaigns(&s, &mut host, args.seconds, None);
    if !args.trace {
        let metrics = plain.end_to_end(setup_s);
        return Ok((plain, metrics));
    }
    let mut tr = Tracer::new(Instant::now(), 0);
    let (mut phase, first) = campaigns(&s, &mut host, args.seconds, Some(&mut tr));
    let spans = tr.into_spans();
    let mut m = Metrics::new(&PER_LAYER);
    m.set("host.reference_kernel_ms", host.median_sample() * 1e3);
    m.set_overhead(&plain, &phase);
    let cases = first.iter().flat_map(|(report, _)| &report.cases);
    m.set("fault.cases", cases.clone().count() as f64);
    m.set(
        "fault.retries",
        cases.clone().map(|c| c.retries).sum::<u64>() as f64,
    );
    m.set(
        "fault.failovers",
        cases.map(|c| c.failovers).sum::<u64>() as f64,
    );
    let silent: usize = first.iter().map(|(r, _)| r.silent_corruptions()).sum();
    m.set("fault.silent_corruptions", silent as f64);
    // Every pass replays the same healthy runs; check the first replay
    // against GridPoint::run.
    if let Some((_, healthy)) = first.first() {
        for ((app, mode), traced) in CampaignReport::grid().into_iter().zip(healthy) {
            let point = GridPoint { app, mode };
            let same = point
                .run(&s.models, CAMPAIGN_FRAMES, SocEngine::EventDriven)
                .is_ok_and(|r| r.metrics == *traced);
            if !same {
                phase.fail(
                    1,
                    format!(
                        "{}: traced metrics differ from GridPoint::run",
                        point.label()
                    ),
                );
            }
        }
    }
    let replays: Vec<RunMetrics> = first.iter().flat_map(|(_, h)| h.iter().copied()).collect();
    m.set_work_counts(&replays);
    let passes = phase.passes;
    let cycles: u64 = replays.iter().map(|r| r.cycles).sum::<u64>() * passes;
    let hops: u64 = replays.iter().map(|r| r.noc_flit_hops).sum::<u64>() * passes;
    m.set_layer_times(&spans, passes, cycles, hops);
    write_spans(&args.out_dir, args, &spans)?;
    Ok((phase, m))
}
