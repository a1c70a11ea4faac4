//! Integration tests of the fault-injection and fault-tolerance layer:
//! seeded campaigns are byte-identical under both simulation engines,
//! Fig. 7 pipelines survive injected hangs through retry/failover, and
//! the whole machinery is zero-cost when no faults are configured.

use esp4ml::apps::{CaseApp, TrainedModels};
use esp4ml::experiments::{AppRun, GridPoint, RunOptions};
use esp4ml::faults::{CampaignReport, FaultConfig, CAMPAIGN_WATCHDOG_CYCLES};
use esp4ml::runtime::ExecMode;
use esp4ml::trace::SpanKind;
use esp4ml::TraceSession;
use esp4ml_fault::{FaultPlan, FaultSpec};
use esp4ml_soc::SocEngine;

fn models() -> TrainedModels {
    TrainedModels::untrained()
}

fn hang_config(plan: FaultPlan) -> FaultConfig {
    FaultConfig::from_plan(plan).with_watchdog(CAMPAIGN_WATCHDOG_CYCLES)
}

/// Runs `app` in `mode` over three frames under the event-driven engine
/// with the extras of `opts`.
fn run_point(m: &TrainedModels, app: CaseApp, mode: ExecMode, opts: RunOptions<'_>) -> AppRun {
    GridPoint { app, mode }
        .run_with(m, 3, SocEngine::EventDriven, opts)
        .unwrap()
}

fn faulted(config: &FaultConfig) -> RunOptions<'_> {
    RunOptions {
        faults: Some(config),
        ..RunOptions::default()
    }
}

/// The acceptance scenario of the fault-tolerance work: a Fig. 7
/// three-stage pipeline (input → NV → classifier) with a permanently
/// hung classifier completes via retry + failover to the spare
/// classifier instance, with the degraded throughput visible in the
/// metrics.
#[test]
fn fig7_pipeline_survives_permanent_hang_via_failover() {
    let m = models();
    let app = CaseApp::NightVisionClassifier { nv: 2, cl: 2 };
    let healthy = run_point(&m, app, ExecMode::Pipe, RunOptions::default());
    let config = hang_config(FaultPlan::new(0).with(FaultSpec::permanent_hang("cl0")));
    let run = run_point(&m, app, ExecMode::Pipe, faulted(&config));
    assert!(!run.software_fallback, "spares should absorb the hang");
    assert!(run.metrics.retries >= 1, "{:?}", run.metrics);
    assert!(run.metrics.failovers >= 1, "{:?}", run.metrics);
    assert!(run.metrics.faults_injected >= 1, "{:?}", run.metrics);
    // Same answers as the healthy pipeline, honestly slower.
    assert_eq!(run.predictions, healthy.predictions);
    assert!(
        run.metrics.frames_per_second() < healthy.metrics.frames_per_second(),
        "recovered run must report degraded throughput ({} vs {} f/s)",
        run.metrics.frames_per_second(),
        healthy.metrics.frames_per_second(),
    );
}

/// A pipeline stage with no spare (the lone denoiser) degrades to the
/// processor-tile software path instead of failing, and reports the
/// much lower software throughput.
#[test]
fn denoiser_hang_degrades_to_software_fallback() {
    let m = models();
    let app = CaseApp::DenoiserClassifier;
    let healthy = run_point(&m, app, ExecMode::Pipe, RunOptions::default());
    let config = hang_config(FaultPlan::new(0).with(FaultSpec::permanent_hang("denoiser")));
    let run = run_point(&m, app, ExecMode::Pipe, faulted(&config));
    assert!(run.software_fallback);
    assert_eq!(run.metrics.frames, 3);
    assert_eq!(run.predictions.len(), 3);
    assert!(run.metrics.faults_injected >= 1);
    assert!(
        run.metrics.frames_per_second() < healthy.metrics.frames_per_second() / 10.0,
        "software fallback must be honestly slow ({} vs {} f/s)",
        run.metrics.frames_per_second(),
        healthy.metrics.frames_per_second(),
    );
}

/// A transient hang heals with retries alone — no failover, correct
/// output.
#[test]
fn transient_hang_recovers_with_retries_only() {
    let m = models();
    let app = CaseApp::DenoiserClassifier;
    let healthy = run_point(&m, app, ExecMode::P2p, RunOptions::default());
    let config = hang_config(FaultPlan::new(0).with(FaultSpec::transient_hang("denoiser", 0)));
    let run = run_point(&m, app, ExecMode::P2p, faulted(&config));
    assert!(!run.software_fallback);
    assert!(run.metrics.retries >= 1);
    assert_eq!(run.metrics.failovers, 0);
    assert_eq!(run.predictions, healthy.predictions);
}

/// The same seeded campaign produces a byte-identical JSON artifact
/// under the naive oracle and the event-driven engine: every fault
/// trigger counts architectural events, never engine artifacts.
#[test]
fn campaign_json_is_byte_identical_across_engines() {
    let m = models();
    let seeds = [1];
    let naive = CampaignReport::generate(&m, &seeds, 3, SocEngine::Naive).unwrap();
    let event = CampaignReport::generate(&m, &seeds, 3, SocEngine::EventDriven).unwrap();
    assert_eq!(
        naive.to_json().unwrap(),
        event.to_json().unwrap(),
        "campaign must be engine-independent"
    );
    // The campaign exercises the recovery machinery, not just clean runs.
    assert!(!naive.cases.is_empty());
    assert!(
        naive
            .cases
            .iter()
            .any(|c| c.status == "recovered" || c.status == "degraded"),
        "expected at least one recovery across the sweep:\n{naive}"
    );
    assert!(
        naive.cases.iter().all(|c| c.status != "failed"),
        "recovery must absorb every injected fault:\n{naive}"
    );
}

/// Recovery cycles are not lost by the span layer: retry backoff
/// windows land in [`SpanKind::Retry`] spans, failovers appear as
/// marker spans, and the attribution invariant (every latency cycle in
/// exactly one span) survives both — the degraded frames are exactly
/// as long as their spans say.
#[test]
fn recovery_cycles_appear_as_retry_and_failover_spans() {
    let m = models();

    // Transient hang: heals with retries alone, so the stretched
    // frame's extra latency must be visible as Retry-attributed cycles.
    let app = CaseApp::DenoiserClassifier;
    let config = hang_config(FaultPlan::new(0).with(FaultSpec::transient_hang("denoiser", 0)));
    let mut session = TraceSession::spanned(None, false);
    let opts = RunOptions {
        session: Some(&mut session),
        ..faulted(&config)
    };
    let run = run_point(&m, app, ExecMode::P2p, opts);
    assert!(run.metrics.retries >= 1, "{:?}", run.metrics);
    let report = session.span_reports().first().expect("span report");
    report
        .check_attribution()
        .expect("attribution must stay exact under retries");
    let retry_cycles: u64 = report
        .frames
        .iter()
        .flat_map(|f| &f.stages)
        .flat_map(|s| &s.spans)
        .filter(|s| s.kind == SpanKind::Retry)
        .map(|s| s.cycles())
        .sum();
    assert!(
        retry_cycles > 0,
        "retry backoff must be attributed as Retry spans:\n{}",
        report.render_text()
    );

    // Permanent hang: retry exhaustion remaps the stage to the spare
    // classifier — the remap must leave a Failover marker in the tree
    // without breaking attribution.
    let app = CaseApp::NightVisionClassifier { nv: 2, cl: 2 };
    let config = hang_config(FaultPlan::new(0).with(FaultSpec::permanent_hang("cl0")));
    let mut session = TraceSession::spanned(None, false);
    let opts = RunOptions {
        session: Some(&mut session),
        ..faulted(&config)
    };
    let run = run_point(&m, app, ExecMode::Pipe, opts);
    assert!(run.metrics.failovers >= 1, "{:?}", run.metrics);
    let report = session.span_reports().first().expect("span report");
    report
        .check_attribution()
        .expect("attribution must stay exact under failover");
    let failover_markers = report
        .frames
        .iter()
        .flat_map(|f| &f.stages)
        .flat_map(|s| &s.spans)
        .filter(|s| s.kind == SpanKind::Failover)
        .count();
    assert!(
        failover_markers >= 1,
        "failover must appear as a marker span:\n{}",
        report.render_text()
    );
}

/// With no fault plan installed and no recovery policy configured, the
/// new machinery must be invisible: metrics identical to a plain run.
#[test]
fn no_faults_is_zero_cost() {
    let m = models();
    for mode in [ExecMode::Pipe, ExecMode::P2p] {
        let app = CaseApp::DenoiserClassifier;
        let plain = run_point(&m, app, mode, RunOptions::default());
        let armed = run_point(&m, app, mode, faulted(&FaultConfig::default()));
        assert_eq!(plain.metrics, armed.metrics, "{mode:?}");
        assert_eq!(plain.predictions, armed.predictions, "{mode:?}");
        assert!(!armed.software_fallback);
    }
}
