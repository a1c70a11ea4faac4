//! The traced path: a figure request executed layer by layer through
//! the public functions `request::execute` is built from, with one span
//! around each call.
//!
//! It makes the same sequence of calls as `request::execute`, split so
//! each layer can be timed. Its output is checked twice: the metrics
//! artifact against the golden digest, and every point's `RunMetrics`
//! against `GridPoint::run`.

use crate::spans::Tracer;
use esp4ml::apps::{argmax, decode_values, encode_image};
use esp4ml::experiments::{AppRun, Fig7, Fig8, GridPoint, Table1};
use esp4ml::runtime::{EspRuntime, RunSpec};
use esp4ml::soc::SocEngine;
use esp4ml::trace::schema::envelope_json;
use esp4ml::vision::SvhnGenerator;
use esp4ml::{Esp4mlFlow, TrainedModels};
use esp4ml_bench::chart;
use esp4ml_bench::request::{self, PointRun, RunRequest, WorkloadKind};

/// Seed of the synthetic input frames every harness run uses (the
/// experiments module's `DATA_SEED`). Were the two to drift apart, the
/// traced outputs would stop matching the goldens and the run fails.
const DATA_SEED: u64 = 0xE5F4;

/// The grid points a figure request selects, in request order.
pub fn points(req: &RunRequest) -> Vec<GridPoint> {
    let grid = match req.workload {
        WorkloadKind::Fig7 => Fig7::grid(),
        WorkloadKind::Fig8 => Fig8::grid(),
        WorkloadKind::Table1 => Table1::grid(),
        other => panic!("{} is not a figure workload", other.label()),
    };
    if req.configs.is_empty() {
        grid
    } else {
        req.configs.iter().map(|&i| grid[i]).collect()
    }
}

/// The simulation engine a request names.
pub fn engine(req: &RunRequest) -> SocEngine {
    match req.normalized().engine.as_str() {
        "naive" => SocEngine::Naive,
        _ => SocEngine::EventDriven,
    }
}

/// The response form of one run, field for field as `request::execute`
/// fills it.
pub fn point_run(run: &AppRun) -> PointRun {
    PointRun {
        label: run.label.clone(),
        mode: run.mode.label().to_string(),
        metrics: run.metrics,
        watts: run.watts,
        frames_per_second: run.metrics.frames_per_second(),
        frames_per_joule: run.frames_per_joule(),
        accuracy: run.accuracy(),
        software_fallback: run.software_fallback,
    }
}

/// The metrics artifact of `runs`, byte for byte as `request::execute`
/// renders it.
pub fn metrics_artifact(runs: &[AppRun]) -> String {
    let points: Vec<PointRun> = runs.iter().map(point_run).collect();
    let payload = serde_json::to_value(&points).expect("runs serialize");
    envelope_json("run-metrics", payload)
}

/// The figure text `request::execute` assembles for a whole grid
/// (Table I rebuilds each SoC to report its utilization).
fn assemble(req: &RunRequest, models: &TrainedModels, runs: &[AppRun]) -> Result<String, String> {
    let text = match req.workload {
        WorkloadKind::Fig7 => {
            let fig = Fig7::assemble(runs).map_err(|e| e.to_string())?;
            format!("{fig}\n\n{}", chart::render_fig7(&fig))
        }
        WorkloadKind::Fig8 => Fig8::assemble(runs).map_err(|e| e.to_string())?.to_string(),
        WorkloadKind::Table1 => Table1::assemble(models, runs)
            .map_err(|e| e.to_string())?
            .to_string(),
        other => panic!("{} is not a figure workload", other.label()),
    };
    Ok(text)
}

/// One grid point, layer by layer. `trace` is the id its spans share.
///
/// # Errors
///
/// Build or runtime failures, as a printable message.
pub fn run_point(
    tr: &mut Tracer,
    trace: u64,
    point: &GridPoint,
    models: &TrainedModels,
    frames: u64,
    engine: SocEngine,
) -> Result<AppRun, String> {
    let app = point.app;
    tr.begin("grid.point", trace);
    let result = (|| {
        let mut soc = tr
            .span("apps.build_soc", trace, || app.build_soc(models))
            .map_err(|e| e.to_string())?;
        soc.set_engine(engine);
        let dataflow = app.dataflow();
        let watts = tr.span("flow.estimate_power", trace, || {
            Esp4mlFlow::new().estimate_power(&soc).total_watts()
        });
        let (mut rt, buf) = tr
            .span("runtime.prepare", trace, || {
                let mut rt = EspRuntime::new(soc)?;
                let buf = rt.prepare(&dataflow, frames)?;
                Ok((rt, buf))
            })
            .map_err(|e: esp4ml::runtime::RuntimeError| e.to_string())?;
        let mut gen = SvhnGenerator::new(DATA_SEED);
        let mut labels = Vec::with_capacity(frames as usize);
        for f in 0..frames {
            let (words, label) = tr.span("vision.frame_gen", trace, || {
                let (image, label) = app.input_frame(&mut gen);
                (encode_image(&image), label)
            });
            tr.span("runtime.write_frame", trace, || {
                rt.write_frame(&buf, f, &words)
            })
            .map_err(|e| e.to_string())?;
            labels.push(label);
        }
        let spec = RunSpec::new(&dataflow).mode(point.mode);
        let metrics = tr
            .span("runtime.run", trace, || rt.run(&spec, &buf))
            .map_err(|e| e.to_string())?;
        let mut predictions = Vec::with_capacity(frames as usize);
        for f in 0..frames {
            let values = tr
                .span("runtime.read_frame", trace, || rt.read_frame(&buf, f))
                .map_err(|e| e.to_string())?;
            predictions.push(argmax(&decode_values(&values)));
        }
        Ok(AppRun {
            label: app.label(),
            mode: point.mode,
            metrics,
            watts,
            predictions,
            labels,
            sanitizer: None,
            software_fallback: false,
        })
    })();
    tr.end();
    result
}

/// A figure request, layer by layer: admission, cache key, every
/// point, the figure (for a whole grid) and the metrics artifact. The request and each of its points
/// take the next trace id from `next_trace`. Returns the artifact and
/// the point runs.
///
/// # Errors
///
/// A refused request or a failed point, as a printable message.
pub fn run_request(
    tr: &mut Tracer,
    next_trace: &mut u64,
    req: &RunRequest,
    models: &TrainedModels,
) -> Result<(String, Vec<AppRun>), String> {
    let id = *next_trace;
    *next_trace += 1;
    tr.begin("request", id);
    let result = (|| {
        tr.span("request.admission", id, || {
            req.validate()?;
            let report = request::admission(req);
            if report.has_errors() {
                return Err(format!("admission refused the request: {report:?}"));
            }
            Ok(())
        })?;
        tr.span("request.cache_key", id, || req.cache_key());
        let engine = engine(req);
        let mut runs = Vec::new();
        for point in &points(req) {
            let trace = *next_trace;
            *next_trace += 1;
            runs.push(run_point(tr, trace, point, models, req.frames, engine)?);
        }
        if req.configs.is_empty() {
            tr.span("request.assemble", id, || assemble(req, models, &runs))?;
        }
        let artifact = tr.span("request.serialize", id, || metrics_artifact(&runs));
        Ok((artifact, runs))
    })();
    tr.end();
    result
}

/// Asserts that the traced runs of `req` carry exactly the metrics
/// `GridPoint::run` produces for the same points.
///
/// # Errors
///
/// The first point whose metrics differ, or a failed reference run.
pub fn check_against_grid_point(
    req: &RunRequest,
    runs: &[AppRun],
    models: &TrainedModels,
) -> Result<(), String> {
    let engine = engine(req);
    for (point, traced) in points(req).iter().zip(runs) {
        let reference = point
            .run(models, req.frames, engine)
            .map_err(|e| e.to_string())?;
        if reference.metrics != traced.metrics {
            return Err(format!(
                "traced metrics of {} differ from GridPoint::run: {:?} vs {:?}",
                point.label(),
                traced.metrics,
                reference.metrics
            ));
        }
    }
    Ok(())
}
