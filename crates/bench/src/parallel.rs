//! Parallel execution of experiment grids across OS threads.
//!
//! Every [`GridPoint`] of a figure/table is an independent simulation —
//! its own SoC, its own runtime, nothing shared but the (read-only)
//! trained models — so the harness can scatter points across a scoped
//! thread pool. Workers steal the next un-run point from a shared atomic
//! cursor; results land in index-addressed slots, so collection order is
//! the grid order regardless of which worker finished when, and the
//! assembled figure is bit-identical to a serial run.
//!
//! Observed runs stay serial by design: a [`esp4ml::TraceSession`]
//! interleaves events from every run into one timeline, which only makes
//! sense when the runs execute one after another. [`run_grid`] therefore
//! runs on the calling thread whenever [`RunOptions::session`] is set.

use crate::request::{ProgressSink, ProgressTracker};
use esp4ml::apps::TrainedModels;
use esp4ml::experiments::{AppRun, ExperimentError, GridPoint, RunOptions};
use esp4ml_soc::SocEngine;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A sensible worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs every grid point under `engine` with the extras of `opts`
/// ([`GridPoint::run_with`]) on up to `jobs` worker threads and returns
/// the runs **in grid order**.
///
/// `jobs <= 1`, a single-point grid or an observed run (`opts.session`
/// set) runs serially on the calling thread with no pool at all, so the
/// serial path stays the trivially auditable oracle. Sanitizer and fault
/// options apply to every point alike, so the grid stays deterministic.
///
/// With `progress` set, one cumulative [`crate::request::Progress`]
/// snapshot is published per grid point **in grid order**, regardless
/// of worker scheduling: workers only publish the contiguous prefix of
/// finished slots, so the snapshot sequence is byte-identical to a
/// serial run.
///
/// # Errors
///
/// The first (in grid order) point that failed to build or run, or whose
/// sanitizer found violations.
pub fn run_grid(
    points: &[GridPoint],
    models: &TrainedModels,
    frames: u64,
    engine: SocEngine,
    jobs: usize,
    opts: RunOptions<'_>,
    progress: Option<&dyn ProgressSink>,
) -> Result<Vec<AppRun>, ExperimentError> {
    let RunOptions {
        sanitize,
        faults,
        mut session,
    } = opts;
    let mut tracker = ProgressTracker::new(progress, points.len() as u64);
    let jobs = jobs.min(points.len());
    if jobs <= 1 || session.is_some() {
        let mut runs = Vec::with_capacity(points.len());
        for point in points {
            let opts = RunOptions {
                sanitize,
                faults,
                session: session.as_deref_mut(),
            };
            let run = point.run_with(models, frames, engine, opts)?;
            tracker.advance_run(&run);
            runs.push(run);
        }
        return Ok(runs);
    }
    let exec = |p: &GridPoint| {
        let opts = RunOptions {
            sanitize,
            faults,
            session: None,
        };
        p.run_with(models, frames, engine, opts)
    };
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<AppRun, ExperimentError>>>> =
        points.iter().map(|_| Mutex::new(None)).collect();
    // Publisher state shared by all workers: the first slot not yet
    // published, and the tracker. Whoever fills a slot advances the
    // contiguous finished prefix, so snapshots always come out in grid
    // order.
    let publisher = Mutex::new((0usize, tracker));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(i) else { break };
                let result = exec(point);
                *slots[i].lock().expect("slot lock") = Some(result);
                let mut guard = publisher.lock().expect("publisher lock");
                let (next, tracker) = &mut *guard;
                while let Some(slot) = slots.get(*next) {
                    let filled = slot.lock().expect("slot lock");
                    match filled.as_ref() {
                        Some(Ok(run)) => tracker.advance_run(run),
                        // A failed point fails the whole grid; stop
                        // publishing rather than skip past the error.
                        Some(Err(_)) | None => break,
                    }
                    *next += 1;
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("scope joined every worker, so every slot is filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp4ml::experiments::Fig8;
    use esp4ml_runtime::ExecMode;

    #[test]
    fn parallel_matches_serial_on_fig8_grid() {
        let models = TrainedModels::untrained();
        let grid = Fig8::grid();
        let serial = run_grid(
            &grid,
            &models,
            2,
            SocEngine::EventDriven,
            1,
            RunOptions::default(),
            None,
        )
        .unwrap();
        let parallel = run_grid(
            &grid,
            &models,
            2,
            SocEngine::EventDriven,
            4,
            RunOptions::default(),
            None,
        )
        .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.mode, p.mode);
            assert_eq!(s.metrics, p.metrics, "{} {:?}", s.label, s.mode);
            assert_eq!(s.predictions, p.predictions);
        }
        let fig_s = Fig8::assemble(&serial).unwrap();
        let fig_p = Fig8::assemble(&parallel).unwrap();
        for (a, b) in fig_s.rows.iter().zip(&fig_p.rows) {
            assert_eq!(a.accesses_no_p2p, b.accesses_no_p2p);
            assert_eq!(a.accesses_p2p, b.accesses_p2p);
        }
    }

    #[test]
    fn grid_point_labels_are_stable() {
        let grid = Fig8::grid();
        assert_eq!(grid.len(), 6);
        assert!(grid.iter().step_by(2).all(|p| p.mode == ExecMode::Pipe));
        assert!(grid
            .iter()
            .skip(1)
            .step_by(2)
            .all(|p| p.mode == ExecMode::P2p));
    }
}
