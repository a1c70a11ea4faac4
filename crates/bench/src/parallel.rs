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
//! Tracing stays serial by design: a [`esp4ml::TraceSession`] interleaves
//! events from every run into one timeline, which only makes sense when
//! the runs execute one after another.

use crate::request::{Progress, ProgressSink};
use esp4ml::apps::TrainedModels;
use esp4ml::experiments::{AppRun, ExperimentError, GridPoint};
use esp4ml::faults::FaultConfig;
use esp4ml_soc::SocEngine;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A sensible worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs every grid point under `engine` on up to `jobs` worker threads
/// and returns the runs **in grid order**.
///
/// `jobs <= 1` (or a single-point grid) runs serially on the calling
/// thread with no pool at all, so the serial path stays the trivially
/// auditable oracle.
///
/// With `sanitize` set, every point runs under the full runtime
/// invariant sanitizer ([`esp4ml_soc::SanitizerConfig::all`]); the first
/// violated invariant fails the grid with its typed diagnostics.
///
/// With `faults` set, every point installs the fault plan on its SoC
/// and arms the watchdog/retry/failover recovery layer
/// ([`GridPoint::run_faulted`]) — every worker injects the same plan,
/// so the grid stays deterministic.
///
/// With `progress` set, one cumulative [`Progress`] snapshot is
/// published per grid point **in grid order**, regardless of worker
/// scheduling: workers only publish the contiguous prefix of finished
/// slots, so the snapshot sequence is byte-identical to a serial run.
///
/// # Errors
///
/// The first (in grid order) point that failed to build or run, or whose
/// sanitizer found violations.
#[allow(clippy::too_many_arguments)] // mirrors the RunRequest field set
pub fn run_grid(
    points: &[GridPoint],
    models: &TrainedModels,
    frames: u64,
    engine: SocEngine,
    jobs: usize,
    sanitize: bool,
    faults: Option<&FaultConfig>,
    progress: Option<&dyn ProgressSink>,
) -> Result<Vec<AppRun>, ExperimentError> {
    let exec = |p: &GridPoint| {
        if sanitize {
            p.run_sanitized(models, frames, engine)
        } else if let Some(fc) = faults {
            p.run_faulted(models, frames, engine, fc)
        } else {
            p.run(models, frames, engine)
        }
    };
    let total = points.len() as u64;
    let publish = |state: &mut PublishState, run: &AppRun| {
        if let Some(sink) = progress {
            state.done += 1;
            state.frames += run.metrics.frames;
            state.cycles += run.metrics.cycles;
            sink.publish(&Progress {
                points_done: state.done,
                points_total: total,
                frames_done: state.frames,
                cycles: state.cycles,
                label: format!("{} {}", run.label, run.mode.label()),
            });
        }
    };
    let jobs = jobs.min(points.len());
    if jobs <= 1 {
        let mut state = PublishState::default();
        let mut runs = Vec::with_capacity(points.len());
        for point in points {
            let run = exec(point)?;
            publish(&mut state, &run);
            runs.push(run);
        }
        return Ok(runs);
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<AppRun, ExperimentError>>>> =
        points.iter().map(|_| Mutex::new(None)).collect();
    // Publisher state shared by all workers: `next` is the first slot
    // not yet published. Whoever fills a slot advances the contiguous
    // finished prefix, so snapshots always come out in grid order.
    let publisher = Mutex::new(PublishState::default());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(i) else { break };
                let result = exec(point);
                *slots[i].lock().expect("slot lock") = Some(result);
                let mut state = publisher.lock().expect("publisher lock");
                while let Some(slot) = slots.get(state.next) {
                    let filled = slot.lock().expect("slot lock");
                    match filled.as_ref() {
                        Some(Ok(run)) => publish(&mut state, run),
                        // A failed point fails the whole grid; stop
                        // publishing rather than skip past the error.
                        Some(Err(_)) | None => break,
                    }
                    state.next += 1;
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

/// Cumulative progress accumulator shared by the serial and parallel
/// paths of [`run_grid`].
#[derive(Default)]
struct PublishState {
    next: usize,
    done: u64,
    frames: u64,
    cycles: u64,
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
            false,
            None,
            None,
        )
        .unwrap();
        let parallel = run_grid(
            &grid,
            &models,
            2,
            SocEngine::EventDriven,
            4,
            false,
            None,
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
