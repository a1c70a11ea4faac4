//! `perfbench` — the repository's layered performance benchmark.
//!
//! Four workloads drive the program only through its stable public
//! entry points (`request::execute`, `CampaignReport::generate` and
//! espserve's `/v1` HTTP API). A run with `--trace 0` measures the
//! end-to-end metrics; a run with `--trace 1` repeats the work through
//! the per-layer public functions with a span around each call and
//! reports per-layer metrics. Every timed operation checks its output
//! bytes, so a faster but wrong program counts as failed. See
//! `perfbench/README.md` for the workloads and the metric mapping.

pub mod fault;
pub mod golden;
pub mod host;
pub mod inputs;
pub mod layered;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["fig7_sim", "grid_setup", "fault_campaign", "serve_mix"];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload reports 0
/// for a layer it does not enter.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("apps.build_soc.s", "s"),
    ("apps.build_soc.share", "fraction"),
    ("runtime.run.s", "s"),
    ("runtime.run.share", "fraction"),
    ("runtime.run.ns_per_cycle", "ns/cycle"),
    ("runtime.run.ns_per_flit_hop", "ns/hop"),
    ("runtime.prepare.s", "s"),
    ("flow.estimate_power.s", "s"),
    ("vision.frame_gen.s", "s"),
    ("runtime.write_frame.s", "s"),
    ("runtime.read_frame.s", "s"),
    ("request.assemble.s", "s"),
    ("request.serialize.s", "s"),
    ("request.admission.s", "s"),
    ("request.cache_key.s", "s"),
    ("fault.campaign.s", "s"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p95_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.cache_hit_ratio", "fraction"),
    ("serve.cache_evictions", "count"),
    ("serve.jobs_retained", "count"),
    ("soc.cycles", "count"),
    ("noc.flit_hops", "count"),
    ("mem.dram_accesses", "count"),
    ("runtime.invocations", "count"),
    ("fault.cases", "count"),
    ("fault.retries", "count"),
    ("fault.failovers", "count"),
    ("fault.silent_corruptions", "count"),
    ("trace.overhead_pct", "%"),
    ("host.reference_kernel_ms", "ms"),
];

/// Layers whose span self time is reported as seconds per pass.
pub const TIMED_LAYERS: [&str; 12] = [
    "apps.build_soc",
    "runtime.run",
    "runtime.prepare",
    "flow.estimate_power",
    "vision.frame_gen",
    "runtime.write_frame",
    "runtime.read_frame",
    "request.assemble",
    "request.serialize",
    "request.admission",
    "request.cache_key",
    "fault.campaign",
];

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 21;
/// Untimed seconds of the workload's own operations before timing.
pub const WARMUP_S: f64 = 2.0;

/// Parsed command line of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Directory holding the golden file.
    pub golden_dir: PathBuf,
    /// Directory the traced run writes its spans to.
    pub out_dir: PathBuf,
}

/// What one measured phase did.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed, were refused or returned wrong bytes.
    pub failed: u64,
    /// Why they failed (first few kept).
    pub errors: Vec<String>,
    /// Operations completed with the expected output.
    pub ops: u64,
    /// Simulated cycles of the completed operations.
    pub cycles: u64,
    /// Latencies behind `op_p50_ms`, in normalized milliseconds.
    pub op_ms: Vec<f64>,
    /// Normalized seconds of the timed work.
    pub secs: f64,
    /// Complete passes over the workload's fixed work.
    pub passes: u64,
    /// Peak resident memory read at a fixed point of the work, for a
    /// workload whose memory grows with the work done; `None` reads it
    /// when the metrics are taken.
    pub peak_rss_mb: Option<f64>,
}

impl Phase {
    /// Records a failed operation.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// `count` per normalized second of the timed work. Every stretch of
    /// it is normalized on its own, so a burst of contention from another
    /// process on the host weighs only as long as it lasts.
    fn rate(&self, count: u64) -> f64 {
        count as f64 / self.secs
    }

    /// The end-to-end metrics of this phase; `setup_s` comes from the
    /// repeated set-up.
    pub fn end_to_end(&self, setup_s: f64) -> Metrics {
        let mut m = Metrics::new(&END_TO_END);
        m.set("setup_s", setup_s);
        m.set("sim_cycles_per_s", self.rate(self.cycles));
        m.set("peak_rss_mb", self.peak_rss_mb.unwrap_or_else(peak_rss_mb));
        m.set("ops_per_s", self.rate(self.ops));
        m.set("op_p50_ms", stats::median(&self.op_ms).unwrap_or(0.0));
        m
    }

    /// Normalized seconds per completed operation.
    pub fn seconds_per_op(&self) -> f64 {
        1.0 / self.rate(self.ops)
    }
}

/// Runs `op` untimed until [`WARMUP_S`] have passed (at least once).
///
/// A fresh process runs its first second or so up to 50% slower, while
/// the allocator's mmap threshold adapts to the simulator's large
/// buffers; timing starts after that.
///
/// # Errors
///
/// The first failure of `op`.
pub fn warm_up(mut op: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    op()?;
    while start.elapsed().as_secs_f64() < WARMUP_S {
        op()?;
    }
    Ok(())
}

/// A fixed, ordered set of named metrics with units.
#[derive(Debug, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
    order: Vec<&'static str>,
}

impl Metrics {
    /// Every metric of `spec`, initialised to 0.
    pub fn new(spec: &[(&'static str, &'static str)]) -> Metrics {
        Metrics {
            values: spec.iter().map(|&(n, u)| (n, (0.0, u))).collect(),
            order: spec.iter().map(|&(n, _)| n).collect(),
        }
    }

    /// Sets a metric; panics on a name outside the spec.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        slot.0 = value;
    }

    /// Fills the per-pass self time of every timed layer, the shares of
    /// build and run in the layered work, and the run's cost per cycle
    /// and per flit hop, from the spans of `passes` passes whose layered
    /// runs simulated `cycles` cycles over `flit_hops` hops.
    pub fn set_layer_times(
        &mut self,
        spans: &[spans::Span],
        passes: u64,
        cycles: u64,
        flit_hops: u64,
    ) {
        let times = spans::self_times(spans);
        let self_ns = |name: &str| times.get(name).copied().unwrap_or(0) as f64;
        let per_pass = |name: &str| self_ns(name) / 1e9 / passes.max(1) as f64;
        for layer in TIMED_LAYERS {
            self.set(&format!("{layer}.s"), per_pass(layer));
        }
        // Shares are of the layered simulation work: requests and
        // grid points run through the public layer functions.
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none() && matches!(s.name, "request" | "grid.point"))
            .map(spans::Span::dur_ns)
            .sum();
        if roots > 0 {
            self.set(
                "apps.build_soc.share",
                self_ns("apps.build_soc") / roots as f64,
            );
            self.set("runtime.run.share", self_ns("runtime.run") / roots as f64);
        }
        if cycles > 0 {
            self.set(
                "runtime.run.ns_per_cycle",
                self_ns("runtime.run") / cycles as f64,
            );
        }
        if flit_hops > 0 {
            self.set(
                "runtime.run.ns_per_flit_hop",
                self_ns("runtime.run") / flit_hops as f64,
            );
        }
    }

    /// Sets the work counts from the `RunMetrics` of one pass.
    pub fn set_work_counts<'a>(
        &mut self,
        runs: impl IntoIterator<Item = &'a esp4ml::runtime::RunMetrics>,
    ) {
        let (mut cycles, mut hops, mut dram, mut inv) = (0u64, 0u64, 0u64, 0u64);
        for m in runs {
            cycles += m.cycles;
            hops += m.noc_flit_hops;
            dram += m.dram_accesses;
            inv += m.invocations;
        }
        self.set("soc.cycles", cycles as f64);
        self.set("noc.flit_hops", hops as f64);
        self.set("mem.dram_accesses", dram as f64);
        self.set("runtime.invocations", inv as f64);
    }

    /// Sets `trace.overhead_pct` from the untraced and traced phases.
    pub fn set_overhead(&mut self, untraced: &Phase, traced: &Phase) {
        let pct = (traced.seconds_per_op() / untraced.seconds_per_op() - 1.0) * 100.0;
        self.set("trace.overhead_pct", pct);
    }
}

/// The last line of a run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, name) in metrics.order.iter().enumerate() {
        let (value, unit) = metrics.values[name];
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last instance
/// with the median set-up time in normalized seconds, each set-up
/// normalized on its own. Earlier instances are dropped before the next
/// one is built.
///
/// # Errors
///
/// The first set-up failure.
pub fn repeated_setup<T>(
    host: &mut host::HostSpeed,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        host.mark();
        last = Some(setup()?);
        let (raw, factor) = host.lap();
        times.push(raw * factor);
    }
    let median = stats::median(&times).expect("at least one set-up");
    Ok((last.expect("at least one set-up"), median))
}

/// Writes the traced run's spans as a Chrome trace into `dir`.
///
/// # Errors
///
/// File-system failures, as a printable message.
pub fn write_spans(
    dir: &std::path::Path,
    args: &Args,
    spans: &[spans::Span],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, spans::chrome_trace(spans))
        .map_err(|e| format!("{}: {e}", path.display()))
}
