//! Golden outputs: digests of every artifact a timed operation
//! returns, and the expected case table of every campaign seed.
//!
//! The file is produced once with the naive engine, the cycle-exact
//! oracle (`perfbench --regen-goldens`), and every run checks the
//! event engine's output bytes against it.

use crate::inputs::{ServeItem, FAULT_SEED_POOL};
use crate::sim::SimWorkload;
use esp4ml::experiments::ExperimentError;
use esp4ml::faults::{CampaignCase, CampaignReport};
use esp4ml::soc::SocEngine;
use esp4ml::TrainedModels;
use esp4ml_bench::request;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Name of the golden file inside the golden directory.
pub const FILE: &str = "goldens.json";
/// Frames each campaign run processes.
pub const CAMPAIGN_FRAMES: u64 = 3;

/// The golden outputs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Goldens {
    /// Engine the goldens were produced with.
    pub engine: String,
    /// Artifact digests by name (`<workload>/<request>`), each
    /// `<fnv1a64 hex>:<byte length>`.
    pub digests: BTreeMap<String, String>,
    /// Expected campaign rows by campaign seed, in sweep order
    /// (see [`case_row`]).
    pub fault_cases: BTreeMap<String, Vec<String>>,
}

impl Goldens {
    /// Loads the golden file from `dir`.
    ///
    /// # Errors
    ///
    /// A printable message when the file is missing or malformed.
    pub fn load(dir: &Path) -> Result<Goldens, String> {
        let path = dir.join(FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Checks `bytes` against the digest stored under `name`.
    ///
    /// # Errors
    ///
    /// A printable mismatch (or missing-golden) message.
    pub fn check(&self, name: &str, bytes: &str) -> Result<(), String> {
        let want = self
            .digests
            .get(name)
            .ok_or_else(|| format!("no golden digest for {name}"))?;
        let got = digest(bytes);
        if *want == got {
            Ok(())
        } else {
            Err(format!(
                "{name}: output digest {got} differs from golden {want}"
            ))
        }
    }

    /// Checks that `report` is the campaign over exactly `seeds`: the
    /// same seed list, and for every seed the golden rows and no other
    /// case.
    ///
    /// # Errors
    ///
    /// The first mismatch, as a printable message.
    pub fn check_campaign(&self, seeds: &[u64], report: &CampaignReport) -> Result<(), String> {
        if report.seeds != seeds {
            return Err(format!(
                "campaign reports seeds {:?}, requested {seeds:?}",
                report.seeds
            ));
        }
        let mut expected = 0;
        for &seed in seeds {
            let want = self
                .fault_cases
                .get(&seed.to_string())
                .ok_or_else(|| format!("no golden cases for campaign seed {seed}"))?;
            let got: Vec<String> = report
                .cases
                .iter()
                .filter(|c| c.seed == seed)
                .map(case_row)
                .collect();
            if got != *want {
                return Err(format!(
                    "campaign seed {seed}: case table differs from golden \
                     (got {} rows, want {})",
                    got.len(),
                    want.len()
                ));
            }
            expected += want.len();
        }
        if report.cases.len() != expected {
            return Err(format!(
                "campaign over {seeds:?} has {} cases, golden {expected}",
                report.cases.len()
            ));
        }
        Ok(())
    }
}

/// FNV-1a 64 of `bytes` with the byte length: `<hex>:<len>`.
pub fn digest(bytes: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}:{}", bytes.len())
}

/// The checked columns of one campaign case: pipeline, mode, fault
/// class, verdict, correctness, cycles and recovery counts.
pub fn case_row(c: &CampaignCase) -> String {
    format!(
        "{} {} {} {} correct={} cycles={} healthy={} injected={} retries={} failovers={}",
        c.config,
        c.mode,
        c.fault,
        c.status,
        c.correct,
        c.cycles,
        c.healthy_cycles,
        c.faults_injected,
        c.retries,
        c.failovers
    )
}

/// Threads [`generate`] runs the naive engine on.
const REGEN_JOBS: usize = 2;

/// Produces every golden with the naive engine.
///
/// # Errors
///
/// Any request or campaign failure, as a printable message.
pub fn generate() -> Result<Goldens, String> {
    let models = TrainedModels::untrained();
    let mut goldens = Goldens {
        engine: "naive".to_string(),
        ..Goldens::default()
    };
    let mut named = Vec::new();
    for workload in [SimWorkload::Fig7Sim, SimWorkload::GridSetup] {
        for req in workload.requests() {
            named.push((workload.golden_name(&req), req));
        }
    }
    for item in ServeItem::all() {
        named.push((format!("serve_mix/{}", item.name()), item.request()));
    }
    for (name, mut req) in named {
        req.engine = "naive".to_string();
        req.jobs = REGEN_JOBS;
        let resp = request::execute(&req, &models).map_err(|e| format!("{name}: {e}"))?;
        let artifact = resp.artifacts.get("metrics").ok_or("no metrics artifact")?;
        eprintln!("golden {name}");
        goldens.digests.insert(name, digest(artifact));
    }
    let seeds: Vec<u64> = (1..=FAULT_SEED_POOL).collect();
    let chunks: Vec<&[u64]> = seeds.chunks(seeds.len().div_ceil(REGEN_JOBS)).collect();
    let reports: Vec<Result<CampaignReport, ExperimentError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let models = &models;
                scope.spawn(move || {
                    CampaignReport::generate(models, chunk, CAMPAIGN_FRAMES, SocEngine::Naive)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign thread"))
            .collect()
    });
    for report in reports {
        let report = report.map_err(|e| format!("campaign: {e}"))?;
        for &seed in &report.seeds {
            let rows = report
                .cases
                .iter()
                .filter(|c| c.seed == seed)
                .map(case_row)
                .collect();
            goldens.fault_cases.insert(seed.to_string(), rows);
        }
    }
    Ok(goldens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(seed: u64, fault: &str) -> CampaignCase {
        CampaignCase {
            config: "nv+cl".to_string(),
            mode: "pipe".to_string(),
            seed,
            fault: fault.to_string(),
            detail: String::new(),
            status: "clean".to_string(),
            correct: true,
            cycles: 100 + seed,
            healthy_cycles: 100,
            faults_injected: 1,
            retries: 0,
            failovers: 0,
        }
    }

    fn report(seeds: &[u64], cases: Vec<CampaignCase>) -> CampaignReport {
        CampaignReport {
            frames: CAMPAIGN_FRAMES,
            watchdog_cycles: 1000,
            seeds: seeds.to_vec(),
            cases,
        }
    }

    #[test]
    fn a_campaign_must_cover_exactly_the_requested_seeds() {
        let mut goldens = Goldens::default();
        for seed in [1, 2] {
            let rows = ["noc", "dma"].map(|f| case_row(&case(seed, f))).to_vec();
            goldens.fault_cases.insert(seed.to_string(), rows);
        }
        let full = || {
            let mut cases = Vec::new();
            for fault in ["noc", "dma"] {
                cases.extend([case(1, fault), case(2, fault)]);
            }
            cases
        };
        assert_eq!(
            goldens.check_campaign(&[1, 2], &report(&[1, 2], full())),
            Ok(())
        );
        assert!(
            goldens
                .check_campaign(&[1, 2], &report(&[], Vec::new()))
                .is_err(),
            "an empty report"
        );
        let dropped: Vec<CampaignCase> = full().into_iter().filter(|c| c.seed == 1).collect();
        assert!(
            goldens
                .check_campaign(&[1, 2], &report(&[1], dropped))
                .is_err(),
            "a dropped seed"
        );
        let mut extra = full();
        extra.push(case(3, "noc"));
        assert!(
            goldens
                .check_campaign(&[1, 2], &report(&[1, 2], extra))
                .is_err(),
            "a case of another seed"
        );
        let mut wrong = full();
        wrong[0].cycles += 1;
        assert!(
            goldens
                .check_campaign(&[1, 2], &report(&[1, 2], wrong))
                .is_err(),
            "a wrong row"
        );
    }
}
