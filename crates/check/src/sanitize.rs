//! Configuration of the runtime invariant sanitizer.

use serde::Serialize;

/// Which invariants the runtime sanitizer enforces.
///
/// Each flag maps to one family of checks (and one error code):
/// per-link credit conservation (`E0401`), flit conservation (`E0402`),
/// wormhole non-interleaving (`E0403`), NoC plane assignment (`E0303`)
/// and DMA byte accounting at idle boundaries (`E0404`). The default is
/// everything on — the cost is paid only when a sanitizer is installed,
/// never on plain runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SanitizerConfig {
    /// Check shadow link occupancy against the router queues (`E0401`).
    pub credits: bool,
    /// Check injected == ejected + in-flight per plane (`E0402`).
    pub flits: bool,
    /// Check packets never interleave at ejection ports (`E0403`).
    pub wormhole: bool,
    /// Check every message rides a plane that carries its kind (`E0303`).
    pub planes: bool,
    /// Check end-to-end DMA/p2p word accounting when idle (`E0404`).
    pub dma_accounting: bool,
}

impl SanitizerConfig {
    /// Every invariant enabled.
    pub fn all() -> Self {
        SanitizerConfig {
            credits: true,
            flits: true,
            wormhole: true,
            planes: true,
            dma_accounting: true,
        }
    }

    /// Only the NoC-level invariants (what a bare mesh can check).
    pub fn noc_only() -> Self {
        SanitizerConfig {
            dma_accounting: false,
            ..SanitizerConfig::all()
        }
    }
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        SanitizerConfig::all()
    }
}
