//! Contiguous buffer allocation: the substrate behind `esp_alloc`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A handle to a contiguous physical buffer, as returned to user space by
/// `esp_alloc` (the `contig_handle_t` of the ESP runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ContigHandle {
    /// Base physical word address.
    pub base: u64,
    /// Length in words.
    pub len: u64,
    /// Allocation id (used by free and by debug output).
    pub id: u64,
}

/// Errors returned by the contiguous allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocError {
    /// No free region of the requested size exists.
    OutOfMemory {
        /// Words requested.
        requested: u64,
        /// Largest free region available.
        largest_free: u64,
    },
    /// A zero-length allocation was requested.
    ZeroLength,
    /// The handle passed to [`ContigAlloc::free`] is not live.
    InvalidHandle,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                largest_free,
            } => write!(
                f,
                "out of contiguous memory: requested {requested} words, largest free region {largest_free}"
            ),
            AllocError::ZeroLength => f.write_str("zero-length allocation"),
            AllocError::InvalidHandle => f.write_str("invalid or already-freed handle"),
        }
    }
}

impl Error for AllocError {}

/// First-fit contiguous allocator over a physical address range.
///
/// The ESP Linux runtime carves accelerator buffers out of a reserved
/// physically-contiguous region with its `contig_alloc` driver; this type
/// reproduces that allocator so that DMA addresses handed to accelerators
/// are realistic (stable across the run, non-overlapping, reusable).
///
/// # Example
///
/// ```
/// use esp4ml_mem::ContigAlloc;
/// # fn main() -> Result<(), esp4ml_mem::AllocError> {
/// let mut alloc = ContigAlloc::new(0x1000, 4096);
/// let a = alloc.alloc(1024)?;
/// let b = alloc.alloc(1024)?;
/// assert_ne!(a.base, b.base);
/// alloc.free(a)?;
/// let c = alloc.alloc(512)?; // reuses the freed region
/// assert_eq!(c.base, 0x1000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ContigAlloc {
    base: u64,
    size: u64,
    /// Free regions: base -> length.
    free: BTreeMap<u64, u64>,
    /// Live allocations: id -> (base, len).
    live: BTreeMap<u64, (u64, u64)>,
    next_id: u64,
}

impl ContigAlloc {
    /// Creates an allocator managing `[base, base + size)` words.
    pub fn new(base: u64, size: u64) -> Self {
        let mut free = BTreeMap::new();
        if size > 0 {
            free.insert(base, size);
        }
        ContigAlloc {
            base,
            size,
            free,
            live: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// Base address of the managed region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size of the managed region in words.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Words currently allocated.
    pub fn used(&self) -> u64 {
        self.live.values().map(|&(_, len)| len).sum()
    }

    /// Allocates `len` contiguous words (first fit).
    ///
    /// # Errors
    ///
    /// [`AllocError::ZeroLength`] for `len == 0`;
    /// [`AllocError::OutOfMemory`] when no free region is large enough.
    pub fn alloc(&mut self, len: u64) -> Result<ContigHandle, AllocError> {
        if len == 0 {
            return Err(AllocError::ZeroLength);
        }
        let slot = self
            .free
            .iter()
            .find(|&(_, &flen)| flen >= len)
            .map(|(&fbase, &flen)| (fbase, flen));
        let Some((fbase, flen)) = slot else {
            let largest = self.free.values().copied().max().unwrap_or(0);
            return Err(AllocError::OutOfMemory {
                requested: len,
                largest_free: largest,
            });
        };
        self.free.remove(&fbase);
        if flen > len {
            self.free.insert(fbase + len, flen - len);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(id, (fbase, len));
        Ok(ContigHandle {
            base: fbase,
            len,
            id,
        })
    }

    /// Frees a previously allocated buffer, coalescing adjacent free
    /// regions.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidHandle`] if the handle is unknown or already
    /// freed.
    pub fn free(&mut self, handle: ContigHandle) -> Result<(), AllocError> {
        match self.live.remove(&handle.id) {
            Some((base, len)) if base == handle.base && len == handle.len => {
                self.insert_free(base, len);
                Ok(())
            }
            Some(entry) => {
                // Handle id was live but fields were tampered with; restore
                // and reject.
                self.live.insert(handle.id, entry);
                Err(AllocError::InvalidHandle)
            }
            None => Err(AllocError::InvalidHandle),
        }
    }

    /// Frees every live allocation (the `esp_cleanup` analog).
    pub fn free_all(&mut self) {
        self.live.clear();
        self.free.clear();
        if self.size > 0 {
            self.free.insert(self.base, self.size);
        }
    }

    fn insert_free(&mut self, base: u64, len: u64) {
        let mut base = base;
        let mut len = len;
        // Coalesce with predecessor.
        if let Some((&pbase, &plen)) = self.free.range(..base).next_back() {
            if pbase + plen == base {
                self.free.remove(&pbase);
                base = pbase;
                len += plen;
            }
        }
        // Coalesce with successor.
        if let Some((&nbase, &nlen)) = self.free.range(base + len..).next() {
            if base + len == nbase {
                self.free.remove(&nbase);
                len += nlen;
            }
        }
        self.free.insert(base, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_first_fit_and_disjoint() {
        let mut a = ContigAlloc::new(0, 100);
        let h1 = a.alloc(30).unwrap();
        let h2 = a.alloc(30).unwrap();
        let h3 = a.alloc(40).unwrap();
        assert_eq!(h1.base, 0);
        assert_eq!(h2.base, 30);
        assert_eq!(h3.base, 60);
        assert!(a.alloc(1).is_err());
    }

    #[test]
    fn zero_length_rejected() {
        let mut a = ContigAlloc::new(0, 10);
        assert_eq!(a.alloc(0), Err(AllocError::ZeroLength));
    }

    #[test]
    fn free_and_coalesce() {
        let mut a = ContigAlloc::new(0, 100);
        let h1 = a.alloc(30).unwrap();
        let h2 = a.alloc(30).unwrap();
        let h3 = a.alloc(40).unwrap();
        a.free(h2).unwrap();
        a.free(h1).unwrap(); // coalesces with h2's region
        let big = a.alloc(60).unwrap();
        assert_eq!(big.base, 0);
        a.free(h3).unwrap();
        a.free(big).unwrap();
        // Everything free again: one region of 100.
        let all = a.alloc(100).unwrap();
        assert_eq!(all.base, 0);
    }

    #[test]
    fn double_free_rejected() {
        let mut a = ContigAlloc::new(0, 10);
        let h = a.alloc(5).unwrap();
        a.free(h).unwrap();
        assert_eq!(a.free(h), Err(AllocError::InvalidHandle));
    }

    #[test]
    fn tampered_handle_rejected() {
        let mut a = ContigAlloc::new(0, 10);
        let mut h = a.alloc(5).unwrap();
        h.len = 6;
        assert_eq!(a.free(h), Err(AllocError::InvalidHandle));
        // The allocation is still live afterwards.
        assert_eq!(a.used(), 5);
    }

    #[test]
    fn out_of_memory_reports_largest_free() {
        let mut a = ContigAlloc::new(0, 100);
        let _h1 = a.alloc(60).unwrap();
        match a.alloc(50) {
            Err(AllocError::OutOfMemory {
                requested,
                largest_free,
            }) => {
                assert_eq!(requested, 50);
                assert_eq!(largest_free, 40);
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
    }

    #[test]
    fn free_all_resets() {
        let mut a = ContigAlloc::new(16, 64);
        a.alloc(10).unwrap();
        a.alloc(20).unwrap();
        a.free_all();
        assert_eq!(a.used(), 0);
        assert_eq!(a.alloc(64).unwrap().base, 16);
    }

    #[test]
    fn used_tracks_live_words() {
        let mut a = ContigAlloc::new(0, 100);
        let h = a.alloc(25).unwrap();
        assert_eq!(a.used(), 25);
        a.free(h).unwrap();
        assert_eq!(a.used(), 0);
    }
}
