//! Global-memory accounting: a pre-allocating pool with peak tracking.
//!
//! GPU-PROCLUS allocates all device memory once up-front and reuses it across
//! iterations (paper §4.1) because `cudaMalloc`/`cudaFree` are expensive. The
//! pool mirrors that: allocations are explicit, capacity-checked (so the 8 M
//! point out-of-memory wall from §5.3 is reproducible), and the peak is
//! recorded for the space-usage experiment (Fig. 3f).

use std::collections::BTreeMap;

use crate::error::{GpuError, Result};

/// Accounting state for device global memory.
#[derive(Debug)]
pub struct MemoryPool {
    capacity: usize,
    used: usize,
    peak: usize,
    next_id: u64,
    live: BTreeMap<u64, Allocation>,
    /// Simulated cost of one allocation call, in microseconds.
    alloc_cost_us: f64,
    /// Accumulated simulated allocation time.
    alloc_time_us: f64,
}

/// One live allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Human-readable label (buffer name).
    pub label: String,
    /// Size in logical bytes.
    pub bytes: usize,
}

impl MemoryPool {
    /// Creates a pool with `capacity` bytes. `cudaMalloc` latency defaults
    /// to 100 µs per call, which is what makes up-front allocation worth it.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            used: 0,
            peak: 0,
            next_id: 0,
            live: BTreeMap::new(),
            alloc_cost_us: 100.0,
            alloc_time_us: 0.0,
        }
    }

    /// Registers an allocation of `bytes` labeled `label`.
    pub fn alloc(&mut self, label: &str, bytes: usize) -> Result<u64> {
        let available = self.capacity - self.used;
        if bytes > available {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                available,
                label: label.to_string(),
            });
        }
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        self.alloc_time_us += self.alloc_cost_us;
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(
            id,
            Allocation {
                label: label.to_string(),
                bytes,
            },
        );
        Ok(id)
    }

    /// Releases allocation `id`.
    pub fn free(&mut self, id: u64) -> Result<()> {
        match self.live.remove(&id) {
            Some(a) => {
                self.used -= a.bytes;
                Ok(())
            }
            None => Err(GpuError::InvalidBuffer {
                label: format!("allocation #{id}"),
            }),
        }
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.used
    }

    /// High-water mark of allocated bytes.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Simulated time spent in allocation calls so far (µs).
    pub fn alloc_time_us(&self) -> f64 {
        self.alloc_time_us
    }

    /// Cost of one allocation or free call (µs) — why GPU-PROCLUS
    /// allocates everything up front (§4.1).
    pub fn alloc_cost_us(&self) -> f64 {
        self.alloc_cost_us
    }

    /// The id the next allocation will get: a watermark for
    /// [`MemoryPool::live_since`].
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Ids of the live allocations made at or after watermark `mark`.
    pub(crate) fn live_since(&self, mark: u64) -> Vec<u64> {
        self.live.range(mark..).map(|(&id, _)| id).collect()
    }

    /// Live allocations, largest first — useful when diagnosing an OOM.
    pub fn live_allocations(&self) -> Vec<Allocation> {
        let mut v: Vec<Allocation> = self.live.values().cloned().collect();
        v.sort_by_key(|a| std::cmp::Reverse(a.bytes));
        v
    }

    /// Resets the peak tracker to the current usage (used between
    /// experiment repetitions).
    pub fn reset_peak(&mut self) {
        self.peak = self.used;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip_restores_usage() {
        let mut p = MemoryPool::new(1000);
        let a = p.alloc("a", 400).unwrap();
        let b = p.alloc("b", 500).unwrap();
        assert_eq!(p.used(), 900);
        p.free(a).unwrap();
        assert_eq!(p.used(), 500);
        p.free(b).unwrap();
        assert_eq!(p.used(), 0);
        assert_eq!(p.peak(), 900);
    }

    #[test]
    fn oom_reports_requested_and_available() {
        let mut p = MemoryPool::new(100);
        p.alloc("x", 80).unwrap();
        match p.alloc("big", 50) {
            Err(GpuError::OutOfMemory {
                requested,
                available,
                ..
            }) => {
                assert_eq!(requested, 50);
                assert_eq!(available, 20);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
        // A failed allocation must not change usage.
        assert_eq!(p.used(), 80);
    }

    #[test]
    fn double_free_is_an_error() {
        let mut p = MemoryPool::new(100);
        let a = p.alloc("a", 10).unwrap();
        p.free(a).unwrap();
        assert!(p.free(a).is_err());
    }

    #[test]
    fn peak_reset_tracks_current() {
        let mut p = MemoryPool::new(1000);
        let a = p.alloc("a", 600).unwrap();
        p.free(a).unwrap();
        assert_eq!(p.peak(), 600);
        p.reset_peak();
        assert_eq!(p.peak(), 0);
    }

    #[test]
    fn alloc_time_accumulates() {
        let mut p = MemoryPool::new(1000);
        p.alloc("a", 1).unwrap();
        p.alloc("b", 1).unwrap();
        assert_eq!(p.alloc_time_us(), 200.0);
    }
}
