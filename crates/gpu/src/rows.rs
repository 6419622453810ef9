//! Variant-specific `Dist`/`H` row storage on the device.
//!
//! * GPU-PROCLUS keeps `k` distance rows and recomputes all of them every
//!   iteration.
//! * GPU-FAST-PROCLUS keeps one row (plus an `H` row) per *distinct* medoid
//!   ever used — presence of a row is the paper's `DistFound` flag, the map
//!   is `MIdx`. Rows are bump-allocated as zero-copy views out of slabs of
//!   `k` rows at a time, so growth costs one `cudaMalloc` per slab instead
//!   of one per row (the paper's "allocate all required memory at the
//!   beginning" principle, §4.1, adapted to on-demand growth — the pool's
//!   peak then reflects the *actual* row usage, which is what Fig. 3f
//!   measures: roughly twice FAST*'s `k` rows rather than the worst-case
//!   `B·k`).
//! * GPU-FAST*-PROCLUS keeps exactly `k` slot rows and resets a slot when
//!   its medoid changes (§3.2).
//!
//! Host-side bookkeeping (previous radius `δ'`, `|L|`) mirrors the CPU
//! engines exactly so both families follow the same search path.

use std::collections::HashMap;

use gpu_sim::{Device, DeviceBuffer};

use crate::backend::GpuVariant;
use crate::error::Result;
use crate::kernels::dist::dist_row_kernel;

/// One cached medoid: a distance row and (for FAST variants) an `H` row.
/// Rows are views into slab allocations owned by the [`RowCache`].
pub struct MedoidRow {
    /// Distances from this medoid to all points (n, f32).
    pub dist: DeviceBuffer<f32>,
    /// Per-dimension Manhattan sums over the sphere (d, f64); unused by
    /// plain GPU-PROCLUS.
    pub h: Option<DeviceBuffer<f64>>,
    /// Radius at the last usage `t'` (−1 sentinel: nothing accumulated yet).
    pub prev_delta: f32,
    /// `|L|` at the last usage.
    pub lsize: usize,
}

/// A slab of `rows_per_slab` distance rows (+ optional `H` rows).
pub(crate) struct Slab {
    dist: DeviceBuffer<f32>,
    h: Option<DeviceBuffer<f64>>,
}

/// Slab-backed row arena.
pub struct RowArena {
    slabs: Vec<Slab>,
    rows: Vec<MedoidRow>,
    rows_per_slab: usize,
    n: usize,
    d: usize,
    with_h: bool,
}

impl RowArena {
    fn new(n: usize, d: usize, rows_per_slab: usize, with_h: bool) -> Self {
        Self {
            slabs: Vec::new(),
            rows: Vec::new(),
            rows_per_slab: rows_per_slab.max(1),
            n,
            d,
            with_h,
        }
    }

    /// Bump-allocates the next row, adding a slab when needed.
    fn push_row(&mut self, dev: &mut Device) -> Result<usize> {
        let idx = self.rows.len();
        let within = idx % self.rows_per_slab;
        if within == 0 {
            let slab_no = self.slabs.len();
            let dist =
                dev.alloc_zeroed(&format!("dist_slab_{slab_no}"), self.rows_per_slab * self.n)?;
            let h = if self.with_h {
                let label = format!("h_slab_{slab_no}");
                match dev.alloc_zeroed(&label, self.rows_per_slab * self.d) {
                    Ok(h) => Some(h),
                    Err(e) => {
                        dev.free(&dist)?;
                        return Err(e.into());
                    }
                }
            } else {
                None
            };
            self.slabs.push(Slab { dist, h });
        }
        let slab = self.slabs.last().expect("just ensured");
        self.rows.push(MedoidRow {
            dist: slab.dist.slice(within * self.n, self.n),
            h: slab.h.as_ref().map(|h| h.slice(within * self.d, self.d)),
            prev_delta: -1.0,
            lsize: 0,
        });
        Ok(idx)
    }

    fn free(self, dev: &mut Device) -> Result<()> {
        for slab in &self.slabs {
            dev.free(&slab.dist)?;
            if let Some(h) = &slab.h {
                dev.free(h)?;
            }
        }
        Ok(())
    }
}

/// The three storage policies.
pub enum RowCache {
    /// GPU-PROCLUS: `k` rows, all recomputed every iteration.
    Plain {
        /// Fixed arena of k rows.
        arena: RowArena,
    },
    /// GPU-FAST-PROCLUS: lazy per-medoid rows keyed by data index.
    Fast {
        /// Row index per medoid data-index (`MIdx` + `DistFound`).
        slot_of: HashMap<usize, usize>,
        /// Grow-on-demand arena.
        arena: RowArena,
    },
    /// GPU-FAST*-PROCLUS: `k` slot rows, reset on medoid change.
    FastStar {
        /// Medoid (as index into `M`) each slot currently caches.
        slot_medoid: Vec<Option<usize>>,
        /// Fixed arena of k rows.
        arena: RowArena,
    },
}

impl RowCache {
    /// The storage policy `variant` runs with, `k` rows per slab.
    pub(crate) fn new(
        dev: &mut Device,
        variant: GpuVariant,
        n: usize,
        d: usize,
        k: usize,
    ) -> Result<Self> {
        match variant {
            GpuVariant::Plain => Self::new_plain(dev, n, k),
            GpuVariant::Fast => Ok(Self::new_fast(n, d, k)),
            GpuVariant::FastStar => Self::new_fast_star(dev, n, d, k),
        }
    }

    /// Pre-allocates the plain variant's `k` rows (one slab).
    pub fn new_plain(dev: &mut Device, n: usize, k: usize) -> Result<Self> {
        let mut arena = RowArena::new(n, 0, k, false);
        for _ in 0..k {
            arena.push_row(dev)?;
        }
        Ok(RowCache::Plain { arena })
    }

    /// Creates the FAST variant's lazy cache growing in slabs of `k` rows.
    pub fn new_fast(n: usize, d: usize, k: usize) -> Self {
        RowCache::Fast {
            slot_of: HashMap::new(),
            arena: RowArena::new(n, d, k, true),
        }
    }

    /// Pre-allocates the FAST* variant's `k` slot rows (with `H`).
    pub fn new_fast_star(dev: &mut Device, n: usize, d: usize, k: usize) -> Result<Self> {
        let mut arena = RowArena::new(n, d, k, true);
        for _ in 0..k {
            arena.push_row(dev)?;
        }
        Ok(RowCache::FastStar {
            slot_medoid: vec![None; k],
            arena,
        })
    }

    /// Ensures the distance rows for the current medoids exist and are up
    /// to date. `mcur` are indices into `m_data`; `m_data` are data indices.
    /// Returns, per slot, the row index to use.
    pub fn prepare(
        &mut self,
        dev: &mut Device,
        data: &DeviceBuffer<f32>,
        n: usize,
        d: usize,
        m_data: &[usize],
        mcur: &[usize],
    ) -> Result<Vec<usize>> {
        match self {
            RowCache::Plain { arena } => {
                // Recompute every slot, every iteration (Alg. 3 lines 1–3).
                for (i, &mi) in mcur.iter().enumerate() {
                    dist_row_kernel(dev, data, d, n, m_data[mi], &arena.rows[i].dist);
                    arena.rows[i].prev_delta = -1.0;
                    arena.rows[i].lsize = 0;
                }
                Ok((0..mcur.len()).collect())
            }
            RowCache::Fast { slot_of, arena } => {
                let mut out = Vec::with_capacity(mcur.len());
                for &mi in mcur {
                    let m_point = m_data[mi];
                    let row = match slot_of.get(&m_point) {
                        Some(&r) => r, // DistFound: reuse.
                        None => {
                            let r = arena.push_row(dev)?;
                            dist_row_kernel(dev, data, d, n, m_point, &arena.rows[r].dist);
                            slot_of.insert(m_point, r);
                            r
                        }
                    };
                    out.push(row);
                }
                Ok(out)
            }
            RowCache::FastStar { slot_medoid, arena } => {
                for (i, &mi) in mcur.iter().enumerate() {
                    if slot_medoid[i] != Some(mi) {
                        // Slot replaced (i ∈ MBad, §3.2): recompute + reset.
                        slot_medoid[i] = Some(mi);
                        dist_row_kernel(dev, data, d, n, m_data[mi], &arena.rows[i].dist);
                        arena.rows[i].prev_delta = -1.0;
                        arena.rows[i].lsize = 0;
                        if let Some(h) = &arena.rows[i].h {
                            dev.memset(h, 0.0);
                        }
                    }
                }
                Ok((0..mcur.len()).collect())
            }
        }
    }

    /// How many of `mcur`'s slots [`RowCache::prepare`] would recompute
    /// from scratch — the telemetry `DistFound` miss count. The plain
    /// variant recomputes every slot by design.
    pub fn misses(&self, m_data: &[usize], mcur: &[usize]) -> usize {
        match self {
            RowCache::Plain { .. } => mcur.len(),
            RowCache::Fast { slot_of, .. } => mcur
                .iter()
                .filter(|&&mi| !slot_of.contains_key(&m_data[mi]))
                .count(),
            RowCache::FastStar { slot_medoid, .. } => mcur
                .iter()
                .enumerate()
                .filter(|&(i, &mi)| slot_medoid[i] != Some(mi))
                .count(),
        }
    }

    /// The rows slice.
    pub fn rows(&self) -> &[MedoidRow] {
        match self {
            RowCache::Plain { arena }
            | RowCache::Fast { arena, .. }
            | RowCache::FastStar { arena, .. } => &arena.rows,
        }
    }

    /// Mutable rows slice.
    pub fn rows_mut(&mut self) -> &mut [MedoidRow] {
        match self {
            RowCache::Plain { arena }
            | RowCache::Fast { arena, .. }
            | RowCache::FastStar { arena, .. } => &mut arena.rows,
        }
    }

    /// Frees all slabs back to the pool.
    pub fn free(self, dev: &mut Device) -> Result<()> {
        match self {
            RowCache::Plain { arena }
            | RowCache::Fast { arena, .. }
            | RowCache::FastStar { arena, .. } => arena.free(dev),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use proclus::DataMatrix;

    fn setup() -> (Device, DeviceBuffer<f32>) {
        let host = DataMatrix::from_rows(
            &(0..50)
                .map(|i| vec![i as f32, (i % 7) as f32])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        let data = dev.htod("data", host.flat()).unwrap();
        (dev, data)
    }

    #[test]
    fn fast_cache_reuses_rows_and_grows_by_slabs() {
        let (mut dev, data) = setup();
        let mut cache = RowCache::new_fast(50, 2, 3);
        let m_data: Vec<usize> = (0..12).collect();
        let r1 = cache
            .prepare(&mut dev, &data, 50, 2, &m_data, &[0, 1, 2])
            .unwrap();
        let used_after_first = dev.mem_used();
        // Same medoids: no new rows, no new memory.
        let r2 = cache
            .prepare(&mut dev, &data, 50, 2, &m_data, &[0, 1, 2])
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(dev.mem_used(), used_after_first);
        // A fourth distinct medoid triggers exactly one more slab.
        cache
            .prepare(&mut dev, &data, 50, 2, &m_data, &[0, 1, 3])
            .unwrap();
        assert!(dev.mem_used() > used_after_first);
        assert_eq!(cache.rows().len(), 4);
        cache.free(&mut dev).unwrap();
        let base = dev.mem_used();
        dev.free(&data).unwrap();
        assert_eq!(base, data.bytes());
    }

    #[test]
    fn plain_cache_has_exactly_k_rows() {
        let (mut dev, data) = setup();
        let mut cache = RowCache::new_plain(&mut dev, 50, 4).unwrap();
        let rows = cache
            .prepare(&mut dev, &data, 50, 2, &[5, 6, 7, 8], &[0, 1, 2, 3])
            .unwrap();
        assert_eq!(rows, vec![0, 1, 2, 3]);
        assert_eq!(cache.rows().len(), 4);
        cache.free(&mut dev).unwrap();
    }

    #[test]
    fn fast_star_resets_only_changed_slots() {
        let (mut dev, data) = setup();
        let mut cache = RowCache::new_fast_star(&mut dev, 50, 2, 2).unwrap();
        let m_data: Vec<usize> = (0..10).collect();
        cache
            .prepare(&mut dev, &data, 50, 2, &m_data, &[0, 1])
            .unwrap();
        cache.rows_mut()[0].prev_delta = 0.7;
        cache.rows_mut()[1].prev_delta = 0.9;
        // Slot 1 changes; slot 0 keeps its state.
        cache
            .prepare(&mut dev, &data, 50, 2, &m_data, &[0, 5])
            .unwrap();
        assert_eq!(cache.rows()[0].prev_delta, 0.7);
        assert_eq!(cache.rows()[1].prev_delta, -1.0);
        cache.free(&mut dev).unwrap();
    }

    #[test]
    fn a_slab_whose_h_rows_do_not_fit_frees_its_dist_rows() {
        // k = 2 rows of n = 50 distances (400 B) fit; their 32 B of H do not.
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti().with_memory_limit(410));
        assert!(RowCache::new_fast_star(&mut dev, 50, 2, 2).is_err());
        assert!(dev.live_allocations().is_empty());
    }
}
