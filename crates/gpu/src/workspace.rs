//! Up-front device memory for a GPU-PROCLUS run.
//!
//! "Since it is time-consuming to allocate and free memory on the GPUs, we
//! allocate all required memory at the beginning of GPU-PROCLUS and reuse
//! the same allocated memory for all of the iterations" (§4.1). The
//! [`Workspace`] holds everything whose size is known up front; the
//! variant-specific `Dist`/`H` rows live in [`crate::rows::RowCache`]
//! because GPU-FAST-PROCLUS grows them on demand (its space advantage over
//! a full `B·k × n` allocation is what Fig. 3f measures).

use gpu_sim::{Device, DeviceBuffer};
use proclus::DataMatrix;

use crate::error::Result;

/// All fixed-size device allocations of one run.
pub struct Workspace {
    /// Number of points.
    pub n: usize,
    /// Number of dimensions.
    pub d: usize,
    /// Number of clusters.
    pub k: usize,
    /// The dataset, row-major `n × d` (uploaded once).
    pub data: DeviceBuffer<f32>,
    /// Sphere radii `δ_i` (k).
    pub deltas: DeviceBuffer<f32>,
    /// Point lists `L_i` (or `ΔL_i`), worst-case `k × n` (paper §4.1:
    /// "we allocate memory for the worst-case size of `L_i`").
    pub l_list: DeviceBuffer<u32>,
    /// Sizes of the `L` lists (k).
    pub l_count: DeviceBuffer<u32>,
    /// Cluster member lists `C_i`, worst-case `k × n`.
    pub c_list: DeviceBuffer<u32>,
    /// Cluster sizes (k).
    pub c_count: DeviceBuffer<u32>,
    /// Current assignment (n).
    pub labels: DeviceBuffer<i32>,
    /// Best assignment so far (n).
    pub labels_best: DeviceBuffer<i32>,
    /// Averaged per-dimension distances `X` (k × d, f64 accumulators).
    pub x: DeviceBuffer<f64>,
    /// Relative spread `Z` (k × d).
    pub z: DeviceBuffer<f64>,
    /// The scalar clustering cost.
    pub cost: DeviceBuffer<f64>,
    /// Flattened subspace dimensions (capacity k × d).
    pub dims_flat: DeviceBuffer<u32>,
    /// Outlier sphere radii `Δ_i` (k, f64 segmental distances).
    pub outlier_deltas: DeviceBuffer<f64>,
    // --- greedy scratch (sized by the sample) ---
    /// Sample indices `Data'` (A·k).
    pub sample_idx: DeviceBuffer<u32>,
    /// Greedy min-distances over the sample.
    pub greedy_dist: DeviceBuffer<f32>,
    /// Greedy running maximum distance (1).
    pub greedy_max: DeviceBuffer<f32>,
    /// Greedy argmax claim slot (1).
    pub greedy_claim: DeviceBuffer<u32>,
    /// Selected potential medoids `M` (B·k).
    pub m_list: DeviceBuffer<u32>,
}

impl Workspace {
    /// Allocates the workspace and uploads the dataset. A failed
    /// allocation frees the buffers already made before returning.
    pub fn new(
        dev: &mut Device,
        data: &DataMatrix,
        k: usize,
        sample_size: usize,
        m_size: usize,
    ) -> Result<Self> {
        let mark = dev.alloc_mark();
        let ws = Self::alloc(dev, data, k, sample_size, m_size);
        if ws.is_err() {
            dev.free_since(mark)?;
        }
        ws
    }

    fn alloc(
        dev: &mut Device,
        data: &DataMatrix,
        k: usize,
        sample_size: usize,
        m_size: usize,
    ) -> Result<Self> {
        let (n, d) = (data.n(), data.d());
        Ok(Self {
            n,
            d,
            k,
            data: dev.htod("data", data.flat())?,
            deltas: dev.alloc_zeroed("deltas", k)?,
            l_list: dev.alloc_zeroed("l_list", k * n)?,
            l_count: dev.alloc_zeroed("l_count", k)?,
            c_list: dev.alloc_zeroed("c_list", k * n)?,
            c_count: dev.alloc_zeroed("c_count", k)?,
            labels: dev.alloc_zeroed("labels", n)?,
            labels_best: dev.alloc_zeroed("labels_best", n)?,
            x: dev.alloc_zeroed("x", k * d)?,
            z: dev.alloc_zeroed("z", k * d)?,
            cost: dev.alloc_zeroed("cost", 1)?,
            dims_flat: dev.alloc_zeroed("dims_flat", k * d)?,
            outlier_deltas: dev.alloc_zeroed("outlier_deltas", k)?,
            sample_idx: dev.alloc_zeroed("sample_idx", sample_size)?,
            greedy_dist: dev.alloc_zeroed("greedy_dist", sample_size)?,
            greedy_max: dev.alloc_zeroed("greedy_max", 1)?,
            greedy_claim: dev.alloc_zeroed("greedy_claim", 1)?,
            m_list: dev.alloc_zeroed("m_list", m_size)?,
        })
    }

    /// Frees every buffer back to the device pool.
    pub fn free(self, dev: &mut Device) -> Result<()> {
        dev.free(&self.data)?;
        dev.free(&self.deltas)?;
        dev.free(&self.l_list)?;
        dev.free(&self.l_count)?;
        dev.free(&self.c_list)?;
        dev.free(&self.c_count)?;
        dev.free(&self.labels)?;
        dev.free(&self.labels_best)?;
        dev.free(&self.x)?;
        dev.free(&self.z)?;
        dev.free(&self.cost)?;
        dev.free(&self.dims_flat)?;
        dev.free(&self.outlier_deltas)?;
        dev.free(&self.sample_idx)?;
        dev.free(&self.greedy_dist)?;
        dev.free(&self.greedy_max)?;
        dev.free(&self.greedy_claim)?;
        dev.free(&self.m_list)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;

    fn small_data() -> DataMatrix {
        DataMatrix::from_flat(vec![0.5; 100 * 4], 100, 4).unwrap()
    }

    #[test]
    fn allocates_and_frees_cleanly() {
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        let ws = Workspace::new(&mut dev, &small_data(), 3, 50, 15).unwrap();
        assert!(dev.mem_used() > 0);
        assert_eq!(ws.data.len(), 400);
        assert_eq!(ws.l_list.len(), 300);
        ws.free(&mut dev).unwrap();
        assert_eq!(dev.mem_used(), 0);
    }

    #[test]
    fn oom_on_tiny_device_is_an_error() {
        let mut dev = Device::new(DeviceConfig::tiny_test_device());
        let big = DataMatrix::from_flat(vec![0.0; 50_000 * 8], 50_000, 8).unwrap();
        assert!(Workspace::new(&mut dev, &big, 10, 1000, 100).is_err());
    }

    #[test]
    fn a_failed_allocation_frees_the_buffers_already_made() {
        // 20000 × 2 points: the data and δ buffers fit in 1 MB, the k × n
        // point lists do not.
        let data = DataMatrix::from_flat(vec![0.5; 20_000 * 2], 20_000, 2).unwrap();
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti().with_memory_limit(1_000_000));
        assert!(Workspace::new(&mut dev, &data, 100, 1000, 100).is_err());
        assert!(dev.live_allocations().is_empty());
        assert_eq!(dev.mem_used(), 0);
    }
}
