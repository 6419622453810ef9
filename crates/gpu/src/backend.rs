//! The simulated-GPU [`Backend`]: every phase primitive of the shared
//! driver (`proclus::backend`) executed as device kernels.
//!
//! The decision logic — dimension picking, bad-medoid selection,
//! replacement draws, cost comparison — stays in the backend-generic
//! driver, which reuses the CPU crate's functions on tiny arrays read back
//! from the device (`Z`: `k × d` floats, cluster sizes and cost: scalars),
//! so for equal seeds the GPU variants visit the same medoid sequence as
//! the CPU variants. Everything large (data, distance rows, `H`, lists,
//! labels) stays device-resident, as in the paper (§4.1: "to avoid costly
//! memory transfers between the CPU and the GPU, all other computations are
//! also performed on the GPU").

use gpu_sim::Device;
use proclus::backend::{Backend, BackendFactory};
use proclus::phases::find_dimensions::pick_dimensions;
use proclus::{Algo, DataMatrix, Params, ProclusError, ProclusRng, Result};
use proclus_telemetry::{counters, Recorder};

use crate::error::GpuProclusError;
use crate::kernels::assign::{assign_kernel, assign_subset_kernel};
use crate::kernels::delta::deltas_kernel;
use crate::kernels::dist::dist_subset_kernel;
use crate::kernels::evaluate::evaluate_kernel;
use crate::kernels::find_dims::{h_update_kernel, x_from_h_kernel, x_from_lists_kernel, z_kernel};
use crate::kernels::greedy::greedy_gpu;
use crate::kernels::lsets::{build_lists_kernel, SphereCond};
use crate::kernels::outliers::{outlier_deltas_kernel, remove_outliers_kernel};
use crate::kernels::util::{copy_labels_kernel, lists_from_labels_kernel};
use crate::kernels::ASSIGN_BLOCK;
use crate::rows::RowCache;
use crate::workspace::Workspace;

/// Which algorithm the GPU backend runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuVariant {
    /// GPU-PROCLUS: recompute everything each iteration.
    Plain,
    /// GPU-FAST-PROCLUS: `Dist`/`DistFound` + incremental `H` (§4.2).
    Fast,
    /// GPU-FAST*-PROCLUS: slot-local caches (§3.2 on the GPU).
    FastStar,
}

impl From<Algo> for GpuVariant {
    fn from(algo: Algo) -> Self {
        match algo {
            Algo::Baseline => GpuVariant::Plain,
            Algo::Fast => GpuVariant::Fast,
            Algo::FastStar => GpuVariant::FastStar,
        }
    }
}

/// Checks `params` against the data and the kernels' launch shapes.
pub(crate) fn validate_gpu(
    dev: &Device,
    data: &DataMatrix,
    params: &Params,
) -> std::result::Result<(), GpuProclusError> {
    params.validate(data)?;
    if params.k as u32 > ASSIGN_BLOCK {
        return Err(GpuProclusError::Unsupported {
            reason: format!(
                "AssignPoints uses {ASSIGN_BLOCK}-thread blocks covering all k medoids; \
                 k = {} exceeds that",
                params.k
            ),
        });
    }
    let max_t = dev.config().max_threads_per_block as usize;
    if data.d() > max_t {
        return Err(GpuProclusError::Unsupported {
            reason: format!(
                "FindDimensions launches one thread per dimension; d = {} exceeds \
                 the device's {max_t} threads/block",
                data.d()
            ),
        });
    }
    Ok(())
}

/// Single-device backends on a borrowed [`Device`]: each open allocates a
/// [`Workspace`] and the variant's [`RowCache`] up front (§4.1), each
/// close frees both — also when the run failed or the cache could not be
/// allocated.
pub struct GpuFactory<'a> {
    dev: &'a mut Device,
    data: &'a DataMatrix,
    variant: GpuVariant,
}

impl<'a> GpuFactory<'a> {
    /// A factory running `algo` over `data` on `dev`.
    pub fn new(dev: &'a mut Device, data: &'a DataMatrix, algo: Algo) -> Self {
        Self {
            dev,
            data,
            variant: algo.into(),
        }
    }
}

impl BackendFactory for GpuFactory<'_> {
    fn validate(&self, params: &Params) -> Result<()> {
        Ok(validate_gpu(self.dev, self.data, params)?)
    }

    fn clock_us(&self) -> Option<f64> {
        Some(self.dev.elapsed_us())
    }

    fn with_backend(
        &mut self,
        sized_for: &Params,
        f: &mut dyn FnMut(&mut dyn Backend),
    ) -> Result<()> {
        let (n, d, k) = (self.data.n(), self.data.d(), sized_for.k);
        let (sample, m) = (sized_for.sample_size(n), sized_for.num_potential_medoids(n));
        let ws = Workspace::new(self.dev, self.data, k, sample, m)?;
        let mut cache = match RowCache::new(self.dev, self.variant, n, d, k) {
            Ok(cache) => cache,
            Err(e) => {
                ws.free(self.dev)?;
                return Err(e.into());
            }
        };
        f(&mut GpuBackend::new(
            self.dev,
            &ws,
            &mut cache,
            self.variant,
        ));
        let freed = cache.free(self.dev);
        Ok(ws.free(self.dev).and(freed)?)
    }
}

/// Flattens subspaces for upload; returns the offsets (host side).
pub(crate) fn upload_dims(dev: &mut Device, ws: &Workspace, dims: &[Vec<usize>]) -> Vec<usize> {
    let mut flat = Vec::new();
    let mut offsets = vec![0usize];
    for s in dims {
        flat.extend(s.iter().map(|&j| j as u32));
        offsets.push(flat.len());
    }
    dev.upload(&ws.dims_flat, &flat);
    offsets
}

/// One device, one workspace: the single-GPU execution backend.
///
/// Borrows the device, workspace, and row cache, which its owner — the
/// [`GpuFactory`], or the streaming driver — allocates and frees. The
/// subspace offsets of the latest [`Backend::find_dims`] call are kept
/// here between phases — the flattened dims live in device memory.
pub struct GpuBackend<'a> {
    dev: &'a mut Device,
    ws: &'a Workspace,
    cache: &'a mut RowCache,
    variant: GpuVariant,
    offsets: Vec<usize>,
}

impl<'a> GpuBackend<'a> {
    /// A backend over an allocated workspace and row cache.
    pub fn new(
        dev: &'a mut Device,
        ws: &'a Workspace,
        cache: &'a mut RowCache,
        variant: GpuVariant,
    ) -> Self {
        Self {
            dev,
            ws,
            cache,
            variant,
            offsets: Vec::new(),
        }
    }
}

impl Backend for GpuBackend<'_> {
    fn name(&self) -> &'static str {
        "gpu"
    }

    fn n(&self) -> usize {
        self.ws.n
    }

    fn clock_us(&self) -> Option<f64> {
        Some(self.dev.elapsed_us())
    }

    fn greedy(
        &mut self,
        sample: &[usize],
        count: usize,
        rng: &mut ProclusRng,
        _rec: &dyn Recorder,
    ) -> Result<Vec<usize>> {
        Ok(greedy_gpu(self.dev, self.ws, sample, count, rng))
    }

    fn compute_x(&mut self, m_data: &[usize], mcur: &[usize], rec: &dyn Recorder) -> Result<()> {
        let (n, d) = (self.ws.n, self.ws.d);
        let medoids: Vec<usize> = mcur.iter().map(|&mi| m_data[mi]).collect();
        // `DistFound` hits/misses, observed before `prepare` consumes them.
        // A miss costs one `dist_row_kernel` launch = n full-dimensional
        // distances; the plain variant recomputes every slot and has no
        // cache to hit.
        if rec.enabled() {
            let misses = self.cache.misses(m_data, mcur);
            rec.add(counters::DISTANCES_COMPUTED, (misses * n) as u64);
            if self.variant != GpuVariant::Plain {
                rec.add(counters::DIST_CACHE_MISSES, misses as u64);
                rec.add(counters::DIST_CACHE_HITS, (mcur.len() - misses) as u64);
            }
        }
        let row_of_slot = self
            .cache
            .prepare(self.dev, &self.ws.data, n, d, m_data, mcur)
            .map_err(ProclusError::from)?;

        deltas_kernel(
            self.dev,
            self.cache.rows(),
            &row_of_slot,
            &medoids,
            &self.ws.deltas,
        );
        let deltas = self.dev.dtoh(&self.ws.deltas);

        match self.variant {
            GpuVariant::Plain => {
                build_lists_kernel(
                    self.dev,
                    self.cache.rows(),
                    &row_of_slot,
                    &SphereCond::Within(deltas),
                    n,
                    &self.ws.l_list,
                    &self.ws.l_count,
                );
                let counts: Vec<usize> = self
                    .dev
                    .dtoh(&self.ws.l_count)
                    .iter()
                    .map(|&c| c as usize)
                    .collect();
                x_from_lists_kernel(
                    self.dev,
                    &self.ws.data,
                    d,
                    n,
                    &medoids,
                    &self.ws.l_list,
                    &counts,
                    &self.ws.x,
                );
            }
            GpuVariant::Fast | GpuVariant::FastStar => {
                // ΔL bounds per slot (Theorem 3.1) from the host-mirrored
                // previous radii.
                let mut bounds = Vec::with_capacity(mcur.len());
                let mut lambda = Vec::with_capacity(mcur.len());
                for (slot, &row) in row_of_slot.iter().enumerate() {
                    let prev = self.cache.rows()[row].prev_delta;
                    let cur = deltas[slot];
                    if cur >= prev {
                        bounds.push((prev, cur));
                        lambda.push(1.0);
                    } else {
                        bounds.push((cur, prev));
                        lambda.push(-1.0);
                    }
                }
                build_lists_kernel(
                    self.dev,
                    self.cache.rows(),
                    &row_of_slot,
                    &SphereCond::Between(bounds),
                    n,
                    &self.ws.l_list,
                    &self.ws.l_count,
                );
                let dl_counts: Vec<usize> = self
                    .dev
                    .dtoh(&self.ws.l_count)
                    .iter()
                    .map(|&c| c as usize)
                    .collect();
                rec.add(
                    counters::DELTA_L_POINTS,
                    dl_counts.iter().map(|&c| c as u64).sum(),
                );
                h_update_kernel(
                    self.dev,
                    &self.ws.data,
                    d,
                    n,
                    &medoids,
                    self.cache.rows(),
                    &row_of_slot,
                    &self.ws.l_list,
                    &dl_counts,
                    &lambda,
                );
                // Mirror the bookkeeping the CPU engines do.
                let mut lsizes = Vec::with_capacity(mcur.len());
                for (slot, &row) in row_of_slot.iter().enumerate() {
                    let r = &mut self.cache.rows_mut()[row];
                    if lambda[slot] > 0.0 {
                        r.lsize += dl_counts[slot];
                    } else {
                        r.lsize -= dl_counts[slot];
                    }
                    r.prev_delta = deltas[slot];
                    lsizes.push(r.lsize);
                }
                x_from_h_kernel(
                    self.dev,
                    d,
                    self.cache.rows(),
                    &row_of_slot,
                    &lsizes,
                    &self.ws.x,
                );
            }
        }
        Ok(())
    }

    fn find_dims(&mut self, k: usize, l: usize, _rec: &dyn Recorder) -> Result<Vec<Vec<usize>>> {
        let d = self.ws.d;
        z_kernel(self.dev, &self.ws.x, &self.ws.z, k, d);
        let z = self.dev.dtoh(&self.ws.z);
        let dims = pick_dimensions(&z[..k * d], k, d, l);
        self.offsets = upload_dims(self.dev, self.ws, &dims);
        Ok(dims)
    }

    fn assign(
        &mut self,
        medoids: &[usize],
        _dims: &[Vec<usize>],
        _rec: &dyn Recorder,
    ) -> Result<Vec<usize>> {
        assign_kernel(
            self.dev,
            &self.ws.data,
            self.ws.d,
            self.ws.n,
            medoids,
            &self.ws.dims_flat,
            &self.offsets,
            &self.ws.labels,
            &self.ws.c_list,
            &self.ws.c_count,
        );
        let mut sizes: Vec<usize> = self
            .dev
            .dtoh(&self.ws.c_count)
            .iter()
            .map(|&c| c as usize)
            .collect();
        sizes.truncate(medoids.len()); // the workspace is sized for the largest k
        Ok(sizes)
    }

    fn labels(&mut self) -> Result<Vec<i32>> {
        Ok(self.dev.dtoh(&self.ws.labels))
    }

    fn evaluate(
        &mut self,
        _dims: &[Vec<usize>],
        sizes: &[usize],
        _rec: &dyn Recorder,
    ) -> Result<f64> {
        Ok(evaluate_kernel(
            self.dev,
            &self.ws.data,
            self.ws.d,
            self.ws.n,
            &self.ws.dims_flat,
            &self.offsets,
            &self.ws.c_list,
            sizes,
            &self.ws.cost,
        ))
    }

    fn save_best(&mut self) -> Result<()> {
        copy_labels_kernel(self.dev, &self.ws.labels, &self.ws.labels_best, self.ws.n);
        Ok(())
    }

    fn x_from_best(&mut self, medoids: &[usize], _rec: &dyn Recorder) -> Result<()> {
        let (n, d) = (self.ws.n, self.ws.d);
        lists_from_labels_kernel(
            self.dev,
            &self.ws.labels_best,
            n,
            &self.ws.c_list,
            &self.ws.c_count,
        );
        let mut counts: Vec<usize> = self
            .dev
            .dtoh(&self.ws.c_count)
            .iter()
            .map(|&c| c as usize)
            .collect();
        counts.truncate(medoids.len());
        x_from_lists_kernel(
            self.dev,
            &self.ws.data,
            d,
            n,
            medoids,
            &self.ws.c_list,
            &counts,
            &self.ws.x,
        );
        Ok(())
    }

    fn dist_subset(
        &mut self,
        medoid: usize,
        points: &[usize],
        _rec: &dyn Recorder,
    ) -> Result<Vec<f32>> {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let todo_host: Vec<u32> = points.iter().map(|&p| p as u32).collect();
        let todo = self
            .dev
            .htod("stream.todo", &todo_host)
            .map_err(|e| ProclusError::Device {
                reason: e.to_string(),
            })?;
        let out = self
            .dev
            .alloc_zeroed::<f32>("stream.dist_out", points.len())
            .map_err(|e| ProclusError::Device {
                reason: e.to_string(),
            })?;
        dist_subset_kernel(
            self.dev,
            &self.ws.data,
            self.ws.d,
            medoid,
            &todo,
            points.len(),
            &out,
        );
        let host = self.dev.dtoh(&out);
        self.dev.free(&todo).map_err(|e| ProclusError::Device {
            reason: e.to_string(),
        })?;
        self.dev.free(&out).map_err(|e| ProclusError::Device {
            reason: e.to_string(),
        })?;
        Ok(host)
    }

    fn assign_seeded(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        seed_labels: &[i32],
        todo: &[usize],
        _rec: &dyn Recorder,
    ) -> Result<Vec<usize>> {
        let n = self.ws.n;
        if seed_labels.len() != n {
            return Err(ProclusError::InvalidData {
                reason: format!(
                    "assign_seeded: {} seed labels for {} points",
                    seed_labels.len(),
                    n
                ),
            });
        }
        // The streaming driver picks subspaces on the host, so the flat
        // dims reach the device here rather than through `find_dims`.
        self.offsets = upload_dims(self.dev, self.ws, dims);
        self.dev.upload(&self.ws.labels, seed_labels);
        if !todo.is_empty() {
            let todo_host: Vec<u32> = todo.iter().map(|&p| p as u32).collect();
            let todo_buf = self
                .dev
                .htod("stream.assign_todo", &todo_host)
                .map_err(|e| ProclusError::Device {
                    reason: e.to_string(),
                })?;
            assign_subset_kernel(
                self.dev,
                &self.ws.data,
                self.ws.d,
                medoids,
                &self.ws.dims_flat,
                &self.offsets,
                &todo_buf,
                todo.len(),
                &self.ws.labels,
            );
            self.dev.free(&todo_buf).map_err(|e| ProclusError::Device {
                reason: e.to_string(),
            })?;
        }
        // Rebuild the member lists so evaluate/remove_outliers see a
        // partition consistent with the seeded labels.
        lists_from_labels_kernel(
            self.dev,
            &self.ws.labels,
            n,
            &self.ws.c_list,
            &self.ws.c_count,
        );
        let mut sizes: Vec<usize> = self
            .dev
            .dtoh(&self.ws.c_count)
            .iter()
            .map(|&c| c as usize)
            .collect();
        sizes.truncate(medoids.len());
        Ok(sizes)
    }

    fn remove_outliers(
        &mut self,
        medoids: &[usize],
        _dims: &[Vec<usize>],
        _rec: &dyn Recorder,
    ) -> Result<()> {
        outlier_deltas_kernel(
            self.dev,
            &self.ws.data,
            self.ws.d,
            medoids,
            &self.ws.dims_flat,
            &self.offsets,
            &self.ws.outlier_deltas,
        );
        remove_outliers_kernel(
            self.dev,
            &self.ws.data,
            self.ws.d,
            self.ws.n,
            medoids,
            &self.ws.dims_flat,
            &self.offsets,
            &self.ws.outlier_deltas,
            &self.ws.labels,
        );
        Ok(())
    }
}
