//! The execution-backend abstraction behind every PROCLUS driver.
//!
//! All PROCLUS variants share one phase loop (sample → greedy → iterate
//! {ComputeL, FindDimensions, AssignPoints, EvaluateClusters, bad-medoid
//! replacement} → refinement with outlier removal). What differs between
//! the CPU path, the simulated-GPU path, and the sharded multi-device path
//! is *where the per-phase numeric primitives execute* — so that is exactly
//! what the [`Backend`] trait owns. The driver (`crate::driver`, reached
//! through [`run_grid`] / [`run_core`]) holds every decision: medoid
//! bookkeeping, RNG draws, best-cost tracking, termination, cancellation
//! polls, and phase telemetry. A backend holds every number: the data, the
//! `Dist`/`H` state of Theorems 3.1/3.2, the current `X`, labels, and
//! cluster lists.
//!
//! Contract highlights (see DESIGN.md §12 for the full write-up):
//!
//! * **Phase primitives.** [`Backend::compute_x`] assembles the averaged
//!   per-dimension distance matrix `X` for the current medoids (delta
//!   updates included), [`Backend::find_dims`] selects subspaces from it,
//!   [`Backend::assign`] produces labels + cluster sizes,
//!   [`Backend::evaluate`] the cost, [`Backend::x_from_best`] /
//!   [`Backend::remove_outliers`] the refinement pass. State flows through
//!   the backend between calls; the driver only sees medoid indices,
//!   subspaces, sizes, and costs.
//! * **Barriers.** The driver calls the primitives strictly in phase order;
//!   a multi-device backend must have reduced any cross-shard state
//!   (`H`-sums, cluster sizes, centroids) by the time a primitive returns —
//!   every method return is a phase barrier.
//! * **Cancellation.** The driver polls its [`crate::CancelToken`] at the
//!   top of every iteration and before refinement. Backends whose
//!   primitives are internally long-running (sharded loops over devices)
//!   must additionally poll the token [`Backend::set_cancel`] installed for
//!   the current setting between per-device steps, so a cancel lands
//!   mid-phase, not at the next barrier.
//! * **Telemetry.** Phase spans are opened by the driver. Backends with a
//!   simulated clock report it through [`Backend::clock_us`] (the driver
//!   annotates each phase span with the simulated microseconds it
//!   consumed) and may attribute extra counters (cache hits, `ΔL` sizes)
//!   to the innermost open span via the `rec` handle they receive.
//!
//! Backends are opened and freed by a [`BackendFactory`], so allocation
//! and its clean-up are written once per backend, not once per runner.
//!
//! [`run_grid`]: crate::backend::run_grid

use proclus_telemetry::Recorder;

use crate::cancel::CancelToken;
use crate::dataset::DataMatrix;
use crate::driver::XEngine;
use crate::error::{ProclusError, Result};
use crate::par::Executor;
use crate::phases::assign::{assign_points, assign_subset, cluster_sizes};
use crate::phases::evaluate::evaluate_clusters;
use crate::phases::find_dimensions::find_dimensions;
use crate::phases::initialization::greedy_select;
use crate::phases::refinement::{remove_outliers, x_from_clusters};
use crate::rng::ProclusRng;

pub use crate::driver::{
    dispatch, greedy_phase, initialization_phase, run_core, run_full, run_grid, BackendFactory,
    CpuFactory, PartitionedOutcomes,
};

/// The per-phase primitives one execution backend provides.
///
/// Implemented by the CPU engines (here), the simulated-GPU backend
/// (`proclus_gpu::GpuBackend`), and the sharded multi-device backend
/// (`proclus_gpu::ShardedBackend`). `m_data` always holds the data indices
/// of the potential medoids `M`; `mcur` holds current medoids as indices
/// into `m_data`; `medoids` holds plain data indices.
pub trait Backend {
    /// Stable lowercase backend name (telemetry metadata, serve responses).
    fn name(&self) -> &'static str;

    /// Number of points in the dataset this backend executes over.
    fn n(&self) -> usize;

    /// The simulated device clock in microseconds, if this backend has
    /// one. The driver annotates each phase span with the delta.
    fn clock_us(&self) -> Option<f64> {
        None
    }

    /// Installs the token of the setting about to run. Backends that poll
    /// a token of their own between per-device steps keep it; the rest
    /// ignore it.
    fn set_cancel(&mut self, cancel: &CancelToken) {
        let _ = cancel;
    }

    /// Greedy farthest-point selection of `count` potential medoids from
    /// `sample` (paper Alg. 2). Must consume `rng` identically across
    /// backends so seeds produce the same search path everywhere.
    fn greedy(
        &mut self,
        sample: &[usize],
        count: usize,
        rng: &mut ProclusRng,
        rec: &dyn Recorder,
    ) -> Result<Vec<usize>>;

    /// ComputeL: assemble `X` (and sphere sizes) for the current medoids,
    /// applying the variant's `Dist`/`H` caching and `ΔL` delta updates
    /// (Theorems 3.1/3.2). `X` stays inside the backend.
    fn compute_x(&mut self, m_data: &[usize], mcur: &[usize], rec: &dyn Recorder) -> Result<()>;

    /// FindDimensions: pick the subspaces from the `X` assembled by the
    /// preceding [`Backend::compute_x`] / [`Backend::x_from_best`] call.
    fn find_dims(&mut self, k: usize, l: usize, rec: &dyn Recorder) -> Result<Vec<Vec<usize>>>;

    /// AssignPoints: label every point with its nearest medoid under the
    /// given subspaces; returns the cluster sizes. Labels stay inside the
    /// backend (device-resident for GPU backends).
    fn assign(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        rec: &dyn Recorder,
    ) -> Result<Vec<usize>>;

    /// The current labels, materialized host-side. Called once after
    /// refinement (the final labels) and on telemetry paths (label-churn
    /// counter); never on the per-iteration hot path.
    fn labels(&mut self) -> Result<Vec<i32>>;

    /// EvaluateClusters: the paper's cost (Eq. 9) of the current
    /// assignment under `dims`. `sizes` is the value the preceding
    /// [`Backend::assign`] returned.
    fn evaluate(&mut self, dims: &[Vec<usize>], sizes: &[usize], rec: &dyn Recorder)
        -> Result<f64>;

    /// Snapshot the current labels as the best-so-far assignment (the
    /// refinement phase rebuilds clusters from this snapshot).
    fn save_best(&mut self) -> Result<()>;

    /// Refinement ComputeL: assemble `X` from the best-so-far clusters
    /// (`L ← CBest`, Alg. 1 line 16) instead of the medoid spheres.
    fn x_from_best(&mut self, medoids: &[usize], rec: &dyn Recorder) -> Result<()>;

    /// RemoveOutliers: rewrite the current labels in place, discarding
    /// points outside every medoid's sphere of influence. The driver reads
    /// the final labels back with [`Backend::labels`] afterwards.
    fn remove_outliers(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        rec: &dyn Recorder,
    ) -> Result<()>;

    /// Euclidean distances from the point at data index `medoid` to each of
    /// `points` (data indices), in order. The streaming driver uses this as
    /// its scatter/gather primitive: filling whole `Dist` rows on a cache
    /// miss, patching only the appended columns of a carried-over row, and
    /// running the farthest-point search one pick at a time. Backends
    /// without a streaming path keep the default
    /// [`ProclusError::Unsupported`].
    fn dist_subset(
        &mut self,
        medoid: usize,
        points: &[usize],
        rec: &dyn Recorder,
    ) -> Result<Vec<f32>> {
        let _ = (medoid, points, rec);
        Err(ProclusError::unsupported(format!(
            "backend `{}` does not implement dist_subset (streaming)",
            self.name()
        )))
    }

    /// Seeded AssignPoints for the streaming driver: install `seed_labels`
    /// as the full label array (one entry per point; entries for `todo`
    /// positions are ignored), then assign only the `todo` points against
    /// `medoids` under `dims` (ties to the lower medoid index, exactly as
    /// [`Backend::assign`]). Returns the cluster sizes over *all* points.
    /// After this call the backend's label state must be complete — i.e.
    /// [`Backend::evaluate`], [`Backend::save_best`],
    /// [`Backend::remove_outliers`] and [`Backend::labels`] behave as if
    /// [`Backend::assign`] had labelled every point.
    fn assign_seeded(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        seed_labels: &[i32],
        todo: &[usize],
        rec: &dyn Recorder,
    ) -> Result<Vec<usize>> {
        let _ = (medoids, dims, seed_labels, todo, rec);
        Err(ProclusError::unsupported(format!(
            "backend `{}` does not implement assign_seeded (streaming)",
            self.name()
        )))
    }
}

/// The CPU backend: host execution through [`Executor`], with the variant
/// engines (baseline recompute, FAST `Dist`/`H` cache, FAST* slot cache)
/// supplying `X`.
pub struct CpuBackend<'a> {
    data: &'a DataMatrix,
    exec: Executor,
    engine: Box<dyn XEngine>,
    x: Vec<f64>,
    labels: Vec<i32>,
    best_labels: Vec<i32>,
}

impl<'a> CpuBackend<'a> {
    /// A CPU backend for drivers that compute `X` themselves (the
    /// streaming driver): the internal `X` engine is the baseline
    /// recompute and is only exercised if [`Backend::compute_x`] /
    /// [`Backend::x_from_best`] are actually called.
    pub fn new(data: &'a DataMatrix, exec: Executor) -> Self {
        Self::with_engine(data, exec, Box::new(crate::baseline::BaselineEngine))
    }

    /// Wraps an `X` engine; used by the variant constructors in
    /// `baseline` / `fast` / `fast_star`.
    pub(crate) fn with_engine(
        data: &'a DataMatrix,
        exec: Executor,
        engine: Box<dyn XEngine>,
    ) -> Self {
        Self {
            data,
            exec,
            engine,
            x: Vec::new(),
            labels: Vec::new(),
            best_labels: Vec::new(),
        }
    }
}

impl Backend for CpuBackend<'_> {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn n(&self) -> usize {
        self.data.n()
    }

    fn greedy(
        &mut self,
        sample: &[usize],
        count: usize,
        rng: &mut ProclusRng,
        _rec: &dyn Recorder,
    ) -> Result<Vec<usize>> {
        Ok(greedy_select(self.data, sample, count, rng, &self.exec))
    }

    fn compute_x(&mut self, m_data: &[usize], mcur: &[usize], rec: &dyn Recorder) -> Result<()> {
        let (x, _lsz) = self
            .engine
            .x_matrix(self.data, m_data, mcur, &self.exec, rec);
        self.x = x;
        Ok(())
    }

    fn find_dims(&mut self, k: usize, l: usize, _rec: &dyn Recorder) -> Result<Vec<Vec<usize>>> {
        Ok(find_dimensions(&self.x, k, self.data.d(), l))
    }

    fn assign(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        _rec: &dyn Recorder,
    ) -> Result<Vec<usize>> {
        self.labels = assign_points(self.data, medoids, dims, &self.exec);
        Ok(cluster_sizes(&self.labels, medoids.len()))
    }

    fn labels(&mut self) -> Result<Vec<i32>> {
        Ok(self.labels.clone())
    }

    fn evaluate(
        &mut self,
        dims: &[Vec<usize>],
        _sizes: &[usize],
        _rec: &dyn Recorder,
    ) -> Result<f64> {
        Ok(evaluate_clusters(self.data, &self.labels, dims, &self.exec))
    }

    fn save_best(&mut self) -> Result<()> {
        self.best_labels = self.labels.clone();
        Ok(())
    }

    fn x_from_best(&mut self, medoids: &[usize], _rec: &dyn Recorder) -> Result<()> {
        let (x, _) = x_from_clusters(self.data, medoids, &self.best_labels, &self.exec);
        self.x = x;
        Ok(())
    }

    fn remove_outliers(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        _rec: &dyn Recorder,
    ) -> Result<()> {
        self.labels = remove_outliers(self.data, &self.labels, medoids, dims, &self.exec);
        Ok(())
    }

    fn dist_subset(
        &mut self,
        medoid: usize,
        points: &[usize],
        _rec: &dyn Recorder,
    ) -> Result<Vec<f32>> {
        use crate::distance_simd::{euclidean8, LANES};
        let m_row = self.data.row(medoid);
        let data = self.data;
        let mut out = vec![0.0f32; points.len()];
        // Gathered lane groups: `points` are arbitrary data indices (the
        // RowStore's hole positions), so lanes gather rows by index. Lane l
        // is bitwise-equal to euclidean(m_row, row_l): the operands are
        // swapped, but IEEE negation is exact, so the squared f32
        // difference — and with it the whole chain — is bit-identical.
        // Grain boundaries are LANES-aligned (par::GRAIN_ALIGN), so the
        // lane groups tile identically whether the loop runs as one range
        // or split across workers: each point's distance chain is
        // independent and lands in its own output slot.
        self.exec.for_each_slice(&mut out, |off, sub| {
            let mut i = 0;
            // lint:allow(cancel_polled) -- bounded lane sweep, not a phase loop
            while i + LANES <= sub.len() {
                let rows: [&[f32]; LANES] = std::array::from_fn(|l| data.row(points[off + i + l]));
                sub[i..i + LANES].copy_from_slice(&euclidean8(rows, m_row));
                i += LANES;
            }
            // lint:allow(cancel_polled) -- bounded remainder sweep (< 8 points)
            while i < sub.len() {
                sub[i] = crate::distance::euclidean(m_row, data.row(points[off + i]));
                i += 1;
            }
        });
        Ok(out)
    }

    fn assign_seeded(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        seed_labels: &[i32],
        todo: &[usize],
        _rec: &dyn Recorder,
    ) -> Result<Vec<usize>> {
        if seed_labels.len() != self.data.n() {
            return Err(ProclusError::data(format!(
                "assign_seeded: {} seed labels for {} points",
                seed_labels.len(),
                self.data.n()
            )));
        }
        self.labels = seed_labels.to_vec();
        assign_subset(self.data, medoids, dims, todo, &mut self.labels, &self.exec);
        Ok(cluster_sizes(&self.labels, medoids.len()))
    }
}
