//! The sharded multi-device [`Backend`]: points partitioned across `D`
//! simulated devices, medoids broadcast, per-phase partials reduced at the
//! phase barriers of the shared driver.
//!
//! Layout: the dataset is split into `D` contiguous shards (empty shards
//! for `D > n` are dropped at construction). Each shard device holds its
//! own rows plus an **annex** — a broadcast copy of every potential-medoid
//! row, appended after the shard rows in the same device buffer. Kernels
//! address medoids by their annex row index, so every single-device kernel
//! (`dist_row`, `build_lists`, `h_update`, `assign`, outlier removal) runs
//! unchanged on shard-local data even when the medoid lives on another
//! shard. The per-shard `Dist`/`H` caches are keyed by annex slot, which is
//! stable for the lifetime of the backend, so the FAST reuse behavior of
//! §3.1/§4.2 is hit-for-hit identical to the single-device backend.
//!
//! Per phase, each [`Backend`] primitive is one bulk-synchronous step: the
//! shards run the phase kernels on their own rows, then the host reduces
//! the small cross-shard state — `ΔL` counts and `|L|` sizes (ComputeL),
//! the `k × d` partial `X` sums, cluster sizes (AssignPoints), partial
//! centroids and cost terms (EvaluateClusters, via the two partial kernels
//! in `kernels::evaluate`). Decision logic then proceeds exactly as on one
//! device, so seeds produce the same medoid path; only the f64 summation
//! order differs (cross-shard partial sums), which the equivalence tests
//! bound at `1e-9` on the cost — labels, medoids and subspaces are asserted
//! equal.
//!
//! The simulated clock of the whole ensemble advances by the *maximum*
//! per-shard device delta of each step (the barrier) plus a modeled
//! tree-reduction cost per reduced element — that is what
//! [`Backend::clock_us`] reports and what the speedup benchmark measures.

use std::collections::HashMap;

use gpu_sim::{Device, DeviceBuffer, DeviceConfig, GpuError};
use proclus::backend::{Backend, BackendFactory};
use proclus::params::Params;
use proclus::phases::compute_l::medoid_deltas;
use proclus::phases::find_dimensions::find_dimensions;
use proclus::phases::initialization::greedy_select;
use proclus::{Algo, CancelToken, DataMatrix, ProclusError, ProclusRng};
use proclus_telemetry::{attrs, counters, Recorder};

use crate::backend::{validate_gpu, GpuVariant};
use crate::error::Result;
use crate::kernels::assign::{assign_kernel, assign_subset_kernel};
use crate::kernels::dist::dist_subset_kernel;
use crate::kernels::evaluate::{centroid_partial_kernel, cost_partial_kernel};
use crate::kernels::find_dims::{h_update_kernel, x_from_h_kernel, x_from_lists_partial_kernel};
use crate::kernels::lsets::{build_lists_kernel, SphereCond};
use crate::kernels::outliers::{outlier_deltas_kernel, remove_outliers_kernel};
use crate::kernels::util::{copy_labels_kernel, lists_from_labels_kernel};
use crate::rows::RowCache;

/// Modeled one-hop interconnect latency for a phase-barrier reduction, µs.
const LINK_LATENCY_US: f64 = 8.0;
/// Modeled interconnect bandwidth for reduced scalars, bytes per µs.
const LINK_BYTES_PER_US: f64 = 12_000.0;

/// Converts a device error into the core error type at a shard boundary.
fn dev_err(e: GpuError) -> ProclusError {
    ProclusError::Device {
        reason: e.to_string(),
    }
}

/// Cost of tree-reducing `elems` f64 scalars across `d_count` devices.
fn reduce_cost_us(d_count: usize, elems: usize) -> f64 {
    if d_count <= 1 {
        return 0.0;
    }
    let hops = (d_count as f64).log2().ceil();
    hops * (LINK_LATENCY_US + (elems * 8) as f64 / LINK_BYTES_PER_US)
}

/// One device's slice of the problem: its rows, the medoid annex, and the
/// shard-local mirrors of every workspace buffer the kernels touch.
struct Shard {
    dev: Device,
    /// Rows resident on this shard.
    n_local: usize,
    /// `(n_local + annex_cap) × d`: shard rows then broadcast medoid rows.
    data: DeviceBuffer<f32>,
    l_list: DeviceBuffer<u32>,
    l_count: DeviceBuffer<u32>,
    c_list: DeviceBuffer<u32>,
    c_count: DeviceBuffer<u32>,
    labels: DeviceBuffer<i32>,
    labels_best: DeviceBuffer<i32>,
    x: DeviceBuffer<f64>,
    mu: DeviceBuffer<f64>,
    cost: DeviceBuffer<f64>,
    dims_flat: DeviceBuffer<u32>,
    outlier_deltas: DeviceBuffer<f64>,
    cache: RowCache,
    /// Shard-local cluster sizes from the latest assign.
    sizes: Vec<usize>,
    /// Telemetry watermarks for the per-shard summary spans.
    last_emit_us: f64,
    last_emit_launches: u64,
}

impl Shard {
    fn free(self) -> Result<()> {
        let mut dev = self.dev;
        self.cache.free(&mut dev)?;
        for b in [&self.l_list, &self.c_list, &self.dims_flat] {
            dev.free(b)?;
        }
        dev.free(&self.data)?;
        dev.free(&self.l_count)?;
        dev.free(&self.c_count)?;
        dev.free(&self.labels)?;
        dev.free(&self.labels_best)?;
        dev.free(&self.x)?;
        dev.free(&self.mu)?;
        dev.free(&self.cost)?;
        dev.free(&self.outlier_deltas)?;
        Ok(())
    }
}

/// The sharded multi-device execution backend (see the module docs).
pub struct ShardedBackend<'a> {
    data: &'a DataMatrix,
    shards: Vec<Shard>,
    variant: GpuVariant,
    /// Annex rows reserved per shard (every greedy pick fits: `|S|`).
    annex_cap: usize,
    /// Broadcast medoid bookkeeping: global data index → annex slot.
    annex_of: HashMap<usize, usize>,
    next_annex: usize,
    /// Host-reduced `X` of the latest ComputeL step (`k × d`).
    x: Vec<f64>,
    /// Subspace offsets of the latest FindDimensions step.
    offsets: Vec<usize>,
    /// The ensemble clock: the slowest shard's setup, then max-per-shard
    /// phase deltas + reduction costs.
    sim_us: f64,
    /// The current setting's token, polled between per-shard steps so a
    /// cancel lands mid-phase.
    cancel: CancelToken,
}

impl<'a> ShardedBackend<'a> {
    /// Partitions `data` across `devices` fresh deterministic devices built
    /// from `cfg`. `k_cap` sizes the per-cluster buffers (the largest `k`
    /// of a grid); `annex_cap` sizes the medoid annex (the sample size —
    /// every greedy pick comes from the sample). Empty shards (`devices >
    /// n`) are dropped, so degenerate device counts degrade gracefully.
    /// The shards allocate and upload in parallel, so the ensemble clock
    /// starts at the slowest shard's setup.
    pub fn new(
        cfg: &DeviceConfig,
        data: &'a DataMatrix,
        devices: usize,
        k_cap: usize,
        annex_cap: usize,
        variant: GpuVariant,
    ) -> Result<Self> {
        let (n, d) = (data.n(), data.d());
        let d_count = devices.max(1);
        let base = n / d_count;
        let rem = n % d_count;
        let mut shards = Vec::new();
        let mut start = 0usize;
        for i in 0..d_count {
            let n_local = base + usize::from(i < rem);
            if n_local == 0 {
                continue; // more devices than points: drop the empty shard
            }
            let mut dev = Device::new(cfg.clone());
            dev.set_deterministic(true);
            let data_buf = dev.alloc_zeroed::<f32>("shard.data", (n_local + annex_cap) * d)?;
            dev.upload(
                &data_buf.slice(0, n_local * d),
                &data.flat()[start * d..(start + n_local) * d],
            );
            let cache = RowCache::new(&mut dev, variant, n_local, d, k_cap)?;
            let shard = Shard {
                n_local,
                data: data_buf,
                l_list: dev.alloc_zeroed("shard.l_list", k_cap * n_local)?,
                l_count: dev.alloc_zeroed("shard.l_count", k_cap)?,
                c_list: dev.alloc_zeroed("shard.c_list", k_cap * n_local)?,
                c_count: dev.alloc_zeroed("shard.c_count", k_cap)?,
                labels: dev.alloc_zeroed("shard.labels", n_local)?,
                labels_best: dev.alloc_zeroed("shard.labels_best", n_local)?,
                x: dev.alloc_zeroed("shard.x", k_cap * d)?,
                mu: dev.alloc_zeroed("shard.mu", k_cap * d)?,
                cost: dev.alloc_zeroed("shard.cost", 1)?,
                dims_flat: dev.alloc_zeroed("shard.dims", k_cap * d)?,
                outlier_deltas: dev.alloc_zeroed("shard.outlier_deltas", k_cap)?,
                cache,
                sizes: Vec::new(),
                last_emit_us: 0.0,
                last_emit_launches: 0,
                dev,
            };
            shards.push(shard);
            start += n_local;
        }
        let setup_us = shards
            .iter()
            .map(|s| s.dev.elapsed_us())
            .fold(0.0, f64::max);
        Ok(Self {
            data,
            shards,
            variant,
            annex_cap,
            annex_of: HashMap::new(),
            next_annex: 0,
            x: Vec::new(),
            offsets: Vec::new(),
            sim_us: setup_us,
            cancel: CancelToken::default(),
        })
    }

    /// Number of shards actually holding points.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Releases every shard's device memory. Like the single-GPU runners,
    /// callers free explicitly so leaks are observable in tests.
    pub fn free(self) -> Result<()> {
        for shard in self.shards {
            shard.free()?;
        }
        Ok(())
    }

    /// Snapshot of every shard clock at the start of a barrier step.
    fn begin_step(&self) -> Vec<f64> {
        self.shards.iter().map(|s| s.dev.elapsed_us()).collect()
    }

    /// Ends a barrier step: the ensemble waited for the slowest shard, then
    /// reduced `reduced_elems` scalars across devices.
    fn end_step(&mut self, starts: &[f64], reduced_elems: usize) {
        let mut max_delta = 0.0f64;
        for (shard, &t0) in self.shards.iter().zip(starts) {
            let dt = shard.dev.elapsed_us() - t0;
            if dt > max_delta {
                max_delta = dt;
            }
        }
        self.sim_us += max_delta + reduce_cost_us(self.shards.len(), reduced_elems);
    }

    /// Annex slot of a broadcast medoid row.
    fn annex_slot(&self, global: usize) -> proclus::Result<usize> {
        self.annex_of
            .get(&global)
            .copied()
            .ok_or_else(|| ProclusError::Device {
                reason: format!("medoid {global} was never broadcast to the shards"),
            })
    }

    /// Annex slots for a set of global medoid indices.
    fn annex_slots(&self, medoids: &[usize]) -> proclus::Result<Vec<usize>> {
        medoids.iter().map(|&g| self.annex_slot(g)).collect()
    }

    /// Broadcasts any not-yet-resident medoid rows to every shard's annex.
    fn broadcast_medoids(&mut self, picks: &[usize]) -> proclus::Result<()> {
        let d = self.data.d();
        let fresh: Vec<usize> = picks
            .iter()
            .copied()
            .filter(|g| !self.annex_of.contains_key(g))
            .collect();
        if fresh.is_empty() {
            return Ok(());
        }
        if self.next_annex + fresh.len() > self.annex_cap {
            return Err(ProclusError::Device {
                reason: format!(
                    "medoid annex overflow: {} broadcast rows exceed the reserved {}",
                    self.next_annex + fresh.len(),
                    self.annex_cap
                ),
            });
        }
        let first = self.next_annex;
        let mut flat = Vec::with_capacity(fresh.len() * d);
        for &g in &fresh {
            self.annex_of.insert(g, self.next_annex);
            self.next_annex += 1;
            flat.extend_from_slice(&self.data.flat()[g * d..(g + 1) * d]);
        }
        for shard in &mut self.shards {
            let annex = shard.data.slice((shard.n_local + first) * d, flat.len());
            shard.dev.upload(&annex, &flat);
        }
        Ok(())
    }

    /// One `shard:<i>` summary span per device: simulated busy time and
    /// kernel launches since the previous emission.
    fn emit_shard_spans(&mut self, rec: &dyn Recorder) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let launches: u64 = shard
                .dev
                .report()
                .kernels
                .values()
                .map(|a| a.launches)
                .sum();
            let now = shard.dev.elapsed_us();
            rec.emit(
                &format!("shard:{i}"),
                &[(
                    counters::KERNEL_LAUNCHES,
                    launches - shard.last_emit_launches,
                )],
                &[(attrs::SIM_US, now - shard.last_emit_us)],
            );
            shard.last_emit_us = now;
            shard.last_emit_launches = launches;
        }
    }
}

impl Backend for ShardedBackend<'_> {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn n(&self) -> usize {
        self.data.n()
    }

    fn clock_us(&self) -> Option<f64> {
        Some(self.sim_us)
    }

    fn set_cancel(&mut self, cancel: &CancelToken) {
        self.cancel = cancel.clone();
    }

    fn greedy(
        &mut self,
        sample: &[usize],
        count: usize,
        rng: &mut ProclusRng,
        _rec: &dyn Recorder,
    ) -> proclus::Result<Vec<usize>> {
        // Host-side farthest-point selection (seed-identical to the device
        // kernel — asserted by the greedy kernel tests), then one broadcast
        // of the chosen rows into every shard's annex. The shard caches key
        // rows by annex slot, which `broadcast_medoids` keeps stable.
        // The host-side scan shares the process-wide work-stealing pool;
        // grain decomposition is a pure function of the sample size, so
        // the selection stays bitwise-identical to a sequential scan.
        let picks = greedy_select(
            self.data,
            sample,
            count,
            rng,
            &proclus::par::Executor::all_cores(),
        );
        let starts = self.begin_step();
        self.broadcast_medoids(&picks)?;
        self.end_step(&starts, 0);
        Ok(picks)
    }

    fn compute_x(
        &mut self,
        m_data: &[usize],
        mcur: &[usize],
        rec: &dyn Recorder,
    ) -> proclus::Result<()> {
        let (n, d) = (self.data.n(), self.data.d());
        let k = mcur.len();
        let cancel = self.cancel.clone();
        let medoids: Vec<usize> = mcur.iter().map(|&mi| m_data[mi]).collect();
        let m_slots = self.annex_slots(m_data)?;
        // Sphere radii δ on the host: each shard's distance rows only cover
        // its own points, so the medoid-to-medoid minima are formed from
        // the full data (bitwise-identical to the δ kernel).
        let deltas = medoid_deltas(self.data, &medoids);
        let starts = self.begin_step();

        // Hit/miss accounting is identical on every shard (the caches see
        // the same annex-slot sequence); count it once, over the global n.
        if rec.enabled() {
            if let Some(first) = self.shards.first() {
                let m_dev: Vec<usize> = m_slots.iter().map(|&s| first.n_local + s).collect();
                let misses = first.cache.misses(&m_dev, mcur);
                rec.add(counters::DISTANCES_COMPUTED, (misses * n) as u64);
                if self.variant != GpuVariant::Plain {
                    rec.add(counters::DIST_CACHE_MISSES, misses as u64);
                    rec.add(counters::DIST_CACHE_HITS, (mcur.len() - misses) as u64);
                }
            }
        }

        // Annex slots of the *current* medoids (a subset of m_data).
        let med_slots: Vec<usize> = mcur.iter().map(|&mi| m_slots[mi]).collect();

        match self.variant {
            GpuVariant::Plain => {
                // Pass 1: shard-local sphere lists and counts.
                let mut global_counts = vec![0usize; k];
                let mut local_counts_of: Vec<Vec<usize>> = Vec::with_capacity(self.shards.len());
                for shard in &mut self.shards {
                    cancel.check()?;
                    let n_l = shard.n_local;
                    let m_dev: Vec<usize> = m_slots.iter().map(|&s| n_l + s).collect();
                    let row_of_slot = shard
                        .cache
                        .prepare(&mut shard.dev, &shard.data, n_l, d, &m_dev, mcur)
                        .map_err(ProclusError::from)?;
                    build_lists_kernel(
                        &mut shard.dev,
                        shard.cache.rows(),
                        &row_of_slot,
                        &SphereCond::Within(deltas.clone()),
                        n_l,
                        &shard.l_list,
                        &shard.l_count,
                    );
                    let mut counts: Vec<usize> = shard
                        .dev
                        .dtoh(&shard.l_count)
                        .iter()
                        .map(|&c| c as usize)
                        .collect();
                    counts.truncate(k);
                    for (g, &c) in global_counts.iter_mut().zip(&counts) {
                        *g += c;
                    }
                    local_counts_of.push(counts);
                }
                // Pass 2: partial X — this shard's list entries divided by
                // the *global* sphere sizes; the host sum of the k×d
                // readbacks is then exactly X.
                let mut x = vec![0.0f64; k * d];
                for (shard, local_counts) in self.shards.iter_mut().zip(&local_counts_of) {
                    cancel.check()?;
                    let n_l = shard.n_local;
                    let m_dev: Vec<usize> = med_slots.iter().map(|&s| n_l + s).collect();
                    x_from_lists_partial_kernel(
                        &mut shard.dev,
                        &shard.data,
                        d,
                        n_l,
                        &m_dev,
                        &shard.l_list,
                        local_counts,
                        &global_counts,
                        &shard.x,
                    );
                    for (g, v) in x.iter_mut().zip(shard.dev.dtoh(&shard.x)) {
                        *g += v;
                    }
                }
                self.x = x;
            }
            GpuVariant::Fast | GpuVariant::FastStar => {
                // Pass 1: ΔL lists + incremental H per shard (Theorem 3.1
                // applies shard-locally: each shard's H covers its rows).
                let mut global_lsizes = vec![0usize; k];
                let mut dl_total = 0u64;
                let mut rows_of: Vec<Vec<usize>> = Vec::with_capacity(self.shards.len());
                for shard in &mut self.shards {
                    cancel.check()?;
                    let n_l = shard.n_local;
                    let m_dev: Vec<usize> = m_slots.iter().map(|&s| n_l + s).collect();
                    let medoids_dev: Vec<usize> = mcur.iter().map(|&mi| m_dev[mi]).collect();
                    let row_of_slot = shard
                        .cache
                        .prepare(&mut shard.dev, &shard.data, n_l, d, &m_dev, mcur)
                        .map_err(ProclusError::from)?;
                    let mut bounds = Vec::with_capacity(k);
                    let mut lambda = Vec::with_capacity(k);
                    for (slot, &row) in row_of_slot.iter().enumerate() {
                        let prev = shard.cache.rows()[row].prev_delta;
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
                        &mut shard.dev,
                        shard.cache.rows(),
                        &row_of_slot,
                        &SphereCond::Between(bounds),
                        n_l,
                        &shard.l_list,
                        &shard.l_count,
                    );
                    let dl_counts: Vec<usize> = shard
                        .dev
                        .dtoh(&shard.l_count)
                        .iter()
                        .map(|&c| c as usize)
                        .collect();
                    dl_total += dl_counts.iter().take(k).map(|&c| c as u64).sum::<u64>();
                    h_update_kernel(
                        &mut shard.dev,
                        &shard.data,
                        d,
                        n_l,
                        &medoids_dev,
                        shard.cache.rows(),
                        &row_of_slot,
                        &shard.l_list,
                        &dl_counts,
                        &lambda,
                    );
                    for (slot, &row) in row_of_slot.iter().enumerate() {
                        let r = &mut shard.cache.rows_mut()[row];
                        if lambda[slot] > 0.0 {
                            r.lsize += dl_counts[slot];
                        } else {
                            r.lsize -= dl_counts[slot];
                        }
                        r.prev_delta = deltas[slot];
                        global_lsizes[slot] += r.lsize;
                    }
                    rows_of.push(row_of_slot);
                }
                rec.add(counters::DELTA_L_POINTS, dl_total);
                // Pass 2: partial X = H_shard / |L|_global, host-summed.
                let mut x = vec![0.0f64; k * d];
                for (shard, row_of_slot) in self.shards.iter_mut().zip(&rows_of) {
                    cancel.check()?;
                    x_from_h_kernel(
                        &mut shard.dev,
                        d,
                        shard.cache.rows(),
                        row_of_slot,
                        &global_lsizes,
                        &shard.x,
                    );
                    for (g, v) in x.iter_mut().zip(shard.dev.dtoh(&shard.x)) {
                        *g += v;
                    }
                }
                self.x = x;
            }
        }
        self.end_step(&starts, k * d);
        Ok(())
    }

    fn find_dims(
        &mut self,
        k: usize,
        l: usize,
        _rec: &dyn Recorder,
    ) -> proclus::Result<Vec<Vec<usize>>> {
        // Z and the greedy dimension pick run on the host from the reduced
        // X (k×d scalars — the same decision data the single-GPU backend
        // reads back); the chosen subspaces are then broadcast.
        let d = self.data.d();
        let dims = find_dimensions(&self.x[..k * d], k, d, l);
        let mut flat = Vec::new();
        let mut offsets = vec![0usize];
        for s in &dims {
            flat.extend(s.iter().map(|&j| j as u32));
            offsets.push(flat.len());
        }
        let starts = self.begin_step();
        for shard in &mut self.shards {
            shard.dev.upload(&shard.dims_flat, &flat);
        }
        self.end_step(&starts, flat.len());
        self.offsets = offsets;
        Ok(dims)
    }

    fn assign(
        &mut self,
        medoids: &[usize],
        _dims: &[Vec<usize>],
        _rec: &dyn Recorder,
    ) -> proclus::Result<Vec<usize>> {
        let d = self.data.d();
        let k = medoids.len();
        let cancel = self.cancel.clone();
        let slots = self.annex_slots(medoids)?;
        let mut global = vec![0usize; k];
        let starts = self.begin_step();
        for shard in &mut self.shards {
            cancel.check()?;
            let n_l = shard.n_local;
            let m_dev: Vec<usize> = slots.iter().map(|&s| n_l + s).collect();
            assign_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                n_l,
                &m_dev,
                &shard.dims_flat,
                &self.offsets,
                &shard.labels,
                &shard.c_list,
                &shard.c_count,
            );
            let mut sizes: Vec<usize> = shard
                .dev
                .dtoh(&shard.c_count)
                .iter()
                .map(|&c| c as usize)
                .collect();
            sizes.truncate(k);
            for (g, &s) in global.iter_mut().zip(&sizes) {
                *g += s;
            }
            shard.sizes = sizes;
        }
        self.end_step(&starts, k);
        Ok(global)
    }

    fn dist_subset(
        &mut self,
        medoid: usize,
        points: &[usize],
        _rec: &dyn Recorder,
    ) -> proclus::Result<Vec<f32>> {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let d = self.data.d();
        let cancel = self.cancel.clone();
        // The medoid row reaches every annex on demand (idempotent), so the
        // streaming driver may ask about any sample point, broadcast or not.
        self.broadcast_medoids(&[medoid])?;
        let slot = self.annex_slot(medoid)?;
        let mut out = vec![0.0f32; points.len()];
        let starts = self.begin_step();
        let mut shard_lo = 0usize;
        for shard in &mut self.shards {
            cancel.check()?;
            let lo = shard_lo;
            let hi = lo + shard.n_local;
            shard_lo = hi;
            // This shard's slice of the request, in request order.
            let local: Vec<(usize, u32)> = points
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p >= lo && p < hi)
                .map(|(i, &p)| (i, (p - lo) as u32))
                .collect();
            if local.is_empty() {
                continue;
            }
            let todo_host: Vec<u32> = local.iter().map(|&(_, l)| l).collect();
            let todo = shard.dev.htod("stream.todo", &todo_host).map_err(dev_err)?;
            let res = shard
                .dev
                .alloc_zeroed::<f32>("stream.dist_out", todo_host.len())
                .map_err(dev_err)?;
            dist_subset_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                shard.n_local + slot,
                &todo,
                todo_host.len(),
                &res,
            );
            let host = shard.dev.dtoh(&res);
            shard.dev.free(&todo).map_err(dev_err)?;
            shard.dev.free(&res).map_err(dev_err)?;
            for (&(i, _), v) in local.iter().zip(host) {
                out[i] = v;
            }
        }
        self.end_step(&starts, points.len());
        Ok(out)
    }

    fn assign_seeded(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        seed_labels: &[i32],
        todo: &[usize],
        _rec: &dyn Recorder,
    ) -> proclus::Result<Vec<usize>> {
        let n = self.data.n();
        if seed_labels.len() != n {
            return Err(ProclusError::InvalidData {
                reason: format!(
                    "assign_seeded: {} seed labels for {n} points",
                    seed_labels.len()
                ),
            });
        }
        let d = self.data.d();
        let k = medoids.len();
        let cancel = self.cancel.clone();
        self.broadcast_medoids(medoids)?;
        let slots = self.annex_slots(medoids)?;
        // Host-picked subspaces are scattered here instead of `find_dims`.
        let mut flat = Vec::new();
        let mut offsets = vec![0usize];
        for s in dims {
            flat.extend(s.iter().map(|&j| j as u32));
            offsets.push(flat.len());
        }
        let starts = self.begin_step();
        let mut global = vec![0usize; k];
        let mut shard_lo = 0usize;
        for shard in &mut self.shards {
            cancel.check()?;
            let n_l = shard.n_local;
            let lo = shard_lo;
            let hi = lo + n_l;
            shard_lo = hi;
            shard.dev.upload(&shard.dims_flat, &flat);
            shard.dev.upload(&shard.labels, &seed_labels[lo..hi]);
            let local_todo: Vec<u32> = todo
                .iter()
                .filter(|&&p| p >= lo && p < hi)
                .map(|&p| (p - lo) as u32)
                .collect();
            if !local_todo.is_empty() {
                let m_dev: Vec<usize> = slots.iter().map(|&s| n_l + s).collect();
                let todo_buf = shard
                    .dev
                    .htod("stream.assign_todo", &local_todo)
                    .map_err(dev_err)?;
                assign_subset_kernel(
                    &mut shard.dev,
                    &shard.data,
                    d,
                    &m_dev,
                    &shard.dims_flat,
                    &offsets,
                    &todo_buf,
                    local_todo.len(),
                    &shard.labels,
                );
                shard.dev.free(&todo_buf).map_err(dev_err)?;
            }
            // Rebuild the member lists so evaluate sees a partition
            // consistent with the seeded labels.
            lists_from_labels_kernel(
                &mut shard.dev,
                &shard.labels,
                n_l,
                &shard.c_list,
                &shard.c_count,
            );
            let mut sizes: Vec<usize> = shard
                .dev
                .dtoh(&shard.c_count)
                .iter()
                .map(|&c| c as usize)
                .collect();
            sizes.truncate(k);
            for (g, &s) in global.iter_mut().zip(&sizes) {
                *g += s;
            }
            shard.sizes = sizes;
        }
        self.offsets = offsets;
        self.end_step(&starts, k);
        Ok(global)
    }

    fn labels(&mut self) -> proclus::Result<Vec<i32>> {
        let starts = self.begin_step();
        let mut out = Vec::with_capacity(self.data.n());
        for shard in &mut self.shards {
            out.extend(shard.dev.dtoh(&shard.labels));
        }
        self.end_step(&starts, 0);
        Ok(out)
    }

    fn evaluate(
        &mut self,
        _dims: &[Vec<usize>],
        sizes: &[usize],
        rec: &dyn Recorder,
    ) -> proclus::Result<f64> {
        let (n, d) = (self.data.n(), self.data.d());
        let k = sizes.len();
        let cancel = self.cancel.clone();
        let starts = self.begin_step();
        // Phase 1: partial centroid components per shard, pre-divided by
        // the global cluster sizes; the host sum is the global µ.
        let mut mu = vec![0.0f64; k * d];
        for shard in &mut self.shards {
            cancel.check()?;
            centroid_partial_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                shard.n_local,
                &shard.dims_flat,
                &self.offsets,
                &shard.c_list,
                &shard.sizes,
                sizes,
                &shard.mu,
            );
            for (g, v) in mu.iter_mut().zip(shard.dev.dtoh(&shard.mu)) {
                *g += v;
            }
        }
        // Phase 2: broadcast µ back, accumulate each shard's cost terms
        // against the global point count, and sum the scalars.
        let mut cost = 0.0f64;
        for shard in &mut self.shards {
            cancel.check()?;
            shard.dev.upload(&shard.mu, &mu);
            cost += cost_partial_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                shard.n_local,
                &shard.dims_flat,
                &self.offsets,
                &shard.c_list,
                &shard.sizes,
                &shard.mu,
                n,
                &shard.cost,
            );
        }
        self.end_step(&starts, 2 * k * d + 1);
        let _ = rec;
        Ok(cost)
    }

    fn save_best(&mut self) -> proclus::Result<()> {
        let starts = self.begin_step();
        for shard in &mut self.shards {
            copy_labels_kernel(
                &mut shard.dev,
                &shard.labels,
                &shard.labels_best,
                shard.n_local,
            );
        }
        self.end_step(&starts, 0);
        Ok(())
    }

    fn x_from_best(&mut self, medoids: &[usize], _rec: &dyn Recorder) -> proclus::Result<()> {
        let d = self.data.d();
        let k = medoids.len();
        let cancel = self.cancel.clone();
        let slots = self.annex_slots(medoids)?;
        let starts = self.begin_step();
        // Pass 1: rebuild shard-local cluster lists from the best labels.
        let mut global_counts = vec![0usize; k];
        let mut local_counts_of: Vec<Vec<usize>> = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            cancel.check()?;
            lists_from_labels_kernel(
                &mut shard.dev,
                &shard.labels_best,
                shard.n_local,
                &shard.c_list,
                &shard.c_count,
            );
            let mut counts: Vec<usize> = shard
                .dev
                .dtoh(&shard.c_count)
                .iter()
                .map(|&c| c as usize)
                .collect();
            counts.truncate(k);
            for (g, &c) in global_counts.iter_mut().zip(&counts) {
                *g += c;
            }
            local_counts_of.push(counts);
        }
        // Pass 2: partial X over CBest with the global cluster sizes.
        let mut x = vec![0.0f64; k * d];
        for (shard, local_counts) in self.shards.iter_mut().zip(&local_counts_of) {
            cancel.check()?;
            let n_l = shard.n_local;
            let m_dev: Vec<usize> = slots.iter().map(|&s| n_l + s).collect();
            x_from_lists_partial_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                n_l,
                &m_dev,
                &shard.c_list,
                local_counts,
                &global_counts,
                &shard.x,
            );
            for (g, v) in x.iter_mut().zip(shard.dev.dtoh(&shard.x)) {
                *g += v;
            }
        }
        self.x = x;
        self.end_step(&starts, k + k * d);
        Ok(())
    }

    fn remove_outliers(
        &mut self,
        medoids: &[usize],
        _dims: &[Vec<usize>],
        rec: &dyn Recorder,
    ) -> proclus::Result<()> {
        let d = self.data.d();
        let cancel = self.cancel.clone();
        let slots = self.annex_slots(medoids)?;
        let starts = self.begin_step();
        for shard in &mut self.shards {
            cancel.check()?;
            let n_l = shard.n_local;
            let m_dev: Vec<usize> = slots.iter().map(|&s| n_l + s).collect();
            // The medoid rows live in every annex, so the medoid-only δ
            // pass runs on each shard (identical results, balanced clocks).
            outlier_deltas_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                &m_dev,
                &shard.dims_flat,
                &self.offsets,
                &shard.outlier_deltas,
            );
            remove_outliers_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                n_l,
                &m_dev,
                &shard.dims_flat,
                &self.offsets,
                &shard.outlier_deltas,
                &shard.labels,
            );
        }
        self.end_step(&starts, 0);
        if rec.enabled() {
            self.emit_shard_spans(rec);
        }
        Ok(())
    }
}

/// Sharded ensembles of [`Params::devices`] fresh devices cloned from
/// `dev`'s configuration (which also sets the kernel-shape limits). Each
/// close credits the ensemble clock — shard upload included — to `dev`,
/// so `dev.elapsed_ms()` stays meaningful whichever backend ran.
pub struct ShardedFactory<'a> {
    dev: &'a mut Device,
    data: &'a DataMatrix,
    variant: GpuVariant,
}

impl<'a> ShardedFactory<'a> {
    /// A factory running `algo` over `data`, sharded per the params'
    /// device count.
    pub fn new(dev: &'a mut Device, data: &'a DataMatrix, algo: Algo) -> Self {
        Self {
            dev,
            data,
            variant: algo.into(),
        }
    }
}

impl BackendFactory for ShardedFactory<'_> {
    fn validate(&self, params: &Params) -> proclus::Result<()> {
        Ok(validate_gpu(self.dev, self.data, params)?)
    }

    fn clock_us(&self) -> Option<f64> {
        Some(self.dev.elapsed_us())
    }

    fn with_backend(
        &mut self,
        sized_for: &Params,
        f: &mut dyn FnMut(&mut dyn Backend),
    ) -> proclus::Result<()> {
        let mut backend = ShardedBackend::new(
            self.dev.config(),
            self.data,
            sized_for.devices.get(),
            sized_for.k,
            sized_for.sample_size(self.data.n()),
            self.variant,
        )?;
        f(&mut backend);
        self.dev.advance_clock_us(backend.sim_us);
        Ok(backend.free()?)
    }
}
