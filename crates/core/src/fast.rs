//! FAST-PROCLUS (§3): cache distances to potential medoids across
//! iterations (`Dist`, `DistFound`) and maintain the per-dimension distance
//! sums `H` incrementally from the sphere delta `ΔL_i` (Theorems 3.1/3.2).

use std::collections::HashMap;

use proclus_telemetry::{counters, Recorder};

use crate::dataset::DataMatrix;
use crate::distance_simd::{debug_assert_finite, dist_rows_strip, euclidean_strip, fold_abs_diff};
use crate::driver::XEngine;
use crate::par::Executor;

/// Fills `out[p] = ‖data_p − m‖₂` for all points (one `Dist` row),
/// in parallel — GPU Alg. 3 lines 1–3. Uses the 8-lane vectorized strip
/// kernel; results are bitwise-identical to the scalar `euclidean`.
pub(crate) fn compute_dist_row(data: &DataMatrix, m_row: &[f32], out: &mut [f32], exec: &Executor) {
    let d = data.d();
    let flat = data.flat();
    exec.for_each_slice(out, |off, sub| {
        euclidean_strip(&flat[off * d..(off + sub.len()) * d], d, m_row, sub);
    });
}

/// Fills a *batch* of `Dist` rows in one cache-blocked pass: workers own
/// column strips ([`Executor::for_each_strips`]), and within each strip the
/// point tile is read once and reused for every medoid row
/// ([`dist_rows_strip`]). Bitwise-identical to per-row [`compute_dist_row`].
pub(crate) fn compute_dist_rows(
    data: &DataMatrix,
    m_rows: &[&[f32]],
    outs: &mut [&mut [f32]],
    exec: &Executor,
) {
    debug_assert_eq!(m_rows.len(), outs.len());
    let d = data.d();
    let flat = data.flat();
    exec.for_each_strips(outs, |off, strips| {
        let len = strips.first().map(|s| s.len()).unwrap_or(0);
        dist_rows_strip(&flat[off * d..(off + len) * d], d, m_rows, strips);
    });
}

/// Applies Theorems 3.1/3.2: scans one cached `Dist` row for the points in
/// `ΔL_i` (those between the previous radius `δ'` and the current radius
/// `δ`) and folds their per-dimension Manhattan terms into `h_row` with the
/// sign `λ`. Updates `lsize` accordingly.
///
/// `ΔL_i = {p : δ' < ‖p − m_i‖ ≤ δ}` on increase, symmetric on decrease;
/// membership tests reuse the *cached* `f32` distances, so the point sets
/// are exactly consistent across iterations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_h_row(
    data: &DataMatrix,
    dist_row: &[f32],
    m_row: &[f32],
    delta_prev: f32,
    delta_cur: f32,
    h_row: &mut [f64],
    lsize: &mut usize,
    exec: &Executor,
) {
    if delta_cur == delta_prev {
        return;
    }
    // A NaN in the cached row would fail both `>` and `<=` and silently
    // drop the point from every ΔL shell forever.
    debug_assert_finite(dist_row, "update_h_row: cached Dist row");
    let d = data.d();
    let (lo, hi, lambda) = if delta_cur > delta_prev {
        (delta_prev, delta_cur, 1.0f64)
    } else {
        (delta_cur, delta_prev, -1.0f64)
    };
    let parts = exec.map_chunks(
        data.n(),
        || (vec![0.0f64; d], 0usize),
        |(dh, cnt), range| {
            for p in range {
                let dist = dist_row[p];
                if dist > lo && dist <= hi {
                    *cnt += 1;
                    fold_abs_diff(dh, data.row(p), m_row);
                }
            }
        },
    );
    for (dh, cnt) in parts {
        for (acc, v) in h_row.iter_mut().zip(&dh) {
            *acc += lambda * v;
        }
        if lambda > 0.0 {
            *lsize += cnt;
        } else {
            *lsize -= cnt;
        }
    }
}

/// The `Dist`/`H` cache of FAST-PROCLUS.
///
/// Rows are keyed by the medoid's *data index*, so the cache survives not
/// only across iterations but also across parameter settings with different
/// potential-medoid sets (§3.1 multi-parameter level 1): any point that
/// reappears as a potential medoid hits its old row. For a single run this
/// is exactly the paper's `Dist ∈ ℝ^{Bk×n}` + `DistFound` + `MIdx` scheme
/// (presence in the map *is* `DistFound`).
#[derive(Debug)]
pub(crate) struct DistCache {
    n: usize,
    d: usize,
    slot_of: HashMap<usize, usize>,
    dist: Vec<f32>,       // rows × n
    h: Vec<f64>,          // rows × d
    prev_delta: Vec<f32>, // per row: δ at last usage t'
    lsize: Vec<usize>,    // per row: |L| at last usage
}

impl DistCache {
    pub(crate) fn new(n: usize, d: usize) -> Self {
        Self {
            n,
            d,
            slot_of: HashMap::new(),
            dist: Vec::new(),
            h: Vec::new(),
            prev_delta: Vec::new(),
            lsize: Vec::new(),
        }
    }

    /// Number of cached rows (= distinct medoids whose distances were ever
    /// computed; the paper's `DistFound` count).
    pub(crate) fn rows(&self) -> usize {
        self.prev_delta.len()
    }

    /// Logical bytes held by the cache (for space-usage reporting).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn bytes(&self) -> usize {
        self.dist.len() * 4 + self.h.len() * 8 + self.rows() * (4 + 8)
    }

    /// Returns the row for medoid `m_point`, computing the distance row on
    /// first use. The `bool` reports a cache miss (fresh row). The engine
    /// hot path goes through the batched [`DistCache::ensure_rows`]; this
    /// single-row form remains for the Theorem 3.1/3.2 unit proofs.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn ensure_row(
        &mut self,
        data: &DataMatrix,
        m_point: usize,
        exec: &Executor,
    ) -> (usize, bool) {
        if let Some(&row) = self.slot_of.get(&m_point) {
            return (row, false);
        }
        let row = self.rows();
        self.slot_of.insert(m_point, row);
        self.dist.resize((row + 1) * self.n, 0.0);
        self.h.resize((row + 1) * self.d, 0.0);
        // Sentinel: a fresh row has "previous radius" below zero so the
        // first ΔL scan `dist > δ'` also admits points at distance exactly
        // 0 (the medoid itself).
        self.prev_delta.push(-1.0);
        self.lsize.push(0);
        let m_row: Vec<f32> = data.row(m_point).to_vec();
        compute_dist_row(
            data,
            &m_row,
            &mut self.dist[row * self.n..(row + 1) * self.n],
            exec,
        );
        (row, true)
    }

    /// Batched [`DistCache::ensure_row`]: resolves every medoid's row in
    /// one pass, computing *all* missing rows with one cache-blocked sweep
    /// of the data ([`compute_dist_rows`]) instead of one full-matrix
    /// stream per miss. Returns `(row, fresh)` per medoid, in order.
    pub(crate) fn ensure_rows(
        &mut self,
        data: &DataMatrix,
        m_points: &[usize],
        exec: &Executor,
    ) -> Vec<(usize, bool)> {
        let first_new = self.rows();
        let mut fresh_points: Vec<usize> = Vec::new();
        let out: Vec<(usize, bool)> = m_points
            .iter()
            .map(|&m| {
                if let Some(&row) = self.slot_of.get(&m) {
                    (row, false)
                } else {
                    let row = first_new + fresh_points.len();
                    self.slot_of.insert(m, row);
                    fresh_points.push(m);
                    (row, true)
                }
            })
            .collect();
        if fresh_points.is_empty() {
            return out;
        }
        let rows_after = first_new + fresh_points.len();
        self.dist.resize(rows_after * self.n, 0.0);
        self.h.resize(rows_after * self.d, 0.0);
        // Same fresh-row sentinel as ensure_row: δ' < 0 admits distance 0.
        self.prev_delta.resize(rows_after, -1.0);
        self.lsize.resize(rows_after, 0);
        let m_rows: Vec<&[f32]> = fresh_points.iter().map(|&m| data.row(m)).collect();
        let mut outs: Vec<&mut [f32]> =
            self.dist[first_new * self.n..].chunks_mut(self.n).collect();
        compute_dist_rows(data, &m_rows, &mut outs, exec);
        out
    }

    pub(crate) fn dist_row(&self, row: usize) -> &[f32] {
        let dist = &self.dist[row * self.n..(row + 1) * self.n];
        debug_assert_finite(dist, "DistCache::dist_row");
        dist
    }

    /// Current sphere size `|L|` of a row (telemetry: ΔL sizes are the
    /// difference of this value across an [`DistCache::advance_row`]).
    pub(crate) fn lsize(&self, row: usize) -> usize {
        self.lsize[row]
    }

    /// Advances row `row` from its previous radius to `delta_cur`,
    /// returning the averaged `X` values and the sphere size.
    pub(crate) fn advance_row(
        &mut self,
        data: &DataMatrix,
        row: usize,
        m_point: usize,
        delta_cur: f32,
        exec: &Executor,
    ) -> (Vec<f64>, usize) {
        let d = self.d;
        let m_row: Vec<f32> = data.row(m_point).to_vec();
        let delta_prev = self.prev_delta[row];
        // Split borrows: the dist row is read-only while h is updated.
        let (dist, h) = (&self.dist, &mut self.h);
        let dist_row = &dist[row * self.n..(row + 1) * self.n];
        debug_assert_finite(dist_row, "DistCache::advance_row");
        let h_row = &mut h[row * d..(row + 1) * d];
        let mut lsize = self.lsize[row];
        update_h_row(
            data, dist_row, &m_row, delta_prev, delta_cur, h_row, &mut lsize, exec,
        );
        self.prev_delta[row] = delta_cur;
        self.lsize[row] = lsize;
        let x: Vec<f64> = if lsize > 0 {
            h_row.iter().map(|&v| v / lsize as f64).collect()
        } else {
            vec![0.0; d]
        };
        (x, lsize)
    }
}

/// The FAST-PROCLUS `X` engine.
pub(crate) struct FastEngine {
    pub(crate) cache: DistCache,
}

impl FastEngine {
    pub(crate) fn new(data: &DataMatrix) -> Self {
        Self {
            cache: DistCache::new(data.n(), data.d()),
        }
    }
}

impl XEngine for FastEngine {
    fn x_matrix(
        &mut self,
        data: &DataMatrix,
        m_data: &[usize],
        mcur: &[usize],
        exec: &Executor,
        rec: &dyn Recorder,
    ) -> (Vec<f64>, Vec<usize>) {
        let k = mcur.len();
        let d = data.d();
        let medoids: Vec<usize> = mcur.iter().map(|&mi| m_data[mi]).collect();

        // Ensure all rows exist (DistFound check, §3). A miss costs one full
        // Dist row (n distances); a hit costs nothing — Theorem 3.1. All
        // misses of the iteration are computed in one cache-blocked batch.
        let rows: Vec<usize> = self
            .cache
            .ensure_rows(data, &medoids, exec)
            .into_iter()
            .map(|(row, fresh)| {
                if fresh {
                    rec.add(counters::DIST_CACHE_MISSES, 1);
                    rec.add(counters::DISTANCES_COMPUTED, data.n() as u64);
                } else {
                    rec.add(counters::DIST_CACHE_HITS, 1);
                }
                row
            })
            .collect();

        // δ_i from the cached rows: same f32 values the baseline computes
        // directly, so the search path is identical.
        let mut x = vec![0.0f64; k * d];
        let mut lsz = vec![0usize; k];
        for i in 0..k {
            debug_assert_finite(self.cache.dist_row(rows[i]), "FastEngine δ-scan");
            let mut delta = f32::INFINITY;
            #[allow(clippy::needless_range_loop)]
            for j in 0..k {
                if i != j {
                    let dist = self.cache.dist_row(rows[i])[medoids[j]];
                    if dist < delta {
                        delta = dist;
                    }
                }
            }
            let l_before = self.cache.lsize(rows[i]);
            let (xi, li) = self
                .cache
                .advance_row(data, rows[i], medoids[i], delta, exec);
            rec.add(counters::DELTA_L_POINTS, l_before.abs_diff(li) as u64);
            x[i * d..(i + 1) * d].copy_from_slice(&xi);
            lsz[i] = li;
        }
        (x, lsz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algo, Config};
    use crate::distance::euclidean;
    use crate::error::Result;
    use crate::params::Params;
    use crate::phases::compute_l::{compute_x_baseline, medoid_deltas};
    use crate::result::Clustering;

    fn run_algo(
        data: &DataMatrix,
        params: &Params,
        algo: Algo,
        threads: usize,
    ) -> Result<Clustering> {
        let config = Config::new(params.clone())
            .with_algo(algo)
            .with_threads(threads);
        crate::run(data, &config).map(|o| o.clusterings[0].clone())
    }

    fn proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
        run_algo(data, params, Algo::Baseline, 1)
    }

    fn fast_proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
        run_algo(data, params, Algo::Fast, 1)
    }

    fn fast_proclus_par(data: &DataMatrix, params: &Params, threads: usize) -> Result<Clustering> {
        run_algo(data, params, Algo::Fast, threads)
    }

    fn blob_data(n: usize) -> DataMatrix {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let c = if i % 3 == 0 {
                    0.0f32
                } else if i % 3 == 1 {
                    40.0
                } else {
                    80.0
                };
                vec![
                    c + ((i * 3) % 13) as f32 * 0.1,
                    c + ((i * 5) % 11) as f32 * 0.1,
                    ((i * 7) % 100) as f32,
                ]
            })
            .collect();
        DataMatrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn incremental_h_matches_direct_recomputation() {
        // Theorem 3.2: advance a row through a sequence of radii and compare
        // X with the from-scratch baseline at every step.
        let data = blob_data(200);
        let exec = Executor::Sequential;
        let mut cache = DistCache::new(data.n(), data.d());
        let m_point = 42usize;
        let (row, fresh) = cache.ensure_row(&data, m_point, &exec);
        assert!(fresh);

        for &delta in &[5.0f32, 20.0, 3.0, 60.0, 0.5, 60.0, 60.0] {
            let (x_inc, l_inc) = cache.advance_row(&data, row, m_point, delta, &exec);
            // Direct recomputation over the same sphere.
            let m_row = data.row(m_point);
            let mut h = vec![0.0f64; data.d()];
            let mut l = 0usize;
            for p in 0..data.n() {
                if euclidean(data.row(p), m_row) <= delta {
                    l += 1;
                    for j in 0..data.d() {
                        h[j] += ((data.get(p, j) - m_row[j]) as f64).abs();
                    }
                }
            }
            assert_eq!(l_inc, l, "sphere size at delta {delta}");
            for j in 0..data.d() {
                let direct = if l > 0 { h[j] / l as f64 } else { 0.0 };
                assert!(
                    (x_inc[j] - direct).abs() < 1e-9,
                    "X mismatch at delta {delta}, dim {j}: {} vs {direct}",
                    x_inc[j]
                );
            }
        }
    }

    #[test]
    fn cache_hits_do_not_recompute() {
        let data = blob_data(100);
        let exec = Executor::Sequential;
        let mut cache = DistCache::new(data.n(), data.d());
        let (r1, fresh1) = cache.ensure_row(&data, 5, &exec);
        let (r2, fresh2) = cache.ensure_row(&data, 5, &exec);
        assert_eq!(r1, r2);
        assert!(fresh1 && !fresh2);
        assert_eq!(cache.rows(), 1);
    }

    #[test]
    fn engine_x_matches_baseline_x() {
        let data = blob_data(300);
        let exec = Executor::Sequential;
        let m_data: Vec<usize> = vec![0, 10, 50, 100, 150, 200, 250];
        let mcur = vec![0usize, 2, 5];
        let medoids: Vec<usize> = mcur.iter().map(|&mi| m_data[mi]).collect();

        let mut engine = FastEngine::new(&data);
        let (x_fast, l_fast) = engine.x_matrix(
            &data,
            &m_data,
            &mcur,
            &exec,
            &proclus_telemetry::NullRecorder,
        );

        let deltas = medoid_deltas(&data, &medoids);
        let (x_base, l_base) = compute_x_baseline(&data, &medoids, &deltas, &exec);

        assert_eq!(l_fast, l_base);
        for (a, b) in x_fast.iter().zip(&x_base) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn fast_equals_baseline_seed_for_seed() {
        let data = blob_data(450);
        let params = Params::new(3, 2).with_a(30).with_b(5).with_seed(11);
        let base = proclus(&data, &params).unwrap();
        let fast = fast_proclus(&data, &params).unwrap();
        assert_eq!(base.medoids, fast.medoids);
        assert_eq!(base.subspaces, fast.subspaces);
        assert_eq!(base.labels, fast.labels);
        assert_eq!(base.iterations, fast.iterations);
        assert!((base.cost - fast.cost).abs() < 1e-9);
    }

    #[test]
    fn fast_par_equals_fast_seq() {
        let data = blob_data(450);
        let params = Params::new(3, 2).with_a(30).with_b(5).with_seed(13);
        let seq = fast_proclus(&data, &params).unwrap();
        let par = fast_proclus_par(&data, &params, 4).unwrap();
        assert_eq!(seq.medoids, par.medoids);
        assert_eq!(seq.labels, par.labels);
    }

    #[test]
    fn batched_ensure_rows_matches_per_row_bitwise() {
        let data = blob_data(237); // odd n exercises the remainder lanes
        for threads in [1usize, 4] {
            let exec = if threads > 1 {
                Executor::Parallel { threads }
            } else {
                Executor::Sequential
            };
            let medoids = [3usize, 50, 111, 200, 50]; // one duplicate: a hit
            let mut per_row = DistCache::new(data.n(), data.d());
            let singles: Vec<(usize, bool)> = medoids
                .iter()
                .map(|&m| per_row.ensure_row(&data, m, &exec))
                .collect();
            let mut batched = DistCache::new(data.n(), data.d());
            let batch = batched.ensure_rows(&data, &medoids, &exec);
            assert_eq!(batch, singles);
            for &(row, _) in &batch {
                let (a, b) = (per_row.dist_row(row), batched.dist_row(row));
                assert!(
                    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "row {row} diverged (threads {threads})"
                );
            }
        }
    }

    #[test]
    fn cache_bytes_grow_with_rows() {
        let data = blob_data(100);
        let exec = Executor::Sequential;
        let mut cache = DistCache::new(data.n(), data.d());
        let b0 = cache.bytes();
        cache.ensure_row(&data, 1, &exec);
        let b1 = cache.bytes();
        cache.ensure_row(&data, 2, &exec);
        let b2 = cache.bytes();
        assert!(b0 < b1 && b1 < b2);
        assert_eq!(b2 - b1, b1 - b0, "per-row cost is constant");
    }
}
