//! FAST*-PROCLUS (§3.2): the space-reduced variant. Instead of caching
//! `Dist`/`H` for all `B·k` potential medoids (`O(B·k·n)` space), only the
//! `k` rows of the *current* medoids are kept (`O(k·n)`), and a row is
//! recomputed from scratch whenever its slot's medoid changes (the `MBad`
//! replacements). Because bad-medoid replacement preserves slot positions
//! (see [`crate::phases::bad_medoids::replace_bad_medoids`]), unchanged
//! slots keep their caches from iteration `t − 1`.

use proclus_telemetry::{counters, Recorder};

use crate::dataset::DataMatrix;
use crate::distance_simd::debug_assert_finite;
use crate::driver::XEngine;
use crate::fast::{compute_dist_rows, update_h_row};
use crate::par::Executor;

/// The FAST*-PROCLUS `X` engine: per-slot caches of size `k`.
pub(crate) struct FastStarEngine {
    n: usize,
    d: usize,
    /// The medoid (as an index into `M`) each slot's cache belongs to.
    prev_mcur: Vec<Option<usize>>,
    dist: Vec<f32>,       // k × n
    h: Vec<f64>,          // k × d
    prev_delta: Vec<f32>, // per slot
    lsize: Vec<usize>,    // per slot
}

impl FastStarEngine {
    pub(crate) fn new(data: &DataMatrix, k: usize) -> Self {
        Self {
            n: data.n(),
            d: data.d(),
            prev_mcur: vec![None; k],
            dist: vec![0.0; k * data.n()],
            h: vec![0.0; k * data.d()],
            prev_delta: vec![-1.0; k],
            lsize: vec![0; k],
        }
    }

    /// Logical bytes held: `k·n` distances + `k·d` sums — a factor `B`
    /// smaller than FAST's cache, the point of the variant.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn bytes(&self) -> usize {
        self.dist.len() * 4 + self.h.len() * 8 + self.prev_delta.len() * (4 + 8)
    }
}

impl XEngine for FastStarEngine {
    fn x_matrix(
        &mut self,
        data: &DataMatrix,
        m_data: &[usize],
        mcur: &[usize],
        exec: &Executor,
        rec: &dyn Recorder,
    ) -> (Vec<f64>, Vec<usize>) {
        let k = mcur.len();
        let (n, d) = (self.n, self.d);
        let medoids: Vec<usize> = mcur.iter().map(|&mi| m_data[mi]).collect();

        // Reset the slots whose medoid changed (the i ∈ MBad of §3.2):
        // recompute the distance row and clear δ', |L|, H. A surviving slot
        // is a cache hit; a reset slot costs n fresh distances. All reset
        // rows are recomputed in one cache-blocked batch.
        let mut reset = vec![false; k];
        for i in 0..k {
            if self.prev_mcur[i] != Some(mcur[i]) {
                self.prev_mcur[i] = Some(mcur[i]);
                self.prev_delta[i] = -1.0;
                self.lsize[i] = 0;
                self.h[i * d..(i + 1) * d].fill(0.0);
                reset[i] = true;
                rec.add(counters::DIST_CACHE_MISSES, 1);
                rec.add(counters::DISTANCES_COMPUTED, n as u64);
            } else {
                rec.add(counters::DIST_CACHE_HITS, 1);
            }
        }
        if reset.iter().any(|&r| r) {
            let m_rows: Vec<&[f32]> = (0..k)
                .filter(|&i| reset[i])
                .map(|i| data.row(medoids[i]))
                .collect();
            let mut outs: Vec<&mut [f32]> = self
                .dist
                .chunks_mut(n)
                .enumerate()
                .filter(|(i, _)| reset[*i])
                .map(|(_, row)| row)
                .collect();
            compute_dist_rows(data, &m_rows, &mut outs, exec);
        }

        // δ_i from the slot rows, then the ΔL update per slot.
        let mut x = vec![0.0f64; k * d];
        let mut lsz = vec![0usize; k];
        for i in 0..k {
            debug_assert_finite(&self.dist[i * n..(i + 1) * n], "FastStarEngine δ-scan");
            let mut delta = f32::INFINITY;
            #[allow(clippy::needless_range_loop)]
            for j in 0..k {
                if i != j {
                    let dist = self.dist[i * n + medoids[j]];
                    if dist < delta {
                        delta = dist;
                    }
                }
            }
            let m_row: Vec<f32> = data.row(medoids[i]).to_vec();
            let (dist, h) = (&self.dist, &mut self.h);
            let dist_row = &dist[i * n..(i + 1) * n];
            let h_row = &mut h[i * d..(i + 1) * d];
            let mut lsize = self.lsize[i];
            let l_before = lsize;
            update_h_row(
                data,
                dist_row,
                &m_row,
                self.prev_delta[i],
                delta,
                h_row,
                &mut lsize,
                exec,
            );
            self.prev_delta[i] = delta;
            self.lsize[i] = lsize;
            rec.add(counters::DELTA_L_POINTS, l_before.abs_diff(lsize) as u64);
            lsz[i] = lsize;
            if lsize > 0 {
                for j in 0..d {
                    x[i * d + j] = h_row[j] / lsize as f64;
                }
            }
        }
        (x, lsz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algo, Config};
    use crate::error::Result;
    use crate::fast::DistCache;
    use crate::params::Params;
    use crate::result::Clustering;

    fn run_seq(
        algo: Algo,
        data: &DataMatrix,
        params: &Params,
        threads: usize,
    ) -> Result<Clustering> {
        let config = Config::new(params.clone())
            .with_algo(algo)
            .with_threads(threads);
        crate::run(data, &config).map(|o| o.clusterings[0].clone())
    }

    fn proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
        run_seq(Algo::Baseline, data, params, 1)
    }

    fn fast_proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
        run_seq(Algo::Fast, data, params, 1)
    }

    fn fast_star_proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
        run_seq(Algo::FastStar, data, params, 1)
    }

    fn fast_star_proclus_par(
        data: &DataMatrix,
        params: &Params,
        threads: usize,
    ) -> Result<Clustering> {
        run_seq(Algo::FastStar, data, params, threads)
    }

    fn blob_data(n: usize) -> DataMatrix {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let c = (i % 4) as f32 * 25.0;
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
    fn fast_star_equals_baseline_and_fast_seed_for_seed() {
        let data = blob_data(400);
        let params = Params::new(4, 2).with_a(25).with_b(5).with_seed(19);
        let base = proclus(&data, &params).unwrap();
        let fast = fast_proclus(&data, &params).unwrap();
        let star = fast_star_proclus(&data, &params).unwrap();
        assert_eq!(base.medoids, star.medoids);
        assert_eq!(base.labels, star.labels);
        assert_eq!(fast.subspaces, star.subspaces);
        assert!((base.cost - star.cost).abs() < 1e-9);
    }

    #[test]
    fn fast_star_par_equals_seq() {
        let data = blob_data(400);
        let params = Params::new(3, 2).with_a(25).with_b(5).with_seed(23);
        let seq = fast_star_proclus(&data, &params).unwrap();
        let par = fast_star_proclus_par(&data, &params, 4).unwrap();
        assert_eq!(seq.medoids, par.medoids);
        assert_eq!(seq.labels, par.labels);
    }

    #[test]
    fn space_is_a_factor_b_smaller_than_fast() {
        let data = blob_data(500);
        let k = 4;
        let b = 5;
        let star = FastStarEngine::new(&data, k);
        // Simulate a fully-populated FAST cache: B·k rows.
        let mut cache = DistCache::new(data.n(), data.d());
        for m in 0..k * b {
            cache.ensure_row(&data, m * 7, &Executor::Sequential);
        }
        let ratio = cache.bytes() as f64 / star.bytes() as f64;
        assert!(
            (ratio - b as f64).abs() < 0.5,
            "expected ~{b}x space ratio, got {ratio:.2}"
        );
    }

    #[test]
    fn slot_reuse_survives_unchanged_medoids() {
        // Drive the engine manually: same mcur twice must not reset slots
        // (prev_delta persists), while a changed slot resets.
        let data = blob_data(200);
        let exec = Executor::Sequential;
        let m_data: Vec<usize> = (0..20).map(|i| i * 10).collect();
        let rec = proclus_telemetry::NullRecorder;
        let mut engine = FastStarEngine::new(&data, 3);
        let mcur = vec![1usize, 5, 9];
        let _ = engine.x_matrix(&data, &m_data, &mcur, &exec, &rec);
        let deltas_after_first = engine.prev_delta.clone();
        assert!(deltas_after_first.iter().any(|&d| d > 0.0));
        let _ = engine.x_matrix(&data, &m_data, &mcur, &exec, &rec);
        assert_eq!(engine.prev_delta, deltas_after_first);

        let mcur2 = vec![1usize, 7, 9]; // slot 1 replaced
        let _ = engine.x_matrix(&data, &m_data, &mcur2, &exec, &rec);
        assert_eq!(engine.prev_mcur[1], Some(7));
    }
}
