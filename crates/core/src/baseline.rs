//! The baseline PROCLUS algorithm (Aggarwal et al., SIGMOD '99, as
//! summarized in §2.1 of the EDBT '22 paper): every iteration recomputes
//! all point-to-medoid distances and distance sums from scratch.

use proclus_telemetry::{counters, Recorder};

use crate::dataset::DataMatrix;
use crate::driver::XEngine;
use crate::par::Executor;
use crate::phases::compute_l::{compute_x_baseline, medoid_deltas};

/// The baseline `X` engine: ComputeL + FindDimensions sums recomputed every
/// iteration — the `O(n · k · d)` cost FAST-PROCLUS eliminates.
pub(crate) struct BaselineEngine;

impl XEngine for BaselineEngine {
    fn x_matrix(
        &mut self,
        data: &DataMatrix,
        m_data: &[usize],
        mcur: &[usize],
        exec: &Executor,
        rec: &dyn Recorder,
    ) -> (Vec<f64>, Vec<usize>) {
        let medoids: Vec<usize> = mcur.iter().map(|&mi| m_data[mi]).collect();
        let k = medoids.len();
        // k·(k−1) medoid-pair deltas plus a full n·k sphere recomputation —
        // the from-scratch cost the Dist/H caches eliminate.
        rec.add(
            counters::DISTANCES_COMPUTED,
            (k * (k - 1) + data.n() * k) as u64,
        );
        let deltas = medoid_deltas(data, &medoids);
        compute_x_baseline(data, &medoids, &deltas, exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algo, Config};
    use crate::error::Result;
    use crate::params::Params;
    use crate::result::{Clustering, OUTLIER};

    fn proclus_par(data: &DataMatrix, params: &Params, threads: usize) -> Result<Clustering> {
        let config = Config::new(params.clone())
            .with_algo(Algo::Baseline)
            .with_threads(threads);
        crate::run(data, &config).map(|o| o.clusterings[0].clone())
    }

    fn proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
        proclus_par(data, params, 1)
    }

    /// Two well-separated Gaussian-ish blobs in dims {0,1} of 4-D data.
    fn blob_data(n: usize) -> DataMatrix {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0f32 } else { 50.0 };
                let noise = |s: usize| ((i * s) % 17) as f32 * 0.05;
                vec![
                    c + noise(3),
                    c + noise(5),
                    ((i * 7) % 100) as f32, // wild dim
                    ((i * 11) % 100) as f32,
                ]
            })
            .collect();
        DataMatrix::from_rows(&rows).unwrap()
    }

    fn small_params() -> Params {
        Params::new(2, 2).with_a(30).with_b(5).with_seed(7)
    }

    #[test]
    fn produces_structurally_valid_clustering() {
        let data = blob_data(400);
        let result = proclus(&data, &small_params()).unwrap();
        result.validate_structure(400, 4, 2).unwrap();
        assert!(result.iterations >= 1);
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let data = blob_data(400);
        let result = proclus(&data, &small_params()).unwrap();
        // Points with even index form one blob; odd the other. Measure the
        // majority agreement of non-outliers.
        let mut agree = [[0usize; 2]; 2];
        for (p, &lab) in result.labels.iter().enumerate() {
            if lab >= 0 {
                agree[p % 2][lab as usize] += 1;
            }
        }
        let correct = agree[0][0].max(agree[0][1]) + agree[1][0].max(agree[1][1]);
        let total: usize = agree.iter().flatten().sum();
        assert!(
            correct as f64 / total as f64 > 0.95,
            "blob recovery too poor: {agree:?}"
        );
    }

    #[test]
    fn finds_the_clustered_subspace() {
        let data = blob_data(400);
        let result = proclus(&data, &small_params()).unwrap();
        for s in &result.subspaces {
            assert!(
                s.contains(&0) || s.contains(&1),
                "subspaces should prefer the clustered dims, got {s:?}"
            );
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let data = blob_data(300);
        let a = proclus(&data, &small_params()).unwrap();
        let b = proclus(&data, &small_params()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_may_differ_but_stay_valid() {
        let data = blob_data(300);
        for seed in [1u64, 2, 3] {
            let r = proclus(&data, &small_params().with_seed(seed)).unwrap();
            r.validate_structure(300, 4, 2).unwrap();
        }
    }

    #[test]
    fn parallel_follows_the_same_search_path() {
        let data = blob_data(400);
        let p = small_params();
        let seq = proclus(&data, &p).unwrap();
        let par = proclus_par(&data, &p, 4).unwrap();
        assert_eq!(seq.medoids, par.medoids);
        assert_eq!(seq.subspaces, par.subspaces);
        assert_eq!(seq.labels, par.labels);
        assert!((seq.cost - par.cost).abs() < 1e-9);
    }

    #[test]
    fn isolated_point_becomes_outlier() {
        let mut rows: Vec<Vec<f32>> = (0..200)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0f32 } else { 30.0 };
                vec![
                    c + ((i * 3) % 10) as f32 * 0.1,
                    c + ((i * 5) % 10) as f32 * 0.1,
                ]
            })
            .collect();
        rows.push(vec![1.0e4, -1.0e4]);
        let data = DataMatrix::from_rows(&rows).unwrap();
        let result = proclus(&data, &small_params()).unwrap();
        assert_eq!(result.labels[200], OUTLIER);
    }

    #[test]
    fn rejects_invalid_params() {
        let data = blob_data(100);
        assert!(proclus(&data, &Params::new(1, 2)).is_err());
    }
}
