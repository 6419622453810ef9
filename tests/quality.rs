//! Cluster-recovery quality on planted subspace data. The paper argues all
//! variants return the same clustering and evaluates runtime only; these
//! tests make sure that clustering is actually *good* when the data has
//! clear projected structure — i.e. the implementation earns the "still
//! competitive" claim PROCLUS carries (§1).

use datagen::synthetic::{generate, SyntheticConfig};
use gpu_sim::{Device, DeviceConfig};
use proclus::metrics::{adjusted_rand_index, normalized_mutual_information, purity};
use proclus::metrics_subspace::{ce, clusters_from_labels, rnia, SubspaceCluster};
use proclus::{run, Algo, Clustering, Config, DataMatrix, Params, OUTLIER};

/// One run of `algo` on the simulated `dev`.
fn gpu(
    dev: &mut Device,
    data: &DataMatrix,
    params: &Params,
    algo: Algo,
) -> proclus::Result<Clustering> {
    let config = Config::new(params.clone())
        .with_algo(algo)
        .with_backend(proclus::Backend::Gpu);
    proclus_gpu::run_on(dev, data, &config)
        .map(|o| o.clusterings.into_iter().next().expect("one clustering"))
}

fn fast_proclus(data: &DataMatrix, params: &Params) -> proclus::Result<Clustering> {
    run(data, &Config::new(params.clone()))
        .map(|o| o.clusterings.into_iter().next().expect("one clustering"))
}

fn well_separated(seed: u64) -> datagen::GeneratedData {
    let mut g = generate(&SyntheticConfig {
        n: 3000,
        d: 12,
        num_clusters: 5,
        subspace_dims: 4,
        std_dev: 2.0,
        value_range: (0.0, 100.0),
        noise_fraction: 0.0,
        seed,
    });
    g.data.minmax_normalize();
    g
}

#[test]
fn recovers_planted_clusters_with_high_ari() {
    let g = well_separated(1);
    let params = Params::new(5, 4).with_seed(3);
    let c = fast_proclus(&g.data, &params).unwrap();
    let ari = adjusted_rand_index(&g.labels, &c.labels);
    let nmi = normalized_mutual_information(&g.labels, &c.labels);
    assert!(ari > 0.8, "ARI {ari} too low");
    assert!(nmi > 0.8, "NMI {nmi} too low");
    assert!(purity(&g.labels, &c.labels) > 0.9);
}

#[test]
fn recovers_the_planted_subspaces() {
    let g = well_separated(2);
    let params = Params::new(5, 4).with_seed(5);
    let c = fast_proclus(&g.data, &params).unwrap();

    // Match each found cluster to the planted cluster with most overlap,
    // then check subspace agreement.
    let mut total_hits = 0usize;
    let mut total_dims = 0usize;
    for (i, members) in c.clusters().iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let mut votes = [0usize; 5];
        for &p in members {
            if g.labels[p] >= 0 {
                votes[g.labels[p] as usize] += 1;
            }
        }
        let planted = votes.iter().enumerate().max_by_key(|(_, &v)| v).unwrap().0;
        let truth = &g.subspaces[planted];
        total_hits += c.subspaces[i].iter().filter(|j| truth.contains(j)).count();
        total_dims += c.subspaces[i].len();
    }
    let precision = total_hits as f64 / total_dims as f64;
    assert!(
        precision > 0.7,
        "only {precision:.2} of selected dims are planted dims"
    );
}

#[test]
fn gpu_variant_has_identical_quality() {
    let g = well_separated(3);
    let params = Params::new(5, 4).with_seed(9);
    let cpu = fast_proclus(&g.data, &params).unwrap();
    let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
    dev.set_deterministic(true);
    let gpu = gpu(&mut dev, &g.data, &params, Algo::Fast).unwrap();
    assert_eq!(
        adjusted_rand_index(&g.labels, &cpu.labels),
        adjusted_rand_index(&g.labels, &gpu.labels)
    );
}

#[test]
fn noise_points_end_up_as_outliers_more_often_than_members() {
    let mut g = generate(&SyntheticConfig {
        n: 2000,
        d: 10,
        num_clusters: 4,
        subspace_dims: 4,
        std_dev: 1.5,
        value_range: (0.0, 100.0),
        noise_fraction: 0.1,
        seed: 8,
    });
    g.data.minmax_normalize();
    let c = fast_proclus(&g.data, &Params::new(4, 4).with_seed(2)).unwrap();
    let mut noise_outlier = 0usize;
    let mut noise_total = 0usize;
    let mut member_outlier = 0usize;
    let mut member_total = 0usize;
    for (p, &truth) in g.labels.iter().enumerate() {
        if truth == -1 {
            noise_total += 1;
            if c.labels[p] == OUTLIER {
                noise_outlier += 1;
            }
        } else {
            member_total += 1;
            if c.labels[p] == OUTLIER {
                member_outlier += 1;
            }
        }
    }
    let noise_rate = noise_outlier as f64 / noise_total as f64;
    let member_rate = member_outlier as f64 / member_total as f64;
    assert!(
        noise_rate > member_rate,
        "outlier flagging should prefer noise: noise {noise_rate:.3} vs members {member_rate:.3}"
    );
}

#[test]
fn quality_degrades_gracefully_with_overlap() {
    // Increasing σ should not crash anything and ARI should fall, not
    // oscillate wildly. (Smoke check over the generator's σ knob, Fig. 2f.)
    let mut last_ari = 1.1f64;
    let mut decreases = 0;
    for (i, std_dev) in [1.0f32, 6.0, 20.0].into_iter().enumerate() {
        let mut g = generate(&SyntheticConfig {
            n: 1500,
            d: 10,
            num_clusters: 4,
            subspace_dims: 4,
            std_dev,
            value_range: (0.0, 100.0),
            noise_fraction: 0.0,
            seed: 10 + i as u64,
        });
        g.data.minmax_normalize();
        let c = fast_proclus(&g.data, &Params::new(4, 4).with_seed(4)).unwrap();
        let ari = adjusted_rand_index(&g.labels, &c.labels);
        if ari < last_ari {
            decreases += 1;
        }
        last_ari = ari;
    }
    assert!(decreases >= 1, "ARI should drop as clusters overlap");
}

#[test]
fn subspace_aware_metrics_score_high_on_planted_data() {
    // RNIA/CE compare (point, dimension) cells, so they also verify that
    // FindDimensions recovered the right projections — which ARI cannot.
    let g = well_separated(4);
    let c = fast_proclus(&g.data, &Params::new(5, 4).with_seed(6)).unwrap();
    let truth: Vec<SubspaceCluster> = (0..5)
        .map(|i| {
            SubspaceCluster::new(
                g.labels
                    .iter()
                    .enumerate()
                    .filter(|(_, &l)| l == i as i32)
                    .map(|(p, _)| p)
                    .collect(),
                g.subspaces[i].clone(),
            )
        })
        .collect();
    let found = clusters_from_labels(&c.labels, &c.subspaces);
    let rnia_score = rnia(&truth, &found);
    let ce_score = ce(&truth, &found);
    assert!(rnia_score > 0.6, "RNIA {rnia_score}");
    assert!(ce_score > 0.55, "CE {ce_score}");
    assert!(ce_score <= rnia_score + 1e-12, "CE cannot exceed RNIA");
}

#[test]
fn subspace_metrics_punish_a_fullspace_answer() {
    // The same point partition declared in the FULL space must score far
    // lower than the projected answer — the reason projected clustering
    // exists.
    let g = well_separated(5);
    let c = fast_proclus(&g.data, &Params::new(5, 4).with_seed(8)).unwrap();
    let truth: Vec<SubspaceCluster> = (0..5)
        .map(|i| {
            SubspaceCluster::new(
                g.labels
                    .iter()
                    .enumerate()
                    .filter(|(_, &l)| l == i as i32)
                    .map(|(p, _)| p)
                    .collect(),
                g.subspaces[i].clone(),
            )
        })
        .collect();
    let projected = clusters_from_labels(&c.labels, &c.subspaces);
    let fullspace: Vec<SubspaceCluster> =
        clusters_from_labels(&c.labels, &vec![(0..g.data.d()).collect::<Vec<_>>(); 5]);
    assert!(
        rnia(&truth, &projected) > rnia(&truth, &fullspace) + 0.15,
        "projected {} vs fullspace {}",
        rnia(&truth, &projected),
        rnia(&truth, &fullspace)
    );
}
