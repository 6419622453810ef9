//! The equivalence matrix: a randomized sweep of datasets × parameters,
//! running all six algorithm variants on each configuration and asserting
//! they agree. This is the broad-net companion to the targeted tests in
//! `equivalence.rs` / `gpu_vs_cpu.rs` — its job is to catch divergence in
//! corners nobody thought to write a targeted test for.

use datagen::synthetic::{generate, SyntheticConfig};
use gpu_sim::{Device, DeviceConfig};
use proclus::{run, Algo, Clustering, DataMatrix, Params};

/// One run of `algo` on the simulated `dev`.
fn gpu(
    dev: &mut Device,
    data: &DataMatrix,
    params: &Params,
    algo: Algo,
) -> proclus::Result<Clustering> {
    let config = proclus::Config::new(params.clone())
        .with_algo(algo)
        .with_backend(proclus::Backend::Gpu);
    proclus_gpu::run_on(dev, data, &config)
        .map(|o| o.clusterings.into_iter().next().expect("one clustering"))
}

fn cpu(data: &DataMatrix, params: &Params, algo: Algo) -> proclus::Result<Clustering> {
    let config = proclus::Config::new(params.clone()).with_algo(algo);
    run(data, &config).map(|o| o.clusterings.into_iter().next().expect("one clustering"))
}

fn proclus(data: &DataMatrix, params: &Params) -> proclus::Result<Clustering> {
    cpu(data, params, Algo::Baseline)
}

fn fast_proclus(data: &DataMatrix, params: &Params) -> proclus::Result<Clustering> {
    cpu(data, params, Algo::Fast)
}

fn fast_star_proclus(data: &DataMatrix, params: &Params) -> proclus::Result<Clustering> {
    cpu(data, params, Algo::FastStar)
}

struct Config {
    data: DataMatrix,
    params: Params,
    tag: String,
}

/// Deterministic pseudo-random configuration grid.
fn configurations() -> Vec<Config> {
    let mut out = Vec::new();
    for (i, &(n, d, clusters, sub, noise)) in [
        (300usize, 4usize, 2usize, 2usize, 0.0f64),
        (450, 6, 3, 2, 0.05),
        (600, 8, 4, 4, 0.0),
        (800, 5, 3, 3, 0.10),
        (1000, 12, 5, 5, 0.02),
        (350, 7, 2, 6, 0.0),
    ]
    .iter()
    .enumerate()
    {
        let mut g = generate(&SyntheticConfig {
            n,
            d,
            num_clusters: clusters,
            subspace_dims: sub,
            std_dev: 2.0 + i as f32,
            value_range: (0.0, 100.0),
            noise_fraction: noise,
            seed: 1000 + i as u64,
        });
        g.data.minmax_normalize();

        let k = clusters.max(2);
        let l = 2 + (i % 3).min(d - 2);
        let params = Params::new(k, l)
            .with_a((10 + 5 * i).min(n / k))
            .with_b(3 + i % 3)
            .with_min_dev(0.4 + 0.1 * (i % 4) as f64)
            .with_itr_pat(2 + i % 5)
            .with_seed(777 + i as u64);
        out.push(Config {
            data: g.data,
            params,
            tag: format!("cfg{i} (n={n}, d={d}, k={k}, l={l})"),
        });
    }
    out
}

fn assert_same(a: &Clustering, b: &Clustering, what: &str) {
    assert_eq!(a.medoids, b.medoids, "{what}: medoids");
    assert_eq!(a.labels, b.labels, "{what}: labels");
    assert_eq!(a.subspaces, b.subspaces, "{what}: subspaces");
    assert!((a.cost - b.cost).abs() < 1e-9, "{what}: cost");
}

#[test]
fn all_variants_agree_across_the_configuration_matrix() {
    for cfg in configurations() {
        if cfg.params.validate(&cfg.data).is_err() {
            panic!("{}: configuration should be valid", cfg.tag);
        }
        let reference = proclus(&cfg.data, &cfg.params).unwrap();
        reference
            .validate_structure(cfg.data.n(), cfg.data.d(), cfg.params.l)
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.tag));

        assert_same(
            &reference,
            &fast_proclus(&cfg.data, &cfg.params).unwrap(),
            &format!("{} fast", cfg.tag),
        );
        assert_same(
            &reference,
            &fast_star_proclus(&cfg.data, &cfg.params).unwrap(),
            &format!("{} fast*", cfg.tag),
        );

        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        dev.set_deterministic(true);
        assert_same(
            &reference,
            &gpu(&mut dev, &cfg.data, &cfg.params, Algo::Baseline).unwrap(),
            &format!("{} gpu", cfg.tag),
        );
        assert_same(
            &reference,
            &gpu(&mut dev, &cfg.data, &cfg.params, Algo::Fast).unwrap(),
            &format!("{} gpu-fast", cfg.tag),
        );
        assert_same(
            &reference,
            &gpu(&mut dev, &cfg.data, &cfg.params, Algo::FastStar).unwrap(),
            &format!("{} gpu-fast*", cfg.tag),
        );
        assert_eq!(dev.mem_used(), 0, "{}: device memory leaked", cfg.tag);
    }
}

#[test]
fn matrix_holds_on_both_device_presets() {
    let cfg = &configurations()[2];
    let reference = proclus(&cfg.data, &cfg.params).unwrap();
    for device_cfg in [DeviceConfig::gtx_1660_ti(), DeviceConfig::rtx_3090()] {
        let mut dev = Device::new(device_cfg);
        dev.set_deterministic(true);
        let got = gpu(&mut dev, &cfg.data, &cfg.params, Algo::Fast).unwrap();
        assert_same(&reference, &got, &dev.config().name.clone());
    }
}
