//! Whole-pipeline integration: datagen → normalize → cluster → metrics →
//! CSV roundtrip, plus the device-facing failure modes a user will hit
//! (OOM, unsupported configurations) and simulator reporting guarantees.

use std::path::PathBuf;

use datagen::io::{load_csv, write_csv};
use datagen::synthetic::{generate, SyntheticConfig};
use gpu_sim::{Device, DeviceConfig};
use proclus::{run, Algo, Clustering, Config, DataMatrix, Params, ProclusError};

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

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "proclus-pipeline-{name}-{}.csv",
        std::process::id()
    ))
}

#[test]
fn csv_roundtrip_preserves_clustering() {
    let mut g = generate(&SyntheticConfig {
        n: 400,
        d: 6,
        num_clusters: 3,
        subspace_dims: 3,
        std_dev: 3.0,
        value_range: (0.0, 100.0),
        noise_fraction: 0.0,
        seed: 77,
    });
    g.data.minmax_normalize();
    let params = Params::new(3, 3).with_a(20).with_b(4).with_seed(2);
    let before = fast_proclus(&g.data, &params).unwrap();

    let path = tmp("roundtrip");
    write_csv(&path, &g.data, Some(&g.labels)).unwrap();
    let loaded = load_csv(&path, false, Some(g.data.d())).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded.data, g.data);
    assert_eq!(loaded.labels.as_deref(), Some(&g.labels[..]));
    let after = fast_proclus(&loaded.data, &params).unwrap();
    assert_eq!(before, after, "clustering must survive the CSV roundtrip");
}

#[test]
fn realworld_standins_cluster_end_to_end() {
    for name in ["glass", "vowel"] {
        let g = datagen::realworld::by_name(name, 3).unwrap();
        // Tiny datasets: shrink the sample so the defaults fit.
        let params = Params::new(4, 3).with_a(10).with_b(4).with_seed(5);
        let c = fast_proclus(&g.data, &params).unwrap();
        c.validate_structure(g.data.n(), g.data.d(), 3)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn gpu_oom_is_a_clean_error_not_a_panic() {
    let g = generate(&SyntheticConfig::new(20_000, 10).with_seed(1));
    let mut dev = Device::new(DeviceConfig::gtx_1660_ti().with_memory_limit(1_000_000));
    let err = gpu(&mut dev, &g.data, &Params::new(5, 3), Algo::Fast).unwrap_err();
    match err {
        ProclusError::Device { reason } if reason.contains("out of memory") => {}
        other => panic!("expected OOM, got {other}"),
    }
}

#[test]
fn unsupported_gpu_configs_are_rejected_up_front() {
    let g = generate(
        &SyntheticConfig::new(5_000, 10)
            .with_clusters(10)
            .with_seed(1),
    );
    let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
    // k > 128 exceeds the AssignPoints block.
    let err = gpu(
        &mut dev,
        &g.data,
        &Params::new(200, 3).with_a(5).with_b(2),
        Algo::Fast,
    );
    assert!(matches!(err, Err(ProclusError::Unsupported { .. })));
}

#[test]
fn device_time_is_reset_per_fresh_device_and_accumulates_within() {
    let mut g = generate(&SyntheticConfig::new(2_000, 8).with_seed(9));
    g.data.minmax_normalize();
    let params = Params::new(3, 3).with_a(20).with_b(4).with_seed(1);
    let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
    gpu(&mut dev, &g.data, &params, Algo::Fast).unwrap();
    let t1 = dev.elapsed_us();
    gpu(&mut dev, &g.data, &params, Algo::Fast).unwrap();
    let t2 = dev.elapsed_us();
    assert!(t2 > t1, "clock accumulates across runs on one device");
    assert!(
        t2 < 2.5 * t1 && t2 > 1.5 * t1,
        "second identical run should cost about the same: {t1} then {t2}"
    );
}

#[test]
fn bigger_device_is_never_slower_in_the_model() {
    let mut g = generate(&SyntheticConfig::new(32_000, 15).with_seed(4));
    g.data.minmax_normalize();
    let params = Params::new(10, 5).with_seed(6);
    let time_on = |cfg: DeviceConfig| {
        let mut dev = Device::new(cfg);
        gpu(&mut dev, &g.data, &params, Algo::Fast).unwrap();
        dev.elapsed_us()
    };
    let small = time_on(DeviceConfig::gtx_1660_ti());
    let big = time_on(DeviceConfig::rtx_3090());
    assert!(
        big <= small,
        "RTX 3090 model must not be slower than GTX 1660 Ti: {big} vs {small}"
    );
}

#[test]
fn quickstart_documented_flow_works() {
    // The README's five-line flow, as a test.
    let gen = generate(
        &SyntheticConfig::new(1_000, 8)
            .with_clusters(3)
            .with_seed(12),
    );
    let mut data = gen.data;
    data.minmax_normalize();
    let clustering = fast_proclus(&data, &Params::new(3, 3).with_seed(1)).unwrap();
    assert_eq!(clustering.k(), 3);
    assert_eq!(clustering.labels.len(), 1_000);
    assert!(clustering.cost.is_finite());
}
