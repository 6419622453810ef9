//! End-to-end equivalence: for equal seeds, every GPU variant must return
//! the same clustering as its CPU counterpart (the paper's correctness
//! claim, §5.1: "GPU-PROCLUS and all the algorithmic strategies produce the
//! same clustering as PROCLUS").

use datagen::synthetic::{generate, SyntheticConfig};
use gpu_sim::{Device, DeviceConfig};
use proclus::{run, Algo, Clustering, Config, DataMatrix, Params};

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

fn cpu(data: &DataMatrix, params: &Params, algo: Algo) -> proclus::Result<Clustering> {
    let config = Config::new(params.clone()).with_algo(algo);
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

fn dataset() -> DataMatrix {
    let cfg = SyntheticConfig {
        n: 1200,
        d: 8,
        num_clusters: 4,
        subspace_dims: 3,
        std_dev: 3.0,
        value_range: (0.0, 100.0),
        noise_fraction: 0.0,
        seed: 99,
    };
    let mut g = generate(&cfg);
    g.data.minmax_normalize();
    g.data
}

fn params(seed: u64) -> Params {
    Params::new(4, 3).with_a(30).with_b(5).with_seed(seed)
}

fn device() -> Device {
    let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
    dev.set_deterministic(true);
    dev
}

fn assert_same(cpu: &Clustering, gpu: &Clustering, what: &str) {
    assert_eq!(cpu.medoids, gpu.medoids, "{what}: medoids differ");
    assert_eq!(cpu.subspaces, gpu.subspaces, "{what}: subspaces differ");
    assert_eq!(cpu.labels, gpu.labels, "{what}: labels differ");
    assert_eq!(
        cpu.iterations, gpu.iterations,
        "{what}: iteration counts differ"
    );
    assert!(
        (cpu.cost - gpu.cost).abs() < 1e-9,
        "{what}: cost {} vs {}",
        cpu.cost,
        gpu.cost
    );
}

#[test]
fn gpu_proclus_equals_cpu_proclus() {
    let data = dataset();
    for seed in [1u64, 7] {
        let cpu = proclus(&data, &params(seed)).unwrap();
        let gpu = gpu(&mut device(), &data, &params(seed), Algo::Baseline).unwrap();
        assert_same(&cpu, &gpu, &format!("plain seed {seed}"));
    }
}

#[test]
fn gpu_fast_equals_cpu_fast() {
    let data = dataset();
    let cpu = fast_proclus(&data, &params(3)).unwrap();
    let gpu = gpu(&mut device(), &data, &params(3), Algo::Fast).unwrap();
    assert_same(&cpu, &gpu, "fast");
}

#[test]
fn gpu_fast_star_equals_cpu_fast_star() {
    let data = dataset();
    let cpu = fast_star_proclus(&data, &params(5)).unwrap();
    let gpu = gpu(&mut device(), &data, &params(5), Algo::FastStar).unwrap();
    assert_same(&cpu, &gpu, "fast_star");
}

#[test]
fn all_six_variants_agree_for_one_seed() {
    let data = dataset();
    let p = params(11);
    let reference = proclus(&data, &p).unwrap();
    let all = [
        fast_proclus(&data, &p).unwrap(),
        fast_star_proclus(&data, &p).unwrap(),
        gpu(&mut device(), &data, &p, Algo::Baseline).unwrap(),
        gpu(&mut device(), &data, &p, Algo::Fast).unwrap(),
        gpu(&mut device(), &data, &p, Algo::FastStar).unwrap(),
    ];
    for (i, c) in all.iter().enumerate() {
        assert_same(&reference, c, &format!("variant {i}"));
    }
}

#[test]
fn gpu_run_reports_device_activity() {
    let data = dataset();
    let mut dev = device();
    let _ = gpu(&mut dev, &data, &params(2), Algo::Fast).unwrap();
    let rep = dev.report();
    assert!(rep.launches > 10, "expected many kernel launches");
    assert!(rep.elapsed_us > 0.0);
    assert_eq!(rep.mem_used, 0, "run must free all device memory");
    assert!(rep.kernels.contains_key("assign.points"));
    assert!(rep.kernels.contains_key("evaluate.cost"));
}
