//! Three-way backend equivalence: for equal seeds the CPU, single-GPU and
//! sharded multi-device backends must return the same clustering — the
//! paper's §5.1 correctness claim extended to the data-parallel ensemble.
//!
//! Medoids, subspaces, labels and iteration counts are asserted exactly;
//! the cost is compared within `1e-9` because sharding changes the f64
//! summation order of the `X`/`µ`/cost reductions (partial sums per shard,
//! reduced on the host) without changing any decision the driver takes.

use std::num::NonZeroUsize;

use datagen::synthetic::{generate, SyntheticConfig};
use gpu_sim::{Device, DeviceConfig};
use proclus::multi_param::{ReuseLevel, Setting};
use proclus::par::Executor;
use proclus::{run_grid, Algo, Backend, Clustering, Config, CpuFactory, DataMatrix, Params};
use proclus_gpu::{GpuFactory, ShardedFactory};
use proclus_telemetry::NullRecorder;
use proclus_verify::prop::Gen;

fn dataset() -> DataMatrix {
    let cfg = SyntheticConfig {
        n: 900,
        d: 8,
        num_clusters: 4,
        subspace_dims: 3,
        std_dev: 3.0,
        value_range: (0.0, 100.0),
        noise_fraction: 0.0,
        seed: 42,
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

fn with_devices(p: &Params, d: usize) -> Params {
    p.clone()
        .with_devices(NonZeroUsize::new(d).expect("nonzero device count"))
}

fn run_backend(
    data: &DataMatrix,
    params: &Params,
    algo: Algo,
    backend: Backend,
) -> proclus::Result<Clustering> {
    let config = Config::new(params.clone())
        .with_algo(algo)
        .with_backend(backend);
    let out = match backend {
        Backend::Cpu => proclus::run(data, &config)?,
        Backend::Gpu | Backend::Sharded => proclus_gpu::run_on(&mut device(), data, &config)?,
    };
    Ok(out
        .clusterings
        .into_iter()
        .next()
        .expect("one clustering per solo run"))
}

fn assert_same(reference: &Clustering, got: &Clustering, what: &str) {
    assert_eq!(reference.medoids, got.medoids, "{what}: medoids differ");
    assert_eq!(
        reference.subspaces, got.subspaces,
        "{what}: subspaces differ"
    );
    assert_eq!(reference.labels, got.labels, "{what}: labels differ");
    assert_eq!(
        reference.iterations, got.iterations,
        "{what}: iteration counts differ"
    );
    assert!(
        (reference.cost - got.cost).abs() < 1e-9,
        "{what}: cost {} vs {}",
        reference.cost,
        got.cost
    );
}

#[test]
fn sharded_solo_runs_match_cpu_and_gpu_for_every_algo() {
    let data = dataset();
    for algo in [Algo::Baseline, Algo::Fast, Algo::FastStar] {
        let p = params(7);
        let cpu = run_backend(&data, &p, algo, Backend::Cpu).unwrap();
        let gpu = run_backend(&data, &p, algo, Backend::Gpu).unwrap();
        assert_same(&cpu, &gpu, &format!("{algo:?} gpu"));
        for d in [1usize, 2, 4] {
            let sharded = run_backend(&data, &with_devices(&p, d), algo, Backend::Sharded).unwrap();
            assert_same(&cpu, &sharded, &format!("{algo:?} sharded D={d}"));
        }
    }
}

#[test]
fn sharded_grids_match_cpu_and_gpu_at_every_reuse_level() {
    let data = dataset();
    let base = params(3);
    let settings = vec![Setting::new(4, 3), Setting::new(3, 4), Setting::new(2, 3)];
    for level in [
        ReuseLevel::Independent,
        ReuseLevel::SharedCache,
        ReuseLevel::SharedGreedy,
        ReuseLevel::WarmStart,
    ] {
        let cpu: Vec<Clustering> = run_grid(
            &mut CpuFactory::new(&data, Executor::Sequential, Algo::Fast),
            &base,
            &settings,
            level,
            &NullRecorder,
            &[],
        )
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
        let gpu: Vec<Clustering> = run_grid(
            &mut GpuFactory::new(&mut device(), &data, Algo::Fast),
            &base,
            &settings,
            level,
            &NullRecorder,
            &[],
        )
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
        for (i, (c, g)) in cpu.iter().zip(&gpu).enumerate() {
            assert_same(c, g, &format!("{level:?} setting {i} gpu"));
        }
        for d in [1usize, 2, 4] {
            let sharded_base = with_devices(&base, d);
            let sharded: Vec<Clustering> = run_grid(
                &mut ShardedFactory::new(&mut device(), &data, Algo::Fast),
                &sharded_base,
                &settings,
                level,
                &NullRecorder,
                &[],
            )
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
            for (i, (c, s)) in cpu.iter().zip(&sharded).enumerate() {
                assert_same(c, s, &format!("{level:?} setting {i} sharded D={d}"));
            }
        }
    }
}

#[test]
fn sharded_baseline_grid_matches_the_gpu_baseline_grid() {
    let data = dataset();
    let base = params(5);
    let settings = vec![Setting::new(3, 3), Setting::new(2, 4)];
    let gpu: Vec<Clustering> = run_grid(
        &mut GpuFactory::new(&mut device(), &data, Algo::Baseline),
        &base,
        &settings,
        ReuseLevel::Independent,
        &NullRecorder,
        &[],
    )
    .into_iter()
    .map(|r| r.unwrap())
    .collect();
    for d in [1usize, 2, 4] {
        let sharded: Vec<Clustering> = run_grid(
            &mut ShardedFactory::new(&mut device(), &data, Algo::Baseline),
            &with_devices(&base, d),
            &settings,
            ReuseLevel::Independent,
            &NullRecorder,
            &[],
        )
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
        for (i, (g, s)) in gpu.iter().zip(&sharded).enumerate() {
            assert_same(g, s, &format!("baseline setting {i} sharded D={d}"));
        }
    }
}

/// Degenerate device counts: more devices than points must degrade to the
/// populated shards only (empty shards are dropped) and still match.
#[test]
fn more_devices_than_points_still_matches_the_cpu() {
    let cfg = SyntheticConfig {
        n: 40,
        d: 5,
        num_clusters: 2,
        subspace_dims: 3,
        std_dev: 2.0,
        value_range: (0.0, 50.0),
        noise_fraction: 0.0,
        seed: 9,
    };
    let mut g = generate(&cfg);
    g.data.minmax_normalize();
    let data = g.data;
    let p = Params::new(2, 3).with_a(10).with_b(4).with_seed(13);
    let cpu = run_backend(&data, &p, Algo::Fast, Backend::Cpu).unwrap();
    let sharded = run_backend(
        &data,
        &with_devices(&p, 64), // 64 devices, 40 points
        Algo::Fast,
        Backend::Sharded,
    )
    .unwrap();
    assert_same(&cpu, &sharded, "sharded D=64 > n=40");
}

fn small_matrix(g: &mut Gen) -> DataMatrix {
    let n = g.range(30usize..80);
    let d = g.range(3usize..6);
    let v = g.vec(n * d, |g| g.range(-50.0f32..50.0));
    DataMatrix::from_flat(v, n, d).unwrap()
}

proclus_verify::props! {
    cases = 16;

    /// Pinned three-way equality on arbitrary data: whatever the input,
    /// CPU, single-GPU and the sharded ensemble walk the same medoid path
    /// and emit the same clustering.
    fn cpu_gpu_and_sharded_agree_on_arbitrary_data(g) {
        let data = small_matrix(g);
        let seed = g.range(0u64..1000);
        let devices = g.range(1usize..5);
        let p = Params::new(2, 2).with_a(8).with_b(3).with_seed(seed);
        let cpu = run_backend(&data, &p, Algo::Fast, Backend::Cpu).unwrap();
        let gpu = run_backend(&data, &p, Algo::Fast, Backend::Gpu).unwrap();
        let sharded = run_backend(
            &data,
            &with_devices(&p, devices),
            Algo::Fast,
            Backend::Sharded,
        )
        .unwrap();
        assert_same(&cpu, &gpu, "property gpu");
        assert_same(&cpu, &sharded, &format!("property sharded D={devices}"));
    }
}
