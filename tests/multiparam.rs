//! Multi-parameter runs (§3.1): all reuse levels produce valid clusterings
//! for every setting, on CPU and GPU, and the GPU multi runner agrees with
//! the CPU one seed-for-seed at each level.

use datagen::synthetic::{generate, SyntheticConfig};
use gpu_sim::{Device, DeviceConfig};
use proclus::multi_param::{ReuseLevel, Setting};
use proclus::telemetry::NullRecorder;
use proclus::{default_grid, run_grid, Algo, BackendFactory, Clustering, CpuFactory};
use proclus::{DataMatrix, Params};
use proclus_gpu::GpuFactory;

/// Runs a grid through `factory`; any failed setting fails the call.
fn grid_on(
    factory: &mut dyn BackendFactory,
    base: &Params,
    settings: &[Setting],
    level: ReuseLevel,
) -> proclus::Result<Vec<Clustering>> {
    run_grid(factory, base, settings, level, &NullRecorder, &[])
        .into_iter()
        .collect()
}

fn dataset() -> DataMatrix {
    let mut g = generate(&SyntheticConfig {
        n: 1000,
        d: 8,
        num_clusters: 5,
        subspace_dims: 3,
        std_dev: 3.0,
        value_range: (0.0, 100.0),
        noise_fraction: 0.0,
        seed: 404,
    });
    g.data.minmax_normalize();
    g.data
}

fn grid() -> Vec<Setting> {
    vec![
        Setting::new(3, 2),
        Setting::new(5, 3),
        Setting::new(4, 4),
        Setting::new(5, 2),
    ]
}

fn base() -> Params {
    Params::new(5, 3).with_a(20).with_b(4).with_seed(55)
}

const LEVELS: [ReuseLevel; 4] = [
    ReuseLevel::Independent,
    ReuseLevel::SharedCache,
    ReuseLevel::SharedGreedy,
    ReuseLevel::WarmStart,
];

#[test]
fn cpu_levels_all_valid() {
    let data = dataset();
    let exec = proclus::par::Executor::Sequential;
    for level in LEVELS {
        let results = grid_on(
            &mut CpuFactory::new(&data, exec, Algo::Fast),
            &base(),
            &grid(),
            level,
        )
        .unwrap();
        assert_eq!(results.len(), 4);
        for (s, r) in grid().iter().zip(&results) {
            assert_eq!(r.k(), s.k, "{level:?}");
            r.validate_structure(data.n(), data.d(), s.l)
                .unwrap_or_else(|e| panic!("{level:?} k={}: {e}", s.k));
        }
    }
}

#[test]
fn gpu_levels_match_cpu_levels() {
    let data = dataset();
    let exec = proclus::par::Executor::Sequential;
    for level in LEVELS {
        let cpu = grid_on(
            &mut CpuFactory::new(&data, exec, Algo::Fast),
            &base(),
            &grid(),
            level,
        )
        .unwrap();
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        dev.set_deterministic(true);
        let gpu = grid_on(
            &mut GpuFactory::new(&mut dev, &data, Algo::Fast),
            &base(),
            &grid(),
            level,
        )
        .unwrap();
        for (i, (c, g)) in cpu.iter().zip(&gpu).enumerate() {
            assert_eq!(c.medoids, g.medoids, "{level:?} setting {i}: medoids");
            assert_eq!(c.labels, g.labels, "{level:?} setting {i}: labels");
            assert!(
                (c.cost - g.cost).abs() < 1e-9,
                "{level:?} setting {i}: cost"
            );
        }
    }
}

#[test]
fn gpu_plain_multi_matches_cpu_plain_multi() {
    let data = dataset();
    let exec = proclus::par::Executor::Sequential;
    let cpu = grid_on(
        &mut CpuFactory::new(&data, exec, Algo::Baseline),
        &base(),
        &grid(),
        ReuseLevel::Independent,
    )
    .unwrap();
    let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
    dev.set_deterministic(true);
    let gpu = grid_on(
        &mut GpuFactory::new(&mut dev, &data, Algo::Baseline),
        &base(),
        &grid(),
        ReuseLevel::Independent,
    )
    .unwrap();
    for (i, (c, g)) in cpu.iter().zip(&gpu).enumerate() {
        assert_eq!(c.medoids, g.medoids, "setting {i}");
        assert_eq!(c.labels, g.labels, "setting {i}");
    }
}

#[test]
fn reuse_reduces_device_distance_work() {
    // Level 2 shares one M across settings, so distance rows computed for
    // one setting are hits for the next: total compute_l.dist work must be
    // strictly smaller than with independent runs.
    let data = dataset();
    let work = |level: ReuseLevel| {
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        grid_on(
            &mut GpuFactory::new(&mut dev, &data, Algo::Fast),
            &base(),
            &grid(),
            level,
        )
        .unwrap();
        dev.report()
            .kernels
            .get("compute_l.dist")
            .map(|k| k.work.global_loads)
            .unwrap_or(0)
    };
    let independent = work(ReuseLevel::Independent);
    let shared = work(ReuseLevel::SharedGreedy);
    assert!(
        shared < independent,
        "shared-greedy should compute fewer distances: {shared} vs {independent}"
    );
}

#[test]
fn warm_start_converges_no_slower_on_average() {
    // Heuristic claim (§3.1): initializing from the previous best medoids
    // "may lead to faster convergence". Check total iterations across the
    // grid do not blow up versus independent runs.
    let data = dataset();
    let exec = proclus::par::Executor::Sequential;
    let iters = |level: ReuseLevel| -> usize {
        grid_on(
            &mut CpuFactory::new(&data, exec, Algo::Fast),
            &base(),
            &grid(),
            level,
        )
        .unwrap()
        .iter()
        .map(|c| c.iterations)
        .sum()
    };
    let independent = iters(ReuseLevel::Independent);
    let warm = iters(ReuseLevel::WarmStart);
    assert!(
        warm <= independent * 2,
        "warm start should not drastically slow convergence: {warm} vs {independent}"
    );
}

#[test]
fn default_grid_runs_end_to_end() {
    let data = dataset();
    let exec = proclus::par::Executor::Sequential;
    let grid = default_grid(5, 3);
    assert_eq!(grid.len(), 9);
    let results = grid_on(
        &mut CpuFactory::new(&data, exec, Algo::Fast),
        &Params::new(5, 3).with_a(15).with_b(3).with_seed(1),
        &grid,
        ReuseLevel::WarmStart,
    )
    .unwrap();
    assert_eq!(results.len(), 9);
}

/// The reuse guarantee the property tests rely on: a width-1 grid is a
/// solo run, and the first setting of a largest-k-first grid is
/// bit-identical to its solo run, at every reuse level (nothing the shared
/// levels hoist out of the loop runs before the first setting differs).
#[test]
fn first_setting_of_largest_k_first_grid_matches_solo_run() {
    let data = dataset();
    let exec = proclus::par::Executor::Sequential;
    let settings = vec![Setting::new(5, 3), Setting::new(4, 4), Setting::new(3, 2)];
    let solo = proclus::run(&data, &proclus::Config::new(base())).unwrap();
    for level in LEVELS {
        let single = grid_on(
            &mut CpuFactory::new(&data, exec, Algo::Fast),
            &base(),
            &settings[..1],
            level,
        )
        .unwrap();
        assert_eq!(&single[0], solo.clustering(), "{level:?}: width-1 grid");
        let multi = grid_on(
            &mut CpuFactory::new(&data, exec, Algo::Fast),
            &base(),
            &settings,
            level,
        )
        .unwrap();
        assert_eq!(&multi[0], solo.clustering(), "{level:?}: first setting");
    }
}
