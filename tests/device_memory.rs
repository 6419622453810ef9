//! Device memory is released on every path: a run that fails part-way
//! through allocation, a grid with invalid and cancelled settings, and a
//! sharded grid all leave a reused device with no live buffers — serve
//! workers keep one device across jobs, so anything left behind would
//! accumulate job after job.

use std::num::NonZeroUsize;

use gpu_sim::{Device, DeviceConfig};
use proclus::telemetry::NullRecorder;
use proclus::{run_grid, Algo, Backend, CancelToken, Config, DataMatrix, Params, ReuseLevel};
use proclus::{ProclusError, Setting};
use proclus_gpu::{run_on, GpuFactory, ShardedFactory};

const ALGOS: [Algo; 3] = [Algo::Baseline, Algo::Fast, Algo::FastStar];

const LEVELS: [ReuseLevel; 4] = [
    ReuseLevel::Independent,
    ReuseLevel::SharedCache,
    ReuseLevel::SharedGreedy,
    ReuseLevel::WarmStart,
];

fn blob_data(n: usize, d: usize) -> DataMatrix {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            let c = (i % 3) as f32 * 40.0;
            (0..d)
                .map(|j| c + ((i * (3 + 2 * j)) % 13) as f32 * 0.05)
                .collect()
        })
        .collect();
    DataMatrix::from_rows(&rows).unwrap()
}

fn assert_nothing_live(dev: &Device, what: &str) {
    let live = dev.live_allocations();
    assert!(live.is_empty(), "{what}: live buffers {live:?}");
}

#[test]
fn an_out_of_memory_run_frees_what_it_allocated() {
    // Plain GPU-PROCLUS at n = 20000, d = 2, k = 100: the data and δ
    // buffers fit in these devices, the k × n point lists do not.
    let data = blob_data(20_000, 2);
    for limit in [200_000usize, 400_000, 800_000, 1_600_000, 3_200_000] {
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti().with_memory_limit(limit));
        for algo in ALGOS {
            let config = Config::new(Params::new(100, 2))
                .with_algo(algo)
                .with_backend(Backend::Gpu);
            let err = run_on(&mut dev, &data, &config).unwrap_err();
            assert!(
                matches!(&err, ProclusError::Device { reason } if reason.contains("out of memory")),
                "{algo:?} at {limit} B: {err}"
            );
            assert_nothing_live(&dev, &format!("{algo:?} at {limit} B"));
        }
    }
}

#[test]
fn every_allocation_failure_point_frees_what_it_allocated() {
    // Sweep the device size across the whole run: the workspace, the row
    // cache and FAST's lazily grown rows each fail part-way somewhere.
    let data = blob_data(600, 4);
    let params = Params::new(4, 2).with_a(20).with_b(5).with_seed(3);
    for algo in ALGOS {
        let config = Config::new(params.clone())
            .with_algo(algo)
            .with_backend(Backend::Gpu);
        let mut succeeded = false;
        for limit in (1..=40).map(|kb| kb * 2_000) {
            let mut dev = Device::new(DeviceConfig::gtx_1660_ti().with_memory_limit(limit));
            succeeded |= run_on(&mut dev, &data, &config).is_ok();
            assert_nothing_live(&dev, &format!("{algo:?} at {limit} B"));
        }
        assert!(
            succeeded,
            "{algo:?}: the sweep never reached a size that fits"
        );
    }
}

#[test]
fn grids_with_invalid_and_cancelled_settings_free_the_device() {
    let data = blob_data(600, 4);
    let base = Params::new(4, 2).with_a(20).with_b(5).with_seed(7);
    // l = 9 > d = 4 is invalid; the third setting is cancelled.
    let settings = [
        Setting::new(4, 2),
        Setting::new(3, 9),
        Setting::new(3, 2),
        Setting::new(2, 2),
    ];
    let cancels: Vec<CancelToken> = settings.iter().map(|_| CancelToken::new()).collect();
    cancels[2].cancel();
    let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
    for algo in [Algo::Baseline, Algo::Fast] {
        for level in LEVELS {
            let mut factory = GpuFactory::new(&mut dev, &data, algo);
            let out = run_grid(
                &mut factory,
                &base,
                &settings,
                level,
                &NullRecorder,
                &cancels,
            );
            assert!(out[0].is_ok() && out[3].is_ok(), "{algo:?} {level:?}");
            assert!(matches!(
                out[1],
                Err(ProclusError::DimensionalityExceeded { .. })
            ));
            assert!(matches!(out[2], Err(ProclusError::Cancelled { .. })));
            assert_nothing_live(&dev, &format!("{algo:?} {level:?}"));
        }
    }
}

#[test]
fn a_sharded_grid_frees_the_device() {
    let data = blob_data(600, 4);
    let base = Params::new(4, 2)
        .with_a(20)
        .with_b(5)
        .with_seed(7)
        .with_devices(NonZeroUsize::new(2).unwrap());
    let settings = [Setting::new(4, 2), Setting::new(3, 2)];
    let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
    for level in LEVELS {
        let mut factory = ShardedFactory::new(&mut dev, &data, Algo::Fast);
        let out = run_grid(&mut factory, &base, &settings, level, &NullRecorder, &[]);
        assert!(out.iter().all(Result::is_ok), "{level:?}");
        assert_nothing_live(&dev, &format!("sharded {level:?}"));
    }
}
