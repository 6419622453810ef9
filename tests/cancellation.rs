//! Cancellation routing: every entry point goes through the one
//! cancellation-aware driver per backend.
//!
//! * A pre-cancelled token makes `run_with_cancel` / `run_on_with_cancel`
//!   return [`ProclusError::Cancelled`] for every algorithm × backend, so
//!   there is no uncancellable path left.
//! * `run` / `run_on` produce bit-identical output to `run_with_cancel` /
//!   `run_on_with_cancel` with a fresh token (same `Backend`-trait driver
//!   underneath) — no forked drivers.
//! * In a grid run, cancelling one setting fails that setting only, on
//!   every backend and at every reuse level.

use std::num::NonZeroUsize;

use gpu_sim::{Device, DeviceConfig};
use proclus::telemetry::NullRecorder;
use proclus::{
    run_grid, Algo, BackendFactory, CancelToken, Config, CpuFactory, DataMatrix, Params,
    ProclusError, ReuseLevel, Setting,
};
use proclus_gpu::{GpuFactory, ShardedFactory};

fn blob_data(n: usize) -> DataMatrix {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            let c = if i % 2 == 0 { 0.0f32 } else { 40.0 };
            vec![
                c + ((i * 3) % 13) as f32 * 0.05,
                c + ((i * 5) % 13) as f32 * 0.05,
                ((i * 7) % 100) as f32,
            ]
        })
        .collect();
    DataMatrix::from_rows(&rows).unwrap()
}

fn params() -> Params {
    Params::new(3, 2).with_a(15).with_b(4).with_seed(9)
}

fn dev() -> Device {
    let mut d = Device::new(DeviceConfig::gtx_1660_ti());
    d.set_deterministic(true);
    d
}

#[test]
fn every_algo_and_backend_honours_a_precancelled_token() {
    let data = blob_data(300);
    let cancelled = CancelToken::new();
    cancelled.cancel();
    for algo in [Algo::Baseline, Algo::Fast, Algo::FastStar] {
        let cpu = Config::new(params()).with_algo(algo);
        let err = proclus::run_with_cancel(&data, &cpu, &cancelled).unwrap_err();
        assert!(
            matches!(err, ProclusError::Cancelled { .. }),
            "{algo:?} cpu: {err}"
        );

        let gpu = cpu.clone().with_backend(proclus::Backend::Gpu);
        let err = proclus_gpu::run_on_with_cancel(&mut dev(), &data, &gpu, &cancelled).unwrap_err();
        assert!(
            matches!(err, ProclusError::Cancelled { .. }),
            "{algo:?} gpu: {err}"
        );
    }
}

#[test]
fn expired_deadline_token_cancels_with_a_deadline_reason() {
    let data = blob_data(300);
    let token = CancelToken::with_deadline(std::time::Instant::now());
    let err = proclus::run_with_cancel(&data, &Config::new(params()), &token).unwrap_err();
    assert!(err.to_string().contains("deadline"), "{err}");
}

#[test]
fn run_and_run_with_cancel_share_one_driver() {
    // The six legacy CPU free functions are gone; `run` and
    // `run_with_cancel` are the only CPU entry points left, and both must
    // route through the same `Backend`-trait driver for every variant.
    let data = blob_data(400);
    let p = params();
    for algo in [Algo::Baseline, Algo::Fast, Algo::FastStar] {
        let config = Config::new(p.clone()).with_algo(algo);
        let plain = proclus::run(&data, &config).unwrap();
        let with_token = proclus::run_with_cancel(&data, &config, &CancelToken::new()).unwrap();
        assert_eq!(plain.clustering(), with_token.clustering(), "{algo:?}");
    }
}

#[test]
fn gpu_run_on_and_run_on_with_cancel_share_one_driver() {
    let data = blob_data(400);
    for algo in [Algo::Baseline, Algo::Fast, Algo::FastStar] {
        let config = Config::new(params())
            .with_algo(algo)
            .with_backend(proclus::Backend::Gpu);
        let plain = proclus_gpu::run_on(&mut dev(), &data, &config).unwrap();
        let with_token =
            proclus_gpu::run_on_with_cancel(&mut dev(), &data, &config, &CancelToken::new())
                .unwrap();
        assert_eq!(plain.clustering(), with_token.clustering(), "{algo:?}");
    }
}

const LEVELS: [ReuseLevel; 4] = [
    ReuseLevel::Independent,
    ReuseLevel::SharedCache,
    ReuseLevel::SharedGreedy,
    ReuseLevel::WarmStart,
];

/// A FAST grid with per-setting tokens through `factory`.
fn fast_grid(
    factory: &mut dyn BackendFactory,
    settings: &[Setting],
    level: ReuseLevel,
    cancels: &[CancelToken],
) -> Vec<proclus::Result<proclus::Clustering>> {
    let base = params().with_devices(NonZeroUsize::new(2).unwrap());
    run_grid(factory, &base, settings, level, &NullRecorder, cancels)
}

#[test]
fn cancelling_one_grid_setting_spares_the_others() {
    let data = blob_data(400);
    let settings = vec![Setting::new(4, 2), Setting::new(3, 2), Setting::new(2, 2)];
    let cancels = vec![CancelToken::new(), CancelToken::new(), CancelToken::new()];
    cancels[1].cancel();
    let mut cpu = CpuFactory::new(&data, proclus::par::Executor::Sequential, Algo::Fast);
    let outcomes = fast_grid(&mut cpu, &settings, ReuseLevel::SharedGreedy, &cancels);
    assert!(outcomes[0].is_ok());
    assert!(matches!(
        outcomes[1].as_ref().unwrap_err(),
        ProclusError::Cancelled { .. }
    ));
    assert!(outcomes[2].is_ok());
}

#[test]
fn a_cancelled_first_setting_spares_the_rest_on_every_backend() {
    // Each setting's own token reaches the backend: a cancelled first
    // setting must not leak into the later ones (the sharded backend polls
    // its token between per-shard steps).
    let data = blob_data(400);
    let settings = vec![Setting::new(4, 2), Setting::new(3, 2), Setting::new(2, 2)];
    let cancels = vec![CancelToken::new(), CancelToken::new(), CancelToken::new()];
    cancels[0].cancel();
    for level in LEVELS {
        let mut cpu = CpuFactory::new(&data, proclus::par::Executor::Sequential, Algo::Fast);
        let mut gpu_dev = dev();
        let mut sharded_dev = dev();
        let mut gpu = GpuFactory::new(&mut gpu_dev, &data, Algo::Fast);
        let mut sharded = ShardedFactory::new(&mut sharded_dev, &data, Algo::Fast);
        let backends: [(&str, &mut dyn BackendFactory); 3] = [
            ("cpu", &mut cpu),
            ("gpu", &mut gpu),
            ("sharded", &mut sharded),
        ];
        for (name, factory) in backends {
            let outcomes = fast_grid(factory, &settings, level, &cancels);
            assert!(
                matches!(outcomes[0], Err(ProclusError::Cancelled { .. })),
                "{name} {level:?}: {:?}",
                outcomes[0]
            );
            assert!(outcomes[1].is_ok(), "{name} {level:?}: {:?}", outcomes[1]);
            assert!(outcomes[2].is_ok(), "{name} {level:?}: {:?}", outcomes[2]);
        }
    }
}
