//! Public entry points for the GPU algorithms: the unified [`run`] /
//! [`run_on`] pair consuming the CPU crate's `Config`, and [`factory_for`],
//! the one place a `Config`'s backend picks a [`BackendFactory`].

use std::time::Instant;

use gpu_sim::{Device, DeviceConfig, DeviceReport};
use proclus::backend::{dispatch, BackendFactory, CpuFactory};
use proclus::{Backend, CancelToken, Config, DataMatrix, RunOutput};
use proclus_telemetry::{attrs, counters, NullRecorder, Recorder, Telemetry};

use crate::backend::GpuFactory;
use crate::shard::ShardedFactory;

/// The backend factory `config` asks for: the host executor for
/// [`Backend::Cpu`], single-device workspaces on `dev` for
/// [`Backend::Gpu`], and shard ensembles cloned from `dev`'s configuration
/// for [`Backend::Sharded`]. Hand it to [`proclus::run_grid`] or
/// [`proclus::dispatch`].
pub fn factory_for<'a>(
    dev: &'a mut Device,
    data: &'a DataMatrix,
    config: &Config,
) -> Box<dyn BackendFactory + 'a> {
    match config.backend {
        Backend::Cpu => Box::new(CpuFactory::new(
            data,
            proclus::executor_for(config),
            config.algo,
        )),
        Backend::Gpu => Box::new(GpuFactory::new(dev, data, config.algo)),
        Backend::Sharded => Box::new(ShardedFactory::new(dev, data, config.algo)),
    }
}

/// Emits one instantaneous `kernel:<name>` span per kernel family the
/// device launched between the two snapshots, bridging gpu-sim's aggregated
/// statistics (launch counts, modeled kernel time) into the span tree.
fn bridge_kernels(rec: &dyn Recorder, before: &DeviceReport, after: &DeviceReport) {
    for (name, agg) in &after.kernels {
        let (launches, time_us) = match before.kernels.get(name) {
            Some(b) => (
                agg.launches - b.launches,
                agg.total_time_us - b.total_time_us,
            ),
            None => (agg.launches, agg.total_time_us),
        };
        if launches == 0 {
            continue;
        }
        rec.emit(
            &format!("kernel:{name}"),
            &[(counters::KERNEL_LAUNCHES, launches)],
            &[(attrs::KERNEL_TIME_US, time_us)],
        );
    }
}

/// Runs the configured algorithm on an existing device.
///
/// The device half of the unified entry point: accepts the same
/// [`Config`] as [`proclus::run`], executes [`Backend::Gpu`] configs on
/// `dev`, runs [`Backend::Sharded`] configs across
/// [`proclus::Params::devices`] fresh shard devices cloned from `dev`'s
/// configuration, and delegates [`Backend::Cpu`] configs to the CPU crate —
/// so one call site serves every backend and produces one report format.
/// Telemetry reports carry the same phase spans as the CPU backend, each
/// annotated with simulated device microseconds, plus one bridged
/// `kernel:<name>` span per kernel family with its launch count and modeled
/// kernel time.
pub fn run_on(dev: &mut Device, data: &DataMatrix, config: &Config) -> proclus::Result<RunOutput> {
    run_on_with_cancel(dev, data, config, &CancelToken::new())
}

/// [`run_on`] with cooperative cancellation: `cancel` is checked at phase
/// boundaries inside the GPU driver, and grid runs treat it as a
/// per-setting token (a cancelled token skips the remaining settings,
/// reporting them in [`RunOutput::setting_errors`]). Device memory is
/// released before returning, cancelled or not.
pub fn run_on_with_cancel(
    dev: &mut Device,
    data: &DataMatrix,
    config: &Config,
    cancel: &CancelToken,
) -> proclus::Result<RunOutput> {
    if config.backend == Backend::Cpu {
        return proclus::run_with_cancel(data, config, cancel);
    }
    let t0 = Instant::now();
    let tel = config.telemetry.then(|| {
        let t = Telemetry::new();
        proclus::stamp_meta(&t, data, config);
        t.set_meta("device", &dev.config().name);
        if config.backend == Backend::Sharded {
            t.set_meta("devices", config.params.devices.to_string());
        }
        t
    });
    let null = NullRecorder;
    let rec: &dyn Recorder = tel.as_ref().map_or(&null as &dyn Recorder, |t| t);

    let before = rec.enabled().then(|| dev.report());
    let (clusterings, setting_errors) =
        dispatch(&mut *factory_for(dev, data, config), config, rec, cancel)?;
    if let Some(before) = &before {
        bridge_kernels(rec, before, &dev.report());
    }

    Ok(RunOutput {
        clusterings,
        setting_errors,
        telemetry: tel.map(Telemetry::finish),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

/// Runs the configured algorithm, creating a fresh simulated device
/// (the paper's GTX 1660 Ti) for [`Backend::Gpu`] configs — and one per
/// [`proclus::Params::devices`] shard for [`Backend::Sharded`] configs.
///
/// Use [`run_on`] to keep the device (its clock, statistics and memory
/// pool) across runs.
pub fn run(data: &DataMatrix, config: &Config) -> proclus::Result<RunOutput> {
    if config.backend == Backend::Cpu {
        return proclus::run(data, config);
    }
    let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
    run_on(&mut dev, data, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proclus::multi_param::{ReuseLevel, Setting};
    use proclus::{Algo, Grid, Params, ProclusError};

    fn blob_data(n: usize) -> DataMatrix {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0f32 } else { 50.0 };
                let noise = |s: usize| ((i * s) % 17) as f32 * 0.05;
                vec![
                    c + noise(3),
                    c + noise(5),
                    ((i * 7) % 100) as f32,
                    ((i * 11) % 100) as f32,
                ]
            })
            .collect();
        DataMatrix::from_rows(&rows).unwrap()
    }

    fn small_params() -> Params {
        Params::new(2, 2).with_a(30).with_b(5).with_seed(7)
    }

    fn gpu_config() -> Config {
        Config::new(small_params()).with_backend(Backend::Gpu)
    }

    /// A device whose blocks run in order, so float atomics sum in a fixed
    /// order. `blob_data` repeats points, so medoid costs can tie up to the
    /// last ulp; comparing two runs bitwise needs a fixed summation order.
    fn det_device() -> Device {
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        dev.set_deterministic(true);
        dev
    }

    #[test]
    fn telemetry_covers_every_phase_and_kernel_family() {
        let data = blob_data(400);
        let out = run(&data, &gpu_config().with_telemetry(true)).unwrap();
        let report = out.telemetry.unwrap();
        assert_eq!(report.meta.get("backend").map(String::as_str), Some("gpu"));
        assert!(report.meta.contains_key("device"));
        for phase in [
            "run",
            "initialization",
            "iteration",
            "compute_l",
            "find_dimensions",
            "assign_points",
            "evaluate_clusters",
            "refinement",
            "remove_outliers",
        ] {
            assert!(report.find_span(phase).is_some(), "missing span {phase}");
        }
        // Every kernel family the device launched is bridged into the tree.
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        run_on(&mut dev, &data, &gpu_config()).unwrap();
        for name in dev.report().kernels.keys() {
            let bridged = format!("kernel:{name}");
            let s = report
                .find_span(&bridged)
                .unwrap_or_else(|| panic!("kernel family {name} not bridged into the span tree"));
            assert!(s.counters.get(counters::KERNEL_LAUNCHES).copied() > Some(0));
        }
        assert!(report.total(counters::DIST_CACHE_HITS) > 0);
        assert!(report.total(counters::POINTS_REASSIGNED) >= data.n() as u64);
    }

    #[test]
    fn gpu_fast_computes_fewer_distances_than_gpu_baseline() {
        let data = blob_data(400);
        let base = run_on(
            &mut det_device(),
            &data,
            &gpu_config().with_algo(Algo::Baseline).with_telemetry(true),
        )
        .unwrap();
        let fast = run_on(&mut det_device(), &data, &gpu_config().with_telemetry(true)).unwrap();
        assert_eq!(base.clusterings, fast.clusterings);
        let db = base.telemetry.unwrap().total(counters::DISTANCES_COMPUTED);
        let df = fast.telemetry.unwrap().total(counters::DISTANCES_COMPUTED);
        assert!(df < db, "gpu fast {df} must be < gpu baseline {db}");
    }

    #[test]
    fn telemetry_does_not_change_the_result() {
        let data = blob_data(300);
        let quiet = run_on(&mut det_device(), &data, &gpu_config()).unwrap();
        let loud = run_on(&mut det_device(), &data, &gpu_config().with_telemetry(true)).unwrap();
        assert_eq!(quiet.clusterings, loud.clusterings);
    }

    #[test]
    fn cpu_configs_are_delegated() {
        let data = blob_data(300);
        let cpu = run(&data, &Config::new(small_params()).with_telemetry(true)).unwrap();
        assert_eq!(
            cpu.telemetry
                .unwrap()
                .meta
                .get("backend")
                .map(String::as_str),
            Some("cpu")
        );
    }

    #[test]
    fn grid_runs_every_setting_on_the_gpu() {
        let data = blob_data(500);
        let grid = Grid::new(
            vec![Setting::new(3, 2), Setting::new(4, 3)],
            ReuseLevel::SharedCache,
        );
        let out = run(
            &data,
            &Config::new(Params::new(4, 2).with_a(20).with_b(4).with_seed(5))
                .with_backend(Backend::Gpu)
                .with_grid(grid)
                .with_telemetry(true),
        )
        .unwrap();
        assert_eq!(out.clusterings.len(), 2);
        let report = out.telemetry.unwrap();
        assert_eq!(report.spans.iter().filter(|s| s.name == "run").count(), 2);
    }

    #[test]
    fn unsupported_combinations_are_reported_not_panicked() {
        let data = blob_data(300);
        let star_grid = gpu_config()
            .with_algo(Algo::FastStar)
            .with_grid(Grid::new(vec![Setting::new(2, 2)], ReuseLevel::Independent));
        assert!(matches!(
            run(&data, &star_grid),
            Err(ProclusError::Unsupported { .. })
        ));
        let tall = Config::new(Params::new(2000, 2)).with_backend(Backend::Gpu);
        assert!(run(&data, &tall).is_err());
    }
}
