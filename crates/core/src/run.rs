//! The unified CPU entry point: [`run`] dispatches a [`Config`] to the
//! right variant × executor × (single | grid) combination and optionally
//! records telemetry.

use std::time::Instant;

use proclus_telemetry::{NullRecorder, Recorder, Telemetry};

use crate::cancel::CancelToken;
use crate::config::{Backend, Config, RunOutput};
use crate::dataset::DataMatrix;
use crate::driver::{dispatch, CpuFactory};
use crate::error::{ProclusError, Result};
use crate::par::Executor;
use crate::result::Clustering;

/// Builds the executor a [`Config`] asks for (`0`/`1` threads →
/// sequential).
pub fn executor_for(config: &Config) -> Executor {
    if config.threads > 1 {
        Executor::Parallel {
            threads: config.threads,
        }
    } else {
        Executor::Sequential
    }
}

/// Stamps the run metadata every backend reports identically.
pub fn stamp_meta(tel: &Telemetry, data: &DataMatrix, config: &Config) {
    tel.set_meta("algo", config.algo.name());
    tel.set_meta("backend", config.backend.name());
    tel.set_meta("seed", config.params.seed);
    tel.set_meta("n", data.n());
    tel.set_meta("d", data.d());
    tel.set_meta("k", config.params.k);
    tel.set_meta("l", config.params.l);
    tel.set_meta("threads", config.threads);
    if let Some(grid) = &config.grid {
        tel.set_meta("grid_settings", grid.settings.len());
    }
}

/// Runs the configured algorithm on the CPU.
///
/// This is the single entry point replacing the per-variant functions
/// (`proclus`, `fast_proclus`, `fast_star_proclus` and their `_par`
/// siblings): variant, thread count, parameter grid, and telemetry are all
/// chosen by the [`Config`]. [`Backend::Gpu`] is rejected with
/// [`ProclusError::Unsupported`] — the `proclus-gpu` crate's `run`/`run_on`
/// accept the same `Config` and handle both backends.
///
/// ```
/// use proclus::{run, Algo, Config, DataMatrix, Params};
///
/// let rows: Vec<Vec<f32>> = (0..300)
///     .map(|i| {
///         let c = (i % 2) as f32 * 20.0;
///         vec![c + (i % 5) as f32 * 0.1, (i % 11) as f32, c + (i % 3) as f32 * 0.1]
///     })
///     .collect();
/// let data = DataMatrix::from_rows(&rows).unwrap();
/// let config = Config::new(Params::new(2, 2).with_a(30).with_b(5).with_seed(42))
///     .with_algo(Algo::Fast)
///     .with_telemetry(true);
/// let output = run(&data, &config).unwrap();
/// assert_eq!(output.clustering().k(), 2);
/// let report = output.telemetry.unwrap();
/// assert!(report.total(proclus::telemetry::counters::DISTANCES_COMPUTED) > 0);
/// ```
pub fn run(data: &DataMatrix, config: &Config) -> Result<RunOutput> {
    run_with_cancel(data, config, &CancelToken::new())
}

/// [`run`] with cooperative cancellation: the token is checked at phase
/// boundaries (iteration tops, before refinement). A cancelled single run
/// returns [`ProclusError::Cancelled`]; in a grid run the token applies to
/// every setting, and settings cancelled mid-grid land in
/// [`RunOutput::setting_errors`] like any other per-setting failure.
pub fn run_with_cancel(
    data: &DataMatrix,
    config: &Config,
    cancel: &CancelToken,
) -> Result<RunOutput> {
    if config.backend != Backend::Cpu {
        return Err(ProclusError::unsupported(
            "proclus::run executes on the CPU only; use proclus_gpu::run \
             (or run_on) for Backend::Gpu",
        ));
    }
    let t0 = Instant::now();
    let tel = config.telemetry.then(|| {
        let t = Telemetry::new();
        stamp_meta(&t, data, config);
        t
    });
    let null = NullRecorder;
    let rec: &dyn Recorder = tel.as_ref().map_or(&null as &dyn Recorder, |t| t);

    let pool_before = crate::par::pool_stats();
    let mut factory = CpuFactory::new(data, executor_for(config), config.algo);
    let (clusterings, setting_errors) = dispatch(&mut factory, config, rec, cancel)?;
    record_pool_stats(rec, pool_before);

    Ok(RunOutput {
        clusterings,
        setting_errors,
        telemetry: tel.map(Telemetry::finish),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

/// Records the work-stealing pool's activity during a run as counter
/// deltas against a snapshot taken before it. Deltas are only emitted when
/// non-zero, so sequential / single-grain runs produce no pool counters
/// (and the pinned golden telemetry trees stay byte-stable). The pool is
/// process-wide: with concurrent runs, each run's delta is a superset of
/// its own activity.
fn record_pool_stats(rec: &dyn Recorder, before: crate::par::PoolStats) {
    if !rec.enabled() {
        return;
    }
    let after = crate::par::pool_stats();
    use proclus_telemetry::counters as c;
    for (name, delta) in [
        (c::POOL_TASKS, after.tasks_executed - before.tasks_executed),
        (c::POOL_STEALS, after.steals - before.steals),
        (
            c::POOL_STEAL_FAILURES,
            after.steal_failures - before.steal_failures,
        ),
        (c::POOL_PARKS, after.parks - before.parks),
        (c::POOL_UNPARKS, after.unparks - before.unparks),
    ] {
        if delta > 0 {
            rec.add(name, delta);
        }
    }
}

/// Runs one (non-grid) configuration on an explicit [`Executor`] — the hook
/// the cross-executor equivalence suite and `par_bench` use to pin
/// [`Executor::StaticSplit`] and [`Executor::Parallel`] bit-for-bit against
/// [`Executor::Sequential`]. Normal callers go through [`run`], which picks
/// the executor from `Config::threads`.
#[doc(hidden)]
pub fn run_single_on(data: &DataMatrix, config: &Config, exec: &Executor) -> Result<Clustering> {
    let mut factory = CpuFactory::new(data, *exec, config.algo);
    let (clusterings, _) = dispatch(&mut factory, config, &NullRecorder, &CancelToken::new())?;
    clusterings
        .into_iter()
        .next()
        .ok_or_else(|| ProclusError::unsupported("a single run returned no clustering"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algo, Grid};
    use crate::multi_param::{ReuseLevel, Setting};
    use crate::params::Params;
    use proclus_telemetry::counters;

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

    #[test]
    fn run_matches_run_single_on_for_every_algo() {
        let data = blob_data(400);
        for algo in [Algo::Baseline, Algo::Fast, Algo::FastStar] {
            let config = Config::new(small_params()).with_algo(algo);
            let via_run = run(&data, &config).unwrap();
            let direct = run_single_on(&data, &config, &Executor::Sequential).unwrap();
            assert_eq!(via_run.clustering(), &direct, "{algo:?}");
        }
    }

    #[test]
    fn telemetry_is_off_by_default_and_on_when_asked() {
        let data = blob_data(300);
        let off = run(&data, &Config::new(small_params())).unwrap();
        assert!(off.telemetry.is_none());
        let on = run(&data, &Config::new(small_params()).with_telemetry(true)).unwrap();
        let report = on.telemetry.unwrap();
        assert_eq!(report.meta.get("algo").map(String::as_str), Some("fast"));
        assert_eq!(report.total(counters::ITERATIONS) as usize, {
            on.clusterings[0].iterations
        });
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
        assert!(report.total(counters::DIST_CACHE_HITS) > 0);
        assert!(report.total(counters::POINTS_REASSIGNED) >= data.n() as u64);
    }

    #[test]
    fn telemetry_does_not_change_the_result() {
        let data = blob_data(300);
        let quiet = run(&data, &Config::new(small_params())).unwrap();
        let loud = run(&data, &Config::new(small_params()).with_telemetry(true)).unwrap();
        assert_eq!(quiet.clusterings, loud.clusterings);
    }

    #[test]
    fn fast_computes_strictly_fewer_distances_than_baseline() {
        // Theorem 3.1 made observable: same seed, same search path, fewer
        // full-dimensional distance evaluations.
        let data = blob_data(400);
        let base = run(
            &data,
            &Config::new(small_params())
                .with_algo(Algo::Baseline)
                .with_telemetry(true),
        )
        .unwrap();
        let fast = run(&data, &Config::new(small_params()).with_telemetry(true)).unwrap();
        assert_eq!(base.clusterings, fast.clusterings);
        let db = base.telemetry.unwrap().total(counters::DISTANCES_COMPUTED);
        let df = fast.telemetry.unwrap().total(counters::DISTANCES_COMPUTED);
        assert!(df < db, "fast {df} must be < baseline {db}");
    }

    #[test]
    fn grid_runs_every_setting() {
        let data = blob_data(500);
        let grid = Grid::new(
            vec![Setting::new(3, 2), Setting::new(4, 3)],
            ReuseLevel::SharedCache,
        );
        let out = run(
            &data,
            &Config::new(Params::new(4, 2).with_a(20).with_b(4).with_seed(5))
                .with_grid(grid)
                .with_telemetry(true),
        )
        .unwrap();
        assert_eq!(out.clusterings.len(), 2);
        assert_eq!(out.clusterings[1].k(), 4);
        // One root run span per setting.
        let report = out.telemetry.unwrap();
        assert_eq!(report.spans.iter().filter(|s| s.name == "run").count(), 2);
    }

    #[test]
    fn grid_skips_and_reports_invalid_settings() {
        let data = blob_data(500);
        // Middle setting asks for l > d and must be skipped, not abort.
        let grid = Grid::new(
            vec![Setting::new(3, 2), Setting::new(3, 9), Setting::new(4, 3)],
            ReuseLevel::SharedCache,
        );
        let out = run(
            &data,
            &Config::new(Params::new(4, 2).with_a(20).with_b(4).with_seed(5)).with_grid(grid),
        )
        .unwrap();
        assert_eq!(out.clusterings.len(), 2);
        assert_eq!(out.setting_errors.len(), 1);
        assert_eq!(out.setting_errors[0].0, 1);
        assert!(matches!(
            out.setting_errors[0].1,
            ProclusError::DimensionalityExceeded { l: 9, d: 4 }
        ));
    }

    #[test]
    fn pre_cancelled_token_stops_single_and_grid_runs() {
        use crate::cancel::CancelToken;
        let data = blob_data(300);
        let token = CancelToken::new();
        token.cancel();
        // Single run: outer error.
        assert!(matches!(
            run_with_cancel(&data, &Config::new(small_params()), &token),
            Err(ProclusError::Cancelled { .. })
        ));
        // Grid run: per-setting errors, no clusterings, queue not poisoned.
        let grid = Grid::new(
            vec![Setting::new(2, 2), Setting::new(3, 2)],
            ReuseLevel::SharedCache,
        );
        let out =
            run_with_cancel(&data, &Config::new(small_params()).with_grid(grid), &token).unwrap();
        assert!(out.clusterings.is_empty());
        assert_eq!(out.setting_errors.len(), 2);
        assert!(out
            .setting_errors
            .iter()
            .all(|(_, e)| matches!(e, ProclusError::Cancelled { .. })));
    }

    #[test]
    fn unsupported_combinations_are_reported_not_panicked() {
        let data = blob_data(300);
        let gpu = Config::new(small_params()).with_backend(Backend::Gpu);
        assert!(matches!(
            run(&data, &gpu),
            Err(ProclusError::Unsupported { .. })
        ));
        let star_grid = Config::new(small_params())
            .with_algo(Algo::FastStar)
            .with_grid(Grid::new(vec![Setting::new(2, 2)], ReuseLevel::Independent));
        assert!(matches!(
            run(&data, &star_grid),
            Err(ProclusError::Unsupported { .. })
        ));
    }

    #[test]
    fn threads_follow_the_same_search_path() {
        let data = blob_data(400);
        let seq = run(&data, &Config::new(small_params())).unwrap();
        let par = run(&data, &Config::new(small_params()).with_threads(4)).unwrap();
        assert_eq!(seq.clustering().medoids, par.clustering().medoids);
        assert_eq!(seq.clustering().labels, par.clustering().labels);
    }
}
