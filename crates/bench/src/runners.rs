//! Thin runners for the harnesses.
//!
//! Every run goes through the unified entry points ([`proclus::run`] and
//! [`proclus_gpu::run_on`]); the harnesses still want one call per
//! variant or grid, so the aliases live here.

use gpu_sim::Device;
use proclus::{
    run, Algo, Backend, Clustering, Config, DataMatrix, Grid, Params, Result, RunOutput,
};

fn cpu(data: &DataMatrix, params: &Params, algo: Algo, threads: usize) -> Result<Clustering> {
    let config = Config::new(params.clone())
        .with_algo(algo)
        .with_threads(threads);
    run(data, &config).map(|o| o.clusterings.into_iter().next().expect("one clustering"))
}

/// Sequential baseline PROCLUS via the unified entry point.
pub fn proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
    cpu(data, params, Algo::Baseline, 0)
}

/// Sequential FAST-PROCLUS via the unified entry point.
pub fn fast_proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
    cpu(data, params, Algo::Fast, 0)
}

/// Sequential FAST*-PROCLUS via the unified entry point.
pub fn fast_star_proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
    cpu(data, params, Algo::FastStar, 0)
}

/// Multi-threaded baseline PROCLUS via the unified entry point.
pub fn proclus_par(data: &DataMatrix, params: &Params, threads: usize) -> Result<Clustering> {
    cpu(data, params, Algo::Baseline, threads)
}

/// Multi-threaded FAST-PROCLUS via the unified entry point.
pub fn fast_proclus_par(data: &DataMatrix, params: &Params, threads: usize) -> Result<Clustering> {
    cpu(data, params, Algo::Fast, threads)
}

/// Multi-threaded FAST*-PROCLUS via the unified entry point.
pub fn fast_star_proclus_par(
    data: &DataMatrix,
    params: &Params,
    threads: usize,
) -> Result<Clustering> {
    cpu(data, params, Algo::FastStar, threads)
}

/// One run of `algo` on the simulated `dev` (its clock and memory pool
/// accumulate across calls).
pub fn gpu(dev: &mut Device, data: &DataMatrix, params: &Params, algo: Algo) -> Result<Clustering> {
    let config = Config::new(params.clone())
        .with_algo(algo)
        .with_backend(Backend::Gpu);
    proclus_gpu::run_on(dev, data, &config)
        .and_then(all_settings)
        .map(|mut c| c.remove(0))
}

/// A sequential CPU grid of `algo`; any failed setting fails the call.
pub fn cpu_grid(
    data: &DataMatrix,
    base: &Params,
    algo: Algo,
    grid: Grid,
) -> Result<Vec<Clustering>> {
    let config = Config::new(base.clone()).with_algo(algo).with_grid(grid);
    run(data, &config).and_then(all_settings)
}

/// A grid of `algo` on the simulated `dev`; any failed setting fails the
/// call.
pub fn gpu_grid(
    dev: &mut Device,
    data: &DataMatrix,
    base: &Params,
    algo: Algo,
    grid: Grid,
) -> Result<Vec<Clustering>> {
    let config = Config::new(base.clone())
        .with_algo(algo)
        .with_backend(Backend::Gpu)
        .with_grid(grid);
    proclus_gpu::run_on(dev, data, &config).and_then(all_settings)
}

fn all_settings(out: RunOutput) -> Result<Vec<Clustering>> {
    match out.setting_errors.into_iter().next() {
        Some((_, e)) => Err(e),
        None => Ok(out.clusterings),
    }
}
