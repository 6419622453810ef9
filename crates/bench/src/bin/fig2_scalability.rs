//! Fig. 2a–2b: average running time vs. number of points `n`, single
//! parameter setting, for all nine algorithm variants (sequential,
//! multi-core and GPU × {PROCLUS, FAST, FAST*}).
//!
//! Paper shape to reproduce: the algorithmic strategies give 1.2–1.4× over
//! their baselines, the multi-core CPU versions up to ~6×, and the GPU
//! parallelization orders of magnitude more, with the GPU speedup growing
//! with `n` until the device saturates and then staying flat; at 1 M points
//! GPU-FAST-PROCLUS stays under the 100 ms interactivity budget.

use gpu_sim::DeviceConfig;
use proclus::Algo;
use proclus_bench::runners::{
    fast_proclus, fast_proclus_par, fast_star_proclus, fast_star_proclus_par, gpu, proclus,
    proclus_par,
};
use proclus_bench::workloads::{self, names::*};
use proclus_bench::{time_cpu_ms, time_gpu_ms, ExpTable, Options};

fn main() {
    let opts = Options::from_args();
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(4);
    let gpu_cfg = DeviceConfig::gtx_1660_ti();
    let mut table = ExpTable::new(
        "fig2ab_runtime_vs_n",
        "n",
        &[
            PROCLUS,
            FAST,
            FAST_STAR,
            MC_PROCLUS,
            MC_FAST,
            MC_FAST_STAR,
            GPU_PROCLUS,
            GPU_FAST,
            GPU_FAST_STAR,
        ],
    );

    for n in workloads::n_grid(opts.paper_scale, opts.quick) {
        eprintln!("[fig2ab] n = {n} ...");
        table.add_row(n);
        let cfg = workloads::default_synthetic(n, opts.seed);
        let datasets: Vec<_> = (0..opts.reps)
            .map(|r| workloads::synthetic_data(&cfg, r))
            .collect();
        let params = |rep: usize| workloads::default_params().with_seed(opts.seed + rep as u64);

        // The sequential baseline dominates harness runtime at large n.
        let run_seq_baseline = !opts.quick || n <= 8_000;
        if run_seq_baseline {
            table.set(
                PROCLUS,
                time_cpu_ms(opts.reps, |r| {
                    proclus(&datasets[r], &params(r)).unwrap();
                }),
            );
            table.set(
                FAST,
                time_cpu_ms(opts.reps, |r| {
                    fast_proclus(&datasets[r], &params(r)).unwrap();
                }),
            );
            table.set(
                FAST_STAR,
                time_cpu_ms(opts.reps, |r| {
                    fast_star_proclus(&datasets[r], &params(r)).unwrap();
                }),
            );
        }
        table.set(
            MC_PROCLUS,
            time_cpu_ms(opts.reps, |r| {
                proclus_par(&datasets[r], &params(r), threads).unwrap();
            }),
        );
        table.set(
            MC_FAST,
            time_cpu_ms(opts.reps, |r| {
                fast_proclus_par(&datasets[r], &params(r), threads).unwrap();
            }),
        );
        table.set(
            MC_FAST_STAR,
            time_cpu_ms(opts.reps, |r| {
                fast_star_proclus_par(&datasets[r], &params(r), threads).unwrap();
            }),
        );
        table.set(
            GPU_PROCLUS,
            time_gpu_ms(&gpu_cfg, opts.reps, |r, dev| {
                gpu(dev, &datasets[r], &params(r), Algo::Baseline).unwrap();
            }),
        );
        table.set(
            GPU_FAST,
            time_gpu_ms(&gpu_cfg, opts.reps, |r, dev| {
                gpu(dev, &datasets[r], &params(r), Algo::Fast).unwrap();
            }),
        );
        table.set(
            GPU_FAST_STAR,
            time_gpu_ms(&gpu_cfg, opts.reps, |r, dev| {
                gpu(dev, &datasets[r], &params(r), Algo::FastStar).unwrap();
            }),
        );
    }

    table.add_speedup_column(PROCLUS, FAST);
    table.add_speedup_column(PROCLUS, MC_PROCLUS);
    table.add_speedup_column(PROCLUS, GPU_PROCLUS);
    table.add_speedup_column(PROCLUS, GPU_FAST);
    table.print("ms; CPU wall-clock, GPU simulated");
    table.write_csv(&opts.out_dir).expect("write csv");
}
