//! Fig. 1: speedup of the algorithmic strategies relative to their own
//! baselines — FAST and FAST* w.r.t. PROCLUS on the CPU, GPU-FAST and
//! GPU-FAST* w.r.t. GPU-PROCLUS — as a function of `n`.
//!
//! Paper shape to reproduce: the strategies give roughly 1.2–1.4× on both
//! platforms, and FAST* is a 1.05–1.1× slowdown relative to FAST (the
//! price of the factor-`B` space reduction, §5.1).

use gpu_sim::DeviceConfig;
use proclus::Algo;
use proclus_bench::runners::{fast_proclus, fast_star_proclus, gpu, proclus};
use proclus_bench::workloads;
use proclus_bench::{time_cpu_ms, time_gpu_ms, ExpTable, Options};

fn main() {
    let opts = Options::from_args();
    let gpu_cfg = DeviceConfig::gtx_1660_ti();
    let mut table = ExpTable::new(
        "fig1_strategy_speedups",
        "n",
        &[
            "FAST/PROCLUS",
            "FAST*/PROCLUS",
            "GPU-FAST/GPU-PROCLUS",
            "GPU-FAST*/GPU-PROCLUS",
            "FAST/FAST* (space cost)",
        ],
    );

    for n in workloads::n_grid(opts.paper_scale, opts.quick) {
        eprintln!("[fig1] n = {n} ...");
        table.add_row(n);
        let cfg = workloads::default_synthetic(n, opts.seed);
        let datasets: Vec<_> = (0..opts.reps)
            .map(|r| workloads::synthetic_data(&cfg, r))
            .collect();
        let params = |rep: usize| workloads::default_params().with_seed(opts.seed + rep as u64);

        let t_base = time_cpu_ms(opts.reps, |r| {
            proclus(&datasets[r], &params(r)).unwrap();
        });
        let t_fast = time_cpu_ms(opts.reps, |r| {
            fast_proclus(&datasets[r], &params(r)).unwrap();
        });
        let t_star = time_cpu_ms(opts.reps, |r| {
            fast_star_proclus(&datasets[r], &params(r)).unwrap();
        });
        let g_base = time_gpu_ms(&gpu_cfg, opts.reps, |r, dev| {
            gpu(dev, &datasets[r], &params(r), Algo::Baseline).unwrap();
        });
        let g_fast = time_gpu_ms(&gpu_cfg, opts.reps, |r, dev| {
            gpu(dev, &datasets[r], &params(r), Algo::Fast).unwrap();
        });
        let g_star = time_gpu_ms(&gpu_cfg, opts.reps, |r, dev| {
            gpu(dev, &datasets[r], &params(r), Algo::FastStar).unwrap();
        });

        table.set("FAST/PROCLUS", t_base / t_fast);
        table.set("FAST*/PROCLUS", t_base / t_star);
        table.set("GPU-FAST/GPU-PROCLUS", g_base / g_fast);
        table.set("GPU-FAST*/GPU-PROCLUS", g_base / g_star);
        table.set("FAST/FAST* (space cost)", t_star / t_fast);
    }

    table.print("speedup factor (>1 = numerator faster)");
    table.write_csv(&opts.out_dir).expect("write csv");
}
