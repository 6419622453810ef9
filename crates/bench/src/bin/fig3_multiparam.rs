//! Fig. 3a–3e: nine `(k, l)` parameter settings explored at once — the
//! average running time *per setting* vs. `n`, comparing independent runs
//! against the three cumulative reuse levels of §3.1.
//!
//! Paper shape to reproduce: GPU-FAST-PROCLUS with reuse beats independent
//! GPU-FAST (level 1 ≈ 1.4×, level 2 ≈ 1.6×, level 3 ≈ 2.3× over running
//! one setting at a time), giving up to ~7,000× over sequential PROCLUS,
//! and the per-setting time of the reusing GPU variant stays sub-second
//! even at the largest `n`.

use gpu_sim::DeviceConfig;
use proclus::multi_param::{ReuseLevel, Setting};
use proclus::{default_grid, Algo, Grid};
use proclus_bench::runners::{cpu_grid, gpu_grid};
use proclus_bench::workloads::{self, names::PROCLUS};
use proclus_bench::{time_cpu_ms, time_gpu_ms, ExpTable, Options};

fn main() {
    let opts = Options::from_args();
    let gpu_cfg = DeviceConfig::gtx_1660_ti();
    let grid: Vec<Setting> = default_grid(10, 5);
    let settings = grid.len() as f64;
    let independent = Grid::new(grid.clone(), ReuseLevel::Independent);

    let mut table = ExpTable::new(
        "fig3ae_multiparam_avg_per_setting",
        "n",
        &[
            PROCLUS,
            "FAST-multi3",
            "GPU-PROCLUS",
            "GPU-FAST-L0",
            "GPU-FAST-L1",
            "GPU-FAST-L2",
            "GPU-FAST-L3",
        ],
    );

    for n in workloads::n_grid(opts.paper_scale, opts.quick) {
        eprintln!("[fig3ae] n = {n} ...");
        table.add_row(n);
        let cfg = workloads::default_synthetic(n, opts.seed);
        let datasets: Vec<_> = (0..opts.reps)
            .map(|r| workloads::synthetic_data(&cfg, r))
            .collect();
        let base = |rep: usize| workloads::default_params().with_seed(opts.seed + rep as u64);

        // Sequential PROCLUS, one setting at a time (the reference curve).
        // Skipped at the largest sizes in quick mode: it dominates runtime.
        if !opts.quick || n <= 8_000 {
            table.set(
                PROCLUS,
                time_cpu_ms(opts.reps, |r| {
                    cpu_grid(&datasets[r], &base(r), Algo::Baseline, independent.clone()).unwrap();
                }) / settings,
            );
            table.set(
                "FAST-multi3",
                time_cpu_ms(opts.reps, |r| {
                    let warm = Grid::new(grid.clone(), ReuseLevel::WarmStart);
                    cpu_grid(&datasets[r], &base(r), Algo::Fast, warm).unwrap();
                }) / settings,
            );
        }
        table.set(
            "GPU-PROCLUS",
            time_gpu_ms(&gpu_cfg, opts.reps, |r, dev| {
                gpu_grid(
                    dev,
                    &datasets[r],
                    &base(r),
                    Algo::Baseline,
                    independent.clone(),
                )
                .unwrap();
            }) / settings,
        );
        for (name, level) in [
            ("GPU-FAST-L0", ReuseLevel::Independent),
            ("GPU-FAST-L1", ReuseLevel::SharedCache),
            ("GPU-FAST-L2", ReuseLevel::SharedGreedy),
            ("GPU-FAST-L3", ReuseLevel::WarmStart),
        ] {
            table.set(
                name,
                time_gpu_ms(&gpu_cfg, opts.reps, |r, dev| {
                    let reuse = Grid::new(grid.clone(), level);
                    gpu_grid(dev, &datasets[r], &base(r), Algo::Fast, reuse).unwrap();
                }) / settings,
            );
        }
    }

    table.add_speedup_column(PROCLUS, "GPU-FAST-L3");
    table.add_speedup_column("GPU-FAST-L0", "GPU-FAST-L1");
    table.add_speedup_column("GPU-FAST-L0", "GPU-FAST-L2");
    table.add_speedup_column("GPU-FAST-L0", "GPU-FAST-L3");
    table.print("ms per setting; CPU wall-clock, GPU simulated");
    table.write_csv(&opts.out_dir).expect("write csv");
}
