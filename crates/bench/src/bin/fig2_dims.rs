//! Fig. 2c–2d: running time and GPU speedup vs. data dimensionality `d`.
//!
//! Paper shape to reproduce: runtime grows with `d` for all variants, and
//! the GPU speedup *factor* is somewhat higher at low `d` (the paper
//! measures 896–1,265×, attributing the drop at high `d` to distance
//! computations not being parallelized across dimensions).

use gpu_sim::DeviceConfig;
use proclus::Algo;
use proclus_bench::runners::{fast_proclus, gpu, proclus};
use proclus_bench::workloads::{self, names::*};
use proclus_bench::{time_cpu_ms, time_gpu_ms, ExpTable, Options};

fn main() {
    let opts = Options::from_args();
    let gpu_cfg = DeviceConfig::gtx_1660_ti();
    let n = if opts.paper_scale { 64_000 } else { 16_000 };
    let mut table = ExpTable::new(
        "fig2cd_runtime_vs_d",
        "d",
        &[PROCLUS, FAST, GPU_PROCLUS, GPU_FAST],
    );

    for d in workloads::d_grid(opts.paper_scale, opts.quick) {
        eprintln!("[fig2cd] d = {d} ...");
        table.add_row(d);
        let mut cfg = workloads::default_synthetic(n, opts.seed);
        cfg.d = d;
        cfg.subspace_dims = cfg.subspace_dims.min(d);
        let datasets: Vec<_> = (0..opts.reps)
            .map(|r| workloads::synthetic_data(&cfg, r))
            .collect();
        let params = |rep: usize| {
            let mut p = workloads::default_params().with_seed(opts.seed + rep as u64);
            p.l = p.l.min(d);
            p
        };

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
    }

    table.add_speedup_column(PROCLUS, GPU_PROCLUS);
    table.add_speedup_column(FAST, GPU_FAST);
    table.print("ms; CPU wall-clock, GPU simulated");
    table.write_csv(&opts.out_dir).expect("write csv");
}
