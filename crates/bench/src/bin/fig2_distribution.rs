//! Fig. 2e–2f: effect of the *data distribution* on running time — the
//! number of planted clusters (2e) and their standard deviation (2f).
//!
//! Paper shape to reproduce: running times of PROCLUS and GPU-PROCLUS are
//! largely unaffected by either knob (the work per iteration depends on
//! `n`, `d`, `k`, not on how the points are arranged).

use gpu_sim::DeviceConfig;
use proclus::Algo;
use proclus_bench::runners::{fast_proclus, gpu, proclus};
use proclus_bench::workloads::{self, names::*};
use proclus_bench::{time_cpu_ms, time_gpu_ms, ExpTable, Options};

fn run_sweep(
    opts: &Options,
    id: &str,
    x_name: &str,
    configs: &[(String, datagen::SyntheticConfig)],
) {
    let gpu_cfg = DeviceConfig::gtx_1660_ti();
    let mut table = ExpTable::new(id, x_name, &[PROCLUS, FAST, GPU_PROCLUS, GPU_FAST]);
    for (label, cfg) in configs {
        eprintln!("[{id}] {x_name} = {label} ...");
        table.add_row(label.clone());
        let datasets: Vec<_> = (0..opts.reps)
            .map(|r| workloads::synthetic_data(cfg, r))
            .collect();
        let params = |rep: usize| workloads::default_params().with_seed(opts.seed + rep as u64);
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
    table.print("ms; CPU wall-clock, GPU simulated");
    table.write_csv(&opts.out_dir).expect("write csv");
    println!();
}

fn main() {
    let opts = Options::from_args();
    let n = if opts.paper_scale { 64_000 } else { 16_000 };

    // Fig. 2e: number of planted clusters.
    let cluster_counts: &[usize] = if opts.quick {
        &[5, 20]
    } else {
        &[5, 10, 20, 40]
    };
    let configs: Vec<_> = cluster_counts
        .iter()
        .map(|&c| {
            let mut cfg = workloads::default_synthetic(n, opts.seed);
            cfg.num_clusters = c;
            (c.to_string(), cfg)
        })
        .collect();
    run_sweep(
        &opts,
        "fig2e_runtime_vs_data_clusters",
        "clusters",
        &configs,
    );

    // Fig. 2f: cluster standard deviation.
    let sigmas: &[f32] = if opts.quick {
        &[1.0, 8.0]
    } else {
        &[1.0, 2.0, 4.0, 8.0, 16.0]
    };
    let configs: Vec<_> = sigmas
        .iter()
        .map(|&s| {
            let mut cfg = workloads::default_synthetic(n, opts.seed);
            cfg.std_dev = s;
            (s.to_string(), cfg)
        })
        .collect();
    run_sweep(&opts, "fig2f_runtime_vs_stddev", "std_dev", &configs);
}
