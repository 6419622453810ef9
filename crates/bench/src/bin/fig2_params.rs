//! Fig. 2g–2k: effect of the algorithm parameters, increased one at a time
//! from the defaults (`k = 10, l = 5, A = 100, B = 10, minDev = 0.7,
//! itrPat = 5`).
//!
//! Paper shape to reproduce: running time is almost flat for most
//! parameters but grows with `k` and with `B` (more distance rows to
//! compute), while the GPU speedup factor stays roughly constant
//! (≈1,100× in the paper) across all sweeps.

use gpu_sim::DeviceConfig;
use proclus::{Algo, Params};
use proclus_bench::runners::{fast_proclus, gpu, proclus};
use proclus_bench::workloads::{self, names::*};
use proclus_bench::{time_cpu_ms, time_gpu_ms, ExpTable, Options};

fn run_sweep<F>(opts: &Options, n: usize, id: &str, x_name: &str, values: &[usize], set: F)
where
    F: Fn(&mut Params, usize),
{
    let gpu_cfg = DeviceConfig::gtx_1660_ti();
    let mut table = ExpTable::new(id, x_name, &[PROCLUS, FAST, GPU_PROCLUS, GPU_FAST]);
    let cfg = workloads::default_synthetic(n, opts.seed);
    let datasets: Vec<_> = (0..opts.reps)
        .map(|r| workloads::synthetic_data(&cfg, r))
        .collect();
    for &v in values {
        eprintln!("[{id}] {x_name} = {v} ...");
        table.add_row(v);
        let params = |rep: usize| {
            let mut p = workloads::default_params().with_seed(opts.seed + rep as u64);
            set(&mut p, v);
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
    table.print("ms; CPU wall-clock, GPU simulated");
    table.write_csv(&opts.out_dir).expect("write csv");
    println!();
}

fn main() {
    let opts = Options::from_args();
    let n = if opts.paper_scale { 64_000 } else { 16_000 };
    let full = !opts.quick;

    // Fig. 2g: k.
    let ks: &[usize] = if full { &[2, 5, 10, 15, 20] } else { &[5, 10] };
    run_sweep(&opts, n, "fig2g_runtime_vs_k", "k", ks, |p, v| p.k = v);

    // Fig. 2h: l.
    let ls: &[usize] = if full { &[2, 3, 5, 7, 9] } else { &[3, 5] };
    run_sweep(&opts, n, "fig2h_runtime_vs_l", "l", ls, |p, v| p.l = v);

    // Fig. 2i: A.
    let avals: &[usize] = if full {
        &[25, 50, 100, 200]
    } else {
        &[50, 100]
    };
    run_sweep(&opts, n, "fig2i_runtime_vs_A", "A", avals, |p, v| p.a = v);

    // Fig. 2j: B.
    let bvals: &[usize] = if full { &[2, 5, 10, 20] } else { &[5, 10] };
    run_sweep(&opts, n, "fig2j_runtime_vs_B", "B", bvals, |p, v| p.b = v);

    // Fig. 2k: itrPat (patience), plus a minDev sweep — the paper raises
    // "each of the parameters one by one".
    let pats: &[usize] = if full { &[2, 5, 10, 15] } else { &[2, 5] };
    run_sweep(
        &opts,
        n,
        "fig2k_runtime_vs_itrPat",
        "itrPat",
        pats,
        |p, v| p.itr_pat = v,
    );
    let devs: &[usize] = if full { &[3, 5, 7, 9] } else { &[5, 7] };
    run_sweep(
        &opts,
        n,
        "fig2k_runtime_vs_minDev",
        "minDev_x10",
        devs,
        |p, v| p.min_dev = v as f64 / 10.0,
    );
}
