//! §5.4 GPU-utilization table: theoretical occupancy, achieved occupancy
//! and memory throughput per kernel, at a large and a small dataset size —
//! the simulator's answer to the paper's NVIDIA Nsight Compute numbers.
//!
//! Paper observations to reproduce:
//! * the EvaluateCluster kernel (the most time-consuming one) is near 100 %
//!   occupancy with high memory throughput on millions of points, and
//!   noticeably lower on 8,000 points;
//! * the tiny `k × k` δ-kernel (`compute_l.delta`) has a theoretical
//!   occupancy around 50 % and an achieved occupancy of a few percent —
//!   "not a good utilization, but not a time-consuming computation either".

use gpu_sim::{Device, DeviceConfig};
use proclus::Algo;
use proclus_bench::runners::gpu;
use proclus_bench::{workloads, Options};

fn main() {
    let opts = Options::from_args();
    let gpu_cfg = DeviceConfig::gtx_1660_ti();
    // Paper: 4,096,000 and 8,000 points with 10 dimensions.
    let large_n = if opts.paper_scale { 4_096_000 } else { 512_000 };
    let sizes = [(large_n, "large"), (8_000usize, "small")];

    for (n, tag) in sizes {
        eprintln!("[util] n = {n} ...");
        let mut cfg = workloads::default_synthetic(n, opts.seed);
        cfg.d = 10;
        let data = workloads::synthetic_data(&cfg, 0);
        let params = workloads::default_params().with_seed(opts.seed);

        let mut dev = Device::new(gpu_cfg.clone());
        gpu(&mut dev, &data, &params, Algo::Fast).unwrap();
        let report = dev.report();
        println!("\n## kernel utilization, n = {n} ({tag}), d = 10, k = 10");
        print!("{}", report.kernel_table());

        // Spell out the two kernels the paper singles out.
        for name in ["evaluate.cost", "compute_l.delta"] {
            if let Some(agg) = report.kernels.get(name) {
                if let Some(rep) = &agg.representative {
                    println!(
                        "{name}: grid {} x block {}, occ_theoretical {:.2}%, \
                         occ_achieved {:.2}%, mem throughput {:.2}% (bound: {:?})",
                        rep.grid,
                        rep.block,
                        rep.timing.theoretical_occupancy * 100.0,
                        rep.timing.achieved_occupancy * 100.0,
                        rep.timing.mem_throughput_frac * 100.0,
                        rep.timing.bound,
                    );
                }
            }
        }
    }
}
