//! Multi-device scaling harness: FAST-PROCLUS on the sharded backend at
//! `D ∈ {1, 2, 4}` simulated devices over one large synthetic workload,
//! written as `results/BENCH_shard.json`.
//!
//! Reported time is the ensemble's **simulated** clock (max per-shard
//! device delta per phase barrier plus the modeled cross-device reduction
//! cost), so the speedups are machine-independent: the quantity measured
//! is how much per-phase kernel work leaves each device when the points
//! are partitioned, against the fixed cost of reducing `k × d` scalars at
//! every barrier. `cargo xtask bench-compare --kind shard` gates the
//! floors (≥1.6× at D=2, ≥2.5× at D=4).

use std::fmt::Write as _;

use datagen::synthetic::SyntheticConfig;
use gpu_sim::DeviceConfig;
use proclus::backend::{run_full, Backend};
use proclus::{CancelToken, DataMatrix, Params};
use proclus_bench::{workloads, Options};
use proclus_gpu::{GpuVariant, ShardedBackend};
use proclus_telemetry::json::fmt_f64;
use proclus_telemetry::NullRecorder;

const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];

struct Workload {
    n: usize,
    d: usize,
    k: usize,
    l: usize,
    device: DeviceConfig,
}

/// The full regime is the paper's large-synthetic setting on the 1660 Ti;
/// `--quick` shrinks the point count *and* the simulated device together so
/// the compute-to-overhead ratio (and therefore the scaling behaviour being
/// gated) stays in the same regime at a fraction of the wall-clock.
fn workload(quick: bool) -> Workload {
    if quick {
        Workload {
            n: 48_000,
            d: 12,
            k: 6,
            l: 5,
            device: DeviceConfig {
                name: "derated GTX 1660 Ti (quick)".into(),
                num_sms: 2,
                mem_bandwidth_gbps: 12.0,
                ..DeviceConfig::gtx_1660_ti()
            },
        }
    } else {
        Workload {
            n: 512_000,
            d: 16,
            k: 8,
            l: 6,
            device: DeviceConfig::gtx_1660_ti(),
        }
    }
}

/// One full FAST run on `devices` shards; returns the simulated time (ms)
/// of the run itself, shard setup excluded.
fn sharded_run_ms(
    device: &DeviceConfig,
    data: &DataMatrix,
    params: &Params,
    devices: usize,
) -> f64 {
    let mut backend = ShardedBackend::new(
        device,
        data,
        devices,
        params.k,
        params.sample_size(data.n()),
        GpuVariant::Fast,
    )
    .expect("shard ensemble allocates");
    let setup_us = backend.clock_us().unwrap_or(0.0);
    let result = run_full(&mut backend, params, &NullRecorder, &CancelToken::default());
    let sim_us = backend.clock_us().unwrap_or(0.0) - setup_us;
    backend.free().expect("shard ensemble frees");
    result.expect("sharded run succeeds");
    sim_us / 1_000.0
}

fn main() {
    let opts = Options::from_args();
    let w = workload(opts.quick);
    let params = Params::new(w.k, w.l)
        .with_a(20)
        .with_b(5)
        .with_seed(opts.seed);

    println!(
        "shard_bench: n={} d={} k={} l={} reps={}{}",
        w.n,
        w.d,
        w.k,
        w.l,
        opts.reps,
        if opts.quick { " (quick)" } else { "" }
    );
    println!("{:<10} {:>12} {:>10}", "devices", "sim_ms", "speedup");

    let cfg = SyntheticConfig {
        d: w.d,
        num_clusters: w.k,
        ..workloads::default_synthetic(w.n, opts.seed)
    };
    let mut sim_ms = Vec::new();
    for &devices in &DEVICE_COUNTS {
        let mut total = 0.0;
        for rep in 0..opts.reps {
            let data = workloads::synthetic_data(&cfg, rep);
            total += sharded_run_ms(&w.device, &data, &params, devices);
        }
        let avg = total / opts.reps as f64;
        let speedup = sim_ms.first().map_or(1.0, |&base: &f64| base / avg);
        println!("{devices:<10} {avg:>12.2} {speedup:>9.2}x");
        sim_ms.push(avg);
    }

    let base = sim_ms[0];
    let mut json = String::from("{\"version\":1,");
    let _ = write!(
        json,
        "\"workload\":{{\"n\":{},\"d\":{},\"k\":{},\"l\":{},\"seed\":{},\"reps\":{},\
         \"quick\":{}}},\"devices\":[",
        w.n, w.d, w.k, w.l, opts.seed, opts.reps, opts.quick
    );
    for (i, (&devices, &ms)) in DEVICE_COUNTS.iter().zip(&sim_ms).enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"devices\":{devices},\"sim_ms\":{},\"speedup\":{}}}",
            fmt_f64(ms),
            fmt_f64(base / ms)
        );
    }
    json.push_str("]}");

    std::fs::create_dir_all(&opts.out_dir).expect("create results dir");
    let path = format!("{}/BENCH_shard.json", opts.out_dir);
    std::fs::write(&path, &json).expect("write shard json");
    println!("\nwrote {path}");
}
