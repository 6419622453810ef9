//! Race-clean guarantee: every PROCLUS kernel and all three pipeline entry
//! points run under `SanitizerMode::Abort`, so any shared-memory race,
//! cross-block global race, mixed atomic/plain access or uninitialized
//! read in the shipped kernels fails these tests.

// The per-variant entry points stay under test until they are removed.
use gpu_sim::{Device, DeviceBuffer, DeviceConfig, SanitizerMode};
use proclus::{Algo, Clustering, Config, DataMatrix, Params, ProclusRng};
use proclus_gpu::kernels::assign::assign_kernel;
use proclus_gpu::kernels::delta::deltas_kernel;
use proclus_gpu::kernels::dist::dist_row_kernel;
use proclus_gpu::kernels::evaluate::evaluate_kernel;
use proclus_gpu::kernels::find_dims::{
    h_update_kernel, x_from_h_kernel, x_from_lists_kernel, z_kernel,
};
use proclus_gpu::kernels::greedy::greedy_gpu;
use proclus_gpu::kernels::lsets::{build_lists_kernel, SphereCond};
use proclus_gpu::kernels::outliers::{outlier_deltas_kernel, remove_outliers_kernel};
use proclus_gpu::rows::MedoidRow;
use proclus_gpu::workspace::Workspace;

/// One run of `algo` on the simulated `dev`.
fn gpu(
    dev: &mut Device,
    data: &DataMatrix,
    params: &Params,
    algo: Algo,
) -> proclus::Result<Clustering> {
    let config = Config::new(params.clone())
        .with_algo(algo)
        .with_backend(proclus::Backend::Gpu);
    proclus_gpu::run_on(dev, data, &config)
        .map(|o| o.clusterings.into_iter().next().expect("one clustering"))
}

fn device() -> Device {
    let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
    dev.set_deterministic(true);
    dev.set_sanitizer(SanitizerMode::Abort);
    dev
}

fn host_data(n: usize, d: usize) -> DataMatrix {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            let c = (i % 2) as f32 * 30.0;
            (0..d)
                .map(|j| c + ((i * 7 + j * 13) % 23) as f32 * 0.3)
                .collect()
        })
        .collect();
    DataMatrix::from_rows(&rows).unwrap()
}

fn upload_dims(dev: &mut Device, subspaces: &[Vec<usize>]) -> (DeviceBuffer<u32>, Vec<usize>) {
    let mut flat = Vec::new();
    let mut offsets = vec![0usize];
    for s in subspaces {
        flat.extend(s.iter().map(|&j| j as u32));
        offsets.push(flat.len());
    }
    (dev.htod("dims", &flat).unwrap(), offsets)
}

/// Distance rows for `medoids`, wrapped as cache entries (with `H` rows
/// when `with_h`) so the ComputeL/FindDimensions kernels can be driven
/// directly.
fn medoid_rows(
    dev: &mut Device,
    data: &DeviceBuffer<f32>,
    d: usize,
    n: usize,
    medoids: &[usize],
    with_h: bool,
) -> Vec<MedoidRow> {
    medoids
        .iter()
        .enumerate()
        .map(|(slot, &m)| {
            let dist = dev.alloc_zeroed::<f32>(&format!("dist_{slot}"), n).unwrap();
            dist_row_kernel(dev, data, d, n, m, &dist);
            MedoidRow {
                dist,
                h: with_h.then(|| dev.alloc_zeroed::<f64>(&format!("h_{slot}"), d).unwrap()),
                prev_delta: -1.0,
                lsize: 0,
            }
        })
        .collect()
}

// -------------------------------------------------------- kernel by kernel

#[test]
fn dist_kernel_is_race_clean() {
    let (n, d) = (2_500usize, 5usize);
    let host = host_data(n, d);
    let mut dev = device();
    let data = dev.htod("data", host.flat()).unwrap();
    let out = dev.alloc_zeroed::<f32>("row", n).unwrap();
    dist_row_kernel(&mut dev, &data, d, n, 3, &out);
    assert!(dev.hazards().is_empty());
}

#[test]
fn greedy_kernels_are_race_clean() {
    let (n, d, k) = (1_200usize, 4usize, 4usize);
    let host = host_data(n, d);
    let mut dev = device();
    let params = Params::new(k, 2).with_a(30).with_b(5).with_seed(11);
    let sample_size = params.sample_size(n);
    let m_size = params.num_potential_medoids(n);
    let ws = Workspace::new(&mut dev, &host, k, sample_size, m_size).unwrap();
    let mut rng = ProclusRng::new(params.seed);
    let sample: Vec<usize> = (0..sample_size).map(|i| i * (n / sample_size)).collect();
    let m = greedy_gpu(&mut dev, &ws, &sample, m_size, &mut rng);
    assert_eq!(m.len(), m_size);
    assert!(dev.hazards().is_empty());
}

#[test]
fn lsets_and_delta_kernels_are_race_clean() {
    let (n, d, k) = (2_000usize, 4usize, 3usize);
    let host = host_data(n, d);
    let mut dev = device();
    let data = dev.htod("data", host.flat()).unwrap();
    let medoids = [10usize, 700, 1_500];
    let rows = medoid_rows(&mut dev, &data, d, n, &medoids, false);
    let row_of_slot: Vec<usize> = (0..k).collect();

    let deltas = dev.alloc_zeroed::<f32>("deltas", k).unwrap();
    deltas_kernel(&mut dev, &rows, &row_of_slot, &medoids, &deltas);

    let list = dev.alloc_zeroed::<u32>("l_list", k * n).unwrap();
    let count = dev.alloc_zeroed::<u32>("l_count", k).unwrap();
    let host_deltas = dev.dtoh(&deltas);
    build_lists_kernel(
        &mut dev,
        &rows,
        &row_of_slot,
        &SphereCond::Within(host_deltas),
        n,
        &list,
        &count,
    );
    assert!(dev.dtoh(&count).iter().any(|&c| c > 0));
    assert!(dev.hazards().is_empty());
}

#[test]
fn find_dims_kernels_are_race_clean() {
    let (n, d, k) = (2_000usize, 6usize, 3usize);
    let host = host_data(n, d);
    let mut dev = device();
    let data = dev.htod("data", host.flat()).unwrap();
    let medoids = [5usize, 900, 1_800];
    let rows = medoid_rows(&mut dev, &data, d, n, &medoids, true);
    let row_of_slot: Vec<usize> = (0..k).collect();

    // Sphere lists feeding the X sums.
    let deltas = dev.alloc_zeroed::<f32>("deltas", k).unwrap();
    deltas_kernel(&mut dev, &rows, &row_of_slot, &medoids, &deltas);
    let list = dev.alloc_zeroed::<u32>("l_list", k * n).unwrap();
    let count = dev.alloc_zeroed::<u32>("l_count", k).unwrap();
    let host_deltas = dev.dtoh(&deltas);
    build_lists_kernel(
        &mut dev,
        &rows,
        &row_of_slot,
        &SphereCond::Within(host_deltas.clone()),
        n,
        &list,
        &count,
    );
    let counts: Vec<usize> = dev.dtoh(&count).iter().map(|&c| c as usize).collect();

    // Plain path: X straight from the lists, then Z.
    let x = dev.alloc_zeroed::<f64>("x", k * d).unwrap();
    let z = dev.alloc_zeroed::<f64>("z", k * d).unwrap();
    x_from_lists_kernel(&mut dev, &data, d, n, &medoids, &list, &counts, &x);
    z_kernel(&mut dev, &x, &z, k, d);

    // FAST path: fold the same lists into H, then X = H / |L|, then Z.
    h_update_kernel(
        &mut dev,
        &data,
        d,
        n,
        &medoids,
        &rows,
        &row_of_slot,
        &list,
        &counts,
        &[1.0; 3],
    );
    x_from_h_kernel(&mut dev, d, &rows, &row_of_slot, &counts, &x);
    z_kernel(&mut dev, &x, &z, k, d);

    assert!(dev.hazards().is_empty());
}

#[test]
fn assign_kernel_is_race_clean() {
    let (n, d, k) = (3_000usize, 5usize, 4usize);
    let host = host_data(n, d);
    let mut dev = device();
    let data = dev.htod("data", host.flat()).unwrap();
    let subspaces: Vec<Vec<usize>> = (0..k).map(|i| vec![i % d, (i + 2) % d]).collect();
    let (dims_flat, offsets) = upload_dims(&mut dev, &subspaces);
    let medoids: Vec<usize> = (0..k).map(|i| i * (n / k)).collect();
    let labels = dev.alloc_zeroed::<i32>("labels", n).unwrap();
    let c_list = dev.alloc_zeroed::<u32>("c_list", k * n).unwrap();
    let c_count = dev.alloc_zeroed::<u32>("c_count", k).unwrap();
    assign_kernel(
        &mut dev, &data, d, n, &medoids, &dims_flat, &offsets, &labels, &c_list, &c_count,
    );
    assert_eq!(
        dev.dtoh(&c_count)
            .iter()
            .map(|&c| c as usize)
            .sum::<usize>(),
        n
    );
    assert!(dev.hazards().is_empty());
}

#[test]
fn evaluate_kernel_is_race_clean() {
    let (n, d, k) = (2_400usize, 4usize, 3usize);
    let host = host_data(n, d);
    let mut dev = device();
    let data = dev.htod("data", host.flat()).unwrap();
    let subspaces = vec![vec![0, 1], vec![1, 2, 3], vec![2]];
    let (dims_flat, offsets) = upload_dims(&mut dev, &subspaces);
    let c_list = dev.alloc_zeroed::<u32>("c_list", k * n).unwrap();
    let mut counts = vec![0usize; k];
    for p in 0..n {
        let c = p % k;
        c_list.poke(c * n + counts[c], p as u32);
        counts[c] += 1;
    }
    let cost = dev.alloc_zeroed::<f64>("cost", 1).unwrap();
    let got = evaluate_kernel(
        &mut dev, &data, d, n, &dims_flat, &offsets, &c_list, &counts, &cost,
    );
    assert!(got.is_finite());
    assert!(dev.hazards().is_empty());
}

#[test]
fn outlier_kernels_are_race_clean() {
    let (n, d, k) = (2_000usize, 4usize, 3usize);
    let host = host_data(n, d);
    let mut dev = device();
    let data = dev.htod("data", host.flat()).unwrap();
    let subspaces = vec![vec![0, 1], vec![1, 3], vec![0, 2]];
    let (dims_flat, offsets) = upload_dims(&mut dev, &subspaces);
    let medoids = [0usize, 666, 1_333];
    let out_deltas = dev.alloc_zeroed::<f64>("out_deltas", k).unwrap();
    outlier_deltas_kernel(
        &mut dev,
        &data,
        d,
        &medoids,
        &dims_flat,
        &offsets,
        &out_deltas,
    );
    let labels = dev.alloc_zeroed::<i32>("labels", n).unwrap();
    remove_outliers_kernel(
        &mut dev,
        &data,
        d,
        n,
        &medoids,
        &dims_flat,
        &offsets,
        &out_deltas,
        &labels,
    );
    assert!(dev.hazards().is_empty());
}

// ------------------------------------------------------------- pipelines

fn pipeline_data() -> (DataMatrix, Params) {
    let rows: Vec<Vec<f32>> = (0..400)
        .map(|i| {
            let c = (i % 2) as f32 * 30.0;
            vec![
                c + (i % 7) as f32 * 0.1,
                (i % 11) as f32,
                c + (i % 5) as f32 * 0.1,
            ]
        })
        .collect();
    let data = DataMatrix::from_rows(&rows).unwrap();
    let params = Params::new(2, 2).with_a(40).with_b(5).with_seed(3);
    (data, params)
}

fn assert_kernels_ran(dev: &mut Device, expect: &[&str]) {
    let rep = dev.report();
    for name in expect {
        assert!(
            rep.kernels.contains_key(*name),
            "kernel `{name}` never launched; ran: {:?}",
            rep.kernels.keys().collect::<Vec<_>>()
        );
    }
}

#[test]
fn gpu_proclus_pipeline_is_race_clean() {
    let (data, params) = pipeline_data();
    let mut dev = device();
    let clustering = gpu(&mut dev, &data, &params, Algo::Baseline).unwrap();
    assert_eq!(clustering.k(), 2);
    assert!(dev.hazards().is_empty());
    assert_kernels_ran(
        &mut dev,
        &[
            "greedy.dist",
            "greedy.claim",
            "compute_l.dist",
            "compute_l.delta",
            "compute_l.build",
            "find_dims.x",
            "find_dims.z",
            "assign.points",
            "evaluate.cost",
            "outliers.delta",
            "outliers.scan",
        ],
    );
}

#[test]
fn gpu_fast_proclus_pipeline_is_race_clean() {
    let (data, params) = pipeline_data();
    let mut dev = device();
    let clustering = gpu(&mut dev, &data, &params, Algo::Fast).unwrap();
    assert_eq!(clustering.k(), 2);
    assert!(dev.hazards().is_empty());
    assert_kernels_ran(
        &mut dev,
        &[
            "compute_l.dist",
            "compute_l.build",
            "find_dims.h_update",
            "find_dims.x_from_h",
            "find_dims.z",
            "assign.points",
            "evaluate.cost",
        ],
    );
}

#[test]
fn gpu_fast_star_proclus_pipeline_is_race_clean() {
    let (data, params) = pipeline_data();
    let mut dev = device();
    let clustering = gpu(&mut dev, &data, &params, Algo::FastStar).unwrap();
    assert_eq!(clustering.k(), 2);
    assert!(dev.hazards().is_empty());
}

#[test]
fn fast_pipeline_is_race_clean_under_parallel_blocks() {
    // The sanitizer is access-set based, so parallel block scheduling must
    // not change the (empty) verdict.
    let (data, params) = pipeline_data();
    let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
    dev.set_deterministic(false);
    dev.set_sanitizer(SanitizerMode::Abort);
    gpu(&mut dev, &data, &params, Algo::Fast).unwrap();
    assert!(dev.hazards().is_empty());
}
