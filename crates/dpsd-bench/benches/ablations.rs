//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * OLS post-processing cost (must be linear in tree size);
//! * Laplace vs two-sided geometric noise generation;
//! * exponential-mechanism median: direct scan vs sampled (Theorem 7);
//! * smooth-sensitivity sigma: exact quadratic path vs O(n) bound;
//! * Hilbert encode/decode throughput and range-bbox decomposition.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpsd_core::mech::geometric::sample_two_sided_geometric;
use dpsd_core::mech::laplace::sample_laplace;
use dpsd_core::median::{smooth_sensitivity_sigma, smoothing_xi};
use dpsd_core::postprocess::ols_over_columns;
use dpsd_core::rng::seeded;
use dpsd_core::tree::complete_tree_nodes;
use dpsd_hilbert::NdCurve;
use rand::Rng;

fn bench_ols_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ols");
    for h in [4usize, 6, 8] {
        let m = complete_tree_nodes(4, h);
        let mut rng = seeded(1);
        let y: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() * 100.0).collect();
        let eps: Vec<f64> = (0..=h).map(|i| 0.05 + 0.01 * i as f64).collect();
        group.bench_function(format!("ols_h{h}_{m}_nodes"), |b| {
            b.iter(|| ols_over_columns(4, h, black_box(&eps), black_box(&y)))
        });
    }
    group.finish();
}

fn bench_noise_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_noise");
    group.bench_function("laplace_sample", |b| {
        let mut rng = seeded(2);
        b.iter(|| sample_laplace(&mut rng, black_box(2.0)))
    });
    group.bench_function("two_sided_geometric_sample", |b| {
        let mut rng = seeded(3);
        b.iter(|| sample_two_sided_geometric(&mut rng, black_box(0.5)))
    });
    group.finish();
}

fn bench_smooth_sensitivity_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_smooth_sensitivity");
    let xi = smoothing_xi(0.01, 1e-4);
    // Exact quadratic path (n <= 4096).
    let small: Vec<f64> = (0..4096).map(|i| i as f64 * 16.0).collect();
    group.bench_function("sigma_exact_n4096", |b| {
        b.iter(|| smooth_sensitivity_sigma(black_box(&small), 0.0, 65536.0, xi))
    });
    // O(n) upper-bound path.
    let large: Vec<f64> = (0..65536).map(|i| i as f64).collect();
    group.bench_function("sigma_bound_n65536", |b| {
        b.iter(|| smooth_sensitivity_sigma(black_box(&large), 0.0, 65536.0, xi))
    });
    group.finish();
}

fn bench_hilbert(c: &mut Criterion) {
    // The curve the Hilbert R-tree builder runs (in every dimension).
    let mut group = c.benchmark_group("ablation_hilbert");
    let curve = NdCurve::<2>::hilbert(18).unwrap();
    group.bench_function("encode_order18", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 2654435761) % (1 << 32);
            curve.encode(black_box([i % curve.side(), (i >> 13) % curve.side()]))
        })
    });
    group.bench_function("decode_order18", |b| {
        let mut d = 0u64;
        b.iter(|| {
            d = d.wrapping_add(0x9E3779B97F4A7C15) % curve.cell_count();
            curve.decode(black_box(d))
        })
    });
    group.bench_function("range_bbox_order18", |b| {
        let mut d = 0u64;
        b.iter(|| {
            d = d.wrapping_add(0x9E3779B97F4A7C15) % (curve.cell_count() / 2);
            curve.range_bbox(black_box(d), black_box(d + curve.cell_count() / 3))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ols_scaling,
    bench_noise_sampling,
    bench_smooth_sensitivity_paths,
    bench_hilbert
);
criterion_main!(benches);
