//! Bit-identity regression tests: the dimension-generic core must build
//! trees that are **bit-for-bit identical** to the pre-refactor 2D
//! pipeline under the same RNG seed.
//!
//! The `GOLDEN` fingerprints below were captured from the planar
//! (pre-`Point<D>`) implementation: each is an FNV-1a fold over every
//! node's rectangle coordinates, released noisy count, post-processed
//! count, and cut flag, in arena order. Any change to split arithmetic,
//! RNG consumption order, budget allocation, noise application order, or
//! OLS post-processing shows up here as a changed hash.

use dpsd::prelude::*;

/// FNV-style multiply-xor fold over little-endian u64 words. (The
/// multiplier is *not* the canonical 64-bit FNV prime; the goldens below
/// were captured with exactly this function, so treat it as a custom
/// hash and never swap the constant without re-capturing them.)
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// Deterministic skewed dataset: dense corner cluster plus a sparse
/// diagonal (no RNG involved, so it is refactor-proof).
fn dataset() -> Vec<Point> {
    let mut pts = Vec::new();
    for i in 0..3000 {
        pts.push(Point::new((i % 55) as f64 * 0.3, (i / 55) as f64 * 0.3));
    }
    for i in 0..500 {
        pts.push(Point::new(i as f64 * 0.128, i as f64 * 0.128));
    }
    pts
}

fn domain() -> Rect {
    Rect::new(0.0, 0.0, 64.0, 64.0).unwrap()
}

fn fingerprint<const D: usize>(tree: &PsdTree<D>) -> u64 {
    let mut h = Fnv::new();
    h.word(tree.height() as u64);
    h.word(tree.fanout() as u64);
    for e in tree.eps_count_levels() {
        h.f64(*e);
    }
    for e in tree.eps_median_levels() {
        h.f64(*e);
    }
    for v in tree.node_ids() {
        let r = tree.rect(v);
        // All minima then all maxima: at D = 2 this is exactly the
        // min_x, min_y, max_x, max_y order the goldens were captured
        // with.
        for k in 0..D {
            h.f64(r.min[k]);
        }
        for k in 0..D {
            h.f64(r.max[k]);
        }
        match tree.noisy_count(v) {
            Some(c) => {
                h.word(1);
                h.f64(c);
            }
            None => h.word(0),
        }
        match tree.posted_count(v) {
            Some(c) => {
                h.word(1);
                h.f64(c);
            }
            None => h.word(0),
        }
        h.word(u64::from(tree.is_cut(v)));
    }
    h.0
}

fn configs() -> Vec<(&'static str, PsdConfig)> {
    let d = domain();
    let irregular = Rect::new(-1.3, -0.7, 70.1, 66.9).unwrap();
    vec![
        ("quadtree", PsdConfig::quadtree(d, 4, 0.5).with_seed(42)),
        (
            "kd-standard",
            PsdConfig::kd_standard(d, 3, 0.8).with_seed(7),
        ),
        ("kd-hybrid", PsdConfig::kd_hybrid(d, 4, 0.6, 2).with_seed(9)),
        (
            "kd-noisymean",
            PsdConfig::kd_noisymean(d, 3, 0.5).with_seed(3),
        ),
        (
            "kd-cell",
            PsdConfig::kd_cell(d, 3, 1.0, (32, 32)).with_seed(21),
        ),
        (
            "hilbert-r",
            PsdConfig::hilbert_r(d, 3, 0.5)
                .with_hilbert_order(10)
                .with_seed(11),
        ),
        ("kd-true", PsdConfig::kd_true(d, 3, 0.7).with_seed(5)),
        ("kd-pure", PsdConfig::kd_pure(d, 3)),
        (
            "quadtree-leafonly",
            PsdConfig::quadtree(d, 3, 0.5)
                .with_count_budget(CountBudget::LeafOnly)
                .with_postprocess(false)
                .with_seed(2),
        ),
        (
            "kd-standard-pruned",
            PsdConfig::kd_standard(d, 4, 0.4)
                .with_prune_threshold(20.0)
                .with_seed(13),
        ),
        // An irregular domain makes cell widths and overlap fractions
        // inexact, so these rows pin the association of the grid's
        // prorated cell mass and the curve-cell box arithmetic.
        (
            "kd-cell-irregular",
            PsdConfig::kd_cell(irregular, 4, 0.9, (37, 23)).with_seed(31),
        ),
        (
            "hilbert-r-irregular",
            PsdConfig::hilbert_r(irregular, 4, 0.6).with_seed(17),
        ),
    ]
}

/// Captured from the pre-refactor planar implementation. Regenerate by
/// running with `PRINT_FINGERPRINTS=1` and `--nocapture` — but a change
/// here means the build pipeline is no longer bit-compatible and must be
/// justified.
const GOLDEN: &[(&str, u64)] = &[
    ("quadtree", 0x0a030709860dc29c),
    ("kd-standard", 0x0f34ca68b9773be8),
    ("kd-hybrid", 0x1e2ade64ab8d9b65),
    ("kd-noisymean", 0xf962e28b45cd1e9e),
    ("kd-cell", 0xee48484315bd409c),
    ("hilbert-r", 0xe2171a82de349e2c),
    ("kd-true", 0xf0ce24a7b0fd690e),
    ("kd-pure", 0x8954417b338847a8),
    ("quadtree-leafonly", 0x5cd98e89c0987890),
    ("kd-standard-pruned", 0x745d30ad3549aec4),
    ("kd-cell-irregular", 0xc9a7771a9ba4c869),
    ("hilbert-r-irregular", 0x857a1f12f23e81a1),
];

/// Deterministic clustered 3-D dataset for the dimension-generic
/// `kd-cell`/`Hilbert-R` fingerprints (no RNG, refactor-proof).
fn dataset_3d() -> Vec<Point<3>> {
    let mut pts = Vec::new();
    for i in 0..3000 {
        pts.push(Point::from_coords([
            (i % 25) as f64 * 0.6,
            (i / 25 % 25) as f64 * 0.6,
            (i / 625) as f64 * 3.1,
        ]));
    }
    for i in 0..500 {
        pts.push(Point::from_coords([
            i as f64 * 0.128,
            i as f64 * 0.128,
            (i % 64) as f64,
        ]));
    }
    pts
}

/// Configs exercising the `kd-cell` and `Hilbert-R` builders beyond the
/// plane: both families at `D = 3` (plus the Z-order curve, which the
/// test also pins at `D = 2`).
fn configs_nd() -> Vec<(&'static str, PsdConfig<3>)> {
    let d = Rect::from_corners([0.0; 3], [64.0; 3]).unwrap();
    vec![
        (
            "kd-cell-3d",
            PsdConfig::kd_cell(d, 2, 1.0, (16, 16)).with_seed(21),
        ),
        (
            "hilbert-r-3d",
            PsdConfig::hilbert_r(d, 2, 0.5)
                .with_hilbert_order(8)
                .with_seed(11),
        ),
        (
            "zorder-r-3d",
            PsdConfig::hilbert_r(d, 2, 0.5)
                .with_curve(CurveKind::ZOrder)
                .with_hilbert_order(8)
                .with_seed(11),
        ),
        // Pins the grid's prorated-mass association, `((c·f0)·f1)·f2`,
        // which only shows on a domain with inexact cell widths.
        (
            "kd-cell-3d-irregular",
            PsdConfig::kd_cell(
                Rect::from_corners([-1.3, -0.7, -2.9], [70.1, 66.9, 71.3]).unwrap(),
                3,
                0.9,
                (9, 7),
            )
            .with_seed(31),
        ),
    ]
}

/// Captured from the dimension-generic builders: any change here means
/// the `D != 2` build pipeline (grid reads and their mass association,
/// curve encoding, RNG order) drifted and must be justified. Regenerate
/// with `PRINT_FINGERPRINTS=1`.
const GOLDEN_ND: &[(&str, u64)] = &[
    ("kd-cell-3d", 0x79f5ec77f4959744),
    ("hilbert-r-3d", 0xf5105717e3293c9e),
    ("zorder-r-3d", 0x5e488c8a66e047da),
    ("zorder-r-2d", 0xa676cc6cc7b4171e),
    ("kd-cell-3d-irregular", 0xc824e40460defd4d),
];

#[test]
fn dimension_generic_families_match_their_goldens() {
    let pts3 = dataset_3d();
    let zorder2 = (
        "zorder-r-2d",
        PsdConfig::hilbert_r(domain(), 3, 0.5)
            .with_curve(CurveKind::ZOrder)
            .with_hilbert_order(10)
            .with_seed(11),
    );
    let mut prints: Vec<(&'static str, u64)> = configs_nd()
        .into_iter()
        .map(|(name, config)| (name, fingerprint(&config.build(&pts3).unwrap())))
        .collect();
    prints.push((
        zorder2.0,
        fingerprint(&zorder2.1.build(&dataset()).unwrap()),
    ));
    if std::env::var("PRINT_FINGERPRINTS").is_ok() {
        for (name, fp) in &prints {
            println!("(\"{name}\", {fp:#018x}),");
        }
        return;
    }
    for (name, fp) in prints {
        let expected = GOLDEN_ND
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden entry for {name}"))
            .1;
        assert_eq!(fp, expected, "{name}: Nd build no longer reproducible");
    }
}

#[test]
fn two_d_pipeline_is_bit_identical_to_pre_refactor_golden() {
    let pts = dataset();
    if std::env::var("PRINT_FINGERPRINTS").is_ok() {
        for (name, config) in configs() {
            let tree = config.build(&pts).unwrap();
            println!("(\"{name}\", {:#018x}),", fingerprint(&tree));
        }
        return;
    }
    for (name, config) in configs() {
        let tree = config.build(&pts).unwrap();
        let expected = GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden entry for {name}"))
            .1;
        assert_eq!(
            fingerprint(&tree),
            expected,
            "{name}: tree no longer bit-identical to the pre-refactor build"
        );
    }
}

/// The flat arena is held to the same standard as the parallel path:
/// for every fingerprinted family config, publishing the release as
/// `dpsd-bin/v1` and sweeping the `FlatSynopsis` arena must return
/// bit-for-bit what the pointer tree returns, query for query, and the
/// binary round-trip back to a `ReleasedSynopsis` must change nothing.
#[test]
fn flat_arena_is_bit_identical_on_all_golden_configs() {
    let pts = dataset();
    let queries: Vec<Rect> = (0..300)
        .map(|i| {
            let x = (i % 21) as f64 * 2.9 - 3.0;
            let y = ((i * 11) % 17) as f64 * 3.7;
            let w = 0.7 + (i % 15) as f64 * 3.1;
            let h = 1.3 + (i % 7) as f64 * 5.9;
            Rect::new(x, y, x + w, y + h).unwrap()
        })
        .collect();
    for (name, config) in configs() {
        let tree = config.build(&pts).unwrap();
        let released = tree.release();
        let blob = released.to_flat_bytes();
        let flat = FlatSynopsis::<2>::from_bytes(&blob).unwrap();
        let reloaded = ReleasedSynopsis::<2>::from_flat_bytes(&blob).unwrap();
        assert_eq!(
            reloaded.to_flat_bytes(),
            blob,
            "{name}: binary re-encode drifted"
        );
        let tree_batch = released.query_batch(&queries);
        let flat_batch = flat.query_batch(&queries);
        let reloaded_batch = reloaded.query_batch(&queries);
        for (i, ((&t, &f), &r)) in tree_batch
            .iter()
            .zip(&flat_batch)
            .zip(&reloaded_batch)
            .enumerate()
        {
            assert_eq!(
                t.to_bits(),
                f.to_bits(),
                "{name}: flat arena diverged from the tree at query {i}"
            );
            assert_eq!(
                t.to_bits(),
                r.to_bits(),
                "{name}: binary round-trip diverged from the tree at query {i}"
            );
        }
    }
}

/// The parallel query path is held to the same standard as the build
/// pipeline: for every fingerprinted family config,
/// `query_batch_parallel` must return bit-for-bit what the sequential
/// batch (and therefore a loop of single queries) returns, at every
/// thread count.
#[test]
fn parallel_queries_are_bit_identical_on_all_golden_configs() {
    let pts = dataset();
    let queries: Vec<Rect> = (0..300)
        .map(|i| {
            let x = (i % 21) as f64 * 2.9 - 3.0;
            let y = ((i * 11) % 17) as f64 * 3.7;
            let w = 0.7 + (i % 15) as f64 * 3.1;
            let h = 1.3 + (i % 7) as f64 * 5.9;
            Rect::new(x, y, x + w, y + h).unwrap()
        })
        .collect();
    for (name, config) in configs() {
        let tree = config.build(&pts).unwrap();
        let sequential = tree.query_batch(&queries);
        for threads in [1usize, 2, 3, 8] {
            let parallel = tree.query_batch_parallel(&queries, Parallelism::fixed(threads));
            assert_eq!(
                parallel.len(),
                sequential.len(),
                "{name}: t={threads} dropped answers"
            );
            for (i, (&s, &p)) in sequential.iter().zip(&parallel).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    p.to_bits(),
                    "{name}: parallel (t={threads}) diverged from sequential at query {i}"
                );
            }
        }
    }
}
