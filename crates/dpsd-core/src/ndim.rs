//! Unit tests of midpoint trees beyond the plane: the octree
//! (`PsdConfig::<3>::quadtree`, fanout 8) and its 4-D sibling (fanout
//! 16), built through the one generic pipeline every family shares.

#[cfg(test)]
mod tests {
    use crate::budget::geometric_levels_nd;
    use crate::query::{range_query, range_query_with};
    use crate::tree::{BuildError, CountSource, PsdConfig, ReleasedSynopsis};
    use crate::{DpsdError, Point, Rect};

    fn cube_points_3d(n_side: usize) -> Vec<Point<3>> {
        let at = |i: usize| (i as f64 + 0.5) / n_side as f64 * 8.0;
        let mut pts = Vec::with_capacity(n_side * n_side * n_side);
        for i in 0..n_side {
            for j in 0..n_side {
                for k in 0..n_side {
                    pts.push(Point::from_coords([at(i), at(j), at(k)]));
                }
            }
        }
        pts
    }

    fn cube() -> Rect<3> {
        Rect::from_corners([0.0; 3], [8.0; 3]).unwrap()
    }

    fn octree(height: usize, eps: f64, seed: u64) -> PsdConfig<3> {
        PsdConfig::quadtree(cube(), height, eps).with_seed(seed)
    }

    #[test]
    fn octree_structure_invariants() {
        let pts = cube_points_3d(16); // 4096 points
        let tree = octree(2, 1.0, 1).build(&pts).unwrap();
        assert_eq!(tree.fanout(), 8);
        assert_eq!(tree.node_count(), 1 + 8 + 64);
        assert_eq!(tree.true_count(0), 4096.0);
        // Children partition exactly: each depth-1 octant holds 512.
        for c in tree.children(0) {
            assert_eq!(tree.true_count(c), 512.0, "octant {c}");
        }
        // Consistency through both levels.
        for v in 0..9 {
            let sum: f64 = tree.children(v).map(|c| tree.true_count(c)).sum();
            assert_eq!(sum, tree.true_count(v));
        }
    }

    #[test]
    fn octree_exact_queries_match_brute_force() {
        let pts = cube_points_3d(16);
        let tree = octree(2, 1.0, 2).build(&pts).unwrap();
        let queries = [
            Rect::from_corners([0.0; 3], [8.0; 3]).unwrap(),
            Rect::from_corners([0.0; 3], [4.0, 4.0, 8.0]).unwrap(),
            Rect::from_corners([2.0; 3], [6.0; 3]).unwrap(), // leaf-aligned at depth 2
        ];
        for q in &queries {
            let brute = pts.iter().filter(|p| q.contains(**p)).count() as f64;
            let est = range_query_with(&tree, q, CountSource::True);
            assert!((est - brute).abs() < 1e-9, "query {q:?}: {est} vs {brute}");
        }
    }

    #[test]
    fn octree_noisy_queries_concentrate() {
        let pts = cube_points_3d(16);
        let q = Rect::from_corners([0.0; 3], [4.0, 8.0, 8.0]).unwrap();
        let truth = 2048.0;
        let mut total_err = 0.0;
        for seed in 0..20 {
            let tree = octree(3, 1.0, seed).build(&pts).unwrap();
            total_err += (range_query(&tree, &q) - truth).abs();
        }
        assert!(total_err / 20.0 < 100.0, "mean error {}", total_err / 20.0);
    }

    #[test]
    fn octree_ols_is_consistent() {
        let pts = cube_points_3d(8);
        let tree = octree(2, 0.5, 3).build(&pts).unwrap();
        for v in 0..9 {
            let sum: f64 = tree
                .children(v)
                .map(|c| tree.posted_count(c).unwrap())
                .sum();
            let own = tree.posted_count(v).unwrap();
            assert!((own - sum).abs() < 1e-6 * (1.0 + own.abs()), "node {v}");
        }
    }

    #[test]
    fn budget_sums_to_epsilon() {
        let pts = cube_points_3d(4);
        let tree = octree(3, 0.7, 4).build(&pts).unwrap();
        let total: f64 = tree.eps_count_levels().iter().sum();
        assert!((total - 0.7).abs() < 1e-12);
        // Midpoint trees of every dimension use the single nd allocator.
        let expect = geometric_levels_nd(3, 0.7, 3).unwrap();
        assert_eq!(tree.eps_count_levels(), expect.as_slice());
    }

    #[test]
    fn four_dimensional_tree_builds() {
        let domain = Rect::from_corners([0.0; 4], [1.0; 4]).unwrap();
        let pts: Vec<Point<4>> = (0..500)
            .map(|i| {
                Point::from_coords([
                    (i % 10) as f64 / 10.0,
                    (i / 10 % 10) as f64 / 10.0,
                    (i / 100 % 10) as f64 / 10.0,
                    0.5,
                ])
            })
            .collect();
        let tree = PsdConfig::quadtree(domain, 2, 1.0)
            .with_seed(5)
            .build(&pts)
            .unwrap();
        assert_eq!(tree.fanout(), 16);
        assert_eq!(tree.true_count(0), 500.0);
        let est = range_query_with(&tree, &domain, CountSource::True);
        assert!((est - 500.0).abs() < 1e-9);
    }

    #[test]
    fn validation_errors_are_unified() {
        // 3-D builds report the same DpsdError / BuildError kinds as
        // every other build path.
        let build_error = |config: PsdConfig<3>, pts: &[Point<3>]| match config.build(pts) {
            Err(DpsdError::Build(e)) => e,
            other => panic!("expected a build error, got {other:?}"),
        };
        let degenerate = Rect::from_corners([0.0; 3], [0.0, 1.0, 1.0]).unwrap();
        assert!(matches!(
            build_error(PsdConfig::quadtree(degenerate, 2, 1.0), &[]),
            BuildError::DegenerateDomain { .. }
        ));
        assert!(matches!(
            build_error(PsdConfig::quadtree(cube(), 2, -1.0), &[]),
            BuildError::InvalidEpsilon(_)
        ));
        assert!(matches!(
            build_error(
                PsdConfig::quadtree(cube(), 2, 1.0),
                &[Point::from_coords([9.0, 0.0, 0.0])]
            ),
            BuildError::PointOutsideDomain(_)
        ));
        assert!(matches!(
            build_error(PsdConfig::quadtree(cube(), 200, 1.0), &[]),
            BuildError::TooManyNodes { .. }
        ));
    }

    #[test]
    fn deterministic_by_seed() {
        let pts = cube_points_3d(8);
        let a = octree(2, 0.5, 9).build(&pts).unwrap();
        let b = octree(2, 0.5, 9).build(&pts).unwrap();
        for v in a.node_ids() {
            assert_eq!(
                a.noisy_count(v).map(f64::to_bits),
                b.noisy_count(v).map(f64::to_bits),
                "seeded build drifted at node {v}"
            );
        }
    }

    #[test]
    fn shim_releases_through_the_generic_pipeline() {
        // An octree publishes and reloads like any other family, in
        // both artifact codecs, and answers to the bit.
        let pts = cube_points_3d(8);
        let tree = octree(2, 0.5, 11).build(&pts).unwrap();
        let q = Rect::from_corners([0.0; 3], [4.0, 8.0, 8.0]).unwrap();
        let want = range_query(&tree, &q).to_bits();
        let json = ReleasedSynopsis::<3>::from_json(&tree.release().to_json()).unwrap();
        assert_eq!(range_query(json.as_tree(), &q).to_bits(), want);
        let bin = ReleasedSynopsis::<3>::from_flat_bytes(&tree.release().to_flat_bytes()).unwrap();
        assert_eq!(range_query(bin.as_tree(), &q).to_bits(), want);
    }
}
