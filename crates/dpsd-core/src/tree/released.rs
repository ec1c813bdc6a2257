//! The publishable synopsis artifact.
//!
//! [`ReleasedSynopsis`] is the privacy boundary of the workspace as a
//! *type*: a raw-data-free export of a built [`PsdTree`] — node
//! rectangles, released noisy counts, per-level budgets, pruning cuts —
//! that serializes to JSON, round-trips exactly, and answers queries
//! **identically** to the tree it was exported from. A data owner builds
//! a tree once, publishes `to_json()`, and any number of query servers
//! load it with [`ReleasedSynopsis::from_json`] and serve range counts
//! through [`SpatialSynopsis`](crate::synopsis::SpatialSynopsis) without
//! ever seeing a raw coordinate.
//!
//! Two deliberate exclusions keep the artifact safe and minimal:
//!
//! * **Exact counts never leave the owner.** The export zeroes them; a
//!   loaded synopsis reports `true_count = 0` everywhere.
//! * **Post-processed counts are never serialized.** OLS is a
//!   deterministic function of the released noisy counts (paper
//!   Section 5), so the loader recomputes it bit-for-bit; a malformed
//!   file cannot smuggle in inconsistent "post-processed" values.
//!
//! ```
//! use dpsd_core::geometry::{Point, Rect};
//! use dpsd_core::synopsis::SpatialSynopsis;
//! use dpsd_core::tree::{PsdConfig, ReleasedSynopsis};
//!
//! let pts: Vec<Point> = (0..300)
//!     .map(|i| Point::new((i % 20) as f64, (i / 20) as f64))
//!     .collect();
//! let domain = Rect::new(0.0, 0.0, 20.0, 15.0).unwrap();
//! let tree = PsdConfig::quadtree(domain, 3, 0.5).with_seed(3).build(&pts).unwrap();
//!
//! // Owner side: export.
//! let published = ReleasedSynopsis::from_tree(&tree).to_json();
//!
//! // Server side: load and answer, identically to the source tree.
//! let synopsis = ReleasedSynopsis::from_json(&published).unwrap();
//! let q = Rect::new(2.0, 3.0, 11.0, 9.0).unwrap();
//! assert_eq!(synopsis.query(&q), tree.query(&q));
//! assert_eq!(synopsis.as_tree().true_count(0), 0.0); // raw data stayed home
//! ```

use crate::error::DpsdError;
use crate::flat::Columns;
use crate::geometry::Rect;
use crate::tree::{PsdTree, TreeKind};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// Format tag written into every serialized synopsis.
pub const FORMAT: &str = "dpsd-synopsis";
/// Current wire version.
pub const VERSION: u64 = 1;

/// A published, raw-data-free spatial synopsis.
///
/// Internally this holds a query-ready [`PsdTree`] whose exact-count
/// column is zeroed; construction (either from a tree or from JSON)
/// re-establishes every invariant, so queries are infallible.
#[derive(Debug, Clone)]
pub struct ReleasedSynopsis<const D: usize = 2> {
    tree: PsdTree<D>,
}

impl<const D: usize> ReleasedSynopsis<D> {
    /// Exports the public part of a built tree: kind, geometry, budgets,
    /// released noisy counts, pruning cuts. Exact counts are dropped;
    /// post-processed counts carry over (they are derived from released
    /// values only).
    pub fn from_tree(source: &PsdTree<D>) -> Self {
        let m = source.node_count();
        let mut tree = PsdTree::from_columns(
            source.kind(),
            source.fanout(),
            source.height(),
            *source.domain(),
            source.node_ids().map(|v| *source.rect(v)).collect(),
            vec![0.0; m],
            source
                .node_ids()
                .map(|v| source.noisy_count(v).unwrap_or(0.0))
                .collect(),
            source
                .node_ids()
                .map(|v| source.noisy_count(v).is_some())
                .collect(),
            source.eps_count_levels().to_vec(),
            source.eps_median_levels().to_vec(),
            source.epsilon(),
        );
        if source.is_postprocessed() {
            tree.set_posted(
                source
                    .node_ids()
                    .map(|v| {
                        source
                            .posted_count(v)
                            // dpsd-allow(no-panic-in-lib): this branch runs only when has_posted() was true, and posted vectors cover every node id
                            .expect("postprocessed tree has posted counts")
                    })
                    .collect(),
            );
        }
        for v in source.node_ids() {
            if source.is_cut(v) {
                tree.mark_cut(v);
            }
        }
        ReleasedSynopsis { tree }
    }

    /// The query engine behind this synopsis. Exact counts are zero.
    pub fn as_tree(&self) -> &PsdTree<D> {
        &self.tree
    }

    /// Consumes the synopsis, yielding the query-ready tree.
    pub fn into_tree(self) -> PsdTree<D> {
        self.tree
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        // dpsd-allow(no-panic-in-lib): release() clamps every count to a finite value, and finite f64s always serialize
        serde_json::to_string(self).expect("synopsis values are always finite")
    }

    /// Serializes to indented JSON (for inspection and diffs).
    pub fn to_json_pretty(&self) -> String {
        // dpsd-allow(no-panic-in-lib): same finiteness invariant as to_json above
        serde_json::to_string_pretty(self).expect("synopsis values are always finite")
    }

    /// Parses and fully validates a published synopsis. Post-processing
    /// is recomputed from the released counts whenever the artifact says
    /// its source was post-processed, so query answers match the source
    /// tree exactly.
    pub fn from_json(text: &str) -> Result<Self, DpsdError> {
        serde_json::from_str(text).map_err(DpsdError::from)
    }

    /// Serializes to compact JSON. Explicitly-named alias of
    /// [`ReleasedSynopsis::to_json`] so call sites read as
    /// string-in/string-out without consulting the signature.
    pub fn to_json_string(&self) -> String {
        self.to_json()
    }

    /// Parses a published synopsis from JSON text. Explicitly-named
    /// alias of [`ReleasedSynopsis::from_json`].
    pub fn from_json_str(text: &str) -> Result<Self, DpsdError> {
        Self::from_json(text)
    }

    /// Serializes to the `dpsd-bin/v1` flat binary format — the
    /// compact, checksummed, bit-exact carrier for serving at scale
    /// (layout and trade-offs in the [`crate::flat`] module docs).
    pub fn to_flat_bytes(&self) -> Vec<u8> {
        crate::flat::encode(self)
    }

    /// Parses and fully validates a `dpsd-bin/v1` artifact (the
    /// [`to_flat_bytes`](ReleasedSynopsis::to_flat_bytes) output) into a
    /// query-ready synopsis. Validation is the JSON loader's, plus the
    /// binary framing (checksum, level table, exact length), and
    /// post-processing is recomputed from the released counts, so
    /// answers match the source tree bit-for-bit.
    pub fn from_flat_bytes(bytes: &[u8]) -> Result<Self, DpsdError> {
        Ok(ReleasedSynopsis {
            tree: crate::flat::decode::<D>(bytes)?.into_tree(),
        })
    }
}

fn kind_tag(kind: TreeKind) -> &'static str {
    match kind {
        TreeKind::Quadtree => "quadtree",
        TreeKind::KdStandard => "kd-standard",
        TreeKind::KdHybrid => "kd-hybrid",
        TreeKind::KdCell => "kd-cell",
        TreeKind::KdNoisyMean => "kd-noisymean",
        TreeKind::KdPure => "kd-pure",
        TreeKind::KdTrue => "kd-true",
        TreeKind::HilbertR => "hilbert-r",
    }
}

fn kind_from_tag(tag: &str) -> Option<TreeKind> {
    Some(match tag {
        "quadtree" => TreeKind::Quadtree,
        "kd-standard" => TreeKind::KdStandard,
        "kd-hybrid" => TreeKind::KdHybrid,
        "kd-cell" => TreeKind::KdCell,
        "kd-noisymean" => TreeKind::KdNoisyMean,
        "kd-pure" => TreeKind::KdPure,
        "kd-true" => TreeKind::KdTrue,
        "hilbert-r" => TreeKind::HilbertR,
        _ => return None,
    })
}

/// Flattens a box into the wire layout: all minima, then all maxima.
/// For `D = 2` this is `[min_x, min_y, max_x, max_y]` — byte-identical
/// to the pre-generic wire format.
fn box_to_wire<const D: usize>(r: &Rect<D>) -> Vec<f64> {
    r.min.iter().chain(r.max.iter()).copied().collect()
}

impl<const D: usize> Serialize for ReleasedSynopsis<D> {
    fn serialize(&self) -> Value {
        let t = &self.tree;
        let nodes: Vec<Value> = t
            .node_ids()
            .map(|v| {
                let mut node = vec![("rect".to_string(), box_to_wire(t.rect(v)).serialize())];
                node.push(("count".to_string(), t.noisy_count(v).serialize()));
                if t.is_cut(v) {
                    node.push(("cut".to_string(), true.serialize()));
                }
                Value::Object(node)
            })
            .collect();
        Value::Object(vec![
            ("format".to_string(), FORMAT.serialize()),
            ("version".to_string(), VERSION.serialize()),
            ("kind".to_string(), kind_tag(t.kind()).serialize()),
            ("fanout".to_string(), t.fanout().serialize()),
            ("dims".to_string(), D.serialize()),
            ("height".to_string(), t.height().serialize()),
            ("domain".to_string(), box_to_wire(t.domain()).serialize()),
            ("epsilon".to_string(), t.epsilon().serialize()),
            (
                "eps_count".to_string(),
                t.eps_count_levels().to_vec().serialize(),
            ),
            (
                "eps_median".to_string(),
                t.eps_median_levels().to_vec().serialize(),
            ),
            (
                "postprocessed".to_string(),
                t.is_postprocessed().serialize(),
            ),
            ("nodes".to_string(), Value::Array(nodes)),
        ])
    }
}

fn field<'v>(value: &'v Value, name: &str) -> Result<&'v Value, SerdeError> {
    value
        .get(name)
        .ok_or_else(|| SerdeError::msg(format!("missing field `{name}`")))
}

/// Reads a wire box (all minima, then all maxima) without checking the
/// corner order, which [`Columns::validate`] does for every box.
fn corners<const D: usize>(value: &Value, what: &str) -> Result<Rect<D>, SerdeError> {
    let coords = value
        .as_array()
        .filter(|c| c.len() == 2 * D)
        .ok_or_else(|| SerdeError::msg(format!("{what} must be an array of {} numbers", 2 * D)))?;
    let mut r = Rect {
        min: [0.0; D],
        max: [0.0; D],
    };
    for k in 0..D {
        r.min[k] = f64::deserialize(&coords[k])?;
        r.max[k] = f64::deserialize(&coords[D + k])?;
    }
    Ok(r)
}

fn levels(value: &Value, name: &str) -> Result<Vec<f64>, SerdeError> {
    Vec::<f64>::deserialize(field(value, name)?)
        .map_err(|_| SerdeError::msg(format!("`{name}` must be an array of numbers")))
}

/// The JSON codec's reader: checks the JSON framing (format tag,
/// version, field presence and types, the optional `dims`) and hands
/// everything else to the validator shared with `dpsd-bin`.
pub(crate) fn columns_from_json<const D: usize>(value: &Value) -> Result<Columns<D>, SerdeError> {
    let format = String::deserialize(field(value, "format")?)?;
    if format != FORMAT {
        return Err(SerdeError::msg(format!(
            "not a {FORMAT} artifact: `{format}`"
        )));
    }
    let version = u64::deserialize(field(value, "version")?)?;
    if version != VERSION {
        return Err(SerdeError::msg(format!("unsupported version {version}")));
    }
    let kind_s = String::deserialize(field(value, "kind")?)?;
    let kind = kind_from_tag(&kind_s)
        .ok_or_else(|| SerdeError::msg(format!("unknown tree kind `{kind_s}`")))?;
    // `dims` is optional for backward compatibility: artifacts
    // serialized before the dimension-generic format are planar.
    let dims = match value.get("dims") {
        Some(d) => usize::deserialize(d)?,
        None => 2,
    };
    if dims != D {
        return Err(SerdeError::msg(format!(
            "artifact is {dims}-dimensional, expected {D}"
        )));
    }
    let nodes = field(value, "nodes")?
        .as_array()
        .ok_or_else(|| SerdeError::msg("`nodes` must be an array"))?;
    let n = nodes.len();
    let mut mins = vec![0.0; D * n];
    let mut maxs = vec![0.0; D * n];
    let mut noisy = vec![0.0; n];
    let mut released = vec![false; n];
    let mut cut = vec![false; n];
    for (v, node) in nodes.iter().enumerate() {
        let r = corners::<D>(field(node, "rect")?, "node rect")?;
        for k in 0..D {
            mins[k * n + v] = r.min[k];
            maxs[k * n + v] = r.max[k];
        }
        if let Some(c) = Option::<f64>::deserialize(field(node, "count")?)? {
            noisy[v] = c;
            released[v] = true;
        }
        if let Some(flag) = node.get("cut") {
            cut[v] = bool::deserialize(flag)?;
        }
    }
    Columns {
        kind,
        postprocessed: bool::deserialize(field(value, "postprocessed")?)?,
        fanout: usize::deserialize(field(value, "fanout")?)?,
        height: usize::deserialize(field(value, "height")?)?,
        epsilon: f64::deserialize(field(value, "epsilon")?)?,
        domain: corners(field(value, "domain")?, "domain")?,
        eps_count: levels(value, "eps_count")?,
        eps_median: levels(value, "eps_median")?,
        mins,
        maxs,
        noisy,
        released,
        cut,
    }
    .validate()
    .map_err(|e| match e {
        DpsdError::Format { reason } => SerdeError(reason),
        other => SerdeError::msg(other.to_string()),
    })
}

impl<const D: usize> Deserialize for ReleasedSynopsis<D> {
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        Ok(ReleasedSynopsis {
            tree: columns_from_json::<D>(value)?.into_tree(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CountBudget;
    use crate::geometry::Point;
    use crate::query::{range_query, range_query_batch};
    use crate::synopsis::SpatialSynopsis;
    use crate::tree::PsdConfig;

    fn sample_points() -> (Rect<2>, Vec<Point>) {
        let domain = Rect::new(0.0, 0.0, 64.0, 64.0).unwrap();
        let pts = (0..2000)
            .map(|i| {
                Point::new(
                    (i % 53) as f64 * 64.0 / 53.0,
                    ((i * 7) % 61) as f64 * 64.0 / 61.0,
                )
            })
            .collect();
        (domain, pts)
    }

    fn workload(domain: &Rect, n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let fx = (i % 17) as f64 / 17.0;
                let fy = ((i * 5) % 13) as f64 / 13.0;
                let w = 4.0 + (i % 7) as f64 * 6.0;
                let h = 3.0 + (i % 11) as f64 * 4.0;
                Rect::new(
                    domain.min_x() + fx * (domain.width() - w),
                    domain.min_y() + fy * (domain.height() - h),
                    domain.min_x() + fx * (domain.width() - w) + w,
                    domain.min_y() + fy * (domain.height() - h) + h,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn json_roundtrip_answers_identically_for_every_family() {
        let (domain, pts) = sample_points();
        let configs = [
            PsdConfig::quadtree(domain, 4, 0.5),
            PsdConfig::kd_standard(domain, 3, 0.5),
            PsdConfig::kd_hybrid(domain, 3, 0.5, 2),
            PsdConfig::kd_noisymean(domain, 3, 0.5),
            PsdConfig::hilbert_r(domain, 3, 0.5).with_hilbert_order(10),
        ];
        let queries = workload(&domain, 200);
        for config in configs {
            let tree = config.with_seed(21).build(&pts).unwrap();
            let json = ReleasedSynopsis::from_tree(&tree).to_json();
            let loaded: ReleasedSynopsis = ReleasedSynopsis::from_json(&json).unwrap();
            assert_eq!(loaded.as_tree().kind(), tree.kind());
            for q in &queries {
                assert_eq!(
                    loaded.query(q),
                    range_query(&tree, q),
                    "{}: divergent answer for {q:?}",
                    tree.kind()
                );
            }
            // The batched path agrees too.
            let batch = loaded.query_batch(&queries);
            assert_eq!(batch, range_query_batch(&tree, &queries), "{}", tree.kind());
        }
    }

    #[test]
    fn export_strips_exact_counts() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 3, 1.0)
            .with_seed(1)
            .build(&pts)
            .unwrap();
        assert_eq!(tree.true_count(0), pts.len() as f64);
        let synopsis = ReleasedSynopsis::from_tree(&tree);
        for v in synopsis.as_tree().node_ids() {
            assert_eq!(synopsis.as_tree().true_count(v), 0.0);
        }
        // And the wire text never carries the exact total.
        let json = synopsis.to_json();
        assert!(
            !json.contains(&format!("{}.0", pts.len())),
            "exact count leaked"
        );
    }

    #[test]
    fn pruned_and_withheld_structure_roundtrips() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::kd_standard(domain, 4, 0.4)
            .with_prune_threshold(20.0)
            .with_seed(5)
            .build(&pts)
            .unwrap();
        assert!(
            tree.node_ids().any(|v| tree.is_cut(v)),
            "pruning had no effect"
        );
        let loaded: ReleasedSynopsis =
            ReleasedSynopsis::from_json(&tree.release().to_json()).unwrap();
        for v in tree.node_ids() {
            assert_eq!(loaded.as_tree().is_cut(v), tree.is_cut(v), "cut {v}");
            assert_eq!(
                loaded.as_tree().noisy_count(v),
                tree.noisy_count(v),
                "count {v}"
            );
        }

        let leafy = PsdConfig::quadtree(domain, 2, 0.5)
            .with_count_budget(CountBudget::LeafOnly)
            .with_postprocess(false)
            .with_seed(2)
            .build(&pts)
            .unwrap();
        let loaded: ReleasedSynopsis =
            ReleasedSynopsis::from_json(&leafy.release().to_json()).unwrap();
        assert_eq!(
            loaded.as_tree().noisy_count(0),
            None,
            "withheld root stays withheld"
        );
        assert!(!loaded.as_tree().is_postprocessed());
    }

    #[test]
    fn pretty_json_parses_too() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 2, 0.5)
            .with_seed(3)
            .build(&pts)
            .unwrap();
        let pretty = ReleasedSynopsis::from_tree(&tree).to_json_pretty();
        let loaded = ReleasedSynopsis::from_json(&pretty).unwrap();
        assert_eq!(loaded.query(&domain), range_query(&tree, &domain));
    }

    #[test]
    fn malformed_synopses_are_rejected() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 2, 0.5)
            .with_seed(4)
            .build(&pts)
            .unwrap();
        let good = ReleasedSynopsis::from_tree(&tree).to_json();

        let cases = [
            ("not json at all", "{"),
            (
                "wrong format tag",
                r#"{"format":"something-else","version":1}"#,
            ),
            (
                "missing fields",
                r#"{"format":"dpsd-synopsis","version":1}"#,
            ),
            (
                "future version",
                &good.replace("\"version\":1", "\"version\":99"),
            ),
            ("unknown kind", &good.replace("quadtree", "sorcery")),
        ];
        // Shape, budget and count defects are the shared validator's;
        // tests/flat_golden.rs runs them through both codecs.
        for (what, text) in cases {
            assert!(
                matches!(
                    ReleasedSynopsis::<2>::from_json(text),
                    Err(DpsdError::Format { .. })
                ),
                "{what} should be rejected"
            );
        }
        // The unmodified artifact still parses.
        assert!(ReleasedSynopsis::<2>::from_json(&good).is_ok());
    }

    #[test]
    fn postprocessed_flag_with_zero_leaf_budget_is_rejected_not_a_panic() {
        // A crafted artifact can claim `postprocessed: true` while
        // carrying no leaf-level count budget; OLS recomputation would
        // assert. The loader must reject it as a typed error.
        let (domain, pts) = sample_points();
        let leafy = PsdConfig::quadtree(domain, 2, 0.5)
            .with_count_budget(CountBudget::LeafOnly)
            .with_postprocess(false)
            .with_seed(7)
            .build(&pts)
            .unwrap();
        let json = leafy.release().to_json();
        assert!(
            json.contains("\"eps_count\":[0.5,0.0,0.0]"),
            "fixture drifted: {json:.120}"
        );
        let crafted = json
            .replace("\"postprocessed\":false", "\"postprocessed\":true")
            .replace(
                "\"eps_count\":[0.5,0.0,0.0]",
                "\"eps_count\":[0.0,0.25,0.25]",
            );
        match ReleasedSynopsis::<2>::from_json(&crafted) {
            Err(DpsdError::Format { reason }) => {
                assert!(reason.contains("leaf-level"), "unexpected reason: {reason}")
            }
            other => panic!("crafted artifact must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn named_constructors_delegate_to_both_formats() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::kd_standard(domain, 3, 0.5)
            .with_seed(17)
            .build(&pts)
            .unwrap();
        let synopsis = ReleasedSynopsis::from_tree(&tree);
        let queries = workload(&domain, 60);

        // JSON aliases are byte-for-byte the canonical serialization.
        assert_eq!(synopsis.to_json_string(), synopsis.to_json());
        let via_alias = ReleasedSynopsis::<2>::from_json_str(&synopsis.to_json_string()).unwrap();
        assert_eq!(via_alias.query_batch(&queries), tree.query_batch(&queries));

        // The binary format round-trips through the same type.
        let via_bin = ReleasedSynopsis::<2>::from_flat_bytes(&synopsis.to_flat_bytes()).unwrap();
        assert_eq!(via_bin.as_tree().kind(), tree.kind());
        for (a, b) in via_bin
            .query_batch(&queries)
            .iter()
            .zip(tree.query_batch(&queries))
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn postprocessing_is_recomputed_not_trusted() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 3, 0.5)
            .with_seed(6)
            .build(&pts)
            .unwrap();
        assert!(tree.is_postprocessed());
        let json = ReleasedSynopsis::from_tree(&tree).to_json();
        // Posted counts are not on the wire at all.
        assert!(!json.contains("posted"));
        let loaded: ReleasedSynopsis = ReleasedSynopsis::from_json(&json).unwrap();
        for v in tree.node_ids() {
            let (a, b) = (
                loaded.as_tree().posted_count(v).unwrap(),
                tree.posted_count(v).unwrap(),
            );
            assert_eq!(a.to_bits(), b.to_bits(), "posted {v}: {a} vs {b}");
        }
    }
}
