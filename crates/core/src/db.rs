//! The shape database (§2.3) and one-shot query processing (§2.4).
//!
//! Inserting a shape assigns it a database id, runs the full feature
//! extraction pipeline, stores all four feature vectors, and updates
//! one R-tree per feature space — exactly the flow the paper describes
//! ("whenever a shape is inserted in the database, a database ID is
//! generated for it and all the feature vectors are extracted and
//! stored ... then the index is updated").

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use tdess_features::{FeatureExtractor, FeatureKind, FeatureSet, KindMap, NormalizeError};
use tdess_geom::TriMesh;
use tdess_index::{QueryStats, RTree, RTreeConfig};
use tdess_obs::{Stage, StageTimer};

use crate::similarity::{similarity, threshold_to_radius, weighted_distance, Weights};
use crate::snapshot::{MAX_FEATURE_DIM, MAX_VOXEL_RESOLUTION};

/// A database shape identifier.
pub type ShapeId = u64;

/// A stored shape: id, name, original mesh, and its feature vectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoredShape {
    /// Database id.
    pub id: ShapeId,
    /// Human-readable name.
    pub name: String,
    /// The original mesh (kept for result presentation / export).
    pub mesh: TriMesh,
    /// All extracted feature vectors.
    pub features: FeatureSet,
}

/// How a query selects results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QueryMode {
    /// The `k` most similar shapes.
    TopK(usize),
    /// All shapes with similarity ≥ the threshold (Eq. 4.4).
    Threshold(f64),
}

/// A one-shot query: one feature vector, optional per-dimension
/// weights, and a selection mode.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Query {
    /// Which feature vector to search with.
    pub kind: FeatureKind,
    /// Per-dimension weights (unit if not set).
    pub weights: Weights,
    /// Selection mode.
    pub mode: QueryMode,
}

impl Query {
    /// Top-k query with unit weights.
    pub fn top_k(kind: FeatureKind, k: usize) -> Query {
        Query {
            kind,
            weights: Weights::unit(),
            mode: QueryMode::TopK(k),
        }
    }

    /// Threshold query with unit weights.
    pub fn threshold(kind: FeatureKind, threshold: f64) -> Query {
        Query {
            kind,
            weights: Weights::unit(),
            mode: QueryMode::Threshold(threshold),
        }
    }
}

/// One search result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    /// Database id of the matching shape.
    pub id: ShapeId,
    /// Weighted Euclidean distance to the query (Eq. 4.3).
    pub distance: f64,
    /// Similarity (Eq. 4.4).
    pub similarity: f64,
}

/// Errors from database operations.
#[derive(Debug)]
pub enum DbError {
    /// Feature extraction failed for the inserted/query mesh.
    Extraction(NormalizeError),
    /// The referenced shape id does not exist.
    UnknownShape(ShapeId),
    /// A parallel worker died or failed to report its result.
    WorkerFailure(&'static str),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Extraction(e) => write!(f, "feature extraction failed: {e}"),
            DbError::UnknownShape(id) => write!(f, "unknown shape id {id}"),
            DbError::WorkerFailure(what) => write!(f, "parallel worker failure: {what}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<NormalizeError> for DbError {
    fn from(e: NormalizeError) -> Self {
        DbError::Extraction(e)
    }
}

/// The 3DESS shape database.
///
/// ```
/// use tdess_core::{Query, ShapeDatabase};
/// use tdess_features::{FeatureExtractor, FeatureKind};
/// use tdess_geom::{primitives, Vec3};
///
/// let mut db = ShapeDatabase::new(FeatureExtractor {
///     voxel_resolution: 16,
///     ..Default::default()
/// });
/// db.insert("box", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)))?;
/// db.insert("ball", primitives::uv_sphere(1.0, 12, 6))?;
///
/// let query = primitives::box_mesh(Vec3::new(2.1, 1.0, 0.5));
/// let hits = db.search_mesh(&query, &Query::top_k(FeatureKind::PrincipalMoments, 1))?;
/// assert_eq!(db.get(hits[0].id).unwrap().name, "box");
/// # Ok::<(), tdess_core::DbError>(())
/// ```
///
/// Not `Deserialize`: a database is only ever reassembled from stored
/// parts through [`ShapeDatabase::from_loaded_parts`], which validates
/// them and rebuilds the indexes, whichever format they came from.
#[derive(Debug, Clone)]
pub struct ShapeDatabase {
    extractor: FeatureExtractor,
    next_id: ShapeId,
    shapes: Vec<StoredShape>,
    id_index: HashMap<ShapeId, usize>,
    /// One R-tree per feature space, derived from `shapes`; every tree
    /// shares one fan-out config.
    indexes: KindMap<RTree<ShapeId>>,
    /// Diameter (max pairwise distance) per feature space, maintained
    /// incrementally; normalizes similarity (Eq. 4.4).
    dmax: KindMap<f64>,
}

impl ShapeDatabase {
    /// Creates an empty database with the given extractor
    /// configuration.
    pub fn new(extractor: FeatureExtractor) -> ShapeDatabase {
        ShapeDatabase {
            extractor,
            next_id: 1,
            shapes: Vec::new(),
            id_index: HashMap::new(),
            indexes: KindMap::from_fn(|kind| {
                RTree::new(extractor.dim(kind), RTreeConfig::default())
            }),
            dmax: KindMap::default(),
        }
    }

    /// Creates a database with default extraction settings.
    pub fn with_defaults() -> ShapeDatabase {
        ShapeDatabase::new(FeatureExtractor::default())
    }

    /// The extractor used by this database (queries must be extracted
    /// with compatible settings).
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// The id the next inserted shape will receive (persisted so id
    /// assignment continues across save/load).
    pub(crate) fn next_id(&self) -> ShapeId {
        self.next_id
    }

    /// Number of stored shapes.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// All stored shapes, in insertion order.
    pub fn shapes(&self) -> &[StoredShape] {
        &self.shapes
    }

    /// Looks up a shape by id.
    pub fn get(&self, id: ShapeId) -> Option<&StoredShape> {
        self.id_index.get(&id).map(|&i| &self.shapes[i])
    }

    /// Current similarity-normalization diameter for a feature space.
    pub fn dmax(&self, kind: FeatureKind) -> f64 {
        self.dmax[kind]
    }

    /// Rebuilds the transient id → slot map.
    fn rebuild_id_index(&mut self) {
        self.id_index = self
            .shapes
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            // hotpath: allow(hot-alloc) — id-index rebuild runs on remove, not per query
            .collect();
    }

    /// Inserts a mesh: extracts all feature vectors, stores the shape,
    /// and updates every index. Returns the new id.
    pub fn insert(&mut self, name: impl Into<String>, mesh: TriMesh) -> Result<ShapeId, DbError> {
        let features = self.extractor.extract(&mesh)?;
        Ok(self.insert_precomputed(name, mesh, features))
    }

    /// Inserts a shape whose features were already extracted (with an
    /// extractor configured identically to this database's) — the
    /// fast path used by parallel bulk indexing.
    pub fn insert_precomputed(
        &mut self,
        name: impl Into<String>,
        mesh: TriMesh,
        features: FeatureSet,
    ) -> ShapeId {
        // A batch of one, the new point after the stored ones: the plain
        // scan `grow_diameter` picks for it, called directly so the pivot
        // pass stays off the request path.
        let (stored, n) = (&self.shapes, self.shapes.len());
        for kind in FeatureKind::ALL {
            let new = features.get(kind);
            let point = |i: usize| {
                if i < n {
                    stored[i].features.get(kind)
                } else {
                    new
                }
            };
            self.dmax[kind] = scan_touching(n + 1, n, self.dmax[kind], point).dmax;
        }
        self.insert_indexed(name, mesh, features)
    }

    /// Inserts a batch of shapes with precomputed features. Each
    /// feature space's `dmax` grows by one [`grow_diameter`] pass over
    /// the pairs that touch a new shape, seeded with the stored value:
    /// exactly the value repeated [`ShapeDatabase::insert_precomputed`]
    /// calls produce. Ids are assigned in input order.
    ///
    /// When the batch is large relative to the database (bulk corpus
    /// builds, snapshot loads), every index is rebuilt with the STR
    /// bulk loader instead of inserted into one point at a time —
    /// packed trees build faster and answer queries with no more node
    /// accesses. Search results are identical either way: distances
    /// are computed from the stored vectors, and ties rank by id, not
    /// by the tree's shape.
    pub fn insert_batch_precomputed(
        &mut self,
        items: Vec<(String, TriMesh, FeatureSet)>,
    ) -> Vec<ShapeId> {
        let first_new = self.shapes.len();
        // A handful of inserts into a large database does not amortize
        // an O(n log n) rebuild of every tree; keep those incremental.
        if items.len() * 4 < first_new {
            let ids = items
                .into_iter()
                .map(|(name, mesh, features)| self.insert_indexed(name, mesh, features))
                .collect();
            let shapes = &self.shapes;
            for kind in FeatureKind::ALL {
                self.dmax[kind] = grow_diameter(shapes.len(), first_new, self.dmax[kind], |i| {
                    shapes[i].features.get(kind)
                })
                .dmax;
            }
            return ids;
        }
        let ids: Vec<ShapeId> = items
            .into_iter()
            .map(|(name, mesh, features)| {
                let id = self.next_id;
                self.next_id += 1;
                self.id_index.insert(id, self.shapes.len());
                self.shapes.push(StoredShape {
                    id,
                    name,
                    mesh,
                    features,
                });
                id
            })
            .collect();
        self.indexes = build_indexes(
            &self.extractor,
            &self.shapes,
            self.index_config(),
            first_new,
            &mut self.dmax,
        );
        ids
    }

    /// The fan-out configuration shared by this database's R-trees.
    pub(crate) fn index_config(&self) -> RTreeConfig {
        self.indexes[FeatureKind::MomentInvariants].config()
    }

    /// Reassembles a database from the parts a snapshot stores (JSON
    /// and binary alike): extractor, id counter, shapes with their
    /// meshes and features, the `dmax` table and the tree fan-out.
    /// The parts are untrusted bytes, so everything a later call
    /// relies on is checked here, in this one place; then the R-trees
    /// are STR-bulk-loaded from the stored vectors, since they are
    /// derived data and never stored.
    pub(crate) fn from_loaded_parts(
        extractor: FeatureExtractor,
        next_id: ShapeId,
        shapes: Vec<StoredShape>,
        mut dmax: KindMap<f64>,
        config: RTreeConfig,
    ) -> Result<ShapeDatabase, String> {
        // Voxelization needs a resolution of at least 2.
        if !(2..=MAX_VOXEL_RESOLUTION).contains(&extractor.voxel_resolution)
            || !(1..=MAX_FEATURE_DIM).contains(&extractor.spectrum_dim)
        {
            return Err(format!(
                "implausible extractor config: voxel_resolution {}, spectrum_dim {}",
                extractor.voxel_resolution, extractor.spectrum_dim
            ));
        }
        config.validate().map_err(|e| e.to_string())?;
        for (kind, &d) in dmax.iter() {
            if !d.is_finite() || d < 0.0 {
                return Err(format!(
                    "dmax for {kind:?} is {d}, expected finite and >= 0"
                ));
            }
        }
        for s in &shapes {
            s.features
                .check(&extractor)
                .map_err(|e| format!("shape {}: {e}", s.id))?;
            s.mesh
                .check_indices()
                .map_err(|e| format!("shape {}: {e}", s.id))?;
        }
        let mut ids: Vec<ShapeId> = shapes.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate shape id {}", w[0]));
        }
        let max_id: ShapeId = ids.last().copied().unwrap_or(0);
        if next_id <= max_id {
            return Err(format!(
                "next_id {next_id} would collide with stored id {max_id}"
            ));
        }
        // No shape is new: the stored `dmax` is kept as loaded.
        let indexes = build_indexes(&extractor, &shapes, config, shapes.len(), &mut dmax);
        let mut db = ShapeDatabase {
            extractor,
            next_id,
            indexes,
            shapes,
            id_index: HashMap::new(),
            dmax,
        };
        db.rebuild_id_index();
        Ok(db)
    }

    /// Stores a shape and updates every index, leaving `dmax`
    /// maintenance to the caller.
    fn insert_indexed(
        &mut self,
        name: impl Into<String>,
        mesh: TriMesh,
        features: FeatureSet,
    ) -> ShapeId {
        let id = self.next_id;
        self.next_id += 1;

        for kind in FeatureKind::ALL {
            // hotpath: allow(hot-alloc) — the database stores an owned copy of the inserted vector
            self.indexes[kind].insert(features.get(kind).to_vec(), id);
        }

        self.id_index.insert(id, self.shapes.len());
        self.shapes.push(StoredShape {
            id,
            name: name.into(),
            mesh,
            features,
        });
        id
    }

    /// Removes a shape from the database and all indexes.
    pub fn remove(&mut self, id: ShapeId) -> Result<StoredShape, DbError> {
        let slot = *self.id_index.get(&id).ok_or(DbError::UnknownShape(id))?;
        let shape = self.shapes.remove(slot);
        for kind in FeatureKind::ALL {
            self.indexes[kind].remove(shape.features.get(kind), |&p| p == id);
        }
        // Note: dmax is left as an upper bound (recomputing the exact
        // diameter on every delete would be O(n²)); similarity stays
        // well-defined, merely slightly conservative.
        self.rebuild_id_index();
        Ok(shape)
    }

    /// Extracts the feature vectors of a query mesh using this
    /// database's extractor (the "query by example" entry point).
    pub fn extract_query(&self, mesh: &TriMesh) -> Result<FeatureSet, DbError> {
        Ok(self.extractor.extract(mesh)?)
    }

    /// One-shot search with an already-extracted query feature set.
    ///
    /// Unit-weight queries run on the R-tree; weighted queries scan the
    /// stored features (a weighted metric changes the geometry the
    /// index was built for). Every path returns hits in `(distance,
    /// id)` order, so results depend on the stored shapes alone, never
    /// on how the trees were built.
    pub fn search(&self, features: &FeatureSet, query: &Query) -> Vec<SearchHit> {
        let mut stats = QueryStats::default();
        self.search_with_stats(features, query, &mut stats)
    }

    /// Like [`ShapeDatabase::search`], also accumulating index
    /// traversal statistics.
    pub fn search_with_stats(
        &self,
        features: &FeatureSet,
        query: &Query,
        stats: &mut QueryStats,
    ) -> Vec<SearchHit> {
        let q = features.get(query.kind);
        let dmax = self.dmax[query.kind];

        if query.weights.is_unit() {
            let index = &self.indexes[query.kind];
            match query.mode {
                QueryMode::TopK(k) => {
                    let timer = StageTimer::start(Stage::IndexSearch);
                    let raw = index.knn(q, k, stats);
                    // Adjacent stages share one boundary clock read.
                    let _stage = timer.handoff(Stage::SimilarityCombine);
                    raw.into_iter()
                        .map(|(_, &id, d)| SearchHit {
                            id,
                            distance: d,
                            similarity: similarity(d, dmax),
                        })
                        // hotpath: allow(hot-alloc) — hit lists and stats are the returned artifact
                        .collect()
                }
                QueryMode::Threshold(t) => {
                    if t <= 0.0 {
                        // Similarity clamps at 0, so a zero threshold
                        // admits every shape — no distance ball can
                        // express that for a query outside the stored
                        // set; scan instead.
                        return self.scan_all_sorted(q, query, dmax, stats);
                    }
                    // Inflate the ball by a hair so float rounding in
                    // `d ≤ (1−t)·dmax` vs `1 − d/dmax ≥ t` cannot drop
                    // a boundary shape, then post-filter by the
                    // similarity the caller actually sees — the
                    // indexed path returns exactly the set the
                    // weighted scan would.
                    let radius = threshold_to_radius(t, dmax);
                    let radius = radius * (1.0 + 1e-12);
                    let timer = StageTimer::start(Stage::IndexSearch);
                    let raw = index.within_distance(q, radius, stats);
                    let _stage = timer.handoff(Stage::SimilarityCombine);
                    let mut hits: Vec<SearchHit> = raw
                        .into_iter()
                        .map(|(_, &id, d)| SearchHit {
                            id,
                            distance: d,
                            similarity: similarity(d, dmax),
                        })
                        .filter(|h| h.similarity >= t)
                        .collect();
                    hits.sort_by(by_distance_then_id);
                    hits
                }
            }
        } else {
            // Weighted scan: the linear distance pass plays the role
            // of the index traversal for stage accounting.
            let timer = StageTimer::start(Stage::IndexSearch);
            let mut hits: Vec<SearchHit> = self
                .shapes
                .iter()
                .map(|s| {
                    stats.entries_checked += 1;
                    let d = weighted_distance(q, s.features.get(query.kind), &query.weights);
                    SearchHit {
                        id: s.id,
                        distance: d,
                        similarity: similarity(d, dmax),
                    }
                })
                .collect();
            let _stage = timer.handoff(Stage::SimilarityCombine);
            hits.sort_by(by_distance_then_id);
            match query.mode {
                QueryMode::TopK(k) => {
                    hits.truncate(k);
                    hits
                }
                QueryMode::Threshold(t) => hits.into_iter().filter(|h| h.similarity >= t).collect(),
            }
        }
    }

    /// Distance-sorted hits for every stored shape (the degenerate
    /// `Threshold(0)` case, where similarity's clamp at 0 admits all).
    fn scan_all_sorted(
        &self,
        q: &[f64],
        query: &Query,
        dmax: f64,
        stats: &mut QueryStats,
    ) -> Vec<SearchHit> {
        let timer = StageTimer::start(Stage::IndexSearch);
        let mut hits: Vec<SearchHit> = self
            .shapes
            .iter()
            .map(|s| {
                stats.entries_checked += 1;
                let d = weighted_distance(q, s.features.get(query.kind), &Weights::unit());
                SearchHit {
                    id: s.id,
                    distance: d,
                    similarity: similarity(d, dmax),
                }
            })
            // hotpath: allow(hot-alloc) — the sorted hit list is the returned artifact
            .collect();
        let _stage = timer.handoff(Stage::SimilarityCombine);
        hits.sort_by(by_distance_then_id);
        hits
    }

    /// Computes per-dimension standardization weights for a feature
    /// space: `wᵢ = 1/σᵢ²` over all stored shapes, normalized to mean
    /// 1 (so a weighted Euclidean distance becomes a Mahalanobis-like
    /// distance with a diagonal covariance). Useful when a feature's
    /// dimensions have very different spans — the geometric-parameter
    /// vector mixes aspect ratios (≈1–5) with volumes (up to
    /// hundreds), and unweighted distances let the big dimension
    /// dominate. Returns unit weights if fewer than two shapes are
    /// stored or every dimension is constant.
    pub fn standardized_weights(&self, kind: FeatureKind) -> Weights {
        if self.shapes.len() < 2 {
            return Weights::unit();
        }
        let dim = self.extractor.dim(kind);
        let n = self.shapes.len() as f64;
        let mut mean = vec![0.0; dim];
        for s in &self.shapes {
            for (m, v) in mean.iter_mut().zip(s.features.get(kind)) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= n;
        }
        let mut var = vec![0.0; dim];
        for s in &self.shapes {
            for d in 0..dim {
                var[d] += (s.features.get(kind)[d] - mean[d]).powi(2);
            }
        }
        if var.iter().all(|&v| v <= 0.0) {
            return Weights::unit();
        }
        // Scale-aware floor keeps constant dimensions from exploding.
        let mean_var: f64 = var.iter().sum::<f64>() / dim as f64 / n;
        let mut w: Vec<f64> = var
            .iter()
            .map(|v| 1.0 / (v / n + 1e-6 * mean_var.max(1e-300)))
            .collect();
        let mean_w: f64 = w.iter().sum::<f64>() / dim as f64;
        for x in w.iter_mut() {
            *x /= mean_w;
        }
        Weights::new(w)
    }

    /// Convenience: query by example with a mesh.
    pub fn search_mesh(&self, mesh: &TriMesh, query: &Query) -> Result<Vec<SearchHit>, DbError> {
        let features = self.extract_query(mesh)?;
        Ok(self.search(&features, query))
    }
}

/// The result order of every search path: nearest first, ties by id,
/// so a ranking never depends on a tree's shape or a scan's order.
fn by_distance_then_id(a: &SearchHit, b: &SearchHit) -> std::cmp::Ordering {
    a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id))
}

/// STR-bulk-loads one R-tree per feature space from `shapes` and grows
/// that space's `dmax` over the pairs touching `shapes[first_new..]`.
fn build_indexes(
    extractor: &FeatureExtractor,
    shapes: &[StoredShape],
    config: RTreeConfig,
    first_new: usize,
    dmax: &mut KindMap<f64>,
) -> KindMap<RTree<ShapeId>> {
    // The seven feature spaces are independent, so each space's tree
    // and diameter pass run on one scoped thread (auto-joined); both
    // are deterministic, so the parallelism cannot change results.
    let built = std::thread::scope(|scope| {
        KindMap::from_fn(|kind| {
            let seed = dmax[kind];
            scope.spawn(move || {
                let point = |i: usize| shapes[i].features.get(kind);
                let grown = grow_diameter(shapes.len(), first_new, seed, point).dmax;
                let entries: Vec<(Vec<f64>, ShapeId)> = shapes
                    .iter()
                    .map(|s| (s.features.get(kind).to_vec(), s.id))
                    .collect();
                (
                    RTree::bulk_load(extractor.dim(kind), config, entries),
                    grown,
                )
            })
        })
        // lint: allow(unwrap) — propagates a build-thread panic
        .map(|h| h.join().expect("index build thread panicked"))
    });
    for kind in FeatureKind::ALL {
        dmax[kind] = built[kind].1;
    }
    built.map(|(tree, _)| tree)
}

/// Pivots of [`grow_diameter`]'s pivot pass, and the batch size up to
/// which a plain scan is cheaper than the pivot table alone.
const PIVOTS: usize = 32;

/// One exact diameter pass: the resulting `dmax` and the deterministic
/// count of distances it evaluated.
#[derive(Debug, Clone, Copy)]
pub struct Diameter {
    /// The largest distance found, or the seed if none exceeded it.
    pub dmax: f64,
    /// Point-to-pivot distances computed for the pivot table.
    pub pivot_distances: u64,
    /// Point-pair distances computed after the pivot table.
    pub pair_distances: u64,
}

/// Raises the seed `best` to the largest Euclidean distance between
/// two of the points `point(0..n)` of which at least one is new (index
/// `>= first_new`). This is the value that inserting the new points one
/// at a time, each compared with every point before it, produces: a
/// pair of two old points is never evaluated, so a stored `dmax` is the
/// base the new points grow it from.
///
/// Up to 32 new points (`PIVOTS`) are scanned plainly, O(m·n). Larger
/// batches take a pivot pass: farthest-first pivots with a
/// point-to-pivot table, each point assigned to its nearest pivot,
/// then pivot-group pairs visited in descending order of their
/// triangle-inequality bound `ρ_g + d(p_g, p_h) + ρ_h` (`ρ` a group's
/// radius), stopping once no bound can beat the best distance found.
/// Inside a group pair a point pair is skipped when `d(a, p_h) + r_b`
/// cannot beat it. (Ordering points by their distance from the
/// centroid prunes little in the 32- and 64-dimensional spaces, where
/// nearly every point lies about as far from the centroid as the
/// outermost ones; pivot groups separate the clusters instead.) Every
/// bound carries a slack far larger than float rounding, so the result
/// is bit-identical to the brute-force maximum over the same pairs.
pub fn grow_diameter<'a>(
    n: usize,
    first_new: usize,
    best: f64,
    point: impl Fn(usize) -> &'a [f64],
) -> Diameter {
    if n.saturating_sub(first_new) <= PIVOTS {
        scan_touching(n, first_new, best, point)
    } else {
        pivot_pass(n, first_new, best, point)
    }
}

/// [`grow_diameter`] for few new points: every pair touching one,
/// in the order sequential inserts evaluate them.
fn scan_touching<'a>(
    n: usize,
    first_new: usize,
    mut best: f64,
    point: impl Fn(usize) -> &'a [f64],
) -> Diameter {
    for j in first_new..n {
        let new = point(j);
        for i in 0..j {
            let d = weighted_distance(new, point(i), &Weights::unit());
            if d > best {
                best = d;
            }
        }
    }
    let pairs = (first_new..n).map(|j| j as u64).sum();
    Diameter {
        dmax: best,
        pivot_distances: 0,
        pair_distances: pairs,
    }
}

/// [`grow_diameter`]'s pivot pass; see there.
fn pivot_pass<'a>(
    n: usize,
    first_new: usize,
    mut best: f64,
    point: impl Fn(usize) -> &'a [f64],
) -> Diameter {
    // One contiguous copy of the points: the pass reads each point
    // dozens of times, and a stored shape's vectors sit behind two
    // pointers.
    let dim = point(0).len();
    let flat: Vec<f64> = (0..n).flat_map(|i| point(i).iter().copied()).collect();
    let at = |i: usize| &flat[i * dim..(i + 1) * dim];
    let dist = |i: usize, j: usize| weighted_distance(at(i), at(j), &Weights::unit());
    let is_new = |i: usize| i >= first_new;
    let mut out = Diameter {
        dmax: best,
        pivot_distances: 0,
        pair_distances: 0,
    };

    // Farthest-first traversal, ties to the lowest index: each pivot is
    // the point farthest from the pivots before it. `table[i * PIVOTS +
    // g]` is d(point i, pivot g), a real pair distance, so it also
    // raises `best` when the pair touches a new point. `radius[i]` is
    // the distance to the nearest pivot so far, `group[i]` that pivot.
    let mut pivots: Vec<usize> = Vec::with_capacity(PIVOTS);
    let mut table = vec![0.0; n * PIVOTS];
    let mut radius = vec![f64::INFINITY; n];
    let mut group = vec![0usize; n];
    let mut next = 0;
    loop {
        let g = pivots.len();
        pivots.push(next);
        for i in 0..n {
            let d = dist(i, next);
            table[i * PIVOTS + g] = d;
            if d > best && (is_new(i) || is_new(next)) {
                best = d;
            }
            if d < radius[i] {
                radius[i] = d;
                group[i] = g;
            }
        }
        out.pivot_distances += n as u64;
        let mut far = 0;
        for i in 1..n {
            if radius[i] > radius[far] {
                far = i;
            }
        }
        // Stop at the pivot budget, or once every point is a pivot's
        // duplicate.
        if pivots.len() == PIVOTS || radius[far] <= 0.0 {
            break;
        }
        next = far;
    }
    let k = pivots.len();

    // Points grouped by pivot, each group largest radius first; group g
    // is `order[start[g]..start[g + 1]]` and holds at least its pivot.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        group[a]
            .cmp(&group[b])
            .then(radius[b].total_cmp(&radius[a]))
    });
    let mut start = vec![0usize; k + 1];
    for &i in &order {
        start[group[i] + 1] += 1;
    }
    for g in 0..k {
        start[g + 1] += start[g];
    }
    let members = |g: usize| &order[start[g]..start[g + 1]];
    let rho = |g: usize| radius[members(g)[0]];
    let pivot_gap = |g: usize, h: usize| table[pivots[g] * PIVOTS + h];

    // Group pairs that can hold a new point, loosest bound first.
    let has_new: Vec<bool> = (0..k)
        .map(|g| members(g).iter().any(|&i| is_new(i)))
        .collect();
    let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
    for g in 0..k {
        for h in g..k {
            if has_new[g] || has_new[h] {
                pairs.push((rho(g) + pivot_gap(g, h) + rho(h), g, h));
            }
        }
    }
    pairs.sort_by(|x, y| y.0.total_cmp(&x.0));

    for &(bound, g, h) in &pairs {
        if bound <= prune_bound(best) {
            break;
        }
        let (outer, inner) = (members(g), members(h));
        for (x, &a) in outer.iter().enumerate() {
            // d(a, b) <= r_a + d(p_g, p_h) + ρ_h for every b in h.
            if radius[a] + pivot_gap(g, h) + rho(h) <= prune_bound(best) {
                break;
            }
            let to_h = table[a * PIVOTS + h];
            let rest = if g == h { &inner[x + 1..] } else { inner };
            for &b in rest {
                // d(a, b) <= d(a, p_h) + r_b, and r_b only falls.
                if to_h + radius[b] <= prune_bound(best) {
                    break;
                }
                if !is_new(a) && !is_new(b) {
                    continue;
                }
                out.pair_distances += 1;
                let d = dist(a, b);
                if d > best {
                    best = d;
                }
            }
        }
    }
    out.dmax = best;
    out
}

/// A triangle-inequality upper bound at or below this value provably
/// cannot beat `best`, even allowing for floating-point rounding in
/// the bound and distance computations.
fn prune_bound(best: f64) -> f64 {
    best - 1e-9 * best.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdess_geom::{primitives, Vec3};

    fn small_db() -> (ShapeDatabase, Vec<ShapeId>) {
        let mut db = ShapeDatabase::new(FeatureExtractor {
            voxel_resolution: 24,
            ..Default::default()
        });
        let ids = vec![
            db.insert("box-a", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)))
                .unwrap(),
            db.insert("box-b", primitives::box_mesh(Vec3::new(2.2, 1.1, 0.55)))
                .unwrap(),
            db.insert("sphere", primitives::uv_sphere(1.0, 16, 8))
                .unwrap(),
            db.insert("rod", primitives::cylinder(0.3, 5.0, 16))
                .unwrap(),
            db.insert("torus", primitives::torus(1.5, 0.4, 24, 12))
                .unwrap(),
        ];
        (db, ids)
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let (db, ids) = small_db();
        assert_eq!(db.len(), 5);
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert_eq!(db.get(3).unwrap().name, "sphere");
        assert!(db.get(99).is_none());
    }

    #[test]
    fn similar_box_ranks_first() {
        let (db, _) = small_db();
        let q = primitives::box_mesh(Vec3::new(2.1, 1.05, 0.52));
        for kind in [FeatureKind::MomentInvariants, FeatureKind::PrincipalMoments] {
            let hits = db.search_mesh(&q, &Query::top_k(kind, 3)).unwrap();
            assert_eq!(hits.len(), 3);
            let top = db.get(hits[0].id).unwrap();
            assert!(
                top.name.starts_with("box"),
                "{kind:?}: top hit {}",
                top.name
            );
            // Similarities are sorted and in [0, 1].
            for w in hits.windows(2) {
                assert!(w[0].similarity >= w[1].similarity - 1e-12);
            }
            assert!(hits.iter().all(|h| (0.0..=1.0).contains(&h.similarity)));
        }
    }

    #[test]
    fn threshold_query_filters_by_similarity() {
        let (db, _) = small_db();
        let q = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
        let hits = db
            .search_mesh(&q, &Query::threshold(FeatureKind::PrincipalMoments, 0.9))
            .unwrap();
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.similarity >= 0.9), "{hits:?}");
        // Lowering the threshold can only add results.
        let more = db
            .search_mesh(&q, &Query::threshold(FeatureKind::PrincipalMoments, 0.1))
            .unwrap();
        assert!(more.len() >= hits.len());
    }

    #[test]
    fn weighted_search_changes_ranking() {
        let (db, _) = small_db();
        let q = db.get(1).unwrap().features.clone();
        // Unit weights: the identical shape is rank 1 at distance 0.
        let unit = db.search(&q, &Query::top_k(FeatureKind::GeometricParams, 5));
        assert_eq!(unit[0].id, 1);
        assert!(unit[0].distance < 1e-9);
        // Zero out every dimension: all shapes tie at distance 0.
        let zero = db.search(
            &q,
            &Query {
                kind: FeatureKind::GeometricParams,
                weights: Weights::new(vec![0.0; 5]),
                mode: QueryMode::TopK(5),
            },
        );
        assert!(zero.iter().all(|h| h.distance == 0.0));
    }

    #[test]
    fn remove_deletes_everywhere() {
        let (mut db, _) = small_db();
        let gone = db.remove(3).unwrap();
        assert_eq!(gone.name, "sphere");
        assert_eq!(db.len(), 4);
        assert!(db.get(3).is_none());
        // The removed shape no longer appears in results.
        let q = primitives::uv_sphere(1.0, 16, 8);
        let hits = db
            .search_mesh(&q, &Query::top_k(FeatureKind::MomentInvariants, 4))
            .unwrap();
        assert!(hits.iter().all(|h| h.id != 3));
        assert!(matches!(db.remove(3), Err(DbError::UnknownShape(3))));
    }

    #[test]
    fn dmax_grows_monotonically() {
        let mut db = ShapeDatabase::new(FeatureExtractor {
            voxel_resolution: 20,
            ..Default::default()
        });
        assert_eq!(db.dmax(FeatureKind::MomentInvariants), 0.0);
        db.insert("a", primitives::box_mesh(Vec3::ONE)).unwrap();
        assert_eq!(db.dmax(FeatureKind::MomentInvariants), 0.0);
        db.insert("b", primitives::uv_sphere(1.0, 16, 8)).unwrap();
        let d1 = db.dmax(FeatureKind::MomentInvariants);
        assert!(d1 > 0.0);
        db.insert("c", primitives::cylinder(0.2, 8.0, 16)).unwrap();
        assert!(db.dmax(FeatureKind::MomentInvariants) >= d1);
    }

    #[test]
    fn self_query_is_perfect_match() {
        let (db, _) = small_db();
        for kind in FeatureKind::ALL {
            let q = db.get(2).unwrap().features.clone();
            let hits = db.search(&q, &Query::top_k(kind, 1));
            assert_eq!(hits[0].distance, 0.0, "{kind:?}");
            assert_eq!(hits[0].similarity, 1.0, "{kind:?}");
        }
    }

    #[test]
    fn standardized_weights_normalize_dimension_spans() {
        let (db, _) = small_db();
        let w = db.standardized_weights(FeatureKind::GeometricParams);
        assert!(!w.is_unit());
        let wv = w.0.as_ref().unwrap();
        assert_eq!(wv.len(), 5);
        assert!(wv.iter().all(|&x| x > 0.0 && x.is_finite()));
        // Mean weight is 1 by construction.
        let mean: f64 = wv.iter().sum::<f64>() / wv.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9, "mean {mean}");
        // Weights genuinely differ across dimensions (the point of
        // standardization): high-variance dimensions are down-weighted.
        let max = wv.iter().cloned().fold(f64::MIN, f64::max);
        let min = wv.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 2.0, "weights barely vary: {wv:?}");
        // Weighted self-query still matches perfectly.
        let q = db.get(1).unwrap().features.clone();
        let hits = db.search(
            &q,
            &Query {
                kind: FeatureKind::GeometricParams,
                weights: w,
                mode: QueryMode::TopK(1),
            },
        );
        assert_eq!(hits[0].id, 1);
        assert!(hits[0].distance < 1e-9);
    }

    #[test]
    fn standardized_weights_degenerate_cases() {
        let db = ShapeDatabase::new(FeatureExtractor {
            voxel_resolution: 16,
            ..Default::default()
        });
        assert!(db
            .standardized_weights(FeatureKind::PrincipalMoments)
            .is_unit());
    }

    /// A deterministic xorshift stream, uniform in [0, 1).
    fn unit_stream(mut s: u64) -> impl FnMut() -> f64 {
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// `n` points in `dim` dimensions around `anchors` cluster centres,
    /// shaped like `synth_corpus`: anchor coordinates spread over three
    /// decades, each point its anchor (round-robin) with every
    /// coordinate scaled by an independent `1 ± 4%`.
    fn clusters(
        rnd: &mut impl FnMut() -> f64,
        n: usize,
        dim: usize,
        anchors: usize,
    ) -> Vec<Vec<f64>> {
        let centres: Vec<Vec<f64>> = (0..anchors)
            .map(|_| (0..dim).map(|_| 10f64.powf(3.0 * rnd() - 2.0)).collect())
            .collect();
        (0..n)
            .map(|i| {
                centres[i % anchors]
                    .iter()
                    .map(|c| c * (1.0 + 0.08 * (rnd() - 0.5)))
                    .collect()
            })
            .collect()
    }

    /// Brute-force reference: entry `j` is the largest distance from
    /// `pts[j]` to a point before it.
    fn brute_force(pts: &[Vec<f64>]) -> Vec<f64> {
        (0..pts.len())
            .map(|j| {
                (0..j)
                    .map(|i| weighted_distance(&pts[i], &pts[j], &Weights::unit()))
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    /// The largest distance of a pair touching `pts[first_new..]`,
    /// from [`brute_force`]'s output.
    fn touching(brute: &[f64], first_new: usize) -> f64 {
        brute[first_new.min(brute.len())..]
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }

    #[test]
    fn diameter_pruning_matches_full_scan() {
        let mut rnd = unit_stream(0x1234_5678_9abc_def0);
        let mut clouds: Vec<(&str, Vec<Vec<f64>>)> = Vec::new();
        for n in 0..4 {
            clouds.push(("tiny", clusters(&mut rnd, n, 3, 2)));
        }
        // Uniform clouds; in 32 and 64 dimensions the diameter's
        // endpoints are rarely pivots, so the pair phase must find it.
        for (n, dim) in [(17usize, 3usize), (120, 5), (64, 8), (400, 32), (400, 64)] {
            let uniform = (0..n).map(|_| (0..dim).map(|_| 20.0 * rnd() - 10.0).collect());
            clouds.push(("uniform", uniform.collect()));
        }
        // A solid ball: pivot groups are tight, so the bounds prune,
        // and the diameter's endpoints are rarely pivots.
        let ball =
            std::iter::repeat_with(|| [2.0 * rnd() - 1.0, 2.0 * rnd() - 1.0, 2.0 * rnd() - 1.0])
                .filter(|p| p.iter().map(|x| x * x).sum::<f64>() <= 1.0);
        clouds.push(("ball", ball.take(1000).map(|p| p.to_vec()).collect()));
        clouds.push(("20 clusters, 32-d", clusters(&mut rnd, 600, 32, 20)));
        clouds.push(("30 clusters, 64-d", clusters(&mut rnd, 600, 64, 30)));
        let mut dups = clusters(&mut rnd, 150, 32, 25);
        dups.extend_from_within(40..110);
        clouds.push(("duplicates", dups));
        clouds.push(("identical", vec![vec![1.5; 64]; 90]));

        for (what, pts) in &clouds {
            let n = pts.len();
            let brute = brute_force(pts);
            let full = touching(&brute, 0);
            for first_new in [0, n / 2, n.saturating_sub(PIVOTS + 8), n.saturating_sub(3)] {
                let exact = touching(&brute, first_new);
                // Seeds: none, below the answer, at it and above it.
                for seed in [0.0, 0.5 * exact, exact, full + 1.0] {
                    let got = grow_diameter(n, first_new, seed, |i| &pts[i]);
                    let want = exact.max(seed);
                    assert_eq!(
                        got.dmax.to_bits(),
                        want.to_bits(),
                        "{what}: n={n} first_new={first_new} seed={seed}"
                    );
                    let new = n - first_new;
                    assert_eq!(got.pivot_distances > 0, new > PIVOTS, "{what}");
                }
            }
        }
        // The pivot pass prunes tight clusters in 64 dimensions.
        let pts = &clouds
            .iter()
            .find(|c| c.0 == "30 clusters, 64-d")
            .unwrap()
            .1;
        let work = grow_diameter(pts.len(), 0, 0.0, |i| &pts[i]);
        let all_pairs = (pts.len() * (pts.len() - 1) / 2) as u64;
        assert!(
            work.pivot_distances + work.pair_distances < all_pairs / 2,
            "{work:?} of {all_pairs} pairs"
        );
    }

    /// Feature vectors for every kind, each coordinate `value(kind, i)`.
    fn synth_features(
        ex: &FeatureExtractor,
        value: impl Fn(FeatureKind, usize) -> f64,
    ) -> FeatureSet {
        let v = |kind| (0..ex.dim(kind)).map(|i| value(kind, i)).collect();
        FeatureSet {
            moment_invariants: v(FeatureKind::MomentInvariants),
            geometric: v(FeatureKind::GeometricParams),
            principal_moments: v(FeatureKind::PrincipalMoments),
            eigenvalues: v(FeatureKind::Eigenvalues),
            higher_order: v(FeatureKind::HigherOrder),
            shape_distribution: v(FeatureKind::ShapeDistribution),
            shell_histogram: v(FeatureKind::ShellHistogram),
        }
    }

    #[test]
    fn batch_branches_match_sequential_inserts_from_a_loaded_dmax() {
        // Old shapes sit in two groups, every coordinate near +10 or
        // -10; new shapes near the origin. The loaded `dmax` of 0 is
        // below the true diameter (an old–old pair, twice as far apart
        // as a new shape is from an old one); sequential inserts never
        // compare two old shapes, so they grow it only to about half
        // of it. Both batch branches must give the same bits.
        let ex = FeatureExtractor {
            voxel_resolution: 8,
            ..Default::default()
        };
        let mesh = primitives::box_mesh(Vec3::ONE); // never extracted
        let mut rnd = unit_stream(0x0dd_ba11);
        let mut shape = |centre: f64| {
            let jitter: Vec<f64> = (0..64).map(|_| rnd() - 0.5).collect();
            synth_features(&ex, |_, i| centre + jitter[i])
        };
        // (old shapes, new shapes): a small batch into a large database
        // (incremental trees) and a large one (STR rebuild), both with
        // more new shapes than pivots.
        for (old, new) in [(200usize, 40usize), (30, 60)] {
            let stored: Vec<StoredShape> = (0..old)
                .map(|i| StoredShape {
                    id: i as ShapeId + 1,
                    name: format!("old{i}"),
                    mesh: mesh.clone(),
                    features: shape(if i % 2 == 0 { 10.0 } else { -10.0 }),
                })
                .collect();
            let loaded = ShapeDatabase::from_loaded_parts(
                ex,
                old as ShapeId + 1,
                stored,
                KindMap::default(),
                RTreeConfig::default(),
            )
            .unwrap();
            let items: Vec<(String, TriMesh, FeatureSet)> = (0..new)
                .map(|i| (format!("new{i}"), mesh.clone(), shape(0.0)))
                .collect();
            let mut seq = loaded.clone();
            for (name, mesh, features) in items.clone() {
                seq.insert_precomputed(name, mesh, features);
            }
            let mut bat = loaded;
            let ids = bat.insert_batch_precomputed(items);
            assert_eq!(ids.first(), Some(&(old as ShapeId + 1)));
            for kind in FeatureKind::ALL {
                let pts: Vec<Vec<f64>> = bat
                    .shapes()
                    .iter()
                    .map(|s| s.features.get(kind).to_vec())
                    .collect();
                assert_eq!(
                    seq.dmax(kind).to_bits(),
                    bat.dmax(kind).to_bits(),
                    "{kind:?} old={old}"
                );
                let brute = brute_force(&pts);
                assert_eq!(bat.dmax(kind).to_bits(), touching(&brute, old).to_bits());
                assert!(bat.dmax(kind) < 0.75 * touching(&brute, 0), "{kind:?}");
            }
        }
    }

    #[test]
    fn batch_insert_matches_sequential_dmax_and_ids() {
        let meshes: Vec<(String, TriMesh)> = vec![
            ("box".into(), primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5))),
            ("sphere".into(), primitives::uv_sphere(1.0, 12, 6)),
            ("rod".into(), primitives::cylinder(0.3, 4.0, 12)),
            ("torus".into(), primitives::torus(1.5, 0.4, 16, 8)),
        ];
        let extractor = FeatureExtractor {
            voxel_resolution: 16,
            ..Default::default()
        };
        let mut seq = ShapeDatabase::new(extractor);
        let mut bat = ShapeDatabase::new(extractor);
        let mut items = Vec::new();
        for (name, mesh) in meshes {
            let features = extractor.extract(&mesh).unwrap();
            seq.insert_precomputed(name.clone(), mesh.clone(), features.clone());
            items.push((name, mesh, features));
        }
        let ids = bat.insert_batch_precomputed(items);
        assert_eq!(ids, vec![1, 2, 3, 4]);
        for kind in FeatureKind::ALL {
            assert_eq!(seq.dmax(kind), bat.dmax(kind), "{kind:?}");
        }
        // The batch-built database answers queries identically.
        let q = seq.get(2).unwrap().features.clone();
        for kind in FeatureKind::ALL {
            let a = seq.search(&q, &Query::top_k(kind, 4));
            let b = bat.search(&q, &Query::top_k(kind, 4));
            assert_eq!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn threshold_paths_agree_on_boundary_shapes() {
        let (db, _) = small_db();
        let q = db.get(1).unwrap().features.clone();
        let kind = FeatureKind::PrincipalMoments;
        // Sweep thresholds including exact stored similarities (the
        // boundary cases where the two paths used to disagree).
        let mut thresholds: Vec<f64> = vec![0.0, 0.1, 0.5, 0.9, 0.999, 1.0];
        for s in db.shapes() {
            let d = weighted_distance(q.get(kind), s.features.get(kind), &Weights::unit());
            thresholds.push(similarity(d, db.dmax(kind)));
        }
        for t in thresholds {
            let indexed = db.search(&q, &Query::threshold(kind, t));
            // Brute-force similarity scan (what the weighted path does
            // with unit weights spelled out explicitly).
            let mut scan: Vec<ShapeId> = db
                .shapes()
                .iter()
                .filter(|s| {
                    let d = weighted_distance(q.get(kind), s.features.get(kind), &Weights::unit());
                    similarity(d, db.dmax(kind)) >= t
                })
                .map(|s| s.id)
                .collect();
            let mut got: Vec<ShapeId> = indexed.iter().map(|h| h.id).collect();
            got.sort_unstable();
            scan.sort_unstable();
            assert_eq!(got, scan, "threshold {t}");
            // Hits come back distance-sorted.
            for w in indexed.windows(2) {
                assert!(w[0].distance <= w[1].distance);
            }
        }
    }

    #[test]
    fn tied_rankings_do_not_depend_on_tree_shape() {
        // Forty identical shapes: every distance ties. Sequential
        // inserts split the trees incrementally; the batch path
        // STR-packs them. Both must rank ties by id.
        let extractor = FeatureExtractor {
            voxel_resolution: 12,
            ..Default::default()
        };
        let mesh = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
        let features = extractor.extract(&mesh).unwrap();
        let mut seq = ShapeDatabase::new(extractor);
        let mut items = Vec::new();
        for i in 0..40 {
            seq.insert_precomputed(format!("s{i}"), mesh.clone(), features.clone());
            items.push((format!("s{i}"), mesh.clone(), features.clone()));
        }
        let mut bat = ShapeDatabase::new(extractor);
        bat.insert_batch_precomputed(items);
        for kind in FeatureKind::ALL {
            for db in [&seq, &bat] {
                let top: Vec<ShapeId> = db
                    .search(&features, &Query::top_k(kind, 5))
                    .iter()
                    .map(|h| h.id)
                    .collect();
                assert_eq!(top, vec![1, 2, 3, 4, 5], "{kind:?}");
                let all: Vec<ShapeId> = db
                    .search(&features, &Query::threshold(kind, 0.5))
                    .iter()
                    .map(|h| h.id)
                    .collect();
                assert_eq!(all, (1..=40).collect::<Vec<_>>(), "{kind:?}");
            }
        }
    }

    #[test]
    fn zero_volume_query_errors() {
        let (db, _) = small_db();
        let degenerate = TriMesh::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]]);
        assert!(matches!(
            db.search_mesh(&degenerate, &Query::top_k(FeatureKind::MomentInvariants, 1)),
            Err(DbError::Extraction(_))
        ));
    }
}
