//! The in-process mirror of the server's request path, built from each
//! layer's public functions so every call can be timed from outside:
//! cache key and lookup, the extraction stages, the index search and the
//! core write and multi-step calls. Spans named `op.*` group the calls of
//! one server method; they are not layer calls themselves.

use std::collections::VecDeque;
use std::sync::Arc;

use tdess_cache::{CacheConfig, CacheKey, CacheStatsSnapshot, FeatureCache};
use tdess_core::{multi_step_search_with_stats, SearchHit, ShapeDatabase, ShapeId};
use tdess_features::{
    geometric_params, higher_order_moments, moment_invariants, normalize, principal_moments,
    shape_distribution_d2, shell_histogram, D2Params, FeatureExtractor, FeatureSet,
    NormalizedModel, ShellParams,
};
use tdess_geom::{mesh_moments, TriMesh, Vec3};
use tdess_index::QueryStats;
use tdess_net::Request;
use tdess_skeleton::{
    build_graph, prune_spurs, skeletonize_into, spectral_signature, ThinScratch, ThinningParams,
};
use tdess_voxel::{voxelize_into, FloodScratch, VoxelGrid, VoxelizeParams};

use crate::inputs::{is_insert, Kind, Op};
use crate::trace::Tracer;

/// Deterministic work counts of the mirrored calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    /// Filled voxels after voxelization, summed.
    pub filled_voxels: u64,
    /// Voxels deleted by thinning, summed.
    pub deleted_voxels: u64,
    /// Skeletal-graph nodes, summed.
    pub graph_nodes: u64,
    /// Index queries (one-shot searches and multi-step first steps).
    pub index_queries: u64,
    /// R-tree node accesses, summed.
    pub node_accesses: u64,
    /// Index entries checked (including multi-step re-ranking), summed.
    pub entries_checked: u64,
}

/// What a mirrored request produced.
pub enum Outcome {
    /// Ranked hits and the snapshot they were computed on.
    Hits(Vec<SearchHit>, Arc<ShapeDatabase>),
    /// The id an insert got.
    Inserted(ShapeId),
    /// The id removed.
    Removed(ShapeId),
}

struct Scratch {
    voxels: VoxelGrid,
    skeleton: VoxelGrid,
    flood: FloodScratch,
    thin: ThinScratch,
}

/// The mirror's state: the published snapshot, replaced by each write
/// the way `SearchServer` does it, and a cache of the server's default
/// configuration.
pub struct Mirror {
    db: Arc<ShapeDatabase>,
    cache: FeatureCache,
    extractor: FeatureExtractor,
    scratch: Scratch,
    live: VecDeque<ShapeId>,
    writes: usize,
    /// Work counted so far.
    pub work: Work,
    /// Normalisations and features of the meshes the last request
    /// extracted, for comparison with the library's own extraction.
    pub extracted: Vec<(NormalizedModel, Arc<FeatureSet>)>,
}

impl Mirror {
    /// A mirror of a server that loaded `db`.
    pub fn new(db: ShapeDatabase) -> Mirror {
        let extractor = *db.extractor();
        Mirror {
            db: Arc::new(db),
            cache: FeatureCache::with_config(CacheConfig::default()),
            extractor,
            scratch: Scratch {
                voxels: VoxelGrid::new(1, 1, 1, Vec3::ZERO, 1.0),
                skeleton: VoxelGrid::new(1, 1, 1, Vec3::ZERO, 1.0),
                flood: FloodScratch::default(),
                thin: ThinScratch::default(),
            },
            live: VecDeque::new(),
            writes: 0,
            work: Work::default(),
            extracted: Vec::new(),
        }
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        self.cache.stats_snapshot()
    }

    /// The current snapshot.
    pub fn snapshot(&self) -> Arc<ShapeDatabase> {
        Arc::clone(&self.db)
    }

    /// The request `op` turns into under the write rule
    /// ([`is_insert`]); `None` when a remove finds nothing live.
    pub fn resolve(&mut self, op: &Op) -> Option<Request> {
        if op.kind != Kind::Write {
            return Some(Request::clone(&op.request));
        }
        let ordinal = self.writes;
        self.writes += 1;
        if is_insert(ordinal) {
            Some(Request::clone(&op.request))
        } else {
            self.live.pop_front().map(|id| Request::Remove { id })
        }
    }

    /// Runs one request the way the served `SearchServer` does.
    pub fn run(&mut self, tr: &mut Tracer, req: &Request) -> Result<Outcome, String> {
        match req {
            Request::SearchMesh { mesh, query } => {
                let snap = self.snapshot();
                let features = self.features(tr, mesh);
                let mut stats = QueryStats::default();
                let hits = tr.span("index.search", |_| {
                    snap.search_with_stats(&features, query, &mut stats)
                });
                self.count_index(&stats);
                Ok(Outcome::Hits(hits, snap))
            }
            Request::SearchFeatures { features, query } => {
                let snap = self.snapshot();
                let mut stats = QueryStats::default();
                let hits = tr.span("index.search", |_| {
                    snap.search_with_stats(features, query, &mut stats)
                });
                self.count_index(&stats);
                Ok(Outcome::Hits(hits, snap))
            }
            Request::MultiStep { mesh, plan } => {
                let snap = self.snapshot();
                let features = self.features(tr, mesh);
                let mut stats = QueryStats::default();
                let hits = tr.span("core.multistep", |_| {
                    multi_step_search_with_stats(&snap, &features, plan, &mut stats)
                });
                self.count_index(&stats);
                Ok(Outcome::Hits(hits, snap))
            }
            Request::Insert { name, mesh } => {
                let (name, mesh) = (name.clone(), mesh.clone());
                let id = tr.span("op.insert", |tr| self.insert(tr, name, mesh))?;
                self.live.push_back(id);
                Ok(Outcome::Inserted(id))
            }
            Request::Remove { id } => {
                tr.span("op.remove", |tr| self.remove(tr, *id))?;
                Ok(Outcome::Removed(*id))
            }
            other => Err(format!("the mirror does not replay {other:?}")),
        }
    }

    /// `SearchServer::insert`: extraction, then the writer clones the
    /// snapshot, inserts into the clone and publishes it.
    fn insert(&mut self, tr: &mut Tracer, name: String, mesh: TriMesh) -> Result<ShapeId, String> {
        let extractor = self.extractor;
        let normalized = tr
            .span("features.normalize", |_| normalize(&mesh))
            .map_err(|e| e.to_string())?;
        let Mirror { scratch, work, .. } = self;
        let features = tr.span("features.extract", |tr| {
            extract(tr, &extractor, &mesh, &normalized, scratch, work)
        });
        self.extracted
            .push((normalized, Arc::new(features.clone())));
        let mut db = tr.span("core.clone_snapshot", |_| ShapeDatabase::clone(&self.db));
        let id = tr.span("core.insert_precomputed", |_| {
            db.insert_precomputed(name, mesh, features)
        });
        tr.span("core.publish", |_| self.db = Arc::new(db));
        Ok(id)
    }

    /// `SearchServer::remove`: the same clone-and-publish write path.
    fn remove(&mut self, tr: &mut Tracer, id: ShapeId) -> Result<(), String> {
        let mut db = tr.span("core.clone_snapshot", |_| ShapeDatabase::clone(&self.db));
        tr.span("core.db_remove", |_| db.remove(id).map(drop))
            .map_err(|e| e.to_string())?;
        tr.span("core.publish", |_| self.db = Arc::new(db));
        Ok(())
    }

    fn count_index(&mut self, stats: &QueryStats) {
        self.work.index_queries += 1;
        self.work.node_accesses += stats.node_accesses() as u64;
        self.work.entries_checked += stats.entries_checked as u64;
    }

    /// Key derivation, cache lookup and, on a miss, the extraction.
    fn features(&mut self, tr: &mut Tracer, mesh: &TriMesh) -> Arc<FeatureSet> {
        let extractor = self.extractor;
        let (normalized, key) = tr.span("cache.key", |tr| {
            let normalized = tr.span("features.normalize", |_| normalize(mesh));
            let normalized = normalized.expect("generated parts are closed meshes and normalize");
            let key = CacheKey::derive(&normalized, &extractor);
            (normalized, key)
        });
        let Mirror {
            cache,
            scratch,
            work,
            ..
        } = self;
        let mut missed = false;
        let features = tr.span("cache.lookup", |tr| {
            cache.get_or_extract(key, || {
                missed = true;
                tr.span("features.extract", |tr| {
                    extract(tr, &extractor, mesh, &normalized, scratch, work)
                })
            })
        });
        if missed {
            self.extracted.push((normalized, Arc::clone(&features)));
        }
        features
    }
}

/// The pipeline of `FeatureExtractor::extract_from_normalized`, one
/// public call at a time.
fn extract(
    tr: &mut Tracer,
    extractor: &FeatureExtractor,
    mesh: &TriMesh,
    normalized: &NormalizedModel,
    s: &mut Scratch,
    work: &mut Work,
) -> FeatureSet {
    let (mi, gp, pm, ho) = tr.span("features.mesh_vectors", |_| {
        (
            moment_invariants(&mesh_moments(mesh)),
            geometric_params(mesh, normalized),
            principal_moments(normalized),
            higher_order_moments(normalized),
        )
    });
    let d2 = tr.span("features.d2", |_| {
        shape_distribution_d2(mesh, &D2Params::default())
    });
    let sh = tr.span("features.shell", |_| {
        shell_histogram(mesh, &ShellParams::default())
    });
    let params = VoxelizeParams {
        resolution: extractor.voxel_resolution,
        ..Default::default()
    };
    tr.span("voxel.voxelize", |_| {
        voxelize_into(&normalized.mesh, &params, &mut s.voxels, &mut s.flood)
    });
    work.filled_voxels += s.voxels.count() as u64;
    let deleted = tr.span("skeleton.skeletonize", |_| {
        skeletonize_into(
            &s.voxels,
            &ThinningParams::default(),
            &mut s.skeleton,
            &mut s.thin,
        )
    });
    work.deleted_voxels += deleted as u64;
    let min_len = (extractor.voxel_resolution / 8).max(3);
    tr.span("skeleton.prune", |_| prune_spurs(&mut s.skeleton, min_len));
    let graph = tr.span("skeleton.graph_build", |_| build_graph(&s.skeleton));
    work.graph_nodes += graph.num_nodes() as u64;
    let ev = tr.span("skeleton.spectrum", |_| {
        spectral_signature(&graph, extractor.spectrum_dim)
    });
    FeatureSet {
        moment_invariants: mi.to_vec(),
        geometric: gp.to_vec(),
        principal_moments: pm.to_vec(),
        eigenvalues: ev,
        higher_order: ho.to_vec(),
        shape_distribution: d2,
        shell_histogram: sh,
    }
}

/// Whether two feature sets are bit-identical.
pub fn same_features(a: &FeatureSet, b: &FeatureSet) -> bool {
    tdess_features::FeatureKind::ALL.iter().all(|&k| {
        let (x, y) = (a.get(k), b.get(k));
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    })
}
