//! Seeded inputs: the database content, the request sequences and the
//! arrival schedule. The same seed gives the same inputs; the server only
//! ever sees the generated requests.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdess_core::{MultiStepPlan, Query};
use tdess_dataset::{build_corpus, synth_corpus, Family};
use tdess_features::{FeatureExtractor, FeatureKind, FeatureSet};
use tdess_geom::{Mat3, TriMesh, Vec3};
use tdess_net::Request;

use crate::spec::WorkloadSpec;
use crate::TOP_K;

/// The paper database is the repository's fixed 113-shape corpus.
pub const PAPER_CORPUS_SEED: u64 = 2004;

/// Shapes in the synthetic database.
const SYNTH_SHAPES: usize = 20_000;

/// Synthetic query vectors generated beside a synthetic database.
const SYNTH_QUERIES: usize = 4096;

/// Share of the open loop's reads compared with the uncached reference.
const REFERENCE_SHARE: f64 = 0.1;

/// Least number of reads compared with the reference.
const REFERENCE_MIN: usize = 24;

/// Writes (alternately insert and remove) in the write probe the traced
/// run appends when the workload's mix has no writes.
const WRITE_PROBE: usize = 12;

/// Request kind, as sent on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `SearchMesh`, PM top-k.
    SearchMesh,
    /// `SearchFeatures`, PM top-k.
    SearchFeatures,
    /// `MultiStep`, the paper's plan.
    MultiStep,
    /// `Insert` on even write ordinals, `Remove` of the oldest live
    /// insert on odd ones.
    Write,
}

impl Kind {
    /// The latency class the request is reported under.
    pub fn class(self) -> &'static str {
        match self {
            Kind::SearchMesh | Kind::SearchFeatures => "search",
            Kind::MultiStep => "multistep",
            Kind::Write => "write",
        }
    }
}

/// The write rule: write ordinal `n` is an `Insert` when `n` is even and
/// a `Remove` of the oldest live insert when odd, so the size stays flat.
pub fn is_insert(ordinal: usize) -> bool {
    ordinal.is_multiple_of(2)
}

/// How a query's content relates to earlier requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Content the server has never seen.
    Fresh,
    /// Byte-identical to a popular part sent before.
    Resend,
    /// A popular part rotated or translated.
    Rigid,
}

/// One request of a sequence.
#[derive(Debug, Clone)]
pub struct Op {
    /// What is sent.
    pub kind: Kind,
    /// Relation of the content to earlier requests.
    pub origin: Origin,
    /// The physical part queried (recall is averaged per part).
    pub part: usize,
    /// The part's family (its relevant set).
    pub family: usize,
    /// The request; for writes, the `Insert` sent on even ordinals.
    pub request: Arc<Request>,
    /// Whether the reply is compared with the uncached reference.
    pub checked: bool,
}

/// Database content to build at set-up.
pub enum Base {
    /// Meshes, extracted at build time.
    Paper(Vec<(String, TriMesh)>),
    /// Precomputed synthetic feature vectors.
    Synth(Vec<(String, TriMesh, FeatureSet)>),
}

/// Everything one run sends.
pub struct Inputs {
    /// Content of the database.
    pub base: Base,
    /// Family of each base shape, in build order.
    pub base_family: Vec<Option<usize>>,
    /// Requests sent before timing starts (cache warm-up).
    pub warmup: Vec<Op>,
    /// The open-loop sequence.
    pub open: Vec<Op>,
    /// Send times of `open`, seconds after the open loop starts.
    pub schedule: Vec<f64>,
    /// The pool the closed-loop peak phase draws from, in order.
    pub peak: Vec<Op>,
    /// Writes of fresh parts, replayed by the traced run when the mix
    /// has none, so the write path is timed on every workload.
    pub write_probe: Vec<Op>,
}

/// The one-shot query every search uses.
pub fn one_shot_query(k: usize) -> Query {
    Query::top_k(FeatureKind::PrincipalMoments, k)
}

/// Family parts in a random pose, the way parts arrive from a CAD
/// system.
pub fn posed_part(family: usize, rng: &mut StdRng) -> TriMesh {
    let mut mesh = Family::ALL[family].generate(rng);
    mesh.rotate(&random_rotation(rng));
    mesh.scale_uniform(rng.gen_range(0.85..1.18));
    mesh.translate(random_offset(rng));
    mesh
}

fn random_rotation(rng: &mut StdRng) -> Mat3 {
    let axis = Vec3::new(
        rng.gen_range(-1.0..1.0),
        rng.gen_range(-1.0..1.0),
        rng.gen_range(-1.0..1.0),
    );
    Mat3::rotation_axis_angle(axis, rng.gen_range(0.0..std::f64::consts::TAU))
}

fn random_offset(rng: &mut StdRng) -> Vec3 {
    Vec3::new(
        rng.gen_range(-10.0..10.0),
        rng.gen_range(-10.0..10.0),
        rng.gen_range(-10.0..10.0),
    )
}

/// A rigidly moved copy: rotated on even draws, translated on odd ones.
pub fn rigid_copy(mesh: &TriMesh, rotate: bool, rng: &mut StdRng) -> TriMesh {
    let mut moved = mesh.clone();
    if rotate {
        moved.rotate(&random_rotation(rng));
    } else {
        moved.translate(random_offset(rng));
    }
    moved
}

/// Families in shuffled rounds of all 26, so every run queries the same
/// family mix and seeds differ only in the parts drawn.
struct FamilyStream {
    rng: StdRng,
    round: Vec<usize>,
}

impl FamilyStream {
    fn new(seed: u64) -> FamilyStream {
        FamilyStream {
            rng: StdRng::seed_from_u64(seed),
            round: Vec::new(),
        }
    }

    fn next(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = (0..Family::ALL.len()).collect();
            for i in (1..self.round.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.round.swap(i, j);
            }
        }
        self.round.pop().expect("a refilled round is not empty")
    }
}

/// A part queried repeatedly.
struct Popular {
    family: usize,
    mesh: Arc<Request>,
    features: Option<Arc<Request>>,
    mesh_raw: TriMesh,
    multistep: Arc<Request>,
}

/// Draws request sequences for one workload.
struct Generator<'a> {
    w: &'a WorkloadSpec,
    k: usize,
    rng: StdRng,
    families: FamilyStream,
    popular: Vec<Popular>,
    /// Cumulative Zipf(s=1) weights over popularity ranks.
    zipf: Vec<f64>,
    /// Popular part index of each rank.
    rank_part: Vec<usize>,
    /// Synthetic query vectors with their family, used in order.
    vectors: Vec<(usize, FeatureSet)>,
    next_vector: usize,
    next_part: usize,
    inserts: usize,
}

impl Generator<'_> {
    fn pick_popular(&mut self) -> usize {
        let u = self.rng.gen_range(0.0..1.0);
        let rank = self
            .zipf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.zipf.len() - 1);
        self.rank_part[rank]
    }

    fn fresh_part(&mut self) -> (usize, usize) {
        let part = self.next_part;
        self.next_part += 1;
        (part, self.families.next())
    }

    /// A mesh query (`SearchMesh` or `MultiStep`).
    fn mesh_op(&mut self, kind: Kind) -> Op {
        let make = |mesh: TriMesh, k: usize| match kind {
            Kind::MultiStep => Request::MultiStep {
                mesh,
                plan: MultiStepPlan::paper_default(),
            },
            _ => Request::SearchMesh {
                mesh,
                query: one_shot_query(k),
            },
        };
        if self.popular.is_empty() {
            let (part, family) = self.fresh_part();
            let mesh = posed_part(family, &mut self.rng);
            return self.op(
                kind,
                Origin::Fresh,
                part,
                family,
                Arc::new(make(mesh, self.k)),
            );
        }
        let p = self.pick_popular();
        let family = self.popular[p].family;
        if self.rng.gen_range(0.0..1.0) < self.w.resend_share {
            let request = match kind {
                Kind::MultiStep => Arc::clone(&self.popular[p].multistep),
                _ => Arc::clone(&self.popular[p].mesh),
            };
            return self.op(kind, Origin::Resend, p, family, request);
        }
        let rotate = self.rng.gen_range(0..2) == 0;
        let moved = rigid_copy(&self.popular[p].mesh_raw, rotate, &mut self.rng);
        self.op(
            kind,
            Origin::Rigid,
            p,
            family,
            Arc::new(make(moved, self.k)),
        )
    }

    fn features_op(&mut self) -> Op {
        if !self.vectors.is_empty() {
            let (family, features) = self.vectors[self.next_vector % self.vectors.len()].clone();
            self.next_vector += 1;
            let part = self.next_part;
            self.next_part += 1;
            let request = Request::SearchFeatures {
                features,
                query: one_shot_query(self.k),
            };
            return self.op(
                Kind::SearchFeatures,
                Origin::Fresh,
                part,
                family,
                Arc::new(request),
            );
        }
        let p = self.pick_popular();
        let request = Arc::clone(
            self.popular[p]
                .features
                .as_ref()
                .expect("popular parts carry features when the mix has feature reads"),
        );
        let family = self.popular[p].family;
        self.op(Kind::SearchFeatures, Origin::Resend, p, family, request)
    }

    fn write_op(&mut self) -> Op {
        let (part, family) = self.fresh_part();
        let mesh = posed_part(family, &mut self.rng);
        let name = format!("bench-{}-{}", Family::ALL[family].name(), self.inserts);
        self.inserts += 1;
        self.op(
            Kind::Write,
            Origin::Fresh,
            part,
            family,
            Arc::new(Request::Insert { name, mesh }),
        )
    }

    fn op(
        &self,
        kind: Kind,
        origin: Origin,
        part: usize,
        family: usize,
        request: Arc<Request>,
    ) -> Op {
        Op {
            kind,
            origin,
            part,
            family,
            request,
            checked: false,
        }
    }

    fn next_op(&mut self) -> Op {
        let m = &self.w.mix;
        let u = self.rng.gen_range(0.0..1.0);
        if u < m.search_mesh {
            self.mesh_op(Kind::SearchMesh)
        } else if u < m.search_mesh + m.search_features {
            self.features_op()
        } else if u < m.search_mesh + m.search_features + m.multistep {
            self.mesh_op(Kind::MultiStep)
        } else {
            self.write_op()
        }
    }
}

/// Builds every input of one run from `seed`. `open_seconds` and
/// `peak_seconds` size the sequences.
pub fn generate(
    w: &WorkloadSpec,
    seed: u64,
    extractor: &FeatureExtractor,
    open_seconds: f64,
    peak_seconds: f64,
) -> Result<Inputs, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (base, base_family, vectors) = match w.database.as_str() {
        "paper" => {
            let corpus = build_corpus(PAPER_CORPUS_SEED);
            let family = corpus.shapes.iter().map(|s| s.group).collect();
            let shapes = corpus
                .shapes
                .into_iter()
                .map(|s| (s.name, s.mesh))
                .collect();
            (Base::Paper(shapes), family, Vec::new())
        }
        "synth" => {
            // Queries are further members of the same jittered families,
            // drawn after the database's own, so reads land inside the
            // clusters they query.
            let mut shapes = synth_corpus(extractor, seed, SYNTH_SHAPES + SYNTH_QUERIES)
                .map_err(|e| e.to_string())?;
            let n_families = Family::ALL.len();
            let vectors = shapes
                .split_off(SYNTH_SHAPES)
                .into_iter()
                .enumerate()
                .map(|(i, (_, _, f))| ((SYNTH_SHAPES + i) % n_families, f))
                .collect();
            let family = (0..shapes.len()).map(|i| Some(i % n_families)).collect();
            (Base::Synth(shapes), family, vectors)
        }
        other => return Err(format!("unknown database `{other}`")),
    };

    let mut families = FamilyStream::new(rng.gen());
    let needs_features = w.mix.search_features > 0.0 && vectors.is_empty();
    let mut popular = Vec::with_capacity(w.popular_parts);
    for _ in 0..w.popular_parts {
        let family = families.next();
        let mesh_raw = posed_part(family, &mut rng);
        let features = if needs_features {
            let f = extractor.extract(&mesh_raw).map_err(|e| e.to_string())?;
            Some(Arc::new(Request::SearchFeatures {
                features: f,
                query: one_shot_query(TOP_K),
            }))
        } else {
            None
        };
        popular.push(Popular {
            family,
            mesh: Arc::new(Request::SearchMesh {
                mesh: mesh_raw.clone(),
                query: one_shot_query(TOP_K),
            }),
            features,
            multistep: Arc::new(Request::MultiStep {
                mesh: mesh_raw.clone(),
                plan: MultiStepPlan::paper_default(),
            }),
            mesh_raw,
        });
    }
    let mut rank_part: Vec<usize> = (0..popular.len()).collect();
    for i in (1..rank_part.len()).rev() {
        let j = rng.gen_range(0..=i);
        rank_part.swap(i, j);
    }
    let weights: Vec<f64> = (1..=popular.len()).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let zipf = weights
        .iter()
        .map(|x| {
            acc += x / total;
            acc
        })
        .collect();
    let warmup = popular
        .iter()
        .enumerate()
        .map(|(part, p)| Op {
            kind: Kind::SearchMesh,
            origin: Origin::Resend,
            part,
            family: p.family,
            request: Arc::clone(&p.mesh),
            checked: false,
        })
        .collect();

    let mut gen = Generator {
        w,
        k: TOP_K,
        rng: StdRng::seed_from_u64(rng.gen()),
        families,
        next_part: popular.len(),
        popular,
        zipf,
        rank_part,
        vectors,
        next_vector: 0,
        inserts: 0,
    };

    // Open loop: Poisson arrivals (independent users) at the offered rate,
    // conditioned on their count. Given the count, Poisson arrival times
    // are sorted uniform draws; fixing the count at rate x time keeps the
    // offered load the same for every seed.
    let mut arrivals = StdRng::seed_from_u64(rng.gen());
    let count = (w.offered_rps() * open_seconds).round() as usize;
    let mut schedule: Vec<f64> = (0..count)
        .map(|_| arrivals.gen_range(0.0..open_seconds))
        .collect();
    schedule.sort_by(f64::total_cmp);
    let mut open: Vec<Op> = (0..schedule.len()).map(|_| gen.next_op()).collect();

    // Seeded reference sample over the open loop's reads.
    let mut pick = StdRng::seed_from_u64(rng.gen());
    let mut reads: Vec<usize> = (0..open.len())
        .filter(|&i| open[i].kind != Kind::Write)
        .collect();
    for i in (1..reads.len()).rev() {
        let j = pick.gen_range(0..=i);
        reads.swap(i, j);
    }
    let n_checked = ((reads.len() as f64 * REFERENCE_SHARE).ceil() as usize)
        .max(REFERENCE_MIN)
        .min(reads.len());
    for &i in &reads[..n_checked] {
        open[i].checked = true;
    }

    // A pool of twice the measured peak rate, so the closed loop does not
    // run out of requests or reuse a fresh part.
    let pool = (2.0 * w.measured_peak_rps * peak_seconds).ceil() as usize + 64;
    let peak = (0..pool).map(|_| gen.next_op()).collect();
    let write_probe = (0..WRITE_PROBE).map(|_| gen.write_op()).collect();

    Ok(Inputs {
        base,
        base_family,
        warmup,
        open,
        schedule,
        peak,
        write_probe,
    })
}
