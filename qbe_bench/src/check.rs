//! The correctness gate: every reply is typed, error-free and well
//! formed, and a seeded sample equals an uncached in-process reference
//! built on the same content. Also the recall of one-shot queries.

use std::collections::{HashMap, HashSet};

use tdess_core::{multi_step_search, SearchHit, ShapeDatabase, ShapeId};
use tdess_features::FeatureSet;
use tdess_net::{HitsReport, Request, Response};

use crate::inputs::{Kind, Op, Origin};
use crate::load::{Phase, Sample, WriteAct, WriteRecord};

/// Collected gate failures (the first few are kept verbatim).
#[derive(Default)]
pub struct Gate {
    /// Number of failed checks.
    pub failed: usize,
    /// The first messages.
    pub messages: Vec<String>,
}

impl Gate {
    /// Records one failed check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }
}

/// Ids a reply may name: the base shapes plus every id an insert got.
pub fn known_ids(base_ids: &[ShapeId], writes: &[WriteRecord]) -> HashSet<ShapeId> {
    let mut ids: HashSet<ShapeId> = base_ids.iter().copied().collect();
    for w in writes {
        if let WriteAct::Insert(Some(id)) = w.act {
            ids.insert(id);
        }
    }
    ids
}

/// Most hits a request may return.
fn hit_limit(op: &Op, k: usize) -> usize {
    match op.request.as_ref() {
        Request::MultiStep { plan, .. } => plan.presented,
        _ => k,
    }
}

/// Checks one reply's type and shape; returns whether it passed.
pub fn check_reply(
    gate: &mut Gate,
    op: &Op,
    s: &Sample,
    k: usize,
    known: &HashSet<ShapeId>,
) -> bool {
    let at = format!("{:?} #{} ({:?})", s.phase, s.index, op.kind);
    let reply = match &s.reply {
        Ok(r) => r,
        Err(e) => {
            gate.fail(format!("{at}: transport error: {e}"));
            return false;
        }
    };
    match (op.kind, reply) {
        (_, Response::Error(e)) => {
            gate.fail(format!("{at}: error reply {:?}: {}", e.kind, e.message));
            false
        }
        (Kind::Write, Response::Inserted { .. } | Response::Removed { .. }) => true,
        (Kind::Write, other) => {
            gate.fail(format!("{at}: write answered with {other:?}"));
            false
        }
        (_, Response::Hits(report)) => match well_formed(report, hit_limit(op, k), known) {
            Ok(()) => true,
            Err(e) => {
                gate.fail(format!("{at}: {e}"));
                false
            }
        },
        (_, other) => {
            gate.fail(format!("{at}: search answered with {other:?}"));
            false
        }
    }
}

/// At most `limit` hits, distinct known ids, similarity non-increasing.
fn well_formed(report: &HitsReport, limit: usize, known: &HashSet<ShapeId>) -> Result<(), String> {
    if report.hits.len() > limit {
        return Err(format!("{} hits, limit {limit}", report.hits.len()));
    }
    let mut seen = HashSet::new();
    for h in &report.hits {
        if !known.contains(&h.id) || !seen.insert(h.id) {
            return Err(format!("hit id {} unknown or repeated", h.id));
        }
        if !h.similarity.is_finite() || !h.distance.is_finite() {
            return Err(format!("hit {} has a non-finite score", h.id));
        }
    }
    if report
        .hits
        .windows(2)
        .any(|w| w[1].similarity > w[0].similarity)
    {
        return Err("similarity increases down the list".into());
    }
    Ok(())
}

/// Compares a reply's hits with the reference: ids and order exactly,
/// scores bit-exact unless `tolerance` is given.
pub fn same_hits(
    report: &HitsReport,
    reference: &[SearchHit],
    tolerance: Option<f64>,
) -> Result<(), String> {
    if report.hits.len() != reference.len() {
        return Err(format!(
            "{} hits, reference {}",
            report.hits.len(),
            reference.len()
        ));
    }
    for (i, (got, want)) in report.hits.iter().zip(reference).enumerate() {
        if got.id != want.id {
            return Err(format!(
                "rank {i}: id {} ({:e}) vs reference {} ({:e})",
                got.id, got.similarity, want.id, want.similarity
            ));
        }
        let close = |a: f64, b: f64| match tolerance {
            None => a.to_bits() == b.to_bits(),
            Some(t) => (a - b).abs() <= t,
        };
        if !close(got.similarity, want.similarity) || !close(got.distance, want.distance) {
            return Err(format!(
                "rank {i}: scores ({:e}, {:e}) vs reference ({:e}, {:e})",
                got.similarity, got.distance, want.similarity, want.distance
            ));
        }
    }
    Ok(())
}

/// Largest absolute score difference between a reply and the reference
/// (for the report; zero when the lists differ in length).
fn score_gap(report: &HitsReport, reference: &[SearchHit]) -> f64 {
    if report.hits.len() != reference.len() {
        return 0.0;
    }
    report
        .hits
        .iter()
        .zip(reference)
        .map(|(a, b)| {
            (a.similarity - b.similarity)
                .abs()
                .max((a.distance - b.distance).abs())
        })
        .fold(0.0, f64::max)
}

/// Summary of the reference comparison.
#[derive(Debug, Default)]
pub struct ReferenceReport {
    /// Replies compared.
    pub compared: usize,
    /// Rigid-copy replies compared under the tolerance.
    pub rigid: usize,
    /// Rigid-copy replies whose scores were not bit-exact.
    pub rigid_inexact: usize,
    /// Largest score gap seen on a rigid copy.
    pub rigid_max_gap: f64,
}

/// Runs the request's search on `db` without any cache.
fn reference_hits(
    db: &ShapeDatabase,
    op: &Op,
    memo: &mut HashMap<usize, FeatureSet>,
) -> Result<Vec<SearchHit>, String> {
    let mut features = |mesh| -> Result<FeatureSet, String> {
        if op.origin == Origin::Resend {
            if let Some(f) = memo.get(&op.part) {
                return Ok(f.clone());
            }
        }
        let f = db.extract_query(mesh).map_err(|e| e.to_string())?;
        if op.origin == Origin::Resend {
            memo.insert(op.part, f.clone());
        }
        Ok(f)
    };
    match op.request.as_ref() {
        Request::SearchMesh { mesh, query } => Ok(db.search(&features(mesh)?, query)),
        Request::SearchFeatures { features, query } => Ok(db.search(features, query)),
        Request::MultiStep { mesh, plan } => Ok(multi_step_search(db, &features(mesh)?, plan)),
        other => Err(format!("not a search: {other:?}")),
    }
}

/// Applies one recorded write to the reference database.
fn apply_write(db: &mut ShapeDatabase, w: &WriteRecord, insert: &Request) -> Result<(), String> {
    match (w.act, insert) {
        (WriteAct::Insert(Some(id)), Request::Insert { name, mesh }) => {
            let f = db.extract_query(mesh).map_err(|e| e.to_string())?;
            let got = db.insert_precomputed(name.clone(), mesh.clone(), f);
            if got != id {
                return Err(format!(
                    "insert got id {id} on the server, {got} in the reference"
                ));
            }
            Ok(())
        }
        (WriteAct::Remove(id), _) => db.remove(id).map(|_| ()).map_err(|e| e.to_string()),
        (WriteAct::Skipped, _) => Ok(()),
        (act, _) => Err(format!("cannot replay write {act:?}")),
    }
}

/// Compares every checked open-loop read with the reference database at
/// each state the read could have seen (writes acknowledged before it
/// was sent, up to writes sent before its reply arrived). `db` starts as
/// the served snapshot.
pub fn check_reference(
    gate: &mut Gate,
    mut db: ShapeDatabase,
    ops: &[Op],
    samples: &[Sample],
    writes: &[WriteRecord],
    write_op: impl Fn((Phase, usize)) -> Request,
    tolerance: f64,
) -> ReferenceReport {
    let mut report = ReferenceReport::default();
    let mut pending: Vec<&Sample> = samples
        .iter()
        .filter(|s| ops[s.index].checked && matches!(s.reply, Ok(Response::Hits(_))))
        .collect();
    pending.sort_by_key(|s| s.epoch_lo);
    let mut errors: HashMap<usize, String> = HashMap::new();
    let mut matched: HashSet<usize> = HashSet::new();
    let mut memo = HashMap::new();
    let last = pending.iter().map(|s| s.epoch_hi).max().unwrap_or(0);
    for epoch in 0..=last.min(writes.len()) {
        for s in pending
            .iter()
            .filter(|s| s.epoch_lo <= epoch && epoch <= s.epoch_hi)
        {
            if matched.contains(&s.index) {
                continue;
            }
            let op = &ops[s.index];
            let Ok(Response::Hits(got)) = &s.reply else {
                continue;
            };
            let tol = (op.origin == Origin::Rigid).then_some(tolerance);
            let verdict = reference_hits(&db, op, &mut memo).and_then(|want| {
                same_hits(got, &want, tol)?;
                if tol.is_some() {
                    report.rigid += 1;
                    let gap = score_gap(got, &want);
                    if gap > 0.0 {
                        report.rigid_inexact += 1;
                    }
                    report.rigid_max_gap = report.rigid_max_gap.max(gap);
                }
                Ok(())
            });
            match verdict {
                Ok(()) => {
                    matched.insert(s.index);
                    report.compared += 1;
                }
                Err(e) => {
                    errors.insert(s.index, e);
                }
            }
        }
        if epoch < last.min(writes.len()) {
            let w = &writes[epoch];
            if let Err(e) = apply_write(&mut db, w, &write_op(w.op_index)) {
                gate.fail(format!("reference replay of write {epoch}: {e}"));
                return report;
            }
        }
    }
    for s in &pending {
        if !matched.contains(&s.index) {
            let why = errors
                .remove(&s.index)
                .unwrap_or_else(|| "no reference state".into());
            gate.fail(format!(
                "open #{} ({:?}, {:?}) differs from the reference: {why}",
                s.index, ops[s.index].kind, ops[s.index].origin
            ));
        }
    }
    report
}

/// Mean recall at 10 of the one-shot reads: for each part, the mean over
/// its queries of (relevant hits / relevant shapes in the database when
/// the query was sent), then the mean over parts. A shape is relevant
/// when it belongs to the query's family.
pub fn recall_at_10(
    ops: &[Op],
    samples: &[Sample],
    base_ids: &[ShapeId],
    base_family: &[Option<usize>],
    writes: &[WriteRecord],
) -> Option<f64> {
    let n_families = tdess_dataset::Family::ALL.len();
    let mut base_count = vec![0usize; n_families];
    for f in base_family.iter().flatten() {
        base_count[*f] += 1;
    }
    // Live inserted parts per family before each write ordinal.
    let mut family_of: HashMap<ShapeId, usize> = base_ids
        .iter()
        .zip(base_family)
        .filter_map(|(&id, f)| f.map(|f| (id, f)))
        .collect();
    let mut live = vec![vec![0usize; n_families]];
    for w in writes {
        let mut next = live.last().expect("starts non-empty").clone();
        match w.act {
            WriteAct::Insert(Some(id)) => {
                family_of.insert(id, w.family);
                next[w.family] += 1;
            }
            WriteAct::Remove(id) => {
                if let Some(&f) = family_of.get(&id) {
                    next[f] = next[f].saturating_sub(1);
                }
            }
            _ => {}
        }
        live.push(next);
    }
    let mut per_part: HashMap<usize, (f64, usize)> = HashMap::new();
    for s in samples {
        let op = &ops[s.index];
        if !matches!(op.kind, Kind::SearchMesh | Kind::SearchFeatures) {
            continue;
        }
        let Ok(Response::Hits(report)) = &s.reply else {
            continue;
        };
        let epoch = s.epoch_lo.min(live.len() - 1);
        let relevant = base_count[op.family] + live[epoch][op.family];
        if relevant == 0 {
            continue;
        }
        let found = report
            .hits
            .iter()
            .take(10)
            .filter(|h| family_of.get(&h.id) == Some(&op.family))
            .count();
        let e = per_part.entry(op.part).or_insert((0.0, 0));
        e.0 += found as f64 / relevant as f64;
        e.1 += 1;
    }
    if per_part.is_empty() {
        return None;
    }
    let mut parts: Vec<(usize, (f64, usize))> = per_part.into_iter().collect();
    parts.sort_by_key(|p| p.0);
    Some(
        parts
            .iter()
            .map(|(_, (sum, n))| sum / *n as f64)
            .sum::<f64>()
            / parts.len() as f64,
    )
}
