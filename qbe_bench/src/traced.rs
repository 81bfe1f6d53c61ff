//! The traced run: the workload's warm-up and the first requests of its
//! open-loop sequence, replayed one at a time, plus a write probe when the
//! mix has no writes. Each request runs through two in-process mirrors in
//! step, one untraced and one traced with one span per layer call, and
//! once over the wire against the served binary; the replies must agree.
//! Per-layer metrics come from the spans.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdess_cache::CacheKey;
use tdess_core::{load_from_path, ShapeDatabase};
use tdess_dataset::Family;
use tdess_features::{normalize, FeatureKind};
use tdess_geom::TriMesh;
use tdess_net::proto::{decode, decode_request, encode};
use tdess_net::{HitsReport, NetClient, Request, RequestEnvelope, Response};

use crate::check::Gate;
use crate::inputs::{posed_part, rigid_copy, Kind, Op};
use crate::mirror::{same_features, Mirror, Outcome};
use crate::server::client_config;
use crate::spec::{Spec, WorkloadSpec};
use crate::stats::{mean, median, quantile, Metrics};
use crate::trace::{write_spans, Analysis, Tracer};
use crate::{extractor, header, listed_metrics, make_inputs, report, setup, Args};

/// Layers on the request path, in report order.
const LAYERS: [&str; 7] = [
    "net", "cache", "features", "voxel", "skeleton", "index", "core",
];

/// Pings timed for `net.ping_rtt_us`.
const PINGS: usize = 200;

/// Fixed seed of the rigid-copy cache probe, the same in every run.
const RIGID_PROBE_SEED: u64 = 91;

/// Parts in the rigid-copy probe: one per family.
const RIGID_PROBE_PARTS: usize = 26;

/// The wire form of a mirrored outcome.
fn response(out: &Outcome) -> Response {
    match out {
        Outcome::Hits(hits, snap) => Response::Hits(HitsReport::new(snap, hits)),
        Outcome::Inserted(id) => Response::Inserted { id: *id },
        Outcome::Removed(id) => Response::Removed { id: *id },
    }
}

/// Share of rotated and translated copies whose cache key equals the
/// original's: one posed part per family from a fixed seed, each moved
/// both ways. Returns (rotated hits, translated hits, copies per kind).
fn rigid_probe() -> (usize, usize, usize) {
    let ex = extractor();
    let mut rng = StdRng::seed_from_u64(RIGID_PROBE_SEED);
    let key = |m: &TriMesh| normalize(m).map(|n| CacheKey::derive(&n, &ex)).ok();
    let (mut rotated, mut translated) = (0, 0);
    for i in 0..RIGID_PROBE_PARTS {
        let part = posed_part(i % Family::ALL.len(), &mut rng);
        let k = key(&part);
        let (turned, shifted) = (
            rigid_copy(&part, true, &mut rng),
            rigid_copy(&part, false, &mut rng),
        );
        rotated += usize::from(k.is_some() && key(&turned) == k);
        translated += usize::from(k.is_some() && key(&shifted) == k);
    }
    (rotated, translated, RIGID_PROBE_PARTS)
}

/// Largest relative gap between the served `dmax` and that of a database
/// built from scratch on the same final content.
fn dmax_drift(served: &[(FeatureKind, f64)], content: &ShapeDatabase) -> f64 {
    let mut fresh = ShapeDatabase::new(*content.extractor());
    fresh.insert_batch_precomputed(
        content
            .shapes()
            .iter()
            .map(|s| (s.name.clone(), s.mesh.clone(), s.features.clone()))
            .collect(),
    );
    served
        .iter()
        .map(|&(kind, d)| (d - fresh.dmax(kind)).abs() / fresh.dmax(kind).max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max)
}

/// Runs the traced replay and prints the per-layer metrics.
pub fn run(args: &Args, spec: &Spec, w: &WorkloadSpec) -> Result<bool, String> {
    let (seed, _, _, inputs) = make_inputs(args, spec, w)?;
    let n = w.trace_requests.min(inputs.open.len());
    let probe: &[Op] = if w.mix.write > 0.0 {
        &[]
    } else {
        &inputs.write_probe
    };
    let replay: Vec<&Op> = inputs
        .warmup
        .iter()
        .chain(&inputs.open[..n])
        .chain(probe)
        .collect();

    let built = setup(args, &inputs.base)?;
    let t = Instant::now();
    let db = load_from_path(&built.snapshot).map_err(|e| e.to_string())?;
    let load_s = t.elapsed().as_secs_f64();
    let mut client =
        NetClient::connect(built.served.addr, client_config()).map_err(|e| e.to_string())?;
    let mut rtt_us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        client.ping().map_err(|e| e.to_string())?;
        rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // Two mirrors in step: an untraced one timed around `run` alone, and
    // the traced one, whose `call` span covers the same scope. Both run
    // back to back after the wire request, the untraced one first on even
    // requests and second on odd ones, so each side finds the caches warm
    // equally often.
    let ex = extractor();
    let mut off = Tracer::new(false);
    let mut plain = Mirror::new(db.clone());
    let mut plain_ms: HashMap<u32, f64> = HashMap::new();
    let mut tr = Tracer::new(true);
    let mut m = Mirror::new(db);
    let mut gate = Gate::default();
    let (mut failed, mut req_bytes, mut resp_bytes) = (0usize, 0u64, 0u64);
    for (i, op) in replay.iter().enumerate() {
        let request = i as u32 + 1;
        tr.set_request(request);
        let (Some(req), Some(_)) = (m.resolve(op), plain.resolve(op)) else {
            gate.fail(format!("replay #{i}: no live insert to remove"));
            continue;
        };
        let mut untraced = || -> Result<(), String> {
            let t = Instant::now();
            let out = plain.run(&mut off, &req)?;
            plain_ms.insert(request, t.elapsed().as_secs_f64() * 1e3);
            drop(out);
            plain.extracted.clear();
            Ok(())
        };
        let mut step = || -> Result<(), String> {
            let wire = tr.span("request", |tr| -> Result<Response, String> {
                let envelope = RequestEnvelope {
                    trace_id: Some(format!("{i:016x}")),
                    request: req.clone(),
                };
                let payload = tr
                    .span("net.encode", |_| encode(&envelope))
                    .map_err(|e| e.to_string())?;
                req_bytes += payload.len() as u64;
                tr.span("net.decode", |_| decode_request(&payload))
                    .map_err(|e| e.to_string())?;
                tr.span("probe.wire", |_| client.request(&req))
                    .map_err(|e| e.to_string())
            })?;
            if i % 2 == 0 {
                untraced()?;
            }
            let out = tr.span("call", |tr| m.run(tr, &req))?;
            if i % 2 == 1 {
                untraced()?;
            }
            tr.span("check", |tr| -> Result<(), String> {
                let mesh = match &req {
                    Request::SearchMesh { mesh, .. }
                    | Request::MultiStep { mesh, .. }
                    | Request::Insert { mesh, .. } => Some(mesh),
                    _ => None,
                };
                for (normalized, features) in m.extracted.drain(..) {
                    let mesh = mesh.ok_or("an extraction without a query mesh")?;
                    let lib = tr.span("probe.extract", |_| {
                        ex.extract_from_normalized(mesh, &normalized)
                    });
                    if !same_features(&lib, &features) {
                        return Err("decomposed extraction differs from FeatureExtractor".into());
                    }
                }
                let bytes = tr
                    .span("net.encode_reply", |_| encode(&response(&out)))
                    .map_err(|e| e.to_string())?;
                resp_bytes += bytes.len() as u64;
                let mine: Response = tr
                    .span("net.decode_reply", |_| decode(&bytes))
                    .map_err(|e| e.to_string())?;
                if wire != mine {
                    return Err(format!(
                        "served reply {wire:?} differs from the in-process {mine:?}"
                    ));
                }
                Ok(())
            })
        };
        if let Err(e) = step() {
            failed += 1;
            gate.fail(format!("replay #{i} ({:?}): {e}", op.kind));
        }
    }
    drop(plain);

    let info = client.info().map_err(|e| e.to_string())?;
    drop(client);
    drop(built.served);
    let content = m.snapshot();
    let served_dmax: Vec<(FeatureKind, f64)> =
        info.spaces.iter().map(|s| (s.kind, s.dmax)).collect();
    if info.shapes != content.len()
        || served_dmax
            .iter()
            .any(|&(k, d)| d.to_bits() != content.dmax(k).to_bits())
    {
        gate.fail("served database differs from the in-process mirror after the replay".into());
    }
    let drift = dmax_drift(&served_dmax, &content);
    let (rot_hits, trans_hits, probed) = rigid_probe();

    // Per-layer metrics from the spans.
    let a = Analysis::new(tr.spans());
    let med = |name: &str| median(&a.durations_ms(name));
    let q = |name: &str, p: f64| quantile(&a.durations_ms(name), p);
    // Request ids are replay positions plus one.
    let op_of = |request: u32| replay[request as usize - 1];
    let mut extract_ms: HashMap<u32, f64> = HashMap::new();
    let mut wire_ms: HashMap<u32, f64> = HashMap::new();
    let mut call_ms: HashMap<u32, f64> = HashMap::new();
    let mut layer_ms: HashMap<&str, f64> = HashMap::new();
    let mut attributed: HashMap<&str, (f64, f64)> = HashMap::new();
    for (i, s) in a.spans.iter().enumerate() {
        let ms = s.dur_ns() as f64 / 1e6;
        match s.name {
            "probe.extract" => *extract_ms.entry(s.request).or_default() += ms,
            "probe.wire" => *wire_ms.entry(s.request).or_default() += ms,
            "call" => {
                call_ms.insert(s.request, ms);
                let class = op_of(s.request).kind.class();
                attributed.entry(class).or_default().1 += ms;
            }
            _ => {}
        }
        if LAYERS.contains(&s.layer()) {
            *layer_ms.entry(s.layer()).or_default() += a.self_ns[i] as f64 / 1e6;
            if a.under(i, "call") {
                let class = op_of(s.request).kind.class();
                attributed.entry(class).or_default().0 += a.self_ns[i] as f64 / 1e6;
            }
        }
    }
    let overhead: Vec<f64> = wire_ms
        .iter()
        .filter(|(&r, _)| op_of(r).kind != Kind::Write)
        .filter_map(|(r, w)| plain_ms.get(r).map(|p| w - p))
        .collect();
    let traced_total: f64 = call_ms.values().sum();
    let plain_total: f64 = plain_ms.values().sum();
    let cache = m.cache_stats();
    let lookups = cache.hits + cache.misses + cache.coalesced_waits;
    let work = m.work;
    let per_query = |x: u64| (work.index_queries > 0).then(|| x as f64 / work.index_queries as f64);

    let mut metrics = Metrics::default();
    let mut missing = Vec::new();
    {
        let mut put = |name: &str, v: Option<f64>, unit: &'static str| {
            metrics.put_opt(name, v, unit, &mut missing)
        };
        put("net.ping_rtt_us", median(&rtt_us), "us");
        put("net.encode_us", med("net.encode").map(|v| v * 1e3), "us");
        put("net.decode_us", med("net.decode").map(|v| v * 1e3), "us");
        put(
            "net.encode_reply_us",
            med("net.encode_reply").map(|v| v * 1e3),
            "us",
        );
        put(
            "net.decode_reply_us",
            med("net.decode_reply").map(|v| v * 1e3),
            "us",
        );
        put("net.request_bytes", Some(req_bytes as f64), "bytes");
        put("net.response_bytes", Some(resp_bytes as f64), "bytes");
        put("net.overhead_ms", median(&overhead), "ms");
        put(
            "cache.hit_ratio",
            (lookups > 0).then(|| cache.hits as f64 / lookups as f64),
            "ratio",
        );
        put("cache.lookups", Some(lookups as f64), "count");
        put("cache.hits", Some(cache.hits as f64), "count");
        put("cache.misses", Some(cache.misses as f64), "count");
        put(
            "cache.coalesced_waits",
            Some(cache.coalesced_waits as f64),
            "count",
        );
        put("cache.key_us", med("cache.key").map(|v| v * 1e3), "us");
        put(
            "cache.lookup_us",
            median(&a.self_ms("cache.lookup")).map(|v| v * 1e3),
            "us",
        );
        put(
            "cache.rigid_hit_ratio",
            Some((rot_hits + trans_hits) as f64 / (2 * probed).max(1) as f64),
            "ratio",
        );
        put(
            "cache.resident_bytes",
            Some(cache.resident_bytes as f64),
            "bytes",
        );
        put(
            "features.extract_ms.p50",
            quantile(&extract_ms.values().copied().collect::<Vec<_>>(), 0.5),
            "ms",
        );
        put(
            "features.extract_ms.p99",
            quantile(&extract_ms.values().copied().collect::<Vec<_>>(), 0.99),
            "ms",
        );
        put("features.normalize_ms", med("features.normalize"), "ms");
        put(
            "features.mesh_vectors_ms",
            med("features.mesh_vectors"),
            "ms",
        );
        put("features.d2_ms", med("features.d2"), "ms");
        put("features.shell_ms", med("features.shell"), "ms");
        // Extraction time outside its timed calls, in the same execution.
        put(
            "features.unattributed_ms",
            median(&a.self_ms("features.extract")),
            "ms",
        );
        put("voxel.voxelize_ms.p50", q("voxel.voxelize", 0.5), "ms");
        put("voxel.voxelize_ms.p99", q("voxel.voxelize", 0.99), "ms");
        put(
            "voxel.filled_voxels",
            Some(work.filled_voxels as f64),
            "count",
        );
        put(
            "skeleton.skeletonize_ms.p50",
            q("skeleton.skeletonize", 0.5),
            "ms",
        );
        put(
            "skeleton.skeletonize_ms.p99",
            q("skeleton.skeletonize", 0.99),
            "ms",
        );
        put(
            "skeleton.deleted_voxels",
            Some(work.deleted_voxels as f64),
            "count",
        );
        put("skeleton.prune_ms", med("skeleton.prune"), "ms");
        put("skeleton.graph_build_ms", med("skeleton.graph_build"), "ms");
        put(
            "skeleton.graph_nodes",
            Some(work.graph_nodes as f64),
            "count",
        );
        put("skeleton.spectrum_ms", med("skeleton.spectrum"), "ms");
        put(
            "index.search_us",
            med("index.search").map(|v| v * 1e3),
            "us",
        );
        put(
            "index.node_accesses",
            Some(work.node_accesses as f64),
            "count",
        );
        put(
            "index.entries_checked",
            Some(work.entries_checked as f64),
            "count",
        );
        put(
            "index.node_accesses_per_query",
            per_query(work.node_accesses),
            "count",
        );
        put(
            "index.entries_checked_per_query",
            per_query(work.entries_checked),
            "count",
        );
        put(
            "core.multistep_us",
            med("core.multistep").map(|v| v * 1e3),
            "us",
        );
        put("core.insert_ms.p50", q("op.insert", 0.5), "ms");
        put("core.insert_ms.p90", q("op.insert", 0.9), "ms");
        put("core.remove_ms.p50", q("op.remove", 0.5), "ms");
        put("core.remove_ms.p90", q("op.remove", 0.9), "ms");
        put("core.build_s", Some(built.build_s), "s");
        put("core.snapshot_save_s", Some(built.save_s), "s");
        put("core.snapshot_load_s", Some(load_s), "s");
        put("core.snapshot_bytes", Some(built.bytes as f64), "bytes");
        put("core.dmax_drift", Some(drift), "ratio");
        for layer in LAYERS {
            let total = layer_ms.get(layer).copied().unwrap_or(0.0);
            put(
                &format!("{layer}.self_ms"),
                Some(total / replay.len().max(1) as f64),
                "ms",
            );
        }
        for class in ["search", "multistep", "write"] {
            let share = attributed
                .get(class)
                .and_then(|(s, t)| (*t > 0.0).then(|| s / t));
            put(&format!("harness.attributed_share.{class}"), share, "ratio");
        }
        put(
            "harness.trace_overhead_pct",
            (plain_total > 0.0).then(|| (traced_total - plain_total) / plain_total * 100.0),
            "%",
        );
    }
    for name in &missing {
        gate.fail(format!("metric {name} has no samples in the replay"));
    }

    let spans_path = args
        .workdir
        .join(format!("{}-seed{seed}.spans.jsonl", w.name));
    write_spans(&spans_path, tr.spans())?;
    let counters = format!(
        "counters cache.hits={} cache.misses={} cache.coalesced_waits={} index.node_accesses={} index.entries_checked={} \
         voxel.filled_voxels={} skeleton.deleted_voxels={} skeleton.graph_nodes={} net.request_bytes={req_bytes} \
         net.response_bytes={resp_bytes} core.snapshot_bytes={}",
        cache.hits,
        cache.misses,
        cache.coalesced_waits,
        work.node_accesses,
        work.entries_checked,
        work.filled_voxels,
        work.deleted_voxels,
        work.graph_nodes,
        built.bytes
    );
    let notes = vec![
        counters,
        format!("rigid probe: {rot_hits} of {probed} rotated and {trans_hits} of {probed} translated copies share the key"),
        format!("spans: {} written to {}", tr.spans().len(), spans_path.display()),
        format!(
            "mean untraced call {:.4} ms over {} requests ({} from the write probe)",
            mean(&plain_ms.values().copied().collect::<Vec<_>>()).unwrap_or(0.0),
            replay.len(),
            probe.len()
        ),
    ];
    let head = header(
        args,
        spec,
        w,
        seed,
        &[],
        None,
        &[("replayed_requests", replay.len().to_string())],
    );
    let listed = listed_metrics(&args.benchmark, "per_layer")?;
    let passed = report(&head, &notes, &metrics, &listed, gate, replay.len(), failed);
    let _ = std::fs::remove_file(&built.snapshot);
    Ok(passed)
}
