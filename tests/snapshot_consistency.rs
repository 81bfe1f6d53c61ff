//! Crash-consistency and corruption suite for both snapshot formats:
//! hostile binary and JSON files must come back as typed errors, JSON
//! files in the layout that stored R-trees must still load, and over
//! the full 113-shape corpus both persistence paths must hand back
//! databases whose search results are bit-identical.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use serde::Value;
use threedess::core::{
    bulk_insert, load_from_path, save_to_path, save_to_path_binary, PersistError, Query,
    ShapeDatabase,
};
use threedess::dataset::build_corpus;
use threedess::features::{FeatureExtractor, FeatureKind};

/// The full 113-shape corpus indexed at a test-budget resolution,
/// built once per test binary.
fn corpus_db() -> &'static ShapeDatabase {
    static DB: OnceLock<ShapeDatabase> = OnceLock::new();
    DB.get_or_init(|| {
        let corpus = build_corpus(2004);
        let mut db = ShapeDatabase::new(FeatureExtractor {
            voxel_resolution: 12,
            ..Default::default()
        });
        let shapes: Vec<_> = corpus
            .shapes
            .iter()
            .map(|s| (s.name.clone(), s.mesh.clone()))
            .collect();
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
        bulk_insert(&mut db, shapes, threads).unwrap();
        db
    })
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tdess_snapshot_suite").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A three-shape database, for corruption experiments.
fn small_db() -> &'static ShapeDatabase {
    static DB: OnceLock<ShapeDatabase> = OnceLock::new();
    DB.get_or_init(|| {
        let mut db = ShapeDatabase::new(FeatureExtractor {
            voxel_resolution: 12,
            ..Default::default()
        });
        let corpus = build_corpus(2004);
        for s in corpus.shapes.iter().take(3) {
            db.insert(s.name.clone(), s.mesh.clone()).unwrap();
        }
        db
    })
}

/// [`small_db`] as a binary snapshot.
fn snapshot_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    threedess::core::save_binary(small_db(), &mut buf).unwrap();
    buf
}

/// [`small_db`] as a JSON value tree, for hostile edits.
fn json_value() -> Value {
    let mut buf = Vec::new();
    threedess::core::save(small_db(), &mut buf).unwrap();
    serde_json::from_str(std::str::from_utf8(&buf).unwrap()).unwrap()
}

/// The node at `path` (object keys, or array indices in decimal).
fn at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(v, |node, key| match node {
        Value::Obj(pairs) => {
            let i = pairs.iter().position(|(k, _)| k == key);
            &mut pairs[i.unwrap_or_else(|| panic!("no key {key}"))].1
        }
        Value::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
        other => panic!("cannot index {} with {key}", other.kind_name()),
    })
}

fn load_json(name: &str, v: &Value) -> Result<ShapeDatabase, PersistError> {
    load_bytes(name, serde_json::to_string(v).unwrap().as_bytes())
}

/// The edited JSON must fail validation in `from_loaded_parts`.
fn assert_corrupt(name: &str, v: &Value, needle: &str) {
    match load_json(name, v) {
        Err(PersistError::Corrupt {
            path,
            section,
            reason,
        }) => {
            assert!(path.to_string_lossy().contains(name), "{name}");
            assert_eq!(section, "database", "{name}");
            assert!(reason.contains(needle), "{name}: {reason}");
        }
        other => panic!("{name}: expected Corrupt, got {other:?}"),
    }
}

/// The edited JSON must fail to decode.
fn assert_undecodable(name: &str, v: &Value, needle: &str) {
    match load_json(name, v) {
        Err(PersistError::Serde(e)) => assert!(e.to_string().contains(needle), "{name}: {e}"),
        other => panic!("{name}: expected Serde, got {other:?}"),
    }
}

fn load_bytes(name: &str, bytes: &[u8]) -> Result<ShapeDatabase, PersistError> {
    let path = test_dir("corruption").join(name);
    std::fs::write(&path, bytes).unwrap();
    load_from_path(&path)
}

#[test]
fn truncated_snapshot_names_path_and_section() {
    let bytes = snapshot_bytes();
    // Cut the file in the middle of a section payload.
    let cut = bytes.len() / 2;
    let err = load_bytes("truncated.tdss", &bytes[..cut]).expect_err("truncated file must fail");
    match &err {
        PersistError::Corrupt { path, section, .. } => {
            assert!(path.to_string_lossy().contains("truncated.tdss"));
            assert!(
                ["header", "META", "SHPS", "FEAT", "database"].contains(section),
                "unexpected section {section}"
            );
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("truncated.tdss"), "{msg}");

    // Cutting inside the 12-byte file header is also a typed error.
    let err = load_bytes("tiny.tdss", &bytes[..6]).expect_err("header-truncated file must fail");
    assert!(err.to_string().contains("tiny.tdss"), "{err}");
}

#[test]
fn flipped_payload_byte_fails_checksum() {
    let mut bytes = snapshot_bytes();
    // Flip one byte near the end (inside the FEAT payload), far from
    // the headers, so only the checksum can catch it.
    let idx = bytes.len() - 9;
    bytes[idx] ^= 0x40;
    let err = load_bytes("bitflip.tdss", &bytes).expect_err("bit flip must fail");
    match &err {
        PersistError::Corrupt {
            path,
            section,
            reason,
        } => {
            assert!(path.to_string_lossy().contains("bitflip.tdss"));
            assert_eq!(*section, "FEAT");
            assert!(reason.contains("checksum"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn wrong_magic_is_typed_and_falls_back_to_json_parse() {
    let mut bytes = snapshot_bytes();
    bytes[0] = b'X';
    // Through the sniffing loader a non-TDSS prefix is treated as
    // JSON, which then fails to parse — also an error, but a Serde
    // one.
    let err = load_bytes("notmagic.tdss", &bytes).expect_err("corrupted magic must fail");
    assert!(
        matches!(err, PersistError::Serde(_)),
        "sniff fell back to JSON, got {err:?}"
    );
    // The binary decoder itself reports BadMagic with the path.
    let path = test_dir("corruption").join("notmagic.tdss");
    let err = threedess::core::load_binary(std::fs::File::open(&path).unwrap(), &path)
        .expect_err("bad magic must fail");
    match &err {
        PersistError::BadMagic { path, found } => {
            assert!(path.to_string_lossy().contains("notmagic.tdss"));
            assert_eq!(found[0], b'X');
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
    assert!(err.to_string().contains("header"), "{err}");
}

#[test]
fn future_version_is_rejected() {
    let mut bytes = snapshot_bytes();
    // Version field is bytes 4..8 (little endian).
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    let err = load_bytes("future.tdss", &bytes).expect_err("future version must fail");
    match &err {
        PersistError::UnsupportedVersion {
            path,
            found,
            supported,
        } => {
            assert!(path.to_string_lossy().contains("future.tdss"));
            assert_eq!(*found, 99);
            assert_eq!(*supported, threedess::core::SNAPSHOT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn hostile_tree_config_in_meta_is_rejected() {
    let mut bytes = snapshot_bytes();
    // META payload starts at byte 32 (12-byte file header + 20-byte
    // section header); min_entries is the u32 at payload offset 28.
    // Setting it to 0 must be caught by the shared RTreeConfig
    // validation — but the checksum trips first unless it is patched,
    // so patch the stored checksum to match the tampered payload.
    let meta_payload_start = 32;
    let min_entries_off = meta_payload_start + 28;
    bytes[min_entries_off..min_entries_off + 4].copy_from_slice(&0u32.to_le_bytes());
    // Recompute the META checksum over the tampered payload.
    let len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let sum = threedess::core::checksum64(&bytes[meta_payload_start..meta_payload_start + len]);
    bytes[24..32].copy_from_slice(&sum.to_le_bytes());
    let err = load_bytes("hostilecfg.tdss", &bytes).expect_err("min_entries=0 must fail");
    match &err {
        PersistError::Corrupt {
            section, reason, ..
        } => {
            assert_eq!(*section, "database");
            assert!(reason.contains("min_entries"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn json_and_binary_loads_are_bit_identical_over_corpus() {
    let db = corpus_db();
    let dir = test_dir("bit_identical");
    let json_path = dir.join("corpus.json");
    let bin_path = dir.join("corpus.tdss");
    save_to_path(db, &json_path).unwrap();
    save_to_path_binary(db, &bin_path).unwrap();

    let from_json = load_from_path(&json_path).unwrap();
    let from_bin = load_from_path(&bin_path).unwrap();
    assert_eq!(from_json.len(), db.len());
    assert_eq!(from_bin.len(), db.len());

    for kind in FeatureKind::ALL {
        assert_eq!(
            from_json.dmax(kind).to_bits(),
            from_bin.dmax(kind).to_bits(),
            "{kind:?} dmax differs between formats"
        );
    }

    // Every 9th shape queries the database in every feature space;
    // ids, distances, and similarities must match bit for bit.
    for shape in db.shapes().iter().step_by(9) {
        for kind in FeatureKind::ALL {
            let q = Query::top_k(kind, 10);
            let a = from_json.search(&shape.features, &q);
            let b = from_bin.search(&shape.features, &q);
            assert_eq!(a.len(), b.len(), "{kind:?} result count for {}", shape.name);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id, "{kind:?} ids for {}", shape.name);
                assert_eq!(
                    x.distance.to_bits(),
                    y.distance.to_bits(),
                    "{kind:?} distance bits for {}",
                    shape.name
                );
                assert_eq!(
                    x.similarity.to_bits(),
                    y.similarity.to_bits(),
                    "{kind:?} similarity bits for {}",
                    shape.name
                );
            }
        }
    }
}

#[test]
fn hostile_json_dmax_is_rejected() {
    let mut v = json_value();
    let Value::Obj(dmax) = at(&mut v, &["dmax"]) else {
        panic!("dmax is an object")
    };
    dmax.retain(|(k, _)| k != "MomentInvariants");
    assert_undecodable("dmax_missing.json", &v, "MomentInvariants");

    for (name, bad) in [
        ("dmax_nan.json", Value::Null),
        ("dmax_neg.json", Value::Float(-1.0)),
    ] {
        let mut v = json_value();
        *at(&mut v, &["dmax", "GeometricParams"]) = bad;
        assert_corrupt(name, &v, "dmax for GeometricParams");
    }
}

#[test]
fn hostile_json_extractor_is_rejected() {
    for (name, field, bad) in [
        ("res_1.json", "voxel_resolution", 1),
        ("res_huge.json", "voxel_resolution", 1 << 20),
        ("spectrum_0.json", "spectrum_dim", 0),
    ] {
        let mut v = json_value();
        *at(&mut v, &["extractor", field]) = Value::Int(bad);
        assert_corrupt(name, &v, "implausible extractor config");
    }
}

#[test]
fn hostile_json_ids_are_rejected() {
    let mut v = json_value();
    *at(&mut v, &["shapes", "1", "id"]) = Value::Int(1);
    assert_corrupt("dup_id.json", &v, "duplicate shape id 1");

    let mut v = json_value();
    *at(&mut v, &["next_id"]) = Value::Int(3);
    assert_corrupt("next_id.json", &v, "next_id 3");
}

#[test]
fn hostile_json_features_are_rejected() {
    let mut v = json_value();
    let Value::Arr(geometric) = at(&mut v, &["shapes", "0", "features", "geometric"]) else {
        panic!("geometric is an array")
    };
    geometric.pop();
    assert_corrupt(
        "short_vector.json",
        &v,
        "GeometricParams vector has 4 values",
    );

    let mut v = json_value();
    *at(
        &mut v,
        &["shapes", "2", "features", "principal_moments", "0"],
    ) = Value::Null;
    assert_corrupt("nan_feature.json", &v, "non-finite");
}

#[test]
fn hostile_json_triangle_index_is_rejected() {
    let mut v = json_value();
    *at(&mut v, &["shapes", "0", "mesh", "triangles", "0", "1"]) = Value::Int(99_999);
    assert_undecodable("bad_triangle.json", &v, "triangle 0");
}

#[test]
fn hostile_json_tree_config_is_rejected() {
    let mut v = json_value();
    *at(&mut v, &["index_config", "min_entries"]) = Value::Int(0);
    assert_corrupt("min_entries.json", &v, "min_entries");
}

/// The JSON database in `tests/fixtures/old_layout_db.json` was written
/// by the code that stored all seven R-trees: a box, a sphere and a rod
/// at voxel resolution 12.
fn old_layout_value() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/old_layout_db.json");
    let v: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert!(v.get("indexes").is_some() && v.get("index_config").is_none());
    v
}

/// `db` rebuilt from its own meshes by extraction.
fn fresh_build(db: &ShapeDatabase) -> ShapeDatabase {
    let mut fresh = ShapeDatabase::new(*db.extractor());
    let shapes = db
        .shapes()
        .iter()
        .map(|s| (s.name.clone(), s.mesh.clone()))
        .collect();
    bulk_insert(&mut fresh, shapes, 2).unwrap();
    fresh
}

/// Every kind's full ranking for every stored shape agrees id by id
/// and bit for bit, and every hit names a stored shape.
fn assert_same_rankings(loaded: &ShapeDatabase, fresh: &ShapeDatabase) {
    assert_eq!(loaded.len(), fresh.len());
    for kind in FeatureKind::ALL {
        assert_eq!(loaded.dmax(kind).to_bits(), fresh.dmax(kind).to_bits());
        for shape in loaded.shapes() {
            let q = Query::top_k(kind, loaded.len());
            let a = loaded.search(&shape.features, &q);
            let b = fresh.search(&shape.features, &q);
            assert_eq!(a.len(), b.len(), "{kind:?} for {}", shape.name);
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    loaded.get(x.id).is_some(),
                    "{kind:?} hit {} not stored",
                    x.id
                );
                assert_eq!(x.id, y.id, "{kind:?} ids for {}", shape.name);
                assert_eq!(x.distance.to_bits(), y.distance.to_bits(), "{kind:?}");
                assert_eq!(x.similarity.to_bits(), y.similarity.to_bits(), "{kind:?}");
            }
        }
    }
}

#[test]
fn old_layout_json_loads_and_matches_a_fresh_build() {
    let loaded = load_json("old_layout.json", &old_layout_value()).unwrap();
    assert_eq!(loaded.len(), 3);
    assert_same_rankings(&loaded, &fresh_build(&loaded));

    // Saving it again writes the current layout: no trees.
    let mut buf = Vec::new();
    threedess::core::save(&loaded, &mut buf).unwrap();
    let resaved: Value = serde_json::from_str(std::str::from_utf8(&buf).unwrap()).unwrap();
    assert!(resaved.get("indexes").is_none());
    assert!(resaved.get("index_config").is_some());
}

#[test]
fn stale_json_indexes_field_is_ignored() {
    // Leaf ids that name no stored shape once surfaced as search hits.
    let mut v = old_layout_value();
    *at(
        &mut v,
        &["indexes", "Eigenvalues", "root", "Leaf", "0", "1"],
    ) = Value::Int(77);
    *at(
        &mut v,
        &["indexes", "PrincipalMoments", "root", "Leaf", "2", "1"],
    ) = Value::Int(1);
    let loaded = load_json("stale_indexes.json", &v).unwrap();
    assert_same_rankings(&loaded, &fresh_build(&loaded));
}
