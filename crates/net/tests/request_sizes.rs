//! Loopback regression: result sizes taken from a request must not size
//! an allocation. A `top_k` or `MultiStep` candidate count of 2^40 once
//! made `RTree::knn` reserve 2^40 result slots, and the failed
//! allocation aborted the whole server process.

use tdess_core::{MultiStepPlan, Query, SearchServer, ShapeDatabase};
use tdess_features::{FeatureExtractor, FeatureKind};
use tdess_geom::{primitives, Vec3};
use tdess_net::proto::{Request, Response};
use tdess_net::{NetClient, NetServer, NetServerConfig};

const HUGE: usize = 1 << 40;

fn small_db() -> ShapeDatabase {
    let mut db = ShapeDatabase::new(FeatureExtractor {
        voxel_resolution: 12,
        ..Default::default()
    });
    db.insert("box", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)))
        .unwrap();
    db.insert("cube", primitives::box_mesh(Vec3::ONE)).unwrap();
    db.insert("rod", primitives::cylinder(0.3, 4.0, 10))
        .unwrap();
    db
}

/// The reply must be typed: hits (at most every stored shape) or a
/// typed error, never a dropped connection.
fn assert_typed(reply: Response, shapes: usize) {
    match reply {
        Response::Hits(report) => assert!(report.hits.len() <= shapes),
        Response::Error(_) => {}
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn huge_result_sizes_get_typed_replies_and_the_server_survives() {
    let db = small_db();
    let shapes = db.len();
    let features = db.shapes()[0].features.clone();
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        SearchServer::new(db),
        NetServerConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = NetClient::connect_default(server.local_addr()).unwrap();

    let by_features = Request::SearchFeatures {
        features,
        query: Query::top_k(FeatureKind::PrincipalMoments, HUGE),
    };
    assert_typed(client.request(&by_features).unwrap(), shapes);

    let multi = Request::MultiStep {
        mesh: primitives::box_mesh(Vec3::new(1.9, 1.1, 0.6)),
        plan: MultiStepPlan {
            steps: vec![FeatureKind::PrincipalMoments, FeatureKind::MomentInvariants],
            candidates: HUGE,
            presented: 3,
        },
    };
    assert_typed(client.request(&multi).unwrap(), shapes);

    client.ping().unwrap();
    server.shutdown();
}
