//! Loopback regression: a mesh whose triangle names a missing vertex
//! must be rejected where it is decoded. Such a `SearchMesh` once
//! panicked the worker that extracted it, the client's retry panicked
//! the next one, and the server stopped answering even `ping`.

use tdess_core::{MultiStepPlan, Query, SearchServer, ShapeDatabase};
use tdess_features::{FeatureExtractor, FeatureKind};
use tdess_geom::{primitives, Vec3};
use tdess_net::proto::{ErrorKind, Request, Response};
use tdess_net::{NetClient, NetServer, NetServerConfig};

const WORKERS: usize = 2;

fn small_db() -> ShapeDatabase {
    let mut db = ShapeDatabase::new(FeatureExtractor {
        voxel_resolution: 12,
        ..Default::default()
    });
    db.insert("box", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)))
        .unwrap();
    db.insert("rod", primitives::cylinder(0.3, 4.0, 10))
        .unwrap();
    db
}

#[test]
fn out_of_range_triangle_indices_get_malformed_replies_and_the_server_survives() {
    let db = small_db();
    let shapes = db.len();
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        SearchServer::new(db),
        NetServerConfig {
            workers: WORKERS,
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = NetClient::connect_default(server.local_addr()).unwrap();

    let mut mesh = primitives::box_mesh(Vec3::new(1.9, 1.1, 0.6));
    mesh.triangles[0][1] = 99_999;
    let requests = [
        Request::SearchMesh {
            mesh: mesh.clone(),
            query: Query::top_k(FeatureKind::PrincipalMoments, 2),
        },
        Request::MultiStep {
            mesh: mesh.clone(),
            plan: MultiStepPlan {
                steps: vec![FeatureKind::PrincipalMoments, FeatureKind::MomentInvariants],
                candidates: 2,
                presented: 1,
            },
        },
        Request::Insert {
            name: "broken".into(),
            mesh,
        },
    ];
    // One more attempt than there are workers: a panicking worker
    // would be gone before the last attempt of each kind.
    for req in &requests {
        for attempt in 0..=WORKERS {
            match client.request(req).unwrap() {
                Response::Error(e) => assert_eq!(e.kind, ErrorKind::Malformed, "{e}"),
                other => panic!("attempt {attempt}: expected Malformed, got {other:?}"),
            }
        }
    }

    client.ping().unwrap();
    let mut fresh = NetClient::connect_default(server.local_addr()).unwrap();
    fresh.ping().unwrap();
    assert_eq!(fresh.info().unwrap().shapes, shapes);
    server.shutdown();
}
