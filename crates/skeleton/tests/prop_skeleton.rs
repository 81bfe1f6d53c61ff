//! Property tests for thinning: topology preservation over randomized
//! solid shapes, and the bit-mask simple-point test against the
//! bool-array characterization it replaced.

// 3×3×3 patches are most readable with explicit index loops.
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use tdess_geom::{primitives, Mat3, Vec3};
use tdess_skeleton::{
    build_graph, is_simple, object_neighbors, prune_spurs, skeletonize, SegmentKind, ThinningParams,
};
use tdess_voxel::{connected_components_26, voxelize, VoxelizeParams};

/// A 3×3×3 occupancy patch, index `[z][y][x]`; the center is
/// `patch[1][1][1]`.
type Patch = [[[bool; 3]; 3]; 3];

/// Bit positions of the 26 neighbors in a neighborhood mask (bit
/// `x + 3y + 9z` is cell `(x, y, z)`; bit 13 is the center).
const NEIGHBOR_BITS: [u32; 26] = {
    let mut bits = [0u32; 26];
    let mut i = 0;
    while i < 26 {
        bits[i] = if i < 13 { i as u32 } else { i as u32 + 1 };
        i += 1;
    }
    bits
};

/// Mask of the 26 neighbors.
const N26: u32 = ((1 << 27) - 1) & !(1 << 13);

fn patch_of(n: u32) -> Patch {
    let mut p = [[[false; 3]; 3]; 3];
    for z in 0..3 {
        for y in 0..3 {
            for x in 0..3 {
                p[z][y][x] = n >> (x + 3 * y + 9 * z) & 1 == 1;
            }
        }
    }
    p
}

/// Reference simple-point test: the Malandain–Bertrand
/// characterization by component counting over a bool array, the
/// oracle for the bit-mask test. Simple iff the object neighbors form one 26-component and the
/// background of N18 touching the center's faces forms one
/// 6-component.
fn oracle_is_simple(patch: &Patch) -> bool {
    oracle_object_components_26(patch) == 1 && oracle_background_components_6(patch) == 1
}

/// Counts 26-connected components of object voxels in the
/// 26-neighborhood of the center (center excluded).
fn oracle_object_components_26(patch: &Patch) -> usize {
    let occ = |i: usize| -> bool {
        let (x, y, z) = (i % 3, (i / 3) % 3, i / 9);
        (x, y, z) != (1, 1, 1) && patch[z][y][x]
    };
    let mut seen = [false; 27];
    let mut comps = 0;
    for start in 0..27 {
        if !occ(start) || seen[start] {
            continue;
        }
        comps += 1;
        let mut stack = [0usize; 27];
        let mut sp = 1usize;
        stack[0] = start;
        seen[start] = true;
        while sp > 0 {
            sp -= 1;
            let c = stack[sp];
            let (cx, cy, cz) = ((c % 3) as isize, ((c / 3) % 3) as isize, (c / 9) as isize);
            for dz in -1..=1isize {
                for dy in -1..=1isize {
                    for dx in -1..=1isize {
                        if dx == 0 && dy == 0 && dz == 0 {
                            continue;
                        }
                        let (nx, ny, nz) = (cx + dx, cy + dy, cz + dz);
                        if !(0..3).contains(&nx) || !(0..3).contains(&ny) || !(0..3).contains(&nz) {
                            continue;
                        }
                        let n = (nx + ny * 3 + nz * 9) as usize;
                        if occ(n) && !seen[n] {
                            seen[n] = true;
                            stack[sp] = n;
                            sp += 1;
                        }
                    }
                }
            }
        }
    }
    comps
}

/// Counts 6-connected components of *background* voxels within the
/// 18-neighborhood of the center that are 6-adjacent to the center.
/// Connectivity paths may only pass through the 18-neighborhood.
fn oracle_background_components_6(patch: &Patch) -> usize {
    let in_n18 = |x: isize, y: isize, z: isize| -> bool {
        let (ax, ay, az) = ((x - 1).abs(), (y - 1).abs(), (z - 1).abs());
        let manhattan = ax + ay + az;
        (1..=2).contains(&manhattan) && ax <= 1 && ay <= 1 && az <= 1
    };
    let bg = |x: isize, y: isize, z: isize| -> bool {
        in_n18(x, y, z) && !patch[z as usize][y as usize][x as usize]
    };
    let seeds: [(isize, isize, isize); 6] = [
        (0, 1, 1),
        (2, 1, 1),
        (1, 0, 1),
        (1, 2, 1),
        (1, 1, 0),
        (1, 1, 2),
    ];
    let mut seen = [[[false; 3]; 3]; 3];
    let mut comps = 0;
    for &(sx, sy, sz) in &seeds {
        if !bg(sx, sy, sz) || seen[sz as usize][sy as usize][sx as usize] {
            continue;
        }
        comps += 1;
        let mut stack = [(0isize, 0isize, 0isize); 18];
        let mut sp = 1usize;
        stack[0] = (sx, sy, sz);
        seen[sz as usize][sy as usize][sx as usize] = true;
        while sp > 0 {
            sp -= 1;
            let (cx, cy, cz) = stack[sp];
            for (dx, dy, dz) in [
                (1, 0, 0),
                (-1, 0, 0),
                (0, 1, 0),
                (0, -1, 0),
                (0, 0, 1),
                (0, 0, -1),
            ] {
                let (nx, ny, nz) = (cx + dx, cy + dy, cz + dz);
                if !(0..3).contains(&nx) || !(0..3).contains(&ny) || !(0..3).contains(&nz) {
                    continue;
                }
                if bg(nx, ny, nz) && !seen[nz as usize][ny as usize][nx as usize] {
                    seen[nz as usize][ny as usize][nx as usize] = true;
                    stack[sp] = (nx, ny, nz);
                    sp += 1;
                }
            }
        }
    }
    comps
}

/// Asserts the bit-mask test and neighbor count agree with the oracle
/// on `n`.
fn assert_matches_oracle(n: u32) {
    let patch = patch_of(n);
    assert_eq!(
        is_simple(n),
        oracle_is_simple(&patch),
        "simple-point verdicts differ on {n:#09x}"
    );
    let count = (0..27)
        .filter(|&b| b != 13 && patch[b / 9][b / 3 % 3][b % 3])
        .count();
    assert_eq!(object_neighbors(n) as usize, count);
}

/// Every neighborhood with at most 3 object neighbors, and (by
/// complement) every one with at least 23.
#[test]
fn mask_test_matches_oracle_on_sparse_and_dense_neighborhoods() {
    let mut sparse = vec![0u32];
    for (a, &ba) in NEIGHBOR_BITS.iter().enumerate() {
        sparse.push(1 << ba);
        for (b, &bb) in NEIGHBOR_BITS.iter().enumerate().skip(a + 1) {
            sparse.push(1 << ba | 1 << bb);
            for &bc in &NEIGHBOR_BITS[b + 1..] {
                sparse.push(1 << ba | 1 << bb | 1 << bc);
            }
        }
    }
    // C(26,0) + C(26,1) + C(26,2) + C(26,3)
    assert_eq!(sparse.len(), 1 + 26 + 325 + 2600);
    // With the center set and clear: the test must ignore it.
    for &n in &sparse {
        for center in [0, 1 << 13] {
            assert_matches_oracle(n | center);
            assert_matches_oracle(N26 & !n | center);
        }
    }
}

/// A seeded sample of 2^18 uniformly random neighborhoods.
#[test]
fn mask_test_matches_oracle_on_random_neighborhoods() {
    let mut rng = StdRng::seed_from_u64(0x5eed_7417);
    for _ in 0..1 << 18 {
        assert_matches_oracle(rng.gen::<u32>() & N26 | 1 << 13);
    }
}

/// Named configurations, checked against the oracle as well as their
/// known verdict.
#[test]
fn named_neighborhoods_match_oracle() {
    let cell = |x: i32, y: i32, z: i32| 1u32 << ((x + 1) + 3 * (y + 1) + 9 * (z + 1));
    let line = cell(1, 0, 0) | cell(-1, 0, 0);
    let plate = (-1..=1)
        .flat_map(|y| (-1..=1).map(move |x| cell(x, y, 0)))
        .fold(0, |n, c| n | c);
    let plate_rim = (0..=1)
        .flat_map(|y| (-1..=1).map(move |x| cell(x, y, 0)))
        .fold(0, |n, c| n | c);
    let corner = (0..8)
        .map(|c| cell(c & 1, c >> 1 & 1, c >> 2 & 1))
        .fold(0, |n, c| n | c);
    let bridge = cell(1, 1, 0) | cell(-1, -1, 0);
    for (name, n, simple) in [
        ("line end", cell(1, 0, 0), true),
        ("line middle", line, false),
        ("plate center", plate, false),
        ("plate rim", plate_rim, true),
        ("block corner", corner, true),
        ("diagonal bridge", bridge, false),
        ("isolated", 0, false),
        ("interior", N26, false),
    ] {
        let n = n | 1 << 13;
        assert_eq!(is_simple(n), simple, "{name}");
        assert_eq!(oracle_is_simple(&patch_of(n)), simple, "{name} (oracle)");
    }
}

/// Brute-force topology check for the 3×3×3 patch: deleting the center
/// must keep (a) the number of 26-connected object components within
/// the patch and (b) the number of 6-connected background components
/// unchanged (cavity/tunnel creation shows up as a background-count
/// change in this local window for the configurations we generate).
fn object_components(patch: &Patch, include_center: bool) -> usize {
    let occ = |x: usize, y: usize, z: usize| -> bool {
        if (x, y, z) == (1, 1, 1) {
            include_center
        } else {
            patch[z][y][x]
        }
    };
    let mut seen = [[[false; 3]; 3]; 3];
    let mut comps = 0;
    for sz in 0..3 {
        for sy in 0..3 {
            for sx in 0..3 {
                if !occ(sx, sy, sz) || seen[sz][sy][sx] {
                    continue;
                }
                comps += 1;
                let mut stack = vec![(sx, sy, sz)];
                seen[sz][sy][sx] = true;
                while let Some((x, y, z)) = stack.pop() {
                    for dz in -1i32..=1 {
                        for dy in -1i32..=1 {
                            for dx in -1i32..=1 {
                                let (nx, ny, nz) = (x as i32 + dx, y as i32 + dy, z as i32 + dz);
                                if !(0..3).contains(&nx)
                                    || !(0..3).contains(&ny)
                                    || !(0..3).contains(&nz)
                                {
                                    continue;
                                }
                                let (nx, ny, nz) = (nx as usize, ny as usize, nz as usize);
                                if occ(nx, ny, nz) && !seen[nz][ny][nx] {
                                    seen[nz][ny][nx] = true;
                                    stack.push((nx, ny, nz));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    comps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A voxel classified as simple must not change the local object
    /// component count when deleted (necessary condition for topology
    /// preservation; the full criterion also covers tunnels, checked
    /// by the geometric tests below).
    #[test]
    fn simple_points_preserve_local_components(bits in any::<u32>()) {
        let n = bits & N26 | 1 << 13;
        let patch = patch_of(n);
        if is_simple(n) {
            let with = object_components(&patch, true);
            let without = object_components(&patch, false);
            prop_assert_eq!(with, without,
                "simple point deletion changed local components");
        }
    }

    /// Thinning never changes the number of 26-connected components of
    /// randomly posed two-box scenes (0, 1, or 2 components depending
    /// on overlap).
    #[test]
    fn thinning_preserves_component_count(
        dx in 0.0f64..4.0,
        angle in 0.0f64..1.5,
        res in 16usize..28,
    ) {
        let mut mesh = primitives::box_mesh(Vec3::new(1.5, 0.6, 0.6));
        let mut other = primitives::box_mesh(Vec3::new(0.6, 1.5, 0.6));
        other.rotate(&Mat3::rotation_axis_angle(Vec3::Z, angle));
        other.translate(Vec3::new(dx, 0.0, 0.0));
        mesh.append(&other);
        let grid = voxelize(&mesh, &VoxelizeParams { resolution: res, ..Default::default() });
        let before = connected_components_26(&grid).count;
        let skel = skeletonize(&grid, &ThinningParams::default());
        let after = connected_components_26(&skel).count;
        prop_assert_eq!(before, after, "thinning changed component count");
    }

    /// Tori of random proportions always skeletonize to a graph
    /// containing a loop, and the loop survives as the dominant
    /// segment.
    #[test]
    fn torus_always_yields_a_loop(major in 0.8f64..2.0, frac in 0.2f64..0.4) {
        let mesh = primitives::torus(major, major * frac, 32, 16);
        let grid = voxelize(&mesh, &VoxelizeParams { resolution: 36, ..Default::default() });
        let mut skel = skeletonize(&grid, &ThinningParams::default());
        prune_spurs(&mut skel, 6);
        let graph = build_graph(&skel);
        prop_assert!(graph.count_kind(SegmentKind::Loop) >= 1,
            "no loop in torus skeleton: {:?}",
            graph.segments.iter().map(|s| s.kind).collect::<Vec<_>>());
    }

    /// Boxes of random aspect never produce loops.
    #[test]
    fn box_never_yields_a_loop(x in 0.5f64..3.0, y in 0.5f64..3.0, z in 0.5f64..3.0) {
        let mesh = primitives::box_mesh(Vec3::new(x, y, z));
        let grid = voxelize(&mesh, &VoxelizeParams { resolution: 24, ..Default::default() });
        let mut skel = skeletonize(&grid, &ThinningParams::default());
        prune_spurs(&mut skel, 4);
        let graph = build_graph(&skel);
        prop_assert_eq!(graph.count_kind(SegmentKind::Loop), 0,
            "phantom loop in a genus-0 solid");
    }
}
