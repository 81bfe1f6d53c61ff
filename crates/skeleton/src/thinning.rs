//! Iterative topology-preserving 3-D thinning (§3.3 of the paper).
//!
//! The paper extracts a curve skeleton from the voxel model with a
//! thinning algorithm that "retains the topology of the original
//! model". We implement directional iterative thinning: in each pass,
//! border voxels of one of the six face directions are deleted if they
//! are simple points (see [`crate::simple_point`]) and not curve
//! endpoints. Deletions are applied sequentially with re-checking, so
//! every individual deletion is topology-preserving by construction.

use tdess_voxel::VoxelGrid;

use crate::simple_point::{is_simple, object_neighbors, CENTER};

/// Options for the thinning pass.
#[derive(Debug, Clone, Copy)]
pub struct ThinningParams {
    /// Keep curve endpoints (voxels with exactly one 26-neighbor).
    /// Disabling this shrinks every component without cycles to a
    /// single voxel ("topological kernel").
    pub preserve_endpoints: bool,
    /// Safety cap on full sweeps; thinning of any practical model
    /// terminates far earlier.
    pub max_iterations: usize,
}

impl Default for ThinningParams {
    fn default() -> Self {
        ThinningParams {
            preserve_endpoints: true,
            max_iterations: 10_000,
        }
    }
}

/// The six face directions of the directional sub-iterations, as
/// (axis, forward): axis 0 is x, 1 is y, 2 is z.
const DIRECTIONS: [(usize, bool); 6] = [
    (2, true),
    (2, false),
    (1, true),
    (1, false),
    (0, true),
    (0, false),
];

/// Reusable buffers for [`thin_with`]. A caller that skeletonizes many
/// models (the feature pipeline, benchmarks) keeps one `ThinScratch`
/// and amortizes the candidate-list allocation across queries.
#[derive(Debug, Default)]
pub struct ThinScratch {
    /// Flat indexes of the border-voxel candidates for the current
    /// directional sub-pass.
    candidates: Vec<usize>,
}

/// Deterministic work counters of one [`thin_with`] call. They depend
/// only on the input grid and the deletion schedule, never on timing,
/// so two kernels that run the same schedule report equal counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ThinStats {
    /// Full sweeps over the six directions, the final sweep that
    /// deletes nothing included.
    pub sweeps: u64,
    /// Border voxels collected as deletion candidates.
    pub candidates: u64,
    /// Candidates kept without a simple-point test because they were
    /// curve endpoints.
    pub endpoint_skips: u64,
    /// Simple-point tests run.
    pub simple_tests: u64,
    /// Voxels deleted.
    pub deleted: u64,
}

impl std::ops::AddAssign for ThinStats {
    fn add_assign(&mut self, o: ThinStats) {
        self.sweeps += o.sweeps;
        self.candidates += o.candidates;
        self.endpoint_skips += o.endpoint_skips;
        self.simple_tests += o.simple_tests;
        self.deleted += o.deleted;
    }
}

/// Thins `grid` in place to a one-voxel-wide curve skeleton.
/// Returns the number of voxels deleted.
pub fn thin(grid: &mut VoxelGrid, params: &ThinningParams) -> usize {
    thin_with(grid, params, &mut ThinScratch::default()).deleted as usize
}

/// [`thin`] with caller-owned scratch buffers; bit-identical output.
/// Returns the work counters of the run.
pub fn thin_with(
    grid: &mut VoxelGrid,
    params: &ThinningParams,
    scratch: &mut ThinScratch,
) -> ThinStats {
    let mut stats = ThinStats::default();

    let (nx, ny, nz) = grid.dims();
    // Flat-index stride of one step along each axis, and the span of
    // the axis's whole extent: along an axis, `idx % span < stride` on
    // the grid's first layer and `idx % span >= span - stride` on its
    // last.
    let strides = [1, nx, nx * ny];
    let spans = [nx, nx * ny, nx * ny * nz];
    for _iter in 0..params.max_iterations {
        stats.sweeps += 1;
        let mut deleted_this_sweep = 0u64;
        for (axis, forward) in DIRECTIONS {
            // Candidates: border voxels in this direction, i.e. filled
            // voxels whose neighbour that way is empty or off the grid,
            // in ascending flattened-index order (i fastest, then j,
            // then k). That order fixes the deletion schedule, and so
            // the skeleton.
            let (stride, span) = (strides[axis], spans[axis]);
            scratch.candidates.clear();
            let candidates = &mut scratch.candidates;
            let view: &VoxelGrid = grid;
            view.for_each_filled(|idx| {
                let along = idx % span;
                let border = if forward {
                    along + stride >= span || !view.get_flat(idx + stride)
                } else {
                    along < stride || !view.get_flat(idx - stride)
                };
                if border {
                    candidates.push(idx);
                }
            });
            stats.candidates += scratch.candidates.len() as u64;
            // Sequential deletion with re-checking keeps every step
            // topology-preserving.
            for &idx in scratch.candidates.iter() {
                let (i, j, k) = (idx % nx, idx / nx % ny, idx / (nx * ny));
                let n = grid.neighborhood27(i, j, k);
                if params.preserve_endpoints && object_neighbors(n) <= 1 {
                    stats.endpoint_skips += 1;
                    continue;
                }
                stats.simple_tests += 1;
                if is_simple(n) {
                    grid.set(i, j, k, false);
                    deleted_this_sweep += 1;
                }
            }
        }
        stats.deleted += deleted_this_sweep;
        if deleted_this_sweep == 0 {
            break;
        }
    }
    stats
}

/// Convenience: thins a copy and returns it, leaving `grid` untouched.
pub fn skeletonize(grid: &VoxelGrid, params: &ThinningParams) -> VoxelGrid {
    let mut skel = VoxelGrid::new(1, 1, 1, tdess_geom::Vec3::ZERO, 1.0);
    skeletonize_into(grid, params, &mut skel, &mut ThinScratch::default());
    skel
}

/// [`skeletonize`] into caller-owned buffers: copies `grid` into `out`
/// (reusing its bit storage) and thins there with `scratch`. Returns
/// the number of voxels deleted. Output is bit-identical to
/// [`skeletonize`].
pub fn skeletonize_into(
    grid: &VoxelGrid,
    params: &ThinningParams,
    out: &mut VoxelGrid,
    scratch: &mut ThinScratch,
) -> usize {
    let _stage = tdess_obs::StageTimer::start(tdess_obs::Stage::Skeletonize);
    out.copy_from(grid);
    thin_with(out, params, scratch).deleted as usize
}

/// Removes spur branches from a thinned skeleton: any chain that runs
/// from a free endpoint to a junction in fewer than `min_len` voxels
/// is deleted. Repeats until stable (pruning can expose new spurs).
///
/// Spurs are a classic thinning artifact — a thick region sheds short
/// whiskers where the boundary was rough — and they fragment the
/// skeletal graph with fake junctions. Chains connecting two endpoints
/// (whole path components) are never pruned.
///
/// Returns the number of voxels removed.
pub fn prune_spurs(skel: &mut VoxelGrid, min_len: usize) -> usize {
    let (nx, ny, nz) = skel.dims();
    let mut removed = 0usize;
    // hotpath: allow(hot-alloc) — one buffer per call, reused for every chain walk
    let mut path: Vec<(usize, usize, usize)> = Vec::new();
    loop {
        let mut changed = false;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    if !skel.get(i as isize, j as isize, k as isize) {
                        continue;
                    }
                    let around = skel.neighborhood27(i, j, k) & !CENTER;
                    if around.count_ones() != 1 {
                        continue; // not an endpoint
                    }
                    // Walk the chain from this endpoint.
                    path.clear();
                    path.push((i, j, k));
                    let mut prev = (i, j, k);
                    let mut cur = neighbor_at(prev, around.trailing_zeros());
                    loop {
                        let around = skel.neighborhood27(cur.0, cur.1, cur.2) & !CENTER;
                        let deg = around.count_ones();
                        if deg >= 3 {
                            // Reached a junction: candidate spur.
                            if path.len() < min_len {
                                for &(x, y, z) in &path {
                                    skel.set(x, y, z, false);
                                }
                                removed += path.len();
                                changed = true;
                            }
                            break;
                        }
                        if deg <= 1 {
                            // Endpoint-to-endpoint: a main path, keep.
                            break;
                        }
                        path.push(cur);
                        // The degree-2 voxel's other neighbour; the
                        // lowest bit is the first in dz, dy, dx order.
                        let forward = around & !(1 << bit_of(cur, prev));
                        if forward == 0 {
                            break; // degree-2 voxel always has a forward neighbor
                        }
                        prev = cur;
                        cur = neighbor_at(cur, forward.trailing_zeros());
                    }
                }
            }
        }
        if !changed {
            return removed;
        }
    }
}

/// The voxel at bit `bit` of the neighborhood mask of `v` (see
/// [`VoxelGrid::neighborhood27`]); the bit must name an in-grid voxel.
fn neighbor_at(v: (usize, usize, usize), bit: u32) -> (usize, usize, usize) {
    let bit = bit as usize;
    (v.0 + bit % 3 - 1, v.1 + bit / 3 % 3 - 1, v.2 + bit / 9 - 1)
}

/// The bit of the 26-neighbor `w` in the neighborhood mask of `v`.
fn bit_of(v: (usize, usize, usize), w: (usize, usize, usize)) -> u32 {
    let d = |a: usize, b: usize| (b + 1 - a) as u32;
    d(v.0, w.0) + 3 * d(v.1, w.1) + 9 * d(v.2, w.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdess_geom::{primitives, Vec3};
    use tdess_voxel::{connected_components_26, voxelize, VoxelizeParams};

    fn thin_mesh(mesh: &tdess_geom::TriMesh, res: usize) -> VoxelGrid {
        let grid = voxelize(
            mesh,
            &VoxelizeParams {
                resolution: res,
                ..Default::default()
            },
        );
        skeletonize(&grid, &ThinningParams::default())
    }

    /// Maximum 26-neighbor count over skeleton voxels (thinness proxy).
    fn max_degree(g: &VoxelGrid) -> usize {
        g.iter_filled()
            .map(|(i, j, k)| g.neighbor_count26(i, j, k))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn rod_thins_to_a_curve() {
        let mesh = primitives::box_mesh(Vec3::new(4.0, 0.5, 0.5));
        let grid = voxelize(
            &mesh,
            &VoxelizeParams {
                resolution: 48,
                ..Default::default()
            },
        );
        let before = grid.count();
        let skel = skeletonize(&grid, &ThinningParams::default());
        let after = skel.count();
        assert!(
            after < before / 5,
            "skeleton kept {after} of {before} voxels"
        );
        // One component, and essentially a path: every voxel has ≤ 2
        // neighbors except possibly tiny junction artifacts.
        assert_eq!(connected_components_26(&skel).count, 1);
        assert!(max_degree(&skel) <= 3, "degree {}", max_degree(&skel));
        // Length comparable to the rod's long axis (48 voxels).
        assert!(after >= 30, "skeleton too short: {after}");
        assert!(after <= 70, "skeleton too long: {after}");
    }

    #[test]
    fn torus_skeleton_is_a_cycle() {
        let mesh = primitives::torus(1.0, 0.28, 48, 20);
        let skel = thin_mesh(&mesh, 40);
        assert_eq!(connected_components_26(&skel).count, 1);
        // A cycle has no endpoints: every voxel has ≥ 2 neighbors.
        for (i, j, k) in skel.iter_filled() {
            assert!(
                skel.neighbor_count26(i, j, k) >= 2,
                "endpoint at ({i},{j},{k}) on torus skeleton"
            );
        }
        assert!(skel.count() > 20, "cycle too short: {}", skel.count());
    }

    #[test]
    fn sphere_without_endpoint_preservation_shrinks_to_point() {
        let mesh = primitives::uv_sphere(0.8, 16, 8);
        let grid = voxelize(
            &mesh,
            &VoxelizeParams {
                resolution: 20,
                ..Default::default()
            },
        );
        let skel = skeletonize(
            &grid,
            &ThinningParams {
                preserve_endpoints: false,
                ..Default::default()
            },
        );
        assert_eq!(skel.count(), 1, "topological kernel of a ball is one voxel");
    }

    #[test]
    fn thinning_preserves_component_count() {
        // Two disjoint boxes stay two components.
        let mut mesh = primitives::box_mesh(Vec3::new(1.0, 0.4, 0.4));
        let mut other = primitives::box_mesh(Vec3::new(1.0, 0.4, 0.4));
        other.translate(Vec3::new(0.0, 2.0, 0.0));
        mesh.append(&other);
        let grid = voxelize(
            &mesh,
            &VoxelizeParams {
                resolution: 32,
                ..Default::default()
            },
        );
        assert_eq!(connected_components_26(&grid).count, 2);
        let skel = skeletonize(&grid, &ThinningParams::default());
        assert_eq!(connected_components_26(&skel).count, 2);
    }

    #[test]
    fn thinning_empty_grid_is_noop() {
        let mut g = VoxelGrid::new(4, 4, 4, Vec3::ZERO, 1.0);
        assert_eq!(thin(&mut g, &ThinningParams::default()), 0);
        assert_eq!(g.count(), 0);
    }

    #[test]
    fn skeletonize_into_reuses_buffers_bit_identically() {
        // A warm output grid + scratch carried across differently-sized
        // shapes must reproduce the cold path bit for bit.
        let meshes = [
            primitives::box_mesh(Vec3::new(3.0, 0.5, 0.5)),
            primitives::torus(1.0, 0.28, 32, 12),
            primitives::uv_sphere(0.8, 16, 8),
        ];
        let mut out = VoxelGrid::new(1, 1, 1, Vec3::ZERO, 1.0);
        let mut scratch = ThinScratch::default();
        for (res, mesh) in [(40usize, &meshes[0]), (28, &meshes[1]), (20, &meshes[2])] {
            let grid = voxelize(
                mesh,
                &VoxelizeParams {
                    resolution: res,
                    ..Default::default()
                },
            );
            let deleted =
                skeletonize_into(&grid, &ThinningParams::default(), &mut out, &mut scratch);
            let fresh = skeletonize(&grid, &ThinningParams::default());
            assert_eq!(out.dims(), fresh.dims());
            assert_eq!(
                out.words(),
                fresh.words(),
                "warm path diverged at res {res}"
            );
            assert_eq!(deleted, grid.count() - fresh.count());
        }
    }

    #[test]
    fn thinning_is_idempotent() {
        let mesh = primitives::box_mesh(Vec3::new(3.0, 0.5, 0.5));
        let grid = voxelize(
            &mesh,
            &VoxelizeParams {
                resolution: 32,
                ..Default::default()
            },
        );
        let skel1 = skeletonize(&grid, &ThinningParams::default());
        let skel2 = skeletonize(&skel1, &ThinningParams::default());
        assert_eq!(skel1.count(), skel2.count(), "second pass deleted voxels");
    }
}
