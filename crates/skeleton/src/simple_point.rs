//! Topology-preserving "simple point" test for 3-D thinning.
//!
//! A filled voxel is *simple* when deleting it changes neither the
//! number of object components, nor the number of background
//! components, nor the genus — i.e. thinning may remove it safely. We
//! use the classical local characterization (Bertrand & Malandain,
//! Malandain & Bertrand 1992) for (26, 6) connectivity:
//!
//! 1. the object voxels in the 26-neighborhood of `p` (excluding `p`)
//!    form exactly **one** 26-connected component, and
//! 2. the background voxels in the 18-neighborhood of `p` that are
//!    6-adjacent to `p` form exactly **one** 6-connected component
//!    *within* the 18-neighborhood.
//!
//! The neighborhood is a 27-bit mask (see
//! [`VoxelGrid::neighborhood27`](tdess_voxel::VoxelGrid::neighborhood27)):
//! bit `x + 3y + 9z` is cell `(x, y, z)` of the 3×3×3 block, bit 13 the
//! center. Both conditions are decided by a flood over the mask with a
//! `const` table of per-cell adjacency masks.

/// Bit of the center cell `(1, 1, 1)`.
pub const CENTER: u32 = 1 << 13;

/// The 26 neighbors: every cell of the block but the center.
const N26: u32 = ((1 << 27) - 1) & !CENTER;

/// The 6 face neighbors of the center.
const N6: u32 = 1 << 4 | 1 << 10 | 1 << 12 | 1 << 14 | 1 << 16 | 1 << 22;

/// The 18 face and edge neighbors: N26 without the 8 corners.
const N18: u32 = N26 & !(1 | 1 << 2 | 1 << 6 | 1 << 8 | 1 << 18 | 1 << 20 | 1 << 24 | 1 << 26);

/// For each cell `b`, the cells of the block within Chebyshev
/// distance 1 of it (26-adjacent), `b` itself excluded.
const ADJ26: [u32; 27] = adjacency(false);

/// For each cell `b`, the cells of the block sharing a face with it
/// (6-adjacent).
const ADJ6: [u32; 27] = adjacency(true);

const fn adjacency(faces_only: bool) -> [u32; 27] {
    let mut table = [0u32; 27];
    let mut a = 0usize;
    while a < 27 {
        let mut b = 0usize;
        while b < 27 {
            let dx = (a % 3).abs_diff(b % 3);
            let dy = (a / 3 % 3).abs_diff(b / 3 % 3);
            let dz = (a / 9).abs_diff(b / 9);
            let adjacent = if faces_only {
                dx + dy + dz == 1
            } else {
                a != b && dx <= 1 && dy <= 1 && dz <= 1
            };
            if adjacent {
                table[a] |= 1 << b;
            }
            b += 1;
        }
        a += 1;
    }
    table
}

/// The cells of `within` connected to the lowest set bit of `seeds`
/// through `adj`-adjacent cells of `within`. `seeds` must be a
/// non-empty subset of `within`.
#[inline]
fn flood(seeds: u32, within: u32, adj: &[u32; 27]) -> u32 {
    let mut reached = seeds & seeds.wrapping_neg();
    let mut frontier = reached;
    while frontier != 0 {
        let b = frontier.trailing_zeros() as usize;
        frontier &= frontier - 1;
        let new = adj[b] & within & !reached;
        reached |= new;
        frontier |= new;
    }
    reached
}

/// Number of object voxels in the 26-neighborhood (center excluded).
#[inline]
pub fn object_neighbors(n: u32) -> u32 {
    (n & N26).count_ones()
}

/// Returns `true` if the center of the neighborhood `n` is simple for
/// (26, 6)-connectivity. The center bit itself is ignored.
#[inline]
pub fn is_simple(n: u32) -> bool {
    // One 26-connected object component among the 26 neighbors.
    let object = n & N26;
    if object == 0 || flood(object, object, &ADJ26) != object {
        return false;
    }
    // One 6-connected background component, within N18, touching the
    // center's faces.
    let background = !n & N18;
    let faces = background & N6;
    faces != 0 && faces & !flood(faces, background, &ADJ6) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The neighborhood with the center and the given offsets filled.
    fn mask_from(voxels: &[(i32, i32, i32)]) -> u32 {
        voxels.iter().fold(CENTER, |n, &(x, y, z)| {
            n | 1 << ((x + 1) + 3 * (y + 1) + 9 * (z + 1))
        })
    }

    #[test]
    fn masks_have_the_textbook_sizes() {
        assert_eq!(N26.count_ones(), 26);
        assert_eq!(N18.count_ones(), 18);
        assert_eq!(N6.count_ones(), 6);
        assert_eq!(N6 & !N18, 0);
        assert_eq!(ADJ26[13], N26);
        assert_eq!(ADJ6[13], N6);
        assert_eq!(ADJ26[0].count_ones(), 7);
        assert_eq!(ADJ6[0].count_ones(), 3);
    }

    #[test]
    fn isolated_voxel_is_not_simple() {
        // Deleting the last voxel of a component changes topology.
        let n = mask_from(&[]);
        assert!(!is_simple(n));
        assert_eq!(object_neighbors(n), 0);
    }

    #[test]
    fn end_of_line_is_simple() {
        // A voxel with a single neighbor can be deleted without
        // topology change (that is why thinning protects endpoints
        // explicitly, not via simplicity).
        let n = mask_from(&[(1, 0, 0)]);
        assert!(is_simple(n));
        assert_eq!(object_neighbors(n), 1);
    }

    #[test]
    fn middle_of_line_is_not_simple() {
        // Two opposite neighbors: deleting the center disconnects them.
        assert!(!is_simple(mask_from(&[(1, 0, 0), (-1, 0, 0)])));
    }

    #[test]
    fn corner_of_full_block_is_simple() {
        // Center of a 2×2×2 full corner: removable surface voxel.
        let mut corner = Vec::new();
        for z in 0..2 {
            for y in 0..2 {
                for x in 0..2 {
                    corner.push((x, y, z));
                }
            }
        }
        assert!(is_simple(mask_from(&corner)));
    }

    #[test]
    fn interior_of_solid_is_not_simple() {
        // Fully surrounded voxel: deleting it creates a cavity.
        assert!(!is_simple((1 << 27) - 1));
    }

    #[test]
    fn diagonal_pair_bridge_not_simple() {
        // Center bridges two voxels touching it only diagonally.
        assert!(!is_simple(mask_from(&[(1, 1, 0), (-1, -1, 0)])));
    }

    #[test]
    fn plate_center_is_not_simple() {
        // Center of a 3×3 one-voxel-thick plate: deleting it would
        // pierce a tunnel through the plate.
        let plate: Vec<_> = (-1..=1)
            .flat_map(|y| (-1..=1).map(move |x| (x, y, 0)))
            .collect();
        assert!(!is_simple(mask_from(&plate)));
    }

    #[test]
    fn plate_edge_is_simple() {
        // A voxel on the rim of a plate has one object component and
        // one background component: removable. The plate spans
        // x in -1..=1, y in 0..=1 at z = 0, so the center sits on its
        // y = 0 edge.
        let plate: Vec<_> = (0..=1)
            .flat_map(|y| (-1..=1).map(move |x| (x, y, 0)))
            .collect();
        assert!(is_simple(mask_from(&plate)));
    }
}
