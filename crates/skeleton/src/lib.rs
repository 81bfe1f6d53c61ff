//! # tdess-skeleton — skeletonization substrate for 3DESS
//!
//! Implements §3.3–3.4 of the paper: topology-preserving iterative
//! thinning of voxel models into curve skeletons, classification of
//! skeleton voxels, construction of the typed skeletal graph (nodes of
//! kind line / curve / loop, edges for joint connectivity), and the
//! eigenvalue signature of the graph's adjacency matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod simple_point;
pub mod spectrum;
pub mod thinning;

pub use graph::{build_graph, Segment, SegmentKind, SkeletalGraph};
pub use simple_point::{is_simple, object_neighbors};
pub use spectrum::{spectral_signature, SPECTRUM_DIM};
pub use thinning::{
    prune_spurs, skeletonize, skeletonize_into, thin, thin_with, ThinScratch, ThinStats,
    ThinningParams,
};
