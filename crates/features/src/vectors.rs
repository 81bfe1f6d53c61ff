//! The four feature vectors of §3.5.

use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize, Value};
use tdess_geom::{mesh_moments, sym3_eigen, Moments, TriMesh};

use crate::normalize::NormalizedModel;

/// Which feature vector to use for a search (§3.5). The interface
/// layer of the paper lets the user pick any of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureKind {
    /// F1–F3 moment invariants (Eq. 3.6–3.9), dimension 3.
    MomentInvariants,
    /// Geometric parameters (aspect ratios, surface/volume, scale,
    /// volume), dimension 5.
    GeometricParams,
    /// Principal moments of the normalized model (Eq. 3.10),
    /// dimension 3.
    PrincipalMoments,
    /// Eigenvalues of the skeletal-graph adjacency matrix, dimension
    /// [`crate::pipeline::DEFAULT_SPECTRUM_DIM`].
    Eigenvalues,
    /// Higher-order (third) central moments of the normalized model,
    /// dimension 10 — the "higher order invariants" of the paper's
    /// architecture (Fig. 1). Pose normalization supplies the
    /// invariance; §3.5.3 notes such moments are noise-sensitive,
    /// which the `abl_noise_sensitivity` experiment quantifies.
    HigherOrder,
    /// D2 shape distribution (Osada et al., the paper's related-work
    /// baseline, reference 15): histogram of random surface pair distances,
    /// dimension 64.
    ShapeDistribution,
    /// Shell-model shape histogram (Ankerst et al., the paper's
    /// related-work baseline, reference 14): radial surface-mass histogram,
    /// dimension 32.
    ShellHistogram,
}

impl FeatureKind {
    /// All feature kinds: the paper's four, the higher-order
    /// extension, and the two related-work baseline descriptors.
    pub const ALL: [FeatureKind; 7] = [
        FeatureKind::MomentInvariants,
        FeatureKind::GeometricParams,
        FeatureKind::PrincipalMoments,
        FeatureKind::Eigenvalues,
        FeatureKind::HigherOrder,
        FeatureKind::ShapeDistribution,
        FeatureKind::ShellHistogram,
    ];

    /// The four feature vectors evaluated in the paper (§3.5).
    pub const PAPER_FOUR: [FeatureKind; 4] = [
        FeatureKind::MomentInvariants,
        FeatureKind::GeometricParams,
        FeatureKind::PrincipalMoments,
        FeatureKind::Eigenvalues,
    ];

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FeatureKind::MomentInvariants => "moment invariants",
            FeatureKind::GeometricParams => "geometric parameters",
            FeatureKind::PrincipalMoments => "principal moments",
            FeatureKind::Eigenvalues => "eigenvalues",
            FeatureKind::HigherOrder => "higher-order moments",
            FeatureKind::ShapeDistribution => "shape distribution (D2)",
            FeatureKind::ShellHistogram => "shell histogram",
        }
    }
}

/// One value per [`FeatureKind`], held in [`FeatureKind::ALL`] order.
///
/// A fixed array rather than a `HashMap<FeatureKind, T>`: every kind
/// always has an entry, so lookups cannot miss and iteration order is
/// the declaration order, never a hash order. Serializes as an object
/// keyed by kind name (the shape a `HashMap` keyed by kind had), and
/// decoding rejects a missing, repeated, or unknown key.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KindMap<T>([T; 7]);

impl<T> KindMap<T> {
    /// Builds the map by calling `f` once per kind, in
    /// [`FeatureKind::ALL`] order.
    pub fn from_fn(f: impl FnMut(FeatureKind) -> T) -> KindMap<T> {
        KindMap(FeatureKind::ALL.map(f))
    }

    /// Applies `f` to every value, keeping the kinds.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> KindMap<U> {
        KindMap(self.0.map(f))
    }

    /// `(kind, value)` pairs in [`FeatureKind::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (FeatureKind, &T)> {
        FeatureKind::ALL.into_iter().zip(&self.0)
    }
}

impl<T> Index<FeatureKind> for KindMap<T> {
    type Output = T;

    fn index(&self, kind: FeatureKind) -> &T {
        &self.0[kind as usize]
    }
}

impl<T> IndexMut<FeatureKind> for KindMap<T> {
    fn index_mut(&mut self, kind: FeatureKind) -> &mut T {
        &mut self.0[kind as usize]
    }
}

/// The object key of a kind: its serialized (variant) name.
fn kind_key(kind: FeatureKind) -> String {
    match kind.to_value() {
        Value::Str(name) => name,
        other => format!("{other:?}"),
    }
}

impl<T: Serialize> Serialize for KindMap<T> {
    fn to_value(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(k, v)| (kind_key(k), v.to_value()))
                .collect(),
        )
    }
}

impl<T: Deserialize> Deserialize for KindMap<T> {
    fn from_value(v: &Value) -> Result<KindMap<T>, serde::Error> {
        let pairs = v
            .as_obj()
            .ok_or_else(|| serde::Error::expected("object", "KindMap", v))?;
        let mut slots: [Option<T>; 7] = Default::default();
        for (key, value) in pairs {
            let kind = FeatureKind::from_value(&Value::Str(key.clone()))?;
            if slots[kind as usize]
                .replace(T::from_value(value)?)
                .is_some()
            {
                return Err(serde::Error::custom(format!("repeated key `{key}`")));
            }
        }
        let values = FeatureKind::ALL
            .into_iter()
            .zip(slots)
            .map(|(k, slot)| {
                slot.ok_or_else(|| serde::Error::custom(format!("missing key `{}`", kind_key(k))))
            })
            .collect::<Result<Vec<T>, _>>()?;
        values
            .try_into()
            .map(KindMap)
            .map_err(|_| serde::Error::custom("expected one entry per feature kind"))
    }
}

/// Computes the three moment invariants F1, F2, F3 (Eq. 3.7–3.9) from
/// the central, scale-normalized second-order moments.
///
/// `I_lmn = µ_lmn / µ000^{5/3}` is invariant to translation (central
/// moments) and scale; F1–F3 are the coefficients of the
/// characteristic polynomial of the I-matrix, hence rotation invariant.
pub fn moment_invariants(moments: &Moments) -> [f64; 3] {
    let mu = moments.central();
    let denom = mu.m000.powf(5.0 / 3.0);
    assert!(denom > 0.0, "moment invariants of zero-volume solid");
    let i200 = mu.m200 / denom;
    let i020 = mu.m020 / denom;
    let i002 = mu.m002 / denom;
    let i110 = mu.m110 / denom;
    let i101 = mu.m101 / denom;
    let i011 = mu.m011 / denom;

    let f1 = i200 + i020 + i002;
    let f2 = i002 * i200 + i002 * i020 + i020 * i200 - i101 * i101 - i110 * i110 - i011 * i011;
    let f3 = i002 * i200 * i020 + 2.0 * i110 * i011 * i101
        - i101 * i101 * i020
        - i011 * i011 * i200
        - i110 * i110 * i002;
    [f1, f2, f3]
}

/// Computes the geometric-parameter feature vector (§3.5.2):
/// `[aspect₁, aspect₂, surface/volume, scale factor, volume]`.
///
/// * The aspect ratios come from the normalized model's bounding box
///   (extents sorted by the principal axes): `e_x/e_y` and `e_y/e_z`.
/// * Surface/volume ratio and volume are taken from the original
///   model, as the paper specifies; the scale factor is the one used
///   to normalize.
pub fn geometric_params(original: &TriMesh, normalized: &NormalizedModel) -> [f64; 5] {
    let e = normalized.mesh.bounding_box().extent();
    let aspect1 = e.x / e.y.max(1e-12);
    let aspect2 = e.y / e.z.max(1e-12);
    let area = original.surface_area();
    let volume = original.signed_volume();
    let sv = area / volume.max(1e-12);
    [aspect1, aspect2, sv, normalized.scale, volume]
}

/// Computes the higher-order feature vector: the ten central
/// third-order moments of the normalized model. Translation, scale,
/// and rotation are fixed by normalization, so the vector is
/// pose-invariant up to the normalization's own stability.
pub fn higher_order_moments(normalized: &NormalizedModel) -> [f64; 10] {
    tdess_geom::central_third_moments(&normalized.mesh).to_array()
}

/// Computes the principal moments of the normalized model
/// (Eq. 3.10): the eigenvalues of its second-moment matrix, in
/// descending order. After normalization the matrix is already nearly
/// diagonal; the eigenvalues make the vector exactly
/// rotation-independent.
pub fn principal_moments(normalized: &NormalizedModel) -> [f64; 3] {
    let mu = mesh_moments(&normalized.mesh).central();
    let eig = sym3_eigen(&mu.second_moment_matrix());
    [eig.values.x, eig.values.y, eig.values.z]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use tdess_geom::{primitives, Mat3, Vec3};

    #[test]
    fn cube_moment_invariants_known_values() {
        // Cube side s: I200 = 1/12 regardless of s, so F1 = 1/4,
        // F2 = 3/144, F3 = 1/1728.
        for s in [1.0, 2.5] {
            let mut mesh = primitives::box_mesh(Vec3::ONE);
            mesh.scale_uniform(s);
            let f = moment_invariants(&mesh_moments(&mesh));
            assert!((f[0] - 0.25).abs() < 1e-12, "F1 {}", f[0]);
            assert!((f[1] - 3.0 / 144.0).abs() < 1e-12, "F2 {}", f[1]);
            assert!((f[2] - 1.0 / 1728.0).abs() < 1e-12, "F3 {}", f[2]);
        }
    }

    #[test]
    fn sphere_moment_invariants_known_values() {
        // Sphere: I200 = r² / (5 V^{2/3}) with V = 4πr³/3.
        let mesh = primitives::uv_sphere(1.0, 64, 32);
        let f = moment_invariants(&mesh_moments(&mesh));
        let v: f64 = 4.0 / 3.0 * std::f64::consts::PI;
        let i = 1.0 / (5.0 * v.powf(2.0 / 3.0));
        assert!(
            (f[0] - 3.0 * i).abs() / (3.0 * i) < 0.01,
            "F1 {} vs {}",
            f[0],
            3.0 * i
        );
        assert!((f[1] - 3.0 * i * i).abs() / (3.0 * i * i) < 0.02);
        assert!((f[2] - i * i * i).abs() / (i * i * i) < 0.03);
    }

    #[test]
    fn moment_invariants_invariant_under_similarity_transform() {
        let mesh = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.7));
        let f0 = moment_invariants(&mesh_moments(&mesh));
        let mut moved = mesh.clone();
        moved.scale_uniform(3.1);
        moved.rotate(&Mat3::rotation_axis_angle(Vec3::new(1.0, 2.0, 0.3), 0.8));
        moved.translate(Vec3::new(-5.0, 2.0, 9.0));
        let f1 = moment_invariants(&mesh_moments(&moved));
        for i in 0..3 {
            assert!(
                (f0[i] - f1[i]).abs() < 1e-10 * (1.0 + f0[i].abs()),
                "F{} changed: {} vs {}",
                i + 1,
                f0[i],
                f1[i]
            );
        }
    }

    #[test]
    fn principal_moments_sorted_and_scale_free() {
        let mesh = primitives::box_mesh(Vec3::new(3.0, 2.0, 1.0));
        let nm = normalize(&mesh).unwrap();
        let pm = principal_moments(&nm);
        assert!(pm[0] >= pm[1] && pm[1] >= pm[2], "{pm:?}");
        // Scaling the input must not change principal moments of the
        // normalized model.
        let mut big = mesh.clone();
        big.scale_uniform(4.0);
        let pm2 = principal_moments(&normalize(&big).unwrap());
        for i in 0..3 {
            assert!((pm[i] - pm2[i]).abs() < 1e-9, "{pm:?} vs {pm2:?}");
        }
    }

    #[test]
    fn principal_moments_of_normalized_cube() {
        // Unit-volume cube: all principal moments = 1/12.
        let mesh = primitives::box_mesh(Vec3::ONE);
        let pm = principal_moments(&normalize(&mesh).unwrap());
        for v in pm {
            assert!((v - 1.0 / 12.0).abs() < 1e-9, "{pm:?}");
        }
    }

    #[test]
    fn geometric_params_of_box() {
        let mesh = primitives::box_mesh(Vec3::new(4.0, 2.0, 1.0));
        let nm = normalize(&mesh).unwrap();
        let g = geometric_params(&mesh, &nm);
        assert!((g[0] - 2.0).abs() < 1e-9, "aspect1 {}", g[0]);
        assert!((g[1] - 2.0).abs() < 1e-9, "aspect2 {}", g[1]);
        // S/V = 2(8+4+2)/8 = 3.5.
        assert!((g[2] - 3.5).abs() < 1e-9, "s/v {}", g[2]);
        // Scale = volume^(-1/3) = 0.5.
        assert!((g[3] - 0.5).abs() < 1e-9, "scale {}", g[3]);
        assert!((g[4] - 8.0).abs() < 1e-9, "volume {}", g[4]);
    }

    #[test]
    fn geometric_params_distinguish_shell_from_block() {
        // A thin-walled tube has a much larger S/V than a solid block
        // of the same outer size.
        let tube = tdess_geom::extrude(
            &tdess_geom::Polygon::new(
                tdess_geom::polygon::regular_ngon(32, 1.0, 0.0, 0.0, 0.0),
                vec![tdess_geom::polygon::regular_ngon(32, 0.9, 0.0, 0.0, 0.0)],
            ),
            2.0,
        );
        let block = primitives::cylinder(1.0, 2.0, 32);
        let g_tube = geometric_params(&tube, &normalize(&tube).unwrap());
        let g_block = geometric_params(&block, &normalize(&block).unwrap());
        assert!(
            g_tube[2] > 3.0 * g_block[2],
            "tube S/V {} vs block {}",
            g_tube[2],
            g_block[2]
        );
    }

    #[test]
    fn feature_kind_labels_unique() {
        let labels: std::collections::HashSet<_> =
            FeatureKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), FeatureKind::ALL.len());
    }

    #[test]
    fn kind_map_indexes_in_all_order() {
        let m = KindMap::from_fn(|k| k.label());
        for (i, kind) in FeatureKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
            assert_eq!(m[kind], kind.label());
        }
        let mut m = m.map(str::len);
        m[FeatureKind::Eigenvalues] = 0;
        assert_eq!(m.iter().filter(|(_, &n)| n == 0).count(), 1);
    }

    #[test]
    fn kind_map_serde_roundtrips_and_rejects_bad_keys() {
        let m = KindMap::from_fn(|k| k as usize as f64 + 0.5);
        let v = m.to_value();
        assert_eq!(v.get("ShellHistogram"), Some(&Value::Float(6.5)));
        assert_eq!(KindMap::<f64>::from_value(&v).unwrap(), m);

        let Value::Obj(pairs) = v else {
            panic!("KindMap serializes as an object")
        };
        let missing = Value::Obj(pairs[1..].to_vec());
        let err = KindMap::<f64>::from_value(&missing).unwrap_err();
        assert!(err.to_string().contains("MomentInvariants"), "{err}");

        let mut repeated = pairs.clone();
        repeated.push(pairs[0].clone());
        assert!(KindMap::<f64>::from_value(&Value::Obj(repeated)).is_err());

        let mut unknown = pairs;
        unknown.push(("Curvature".into(), Value::Float(1.0)));
        assert!(KindMap::<f64>::from_value(&Value::Obj(unknown)).is_err());
    }

    #[test]
    fn higher_order_zero_for_symmetric_solids() {
        let mesh = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
        let h = higher_order_moments(&normalize(&mesh).unwrap());
        for v in h {
            assert!(v.abs() < 1e-9, "{h:?}");
        }
    }

    #[test]
    fn higher_order_detects_asymmetry_invariantly() {
        let mesh = primitives::cone(1.0, 2.0, 48);
        let h0 = higher_order_moments(&normalize(&mesh).unwrap());
        assert!(h0.iter().any(|v| v.abs() > 1e-4), "{h0:?}");
        let mut moved = mesh.clone();
        moved.scale_uniform(2.3);
        moved.translate(Vec3::new(5.0, 1.0, -2.0));
        let h1 = higher_order_moments(&normalize(&moved).unwrap());
        for (a, b) in h0.iter().zip(&h1) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }
}
