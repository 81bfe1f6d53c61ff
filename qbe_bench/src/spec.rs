//! The benchmark's recorded settings, read from `spec.json` so that the
//! measured peak and offered rates, request mixes, the default seed and
//! the rigid-copy tolerance live in one place.

use serde::Deserialize;

/// Whole-benchmark settings.
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    /// Seed used when `--seed` is not given.
    pub default_seed: u64,
    /// Tolerance for rigid-copy replies, with its reason.
    pub rigid_tolerance: Tolerance,
    /// The workloads.
    pub workloads: Vec<WorkloadSpec>,
}

/// Allowed deviation of rigid-copy replies from the reference.
#[derive(Debug, Clone, Deserialize)]
pub struct Tolerance {
    /// Largest absolute difference in similarity and distance.
    pub abs: f64,
    /// Why the tolerance exists.
    pub reason: String,
}

/// One traffic mix.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    /// Name given to `--workload`.
    pub name: String,
    /// Why the workload was chosen.
    pub why: String,
    /// `paper` (113 extracted shapes) or `synth` (synthetic vectors).
    pub database: String,
    /// Median closed-loop peak rate of this mix on the host the benchmark
    /// was tuned on (the `peak_rps` metric over several seeds), requests
    /// per second.
    pub measured_peak_rps: f64,
    /// Request shares by class.
    pub mix: Mix,
    /// Share of popular-part mesh queries sent byte-identical; the rest
    /// are rotated or translated copies.
    pub resend_share: f64,
    /// Size of the popular set (0: every mesh query is a fresh part).
    pub popular_parts: usize,
    /// Requests replayed by the traced run.
    pub trace_requests: usize,
}

/// Request shares by class; they sum to 1.
#[derive(Debug, Clone, Deserialize)]
pub struct Mix {
    /// `SearchMesh`, PM top-k.
    pub search_mesh: f64,
    /// `SearchFeatures`, PM top-k.
    pub search_features: f64,
    /// `MultiStep` with the paper's plan.
    pub multistep: f64,
    /// `Insert` and `Remove`, alternating.
    pub write: f64,
}

/// Share of the measured peak rate the open loop offers. A third rather
/// than a half: on a 2-vCPU host whose speed drifts by a quarter or more
/// between runs, half the peak overloaded the slow runs (the serialised
/// writer of `synth_rw`, the extraction of `paper_*`) and the latency
/// median swung with the host.
pub const OFFERED_SHARE: f64 = 1.0 / 3.0;

impl WorkloadSpec {
    /// Open-loop arrival rate, requests per second.
    pub fn offered_rps(&self) -> f64 {
        self.measured_peak_rps * OFFERED_SHARE
    }
}

impl Spec {
    /// Reads and checks `spec.json`.
    pub fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let spec: Spec = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        for w in &spec.workloads {
            let m = &w.mix;
            let sum = m.search_mesh + m.search_features + m.multistep + m.write;
            if (sum - 1.0).abs() > 1e-9 {
                return Err(format!("{path}: workload {} has a bad mix", w.name));
            }
            if w.measured_peak_rps <= 0.0 {
                return Err(format!("{path}: workload {} has a bad peak rate", w.name));
            }
        }
        Ok(spec)
    }

    /// The named workload.
    pub fn workload(&self, name: &str) -> Result<&WorkloadSpec, String> {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| {
                let names: Vec<&str> = self.workloads.iter().map(|w| w.name.as_str()).collect();
                format!("unknown workload `{name}` (one of {})", names.join(", "))
            })
    }
}
