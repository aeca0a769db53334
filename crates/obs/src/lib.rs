//! # mpise-obs — unified telemetry for the mpise workspace
//!
//! The paper's whole evaluation (§4, Tables 3–4) is an exercise in
//! *attributing* cycles: which kernel, which loop, which pipeline
//! stall. This crate is the one place that attribution lives for the
//! runtime crates (`sim`, `fp`, `csidh`, `engine`, `bench`):
//!
//! * **Spans** ([`span`], [`SpanTree`]) — hierarchical, per-thread
//!   regions with wall-time plus simulated cycle/instret deltas
//!   charged by the simulator-backed layers ([`add_sim_cost`]), so a
//!   CSIDH action decomposes into its sample / cofactor / isogeny /
//!   normalize phases exactly like the paper's cost model;
//! * **Metrics** ([`metrics::Registry`]) — counters, gauges and
//!   fixed-bucket histograms with Prometheus labels, exported as
//!   Prometheus text ([`metrics::Registry::render_prometheus`]) or as
//!   the versioned [`Snapshot`] JSON (`mpise-obs/v1`). There is no
//!   process-wide registry: each component owns one (the engine
//!   records every request straight into its own) and hands it to the
//!   exporter;
//! * **Provenance** ([`provenance::Provenance`]) — git commit, host
//!   and timestamp stamped into every artifact;
//! * **Validation** ([`prom::validate`], the `obscheck` binary) — the
//!   CI gate over the exported Prometheus text.
//!
//! The whole layer is **disabled by default**: every instrumentation
//! point is gated on one relaxed atomic ([`enabled`]), so the
//! instrumented hot paths cost one predictable branch when telemetry
//! is off. Binaries opt in with [`set_enabled`] (or the
//! `MPISE_OBS=1` environment variable via [`enable_from_env`]).
//!
//! The crate depends on `std` only — it sits below every runtime
//! crate in the workspace graph.

pub mod metrics;
pub mod prom;
pub mod provenance;
pub mod span;
pub mod time;

pub use metrics::Registry;
pub use provenance::Provenance;
pub use span::{add_sim_cost, span, take_spans, SpanGuard, SpanNode, SpanTree};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry collection is on (off by default).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry collection on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables telemetry when the `MPISE_OBS` environment variable is set
/// to anything but `0`/empty; returns the resulting state.
pub fn enable_from_env() -> bool {
    if let Ok(v) = std::env::var("MPISE_OBS") {
        if !v.is_empty() && v != "0" {
            set_enabled(true);
        }
    }
    enabled()
}

/// A complete `mpise-obs/v1` snapshot: provenance + metrics + span
/// forest, serialized by [`Snapshot::to_json`].
#[derive(Debug)]
pub struct Snapshot {
    /// Run provenance.
    pub provenance: Provenance,
    /// Metrics JSON array (from [`metrics::Registry::metrics_json`]).
    pub metrics_json: String,
    /// The span forest.
    pub spans: SpanTree,
}

impl Snapshot {
    /// Captures `registry` with an explicit span forest (e.g. merged
    /// from several worker threads).
    pub fn capture_with_spans(registry: &Registry, spans: SpanTree) -> Self {
        Snapshot {
            provenance: Provenance::collect(),
            metrics_json: registry.metrics_json(),
            spans,
        }
    }

    /// Serializes the versioned snapshot document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"mpise-obs/v1\",\n  \"provenance\": {},\n  \
             \"metrics\": {},\n  \"spans\": {}\n}}\n",
            self.provenance.json(),
            self.metrics_json,
            self.spans.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_is_versioned_and_shaped() {
        let snap = Snapshot {
            provenance: Provenance {
                git_commit: "deadbeef".to_owned(),
                host: "ci".to_owned(),
                timestamp: "2026-08-07T00:00:00Z".to_owned(),
                unix_secs: 1,
            },
            metrics_json: String::from("[]"),
            spans: SpanTree::default(),
        };
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"mpise-obs/v1\""));
        assert!(json.contains("\"git_commit\": \"deadbeef\""));
        assert!(json.contains("\"metrics\": []"));
        assert!(json.contains("\"spans\": {}"));
    }

    #[test]
    fn env_opt_in() {
        // Only exercises the parsing contract for values already in
        // the environment; never mutates the process environment.
        let was = enabled();
        let _ = enable_from_env();
        if std::env::var("MPISE_OBS").map_or(true, |v| v.is_empty() || v == "0") {
            assert_eq!(enabled(), was, "unset/0 must not change the state");
        } else {
            assert!(enabled());
        }
        set_enabled(was);
    }
}
