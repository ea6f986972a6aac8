//! `--trace <path>` support for the figure experiments.
//!
//! `figures` and `latency_table` accept `--trace <path>`: when given, the run
//! records spans and counters from every layer (wire, disk, NFS3
//! procedures, secure channel, client caches) into one shared sink and
//! writes a Chrome `chrome://tracing` / Perfetto-compatible JSON file at
//! exit, plus a per-layer summary table on stdout. Without the flag the
//! sink is disabled and every instrumentation point is a no-op, so the
//! virtual-time results are unchanged.

use sfs_telemetry::{Telemetry, ZeroClock};

/// Command-line tracing options.
pub struct TraceOpt {
    path: Option<String>,
    tel: Telemetry,
}

impl TraceOpt {
    /// Builds from the value of `--trace`, when given.
    pub fn with_path(path: Option<String>) -> Self {
        // The base sink carries a zero clock: each instrumented component
        // re-stamps its handle with its own `SimClock` when attached, so
        // one sink can trace several simulated systems at once.
        let tel = if path.is_some() {
            Telemetry::recording(ZeroClock)
        } else {
            Telemetry::disabled()
        };
        TraceOpt { path, tel }
    }

    /// Whether tracing was requested.
    pub(crate) fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// The shared sink (disabled when `--trace` was not given).
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// A handle scoped to one benchmarked system: its process names are
    /// prefixed `label/…` so traces of several systems stay separable in
    /// the viewer.
    pub(crate) fn for_system(&self, label: &str) -> Telemetry {
        self.tel.scoped(label)
    }

    /// Writes the Chrome trace JSON (if `--trace` was given) and prints
    /// the per-layer summary table.
    pub(crate) fn finish(&self) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let json = self.tel.chrome_trace();
        std::fs::write(path, &json).map_err(|e| format!("write trace {path}: {e}"))?;
        println!("\n{}", self.tel.summary());
        println!(
            "trace written to {path} ({} bytes) — open in chrome://tracing",
            json.len()
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_without_path() {
        let t = TraceOpt::with_path(None);
        assert!(!t.enabled());
        assert!(!t.telemetry().is_enabled());
        assert!(!t.for_system("sfs").is_enabled());
    }

    #[test]
    fn enabled_with_path_and_scopes_systems() {
        let t = TraceOpt::with_path(Some("/dev/null".into()));
        assert!(t.enabled());
        assert!(t.telemetry().is_tracing());
        let scoped = t.for_system("sfs");
        scoped.count("client", "x", 2);
        assert_eq!(scoped.counter("client", "x"), 2);
        // The scope prefixes the process name in the shared sink.
        assert_eq!(t.telemetry().counter("sfs/client", "x"), 2);
    }
}
