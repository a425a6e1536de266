//! Shared `--obs` / `--obs-summary` / `--trace-out` wiring for every
//! subcommand.
//!
//! Every decision site records one flight record; the flags choose
//! where records go. `--obs <path.jsonl>` streams every record to a
//! JSONL file while the command runs (unbounded); `--trace-out
//! <path.json>` keeps the newest records in the flight-recorder ring
//! and renders it as a Chrome `trace_event` JSON plus `<path>.jsonl` in
//! the same line format at the end; `--obs-summary` prints the metrics
//! registry (counters, gauges, histogram quantiles) to stderr
//! afterwards. All may be combined; with none, the returned handle is
//! the no-op one and the instrumented code paths cost a single branch.

use crate::args::Args;
use carpool_obs::{
    flight, FlightRecorder, MemoryRecorder, MetricsSnapshot, Obs, DEFAULT_TRACE_CAPACITY,
};
use std::sync::Arc;

/// Observability wiring for one CLI invocation.
pub(crate) struct ObsSession {
    obs: Obs,
    recorder: Option<Arc<MemoryRecorder>>,
    flight: Option<Arc<FlightRecorder>>,
    summary: bool,
    path: Option<String>,
    trace_path: Option<String>,
}

impl ObsSession {
    /// Builds the session from `--obs` / `--obs-summary` / `--trace-out`.
    ///
    /// # Errors
    ///
    /// Fails when the `--obs` file cannot be created or a flag is
    /// missing its path argument.
    pub(crate) fn from_args(args: &Args) -> Result<ObsSession, String> {
        let path = args.get("obs").filter(|v| *v != "true").map(str::to_string);
        if args.get("obs") == Some("true") {
            return Err("--obs needs a file path, e.g. --obs run.jsonl".to_string());
        }
        let trace_path = args
            .get("trace-out")
            .filter(|v| *v != "true")
            .map(str::to_string);
        if args.get("trace-out") == Some("true") {
            return Err("--trace-out needs a file path, e.g. --trace-out trace.json".to_string());
        }
        let summary = args.flag("obs-summary");
        if path.is_none() && !summary && trace_path.is_none() {
            return Ok(ObsSession {
                obs: Obs::noop(),
                recorder: None,
                flight: None,
                summary: false,
                path: None,
                trace_path: None,
            });
        }
        let recorder = Arc::new(MemoryRecorder::new());
        let mut obs = Obs::with_recorder(recorder.clone());
        if let Some(p) = &path {
            let file = std::fs::File::create(p)
                .map_err(|e| format!("cannot create --obs file '{p}': {e}"))?;
            obs = obs.with_stream(file);
        }
        let mut flight = None;
        if trace_path.is_some() {
            let f = Arc::new(FlightRecorder::new(DEFAULT_TRACE_CAPACITY));
            obs = obs.with_flight(f.clone());
            flight = Some(f);
        }
        Ok(ObsSession {
            obs,
            recorder: Some(recorder),
            flight,
            summary,
            path,
            trace_path,
        })
    }

    /// The handle to thread through instrumented code.
    pub(crate) fn obs(&self) -> Obs {
        self.obs.clone()
    }

    /// Flushes the `--obs` stream, exports the flight-recorder trace,
    /// and prints the `--obs-summary` tables.
    pub(crate) fn finish(&self) {
        self.obs.flush();
        if let Some(p) = &self.path {
            eprintln!("# obs records written to {p}");
        }
        if let (Some(f), Some(p)) = (&self.flight, &self.trace_path) {
            let records = f.records();
            let dropped = f.dropped();
            let chrome = flight::to_chrome_trace(&records);
            let jsonl = flight::to_jsonl(&records, dropped);
            let jsonl_path = format!("{p}.jsonl");
            match std::fs::write(p, chrome) {
                Ok(()) => eprintln!(
                    "# flight recorder: {} records ({} dropped) -> {p} (chrome://tracing), {jsonl_path} (jsonl)",
                    records.len(),
                    dropped
                ),
                Err(e) => eprintln!("# flight recorder: cannot write '{p}': {e}"),
            }
            if let Err(e) = std::fs::write(&jsonl_path, jsonl) {
                eprintln!("# flight recorder: cannot write '{jsonl_path}': {e}");
            }
        }
        if self.summary {
            if let Some(recorder) = &self.recorder {
                eprint!("{}", render_summary(&recorder.snapshot()));
            }
        }
    }
}

/// Renders a metrics snapshot as the `--obs-summary` block.
pub(crate) fn render_summary(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if !snap.counters.is_empty() {
        out.push_str("# obs counters\n");
        for (name, value) in &snap.counters {
            out.push_str(&format!("#   {name:<34} {value}\n"));
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("# obs gauges\n");
        for (name, value) in &snap.gauges {
            out.push_str(&format!("#   {name:<34} {value:.6}\n"));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("# obs histograms                        count       mean        p50        p95        max\n");
        for (name, h) in &snap.histograms {
            out.push_str(&format!(
                "#   {name:<34} {:>7} {:>10.3e} {:>10.3e} {:>10.3e} {:>10.3e}\n",
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.max()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).expect("parses")
    }

    #[test]
    fn no_flags_yields_noop_handle() {
        let s = ObsSession::from_args(&parse(&["mac-sim"])).expect("builds");
        assert!(!s.obs().enabled());
    }

    #[test]
    fn summary_flag_enables_recorder() {
        let s = ObsSession::from_args(&parse(&["mac-sim", "--obs-summary"])).expect("builds");
        assert!(s.obs().enabled());
        s.obs().counter("x.y", 3);
        let snap = s.recorder.as_ref().expect("recorder").snapshot();
        assert_eq!(snap.counter("x.y"), 3);
    }

    #[test]
    fn obs_without_path_is_an_error() {
        assert!(ObsSession::from_args(&parse(&["mac-sim", "--obs"])).is_err());
    }

    #[test]
    fn trace_out_without_path_is_an_error() {
        assert!(ObsSession::from_args(&parse(&["trace", "--trace-out"])).is_err());
    }

    #[test]
    fn trace_out_attaches_the_flight_recorder() {
        let s = ObsSession::from_args(&parse(&["trace", "--trace-out", "t.json"])).expect("builds");
        assert!(s.obs().enabled());
        assert!(s.obs().tracing());
        s.obs()
            .trace(carpool_obs::TraceKind::MacEnqueue, 0.0, 1, 2, 0);
        assert_eq!(s.flight.as_ref().expect("flight").len(), 1);
    }

    #[test]
    fn summary_renders_all_metric_kinds() {
        let recorder = MemoryRecorder::new();
        use carpool_obs::Recorder;
        recorder.counter("mac.transmissions", 42);
        recorder.gauge("mac.queue", 3.0);
        recorder.record("mac.delay", 0.25);
        let text = render_summary(&recorder.snapshot());
        assert!(text.contains("mac.transmissions"));
        assert!(text.contains("42"));
        assert!(text.contains("mac.queue"));
        assert!(text.contains("mac.delay"));
    }
}
