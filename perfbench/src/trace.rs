//! The benchmark's own spans around each call it makes into a layer's
//! public functions. They go through `incognito_obs::trace`, so a traced
//! run's spans nest with the engine's own and are written together, at
//! exit, as Chrome Trace Event JSON (loadable in Perfetto).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use incognito_obs::trace::{self, TraceRecord};
use incognito_obs::Json;

/// The closed-loop sample the spans that follow belong to (0 for per-run
/// work such as set-up, the reference run and the probes).
static SAMPLE: AtomicU64 = AtomicU64::new(0);

pub fn set_sample(id: u64) {
    SAMPLE.store(id, Ordering::Relaxed);
}

/// Run `f` inside a span named `name`, tagged with the current sample,
/// and return its result with its wall time. While tracing is off the
/// span is inert and this only measures.
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    let _span = trace::span(name).arg("sample", SAMPLE.load(Ordering::Relaxed));
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Write `spans` to `path` as Chrome Trace Event JSON, rendered by
/// `trace::to_chrome_json` a chunk at a time. `trace::write_chrome_trace`
/// is not used: it builds the whole document in memory and then re-parses
/// it as a self-check, and that parser re-validates the rest of the
/// document at every string character, so on a traced run's 10^5 spans it
/// ran for minutes.
pub fn write(path: &Path, spans: &[TraceRecord]) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(b"{\"traceEvents\": [")?;
    let mut first = true;
    for chunk in spans.chunks(4096) {
        let doc = trace::to_chrome_json(chunk);
        for event in doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]) {
            out.write_all(if first { b"\n" } else { b",\n" })?;
            out.write_all(event.to_compact_string().as_bytes())?;
            first = false;
        }
    }
    out.write_all(b"\n], \"displayTimeUnit\": \"ms\"}\n")?;
    out.flush()
}
