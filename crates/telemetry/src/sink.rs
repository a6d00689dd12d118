//! Shipping [`TraceSink`] implementations.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;

/// A consumer of [`TraceEvent`]s. Sinks must tolerate concurrent calls —
/// span closes arrive from whichever worker thread owned the span.
pub trait TraceSink: Send + Sync {
    /// Handles one event.
    fn event(&self, event: &TraceEvent);

    /// Flushes any buffered output. Called at orderly shutdown.
    fn flush(&self) {}
}

/// Writes each event as one JSON line to a buffered file (the
/// `--trace-out FILE` / `DETERRENT_TRACE_OUT` format).
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl TraceSink for JsonlSink {
    fn event(&self, event: &TraceEvent) {
        let mut line = event.to_line();
        line.push('\n');
        let mut out = self.out.lock().expect("trace writer poisoned");
        // Telemetry is strictly out-of-band: a full disk must not fail the
        // run, so write errors are swallowed here by design.
        let _ = out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("trace writer poisoned").flush();
    }
}

/// Collects events in memory; clones share one buffer. Intended for tests
/// and in-process consumers.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemorySink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of every event received so far, in arrival order.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("event buffer poisoned").clone()
    }
}

impl TraceSink for MemorySink {
    fn event(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("event buffer poisoned")
            .push(event.clone());
    }
}
