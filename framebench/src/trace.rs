//! Spans recorded from outside the program, around the benchmark's own
//! calls into each layer's public functions.
//!
//! Spans are held in memory and written out when the run ends, one
//! JSON object per line, to `.framebench/<workload>-seed<n>.spans.jsonl`
//! under the working directory (at most [`WRITTEN_PER_NAME`] of each
//! name). Spans of one frame share its sequence number as their
//! request id.

use std::collections::HashMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

use crate::report::Json;
use crate::stats::Dist;

/// Spans of one name written out per run.
pub const WRITTEN_PER_NAME: usize = 10_000;

/// One timed call. `start` is `None` for a duration the program
/// reports about itself (the server's `FrameDone.latency_us`), which
/// has no start time the benchmark could see.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start: Option<Duration>,
    pub dur: Duration,
}

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new(Instant::now(), 0)
    }
}

impl Trace {
    pub fn new(epoch: Instant, capacity: usize) -> Trace {
        Trace {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// A span from `start` to `end`.
    pub fn span(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            name,
            parent,
            start: Some(start.saturating_duration_since(self.epoch)),
            dur: end.saturating_duration_since(start),
        });
    }

    /// A duration reported by the program itself.
    pub fn reported(&mut self, id: u64, name: &'static str, parent: &'static str, dur: Duration) {
        self.spans.push(Span {
            id,
            name,
            parent: Some(parent),
            start: None,
            dur,
        });
    }

    /// Durations of every span named `name`, in µs.
    pub fn us(&self, name: &str) -> Dist {
        let mut d = Dist::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            d.push(s.dur.as_secs_f64() * 1e6);
        }
        d
    }

    /// Write the first [`WRITTEN_PER_NAME`] spans of each name to
    /// `path`, creating its directory. (Metrics use every span; the file
    /// is for reading, and a full thumbnail run would be ~100 MB.)
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written: HashMap<&str, usize> = HashMap::new();
        for s in &self.spans {
            let n = written.entry(s.name).or_default();
            if *n >= WRITTEN_PER_NAME {
                continue;
            }
            *n += 1;
            let line = Json::obj([
                ("id", Json::from(s.id)),
                ("span", Json::from(s.name)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                (
                    "start_us",
                    s.start
                        .map_or(Json::Null, |d| Json::from(d.as_secs_f64() * 1e6)),
                ),
                ("dur_us", Json::from(s.dur.as_secs_f64() * 1e6)),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        out.flush()
    }
}
