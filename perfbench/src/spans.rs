//! The traced run's spans: recorded by the benchmark around its calls
//! into each layer, kept in memory, written out as NDJSON through
//! `stsyn_obs::Tracer` (so `stsyn trace-summary` reads the file), and
//! folded into per-layer self times.
//!
//! A span's layer is its name up to the first `.`; the benchmark's root
//! span is `job`, and its self time — time inside a job covered by no
//! layer's span — is reported as `unattributed`. Self times telescope, so
//! the layers plus `unattributed` add up exactly to the traced total.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use stsyn_obs::{Json, MemorySink, TraceLevel, Tracer};

/// Name of the per-job root span.
pub const ROOT: &str = "job";

/// Layers the breakdown always reports, in print order (`unattributed`
/// last).
pub const LAYERS: [&str; 6] = ["protocol", "stsyn", "symbolic", "serve", "check", "unattributed"];

/// An in-memory span recorder.
pub struct Recorder {
    tracer: Tracer,
    sink: Arc<MemorySink>,
}

impl Default for Recorder {
    fn default() -> Self {
        let (tracer, sink) = Tracer::memory(TraceLevel::Info);
        Recorder { tracer, sink }
    }
}

impl Recorder {
    /// The recording tracer (clone it into each client thread).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Write every recorded line to `path` as NDJSON, then read the file
    /// back with the trace reader `stsyn trace-summary` uses.
    pub fn write_and_reload(&self, path: &Path) -> Result<Vec<Json>, String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut text = self.sink.lines().join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        stsyn_obs::summarize_file(path).map_err(|e| e.to_string())?;
        let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
        stsyn_obs::parse_trace(std::io::BufReader::new(file)).map_err(|e| e.to_string())
    }
}

/// Run `f` inside span `name` tagged with the job id; also return its
/// wall time in seconds (measured whether or not the tracer records).
pub fn timed<T>(tracer: &Tracer, name: &'static str, job: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tracer.span_with(name, &[("job", Json::from(job))]);
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    span.close();
    (out, secs)
}

/// Per-layer self time summed over every traced job.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Root spans (jobs) traced.
    pub jobs: usize,
    /// Sum of root-span durations, µs.
    pub total_us: i64,
    /// Self time per layer, µs (`unattributed` = roots' self time).
    pub layers: BTreeMap<String, i64>,
}

impl Breakdown {
    /// Self time of `layer` per traced job, in ms.
    pub fn per_job_ms(&self, layer: &str) -> f64 {
        if self.jobs == 0 {
            return 0.0;
        }
        self.layers.get(layer).copied().unwrap_or(0) as f64 / 1000.0 / self.jobs as f64
    }

    /// Traced total per job, in ms.
    pub fn total_per_job_ms(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_us as f64 / 1000.0 / self.jobs as f64
        }
    }

    /// Do the layers add up to the total?
    pub fn sums(&self) -> bool {
        self.layers.values().sum::<i64>() == self.total_us
    }

    /// A human-readable table.
    pub fn render(&self) -> String {
        let mut out = format!("traced jobs: {}\n", self.jobs);
        for layer in LAYERS {
            out.push_str(&format!("  {layer:<13} {:>12.3} ms/job\n", self.per_job_ms(layer)));
        }
        out.push_str(&format!("  {:<13} {:>12.3} ms/job\n", "total", self.total_per_job_ms()));
        out
    }
}

/// Fold span records into per-layer self times.
pub fn breakdown(records: &[Json]) -> Result<Breakdown, String> {
    struct SpanRec {
        name: String,
        parent: Option<u64>,
        dur_us: Option<i64>,
    }
    let mut spans: HashMap<u64, SpanRec> = HashMap::new();
    for r in records {
        let kind = r.get("kind").and_then(Json::as_str).unwrap_or("");
        let Some(id) = r.get("span").and_then(Json::as_u64) else { continue };
        match kind {
            "span_open" => {
                let name = r.get("name").and_then(Json::as_str).unwrap_or("").to_string();
                let parent = r.get("parent").and_then(Json::as_u64);
                spans.insert(id, SpanRec { name, parent, dur_us: None });
            }
            "span_close" => {
                let dur =
                    r.get("dur_us").and_then(Json::as_i64).ok_or("span_close without dur_us")?;
                spans.get_mut(&id).ok_or("span closed before it opened")?.dur_us = Some(dur);
            }
            _ => {}
        }
    }
    let mut child_us: HashMap<u64, i64> = HashMap::new();
    for s in spans.values() {
        if let Some(p) = s.parent {
            *child_us.entry(p).or_default() += s.dur_us.ok_or("span left open")?;
        }
    }
    let mut b = Breakdown::default();
    for layer in LAYERS {
        b.layers.insert(layer.to_string(), 0);
    }
    for (id, s) in &spans {
        let dur = s.dur_us.ok_or("span left open")?;
        let self_us = dur - child_us.get(id).copied().unwrap_or(0);
        let layer = if s.name == ROOT {
            if s.parent.is_some() {
                return Err("nested job span".into());
            }
            b.jobs += 1;
            b.total_us += dur;
            "unattributed"
        } else {
            if s.parent.is_none() {
                return Err(format!("span `{}` outside any job", s.name));
            }
            s.name.split('.').next().unwrap_or("")
        };
        *b.layers.entry(layer.to_string()).or_default() += self_us;
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_total() {
        let rec = Recorder::default();
        let t = rec.tracer();
        for job in 0..3u64 {
            timed(t, ROOT, job, || {
                timed(t, "protocol.parse", job, || {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                });
                timed(t, "stsyn.synthesize", job, || {
                    timed(t, "symbolic.encode", job, || {
                        std::thread::sleep(std::time::Duration::from_millis(1))
                    })
                });
            });
        }
        let lines: Vec<Json> = rec.sink.lines().iter().map(|l| Json::parse(l).unwrap()).collect();
        let b = breakdown(&lines).unwrap();
        assert_eq!(b.jobs, 3);
        assert!(b.sums());
        assert!(b.per_job_ms("protocol") >= 1.0 && b.per_job_ms("symbolic") >= 1.0);
    }
}
