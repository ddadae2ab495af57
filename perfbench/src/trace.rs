//! In-memory span recorder for the traced run.
//!
//! A span is one public library call made by the benchmark: its name,
//! start, end and the span that was open when it began. Spans stay in
//! memory until the run ends; [`Tracer::write_json`] then dumps them.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

/// Records spans of the calls made through [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    fn duration(&self, idx: usize) -> f64 {
        self.spans[idx].end_s - self.spans[idx].start_s
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_time[p] += self.duration(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += self.duration(i) - child_time[i];
        }
        out
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration(i))
            .sum()
    }

    /// Share of the spans named `root` that their direct children
    /// cover: the span coverage of a traced workload.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut wall = 0.0;
        let mut covered = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root {
                wall += self.duration(i);
            } else if s.parent.is_some_and(|p| self.spans[p].name == root) {
                covered += self.duration(i);
            }
        }
        if wall > 0.0 {
            covered / wall
        } else {
            0.0
        }
    }

    /// Writes every recorded span as a JSON array.
    ///
    /// # Errors
    ///
    /// Propagates the file write error.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}{}\n",
                s.name,
                s.start_s,
                s.end_s,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        text.push_str("]\n");
        std::fs::write(path, text)
    }
}

/// Spans whose self time is a per-layer metric (`<span>_s`).
pub const LAYERS: [&str; 13] = [
    "hetgraph.generate",
    "hetgraph.instance_dp",
    "nmp.distribute",
    "nmp.estimate",
    "dramsim.calibrate",
    "nmp.step",
    "dramsim.service",
    "dramsim.service_faulted",
    "hgnn.reference",
    "hgnn.project",
    "metanmp.memory_analysis",
    "serve.workload_build",
    "serve.simulate",
];

/// What one workload's traced pass reports.
pub struct Pass {
    /// Wall of the workload's own calls with span recording on.
    pub traced_s: f64,
    /// Wall of the same calls run again without spans.
    pub untraced_s: f64,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// Per-layer counts and ratios.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(seconds: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < seconds {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            spin(0.01);
            t.span("inner", |_| spin(0.02));
        });
        let st = t.self_times();
        let outer = t.total("outer");
        assert!((st["outer"] + st["inner"] - outer).abs() < 1e-9);
        assert!(st["inner"] >= 0.02 && st["outer"] >= 0.01);
        let cov = t.coverage("outer");
        assert!(cov > 0.5 && cov <= 1.0, "coverage {cov}");
    }
}
