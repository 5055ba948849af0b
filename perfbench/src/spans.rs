//! In-memory spans for the traced run.
//!
//! Each span records a layer name, its start and end (nanoseconds since
//! the recorder was created), its parent span and the simulation it
//! belongs to. Spans are kept in memory while the benchmark runs and
//! written out as JSON lines once it ends, so the recorder itself does
//! no I/O on the measured path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `machine.run`.
    pub name: &'static str,
    /// Simulation id (index into [`Spans::sims`]).
    pub sim: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder's creation.
    pub start_ns: u64,
    /// End, in ns since the recorder's creation.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    sims: Vec<String>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            sims: Vec::new(),
        }
    }
}

impl Spans {
    /// A recorder that records nothing: [`Spans::span`] just runs its
    /// closure. The untraced run uses it.
    pub fn disabled() -> Spans {
        Spans {
            enabled: false,
            ..Spans::default()
        }
    }

    /// True unless made by [`Spans::disabled`].
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Registers a simulation and returns its id.
    pub fn sim(&mut self, label: String) -> usize {
        if !self.enabled {
            return 0;
        }
        self.sims.push(label);
        self.sims.len() - 1
    }

    /// The simulation labels, indexed by id.
    pub fn sims(&self) -> &[String] {
        &self.sims
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` belonging to simulation `sim`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        sim: usize,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            sim,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Self time per layer name, in seconds: each span's duration minus
    /// the time its direct children cover. Children never overlap (the
    /// benchmark is single-threaded), so the subtraction is exact.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating the directory or the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Labels are application and policy names: no quoting needed
            // beyond the quotes themselves.
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"sim\":{},\"sim_label\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.sim, self.sims[s.sim], s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::default();
        let sim = spans.sim("t".to_string());
        spans.span("outer", sim, |s| {
            s.span("inner", sim, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let selfs = spans.self_times();
        assert!(selfs["inner"] >= 0.005);
        assert!(selfs["outer"] < selfs["inner"]);
        assert_eq!(spans.spans()[1].parent, Some(0));
        let total = spans.total("outer");
        assert!((total - selfs["outer"] - selfs["inner"]).abs() < 1e-9);
    }
}
