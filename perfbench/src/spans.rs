//! In-memory span recorder the benchmark wraps around each call into a
//! layer. Spans stay in memory while the workload runs and are written out
//! once at the end; with the recorder off, [`Tracer::span`] only calls the
//! closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `kernel.run_app`.
    pub name: &'static str,
    /// Free-form qualifier (the app a sweep span belongs to), or `""`.
    pub tag: &'static str,
    /// Identifier shared by every span of one unit of work.
    pub unit: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Host duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u64,
}

impl Tracer {
    /// A recorder that records only while `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    /// Switches recording on or off between calls.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the unit id stamped on the spans that follow.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            tag,
            unit: self.unit,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`, sorted ascending.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Summed duration (s) of the spans named `name` (and tagged `tag`,
    /// unless `tag` is `None`).
    pub fn total_s(&self, name: &str, tag: Option<&str>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|s| s.ns() as f64 / 1e9)
            .sum()
    }

    /// Per span name: (calls, total s, self s). Self time is a span's
    /// duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns() as f64 / 1e9;
            e.2 += s.ns().saturating_sub(*c) as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"unit\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.tag, s.unit, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// The `q`-th percentile (0–100) of an ascending slice, nearest rank; 0
/// for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", "", |tr| {
            tr.span("inner", "", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let st = tr.self_times();
        let (calls, total, own) = st["outer"];
        assert_eq!(calls, 1);
        assert!(own < total - 0.004, "self {own} vs total {total}");
        assert_eq!(tr.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", "", |_| 3), 3);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
