//! Live progress/heartbeat channel for long-running sweeps and fleets.
//!
//! Engines (`sweep_matrix_observed`, `run_fleet`, `run_rollout`) tick a
//! shared [`Progress`] from their worker closures — a couple of relaxed
//! atomic adds per item, nothing on the hot path when no observer is
//! attached.
//! The CLI attaches a monitor thread that snapshots the counters about
//! once a second, prints a heartbeat line to stderr, and optionally
//! appends a JSONL record per sample to `--progress-out`.
//!
//! Everything here is *measurement*, never result identity: progress
//! samples include host wall-clock and rates, and no report content
//! depends on them, so byte-identity across `--jobs` widths is untouched.

use crate::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Shared progress state, updated by engine workers and sampled by a
/// monitor thread.
#[derive(Debug)]
pub struct Progress {
    phase: Mutex<String>,
    done: AtomicU64,
    total: AtomicU64,
    /// 1-based rollout wave index (0 = not in a wave-structured phase).
    wave: AtomicU64,
    waves: AtomicU64,
    started: Instant,
}

impl Default for Progress {
    fn default() -> Self {
        Self::new()
    }
}

impl Progress {
    /// Fresh progress state; the clock starts now.
    pub fn new() -> Self {
        Self {
            phase: Mutex::new(String::new()),
            done: AtomicU64::new(0),
            total: AtomicU64::new(0),
            wave: AtomicU64::new(0),
            waves: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Enters a named phase with `total` expected work items, resetting
    /// the done counter.
    pub fn begin_phase(&self, name: &str, total: u64) {
        *self.phase.lock().unwrap() = name.to_string();
        self.done.store(0, Ordering::Relaxed);
        self.total.store(total, Ordering::Relaxed);
    }

    /// Records the current rollout wave (1-based) of `waves`.
    pub fn set_wave(&self, wave: u64, waves: u64) {
        self.wave.store(wave, Ordering::Relaxed);
        self.waves.store(waves, Ordering::Relaxed);
    }

    /// Ticks `n` completed items in the current phase.
    pub fn add(&self, n: u64) {
        self.done.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters for rendering.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            phase: self.phase.lock().unwrap().clone(),
            done: self.done.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
            wave: self.wave.load(Ordering::Relaxed),
            waves: self.waves.load(Ordering::Relaxed),
            elapsed_ms: self.started.elapsed().as_millis() as u64,
        }
    }
}

/// One sampled heartbeat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Current phase name (`"devices"`, `"inject"`, `"reconcile"`, …).
    pub phase: String,
    /// Items completed in this phase.
    pub done: u64,
    /// Items expected in this phase (0 = unknown).
    pub total: u64,
    /// 1-based wave index, 0 outside wave-structured phases.
    pub wave: u64,
    /// Total waves, 0 outside wave-structured phases.
    pub waves: u64,
    /// Host milliseconds since the progress clock started.
    pub elapsed_ms: u64,
}

impl ProgressSnapshot {
    /// Completed items per second over the whole run so far.
    pub fn rate_per_sec(&self) -> u64 {
        (self.done * 1000).checked_div(self.elapsed_ms).unwrap_or(0)
    }

    /// Milliseconds to phase completion extrapolated from throughput;
    /// `None` when the total or rate is unknown.
    pub fn eta_ms(&self) -> Option<u64> {
        let rate = self.rate_per_sec();
        if rate == 0 || self.total == 0 || self.done >= self.total {
            return None;
        }
        Some((self.total - self.done) * 1000 / rate)
    }

    /// The human heartbeat line for stderr.
    pub fn stderr_line(&self) -> String {
        let mut line = format!("progress: {} {}/{}", self.phase, self.done, self.total);
        if self.waves > 0 {
            line.push_str(&format!(" (wave {}/{})", self.wave, self.waves));
        }
        line.push_str(&format!(", {}/s", self.rate_per_sec()));
        match self.eta_ms() {
            Some(eta) => line.push_str(&format!(", ETA {:.1}s", eta as f64 / 1000.0)),
            None => line.push_str(", ETA unknown"),
        }
        line
    }

    /// The machine record for `--progress-out` (one compact JSON line).
    pub fn to_json_line(&self) -> String {
        let mut fields = vec![
            ("phase".into(), Value::str(self.phase.clone())),
            ("done".into(), Value::u64(self.done)),
            ("total".into(), Value::u64(self.total)),
        ];
        if self.waves > 0 {
            fields.push(("wave".into(), Value::u64(self.wave)));
            fields.push(("waves".into(), Value::u64(self.waves)));
        }
        fields.push(("rate_per_sec".into(), Value::u64(self.rate_per_sec())));
        if let Some(eta) = self.eta_ms() {
            fields.push(("eta_ms".into(), Value::u64(eta)));
        }
        fields.push(("elapsed_ms".into(), Value::u64(self.elapsed_ms)));
        Value::Obj(fields).to_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_reset_done_and_track_waves() {
        let p = Progress::new();
        p.begin_phase("devices", 100);
        p.add(30);
        p.add(10);
        let s = p.snapshot();
        assert_eq!((s.phase.as_str(), s.done, s.total), ("devices", 40, 100));
        p.set_wave(2, 8);
        p.begin_phase("reconcile", 1);
        let s = p.snapshot();
        assert_eq!((s.done, s.total, s.wave, s.waves), (0, 1, 2, 8));
    }

    #[test]
    fn snapshot_renders_rate_eta_and_json() {
        let s = ProgressSnapshot {
            phase: "inject".into(),
            done: 500,
            total: 2000,
            wave: 0,
            waves: 0,
            elapsed_ms: 1000,
        };
        assert_eq!(s.rate_per_sec(), 500);
        assert_eq!(s.eta_ms(), Some(3000));
        assert_eq!(
            s.stderr_line(),
            "progress: inject 500/2000, 500/s, ETA 3.0s"
        );
        let line = s.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"eta_ms\":3000"), "{line}");
        let parsed = crate::json::parse(&line).unwrap();
        assert_eq!(parsed.get("done").and_then(Value::as_u64), Some(500));
    }

    #[test]
    fn eta_is_unknown_without_total_or_throughput() {
        let mut s = ProgressSnapshot {
            phase: "oracle".into(),
            done: 0,
            total: 0,
            wave: 1,
            waves: 4,
            elapsed_ms: 0,
        };
        assert_eq!(s.eta_ms(), None);
        assert_eq!(
            s.stderr_line(),
            "progress: oracle 0/0 (wave 1/4), 0/s, ETA unknown"
        );
        s.total = 10;
        s.done = 10;
        s.elapsed_ms = 50;
        assert_eq!(s.eta_ms(), None, "completed phases have no ETA");
    }
}
