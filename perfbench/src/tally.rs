//! Simulated statistics: per-run ledger sums, the per-unit simulated
//! end-to-end figures, and the digest that pins every simulated number.

use mcu_emu::{EnergyCause, RunStats, CAUSE_COUNT};
use std::collections::BTreeMap;

/// 64-bit FNV-1a — a stable, dependency-free digest of simulated output.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a value's `Debug` rendering in.
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    /// Folds every field of a run's ledger in.
    pub fn stats(&mut self, s: &RunStats) {
        for v in [
            s.app_time_us,
            s.overhead_time_us,
            s.app_energy_nj,
            s.overhead_energy_nj,
            s.power_failures,
            s.task_attempts,
            s.task_commits,
            s.io_executed,
            s.io_skipped,
            s.io_reexecutions,
            s.dma_executed,
            s.dma_skipped,
            s.dma_reexecutions,
            s.boundaries,
        ] {
            self.u64(v);
        }
        for v in s.cause_time_us.iter().chain(&s.cause_energy_nj) {
            self.u64(*v);
        }
        for (task, e) in &s.cause_energy_by_task {
            self.u64(*task as u64);
            e.iter().for_each(|v| self.u64(*v));
        }
        for (site, e) in &s.redundant_energy_by_site {
            self.u64(*site as u64);
            self.u64(*e);
        }
        for (name, v) in &s.counters {
            self.bytes(name.as_bytes());
            self.u64(*v);
        }
    }
}

/// Hash of a file's bytes (a streamed JSONL output).
pub fn file_digest(path: &std::path::Path) -> Result<(u64, u64), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut h = Fnv::default();
    h.bytes(&bytes);
    Ok((h.0, bytes.len() as u64))
}

/// Ledger sums over every `kernel::run_app` call the benchmark made itself.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// `run_app` calls.
    pub runs: u64,
    /// `Mcu::restore` calls.
    pub restores: u64,
    /// Energy-spend slices (`RunStats::boundaries`).
    pub slices: u64,
    /// Power failures.
    pub power_failures: u64,
    /// Task attempts.
    pub attempts: u64,
    /// Task commits.
    pub commits: u64,
    /// Re-executed I/O operations.
    pub io_reexecutions: u64,
    /// Re-executed DMA transfers.
    pub dma_reexecutions: u64,
    /// I/O operations skipped by the runtime.
    pub io_skipped: u64,
    /// DMA transfers skipped by the runtime.
    pub dma_skipped: u64,
    /// Simulated on-time (µs).
    pub time_us: u64,
    /// Named `RunStats` counters, summed.
    pub counters: BTreeMap<&'static str, u64>,
    /// Digest of every folded ledger, in order.
    pub digest: Fnv,
}

impl Tally {
    /// Folds one finished run in.
    pub fn add(&mut self, s: &RunStats) {
        self.runs += 1;
        self.slices += s.boundaries;
        self.power_failures += s.power_failures;
        self.attempts += s.task_attempts;
        self.commits += s.task_commits;
        self.io_reexecutions += s.io_reexecutions;
        self.dma_reexecutions += s.dma_reexecutions;
        self.io_skipped += s.io_skipped;
        self.dma_skipped += s.dma_skipped;
        self.time_us += s.total_time_us();
        for (name, v) in &s.counters {
            *self.counters.entry(name).or_default() += v;
        }
        self.digest.stats(s);
    }

    /// A named counter's sum.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Simulated totals over the EaseIO units of one pass.
#[derive(Debug, Clone, Default)]
pub struct Sim {
    /// EaseIO units the energy totals cover.
    pub units: u64,
    /// Simulated on-time summed over `time_runs` runs (µs).
    pub time_us: u64,
    /// Runs `time_us` covers (0: the workload takes time from its replay).
    pub time_runs: u64,
    /// Energy per cause, summed (nJ).
    pub cause_nj: [u64; CAUSE_COUNT],
}

impl Sim {
    /// Folds one EaseIO run's ledger in.
    pub fn add_run(&mut self, s: &RunStats) {
        self.units += 1;
        self.time_us += s.total_time_us();
        self.time_runs += 1;
        for (t, c) in self.cause_nj.iter_mut().zip(s.cause_energy_nj) {
            *t += c;
        }
    }

    /// Mean energy per unit of one cause (µJ).
    pub fn cause_uj(&self, cause: EnergyCause) -> f64 {
        per_unit_uj(self.cause_nj[cause.index()], self.units)
    }

    /// Mean energy per unit (µJ).
    pub fn energy_uj(&self) -> f64 {
        per_unit_uj(self.cause_nj.iter().sum(), self.units)
    }

    /// Mean waste energy per unit (µJ): re-executed compute, redundant
    /// I/O and retries.
    pub fn waste_uj(&self) -> f64 {
        let waste = EnergyCause::ALL
            .iter()
            .filter(|c| c.is_waste())
            .map(|c| self.cause_nj[c.index()])
            .sum();
        per_unit_uj(waste, self.units)
    }
}

fn per_unit_uj(nj: u64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        nj as f64 / units as f64 / 1e3
    }
}
