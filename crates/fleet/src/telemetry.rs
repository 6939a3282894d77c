//! Bounded-memory fleet aggregation.
//!
//! [`FleetAgg`] is the single definition of "what a fleet report counts":
//! outcome tallies, the fleet-wide energy ledger, power-failure totals, and
//! distribution sketches over per-device wall-clock, on-time, and energy.
//! The fleet and rollout engines ([`crate::run_fleet`],
//! [`crate::run_rollout`]) give every pool worker its own `FleetAgg`, fold
//! each device in through [`FleetAgg::observe`] as it completes, and
//! [`FleetAgg::merge`] the per-worker aggregates afterwards.
//!
//! Every fold operation here is commutative and associative — u64 sums,
//! counter increments, sketch bucket adds, max — so the merged aggregate
//! is independent of which worker ran which device. That is the property
//! that makes the report byte-identical at any `--jobs` width (and equal
//! to a serial fold of the device-ordered results), while holding
//! O(workers) memory instead of O(devices).

use crate::DeviceResult;
use easeio_trace::fleet::{FleetEnergyDoc, FleetOutcomesDoc, FleetStragglerDoc};
use easeio_trace::Sketch;
use kernel::{Outcome, Verdict};
use mcu_emu::CAUSE_COUNT;

/// Running fleet-wide aggregate; ~45 KB flat regardless of fleet size.
#[derive(Debug, Default)]
pub struct FleetAgg {
    outcomes: FleetOutcomesDoc,
    energy: FleetEnergyDoc,
    power_failures: u64,
    /// Per-device total wall-clock (µs) — the straggler distribution.
    wall: Sketch,
    /// Per-device on-time (µs).
    on: Sketch,
    /// Per-device total energy (nJ).
    device_energy: Sketch,
}

impl FleetAgg {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one device's result in.
    pub fn observe(&mut self, r: &DeviceResult) {
        match r.outcome {
            Outcome::Completed => self.outcomes.completed += 1,
            Outcome::NonTermination => self.outcomes.non_terminated += 1,
            Outcome::Fault(_) => self.outcomes.faulted += 1,
        }
        match &r.verdict {
            Some(Verdict::Correct) => self.outcomes.correct += 1,
            Some(Verdict::Incorrect(_)) => self.outcomes.incorrect += 1,
            None => self.outcomes.unverified += 1,
        }
        self.energy.total_time_us += r.stats.total_time_us();
        let device_energy = r.stats.total_energy_nj();
        self.energy.total_energy_nj += device_energy;
        for i in 0..CAUSE_COUNT {
            self.energy.cause_energy_nj[i] += r.stats.cause_energy_nj[i];
        }
        self.power_failures += r.stats.power_failures;
        self.wall.record(r.wall_us);
        self.on.record(r.on_us);
        self.device_energy.record(device_energy);
    }

    /// Folds another aggregate in (the engines' per-worker merge).
    pub fn merge(&mut self, other: &FleetAgg) {
        let o = &other.outcomes;
        self.outcomes.completed += o.completed;
        self.outcomes.non_terminated += o.non_terminated;
        self.outcomes.faulted += o.faulted;
        self.outcomes.correct += o.correct;
        self.outcomes.incorrect += o.incorrect;
        self.outcomes.unverified += o.unverified;
        self.energy.total_time_us += other.energy.total_time_us;
        self.energy.total_energy_nj += other.energy.total_energy_nj;
        for i in 0..CAUSE_COUNT {
            self.energy.cause_energy_nj[i] += other.energy.cause_energy_nj[i];
        }
        self.power_failures += other.power_failures;
        self.wall.merge(&other.wall);
        self.on.merge(&other.on);
        self.device_energy.merge(&other.device_energy);
    }

    /// Devices folded in so far.
    pub fn devices(&self) -> u64 {
        self.wall.count()
    }

    /// Per-device outcome tally.
    pub fn outcomes(&self) -> FleetOutcomesDoc {
        self.outcomes.clone()
    }

    /// Fleet-wide energy ledger.
    pub fn energy(&self) -> FleetEnergyDoc {
        self.energy.clone()
    }

    /// Power-failure reboots summed across the fleet.
    pub fn power_failures(&self) -> u64 {
        self.power_failures
    }

    /// Straggler percentiles over per-device wall-clock, read from the
    /// sketch: p50/p90/p99 are bucket-floor estimates (within 1/32 of the
    /// exact rank value), the max is exact.
    pub fn stragglers(&self) -> FleetStragglerDoc {
        FleetStragglerDoc {
            p50_wall_us: self.wall.quantile(50),
            p90_wall_us: self.wall.quantile(90),
            p99_wall_us: self.wall.quantile(99),
            max_wall_us: self.wall.max(),
        }
    }

    /// The wall-clock sketch (straggler depth).
    pub fn wall(&self) -> &Sketch {
        &self.wall
    }

    /// The on-time sketch.
    pub fn on(&self) -> &Sketch {
        &self.on
    }

    /// The per-device energy sketch.
    pub fn device_energy(&self) -> &Sketch {
        &self.device_energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcu_emu::RunStats;

    fn result(device: u32, wall_us: u64, outcome: Outcome) -> DeviceResult {
        DeviceResult {
            device,
            seed: device as u64,
            outcome,
            verdict: Some(Verdict::Correct),
            wall_us,
            on_us: wall_us / 2,
            stats: RunStats::new(),
            packets: Vec::new(),
        }
    }

    #[test]
    fn merged_worker_aggregates_equal_the_serial_fold() {
        let results: Vec<DeviceResult> = (0..97u32)
            .map(|d| {
                result(
                    d,
                    (d as u64).wrapping_mul(7919) % 100_000,
                    if d % 5 == 0 {
                        Outcome::NonTermination
                    } else {
                        Outcome::Completed
                    },
                )
            })
            .collect();
        let mut serial = FleetAgg::new();
        for r in &results {
            serial.observe(r);
        }
        // Three "workers" take interleaved devices; merge in a non-worker
        // order.
        let mut workers: Vec<FleetAgg> = (0..3).map(|_| FleetAgg::new()).collect();
        for (i, r) in results.iter().enumerate() {
            workers[i % 3].observe(r);
        }
        let mut merged = FleetAgg::new();
        for k in [1usize, 2, 0] {
            merged.merge(&workers[k]);
        }
        assert_eq!(merged.devices(), serial.devices());
        assert_eq!(merged.outcomes(), serial.outcomes());
        assert_eq!(merged.power_failures(), serial.power_failures());
        assert_eq!(merged.energy().total_time_us, serial.energy().total_time_us);
        assert_eq!(merged.stragglers(), serial.stragglers());
    }

    #[test]
    fn straggler_percentiles_stay_monotone() {
        let mut agg = FleetAgg::new();
        for d in 0..500u32 {
            agg.observe(&result(d, (d as u64) * 997 + 13, Outcome::Completed));
        }
        let s = agg.stragglers();
        assert!(s.p50_wall_us <= s.p90_wall_us);
        assert!(s.p90_wall_us <= s.p99_wall_us);
        assert!(s.p99_wall_us <= s.max_wall_us);
        assert_eq!(s.max_wall_us, 499 * 997 + 13, "max is exact");
    }
}
