//! `sweep-matrix`: the exhaustive, pruned power-failure sweep over every
//! built-in app on one shared pool (`exec::sweep_matrix`). A unit is one
//! boundary checked, whether executed or pruned.
//!
//! The replay walks the same sweep serially through
//! `crashcheck::{prepare_oracle, reference_trace, classify_boundaries,
//! check_record, materialize_record}`, timing `Mcu::restore` and
//! `kernel::run_app` as separate calls, and must rebuild the identical
//! `SweepOutcome`s. The sweep's outcome carries no simulated time, so
//! `sim_time_ms` here is the mean on-time of the injected runs the replay
//! executed.

use crate::fleet::pool_layer;
use crate::spans::Tracer;
use crate::tally::{Fnv, Sim, Tally};
use crate::{Bench, Opts, Pass, Replay};
use apps::harness::MakeRuntime;
use crashcheck::{
    app_fram, check_record, classify_boundaries, materialize_record, prepare_oracle,
    reference_trace, select_boundaries, RunRecord, SweepMode, SweepOutcome, SweepPlan,
};
use easeio_exec::{sweep_matrix, AppSpec, PoolStats, SweepEntry, SweepOptions, APP_NAMES};
use kernel::{run_app, App, ExecConfig, FaultSpec, KernelKind};
use mcu_emu::{Mcu, Supply, CAUSE_COUNT};
use periph::Peripherals;
use std::time::Instant;

/// Outage after each injected failure (µs), the sweep CLI's default.
const OFF_US: u64 = 100_000;

/// Apps of the tiny (test-only) sweep: everything except the long ones.
const TINY_APPS: [&str; 5] = ["dma", "temp", "fir", "branch", "ota-update"];

type AppBuilder = Box<dyn Fn(&mut Mcu) -> App + Sync>;

/// The `sweep-matrix` workload.
pub struct SweepMatrix;

/// Built apps and plans, one per matrix entry.
pub struct Prep {
    names: Vec<&'static str>,
    builders: Vec<AppBuilder>,
    plans: Vec<SweepPlan>,
    kind: KernelKind,
}

impl Prep {
    fn entries(&self) -> Vec<SweepEntry<'_>> {
        self.builders
            .iter()
            .zip(&self.plans)
            .map(|(b, plan)| SweepEntry {
                builder: b.as_ref(),
                kind: self.kind,
                plan: plan.clone(),
            })
            .collect()
    }
}

fn outcomes_digest(outcomes: &[SweepOutcome]) -> u64 {
    let mut h = Fnv::default();
    for o in outcomes {
        h.debug(o);
    }
    h.0
}

/// Boundaries with at least one violation.
fn failed_boundaries(o: &SweepOutcome) -> u64 {
    let mut b: Vec<u64> = o.violations.iter().map(|v| v.boundary).collect();
    b.dedup();
    b.len() as u64
}

impl Bench for SweepMatrix {
    type Prep = Prep;

    fn setup(&self, o: &Opts, tr: &mut Tracer) -> Result<Prep, String> {
        let names: Vec<&'static str> = if o.tiny {
            TINY_APPS.to_vec()
        } else {
            APP_NAMES.to_vec()
        };
        let mut builders = Vec::new();
        let mut plans = Vec::new();
        for &name in &names {
            let spec = AppSpec::Named(name.into());
            // Probe-build and snapshot the template, as the sweep CLI does
            // before committing to a long sweep.
            let mut probe = Mcu::new(Supply::continuous());
            tr.span("apps.build", name, |_| spec.build(o.kernel, &mut probe))?;
            tr.span("mcu-emu.snapshot", name, |_| probe.snapshot());
            plans.push(SweepPlan {
                mode: SweepMode::Exhaustive,
                seed: o.seed,
                off_us: OFF_US,
                strict_memory: spec.is_deterministic(),
                update_window: false,
                env_seed: o.seed,
                fault: FaultSpec::none(),
            });
            let kernel = o.kernel;
            builders.push(Box::new(move |m: &mut Mcu| {
                spec.build(kernel, m).expect("probe-built during setup")
            }) as AppBuilder);
        }
        Ok(Prep {
            names,
            builders,
            plans,
            kind: o.kernel,
        })
    }

    fn pass(&self, o: &Opts, prep: &Prep) -> Result<Pass, String> {
        let entries = prep.entries();
        let t0 = Instant::now();
        let results = sweep_matrix(
            &entries,
            &SweepOptions {
                jobs: o.jobs,
                prune: true,
            },
        );
        let wall_s = t0.elapsed().as_secs_f64();

        let mut p = Pass {
            wall_s,
            ..Pass::default()
        };
        let mut sim = Sim::default();
        let (mut batches, mut oracle_us, mut classify_us, mut inject_us, mut merge_us) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut busy: Vec<u64> = Vec::new();
        let mut jobs = 1usize;
        for (name, (out, t)) in prep.names.iter().zip(&results) {
            p.units += out.injections;
            p.failed += failed_boundaries(out);
            sim.units += out.injections;
            for (s, c) in sim.cause_nj.iter_mut().zip(out.cause_energy_nj) {
                *s += c;
            }
            let checked = t.prune.injections_executed + t.prune.injections_pruned;
            if checked != out.injections || out.boundary_waste_nj.len() as u64 != out.injections {
                p.problems.push(format!(
                    "{name}: executed {} + pruned {} != {} injections checked",
                    t.prune.injections_executed, t.prune.injections_pruned, out.injections
                ));
            }
            batches += t.batches;
            oracle_us += t.oracle_us;
            classify_us += t.classify_us;
            inject_us += t.inject_us;
            merge_us += t.merge_us;
            jobs = jobs.max(t.jobs);
            if busy.len() < t.busy_us_per_worker.len() {
                busy.resize(t.busy_us_per_worker.len(), 0);
            }
            for (b, w) in busy.iter_mut().zip(&t.busy_us_per_worker) {
                *b += w;
            }
        }
        let outcomes: Vec<SweepOutcome> = results.into_iter().map(|(o, _)| o).collect();
        p.digest = outcomes_digest(&outcomes);
        p.sim = sim;

        // The pool runs only between the serial oracle/classify stage and
        // the serial judge stage; its wall time is what the call spent
        // outside them.
        let max_busy_us = busy.iter().copied().max().unwrap_or(0);
        let pool = PoolStats {
            jobs,
            items_per_worker: Vec::new(),
            indices_per_worker: Vec::new(),
            busy_us_per_worker: busy,
            wall_us: ((wall_s * 1e6) as u64)
                .saturating_sub(oracle_us + classify_us + merge_us)
                .max(max_busy_us),
        };
        p.layer = pool_layer(&pool);
        p.layer.extend([
            ("exec.sweep.batches", batches as f64),
            ("exec.sweep.oracle_s", oracle_us as f64 / 1e6),
            ("exec.sweep.classify_s", classify_us as f64 / 1e6),
            ("exec.sweep.inject_s", inject_us as f64 / 1e6),
            ("exec.sweep.merge_s", merge_us as f64 / 1e6),
        ]);
        Ok(p)
    }

    fn replay(&self, _o: &Opts, prep: &Prep, tr: &mut Tracer) -> Result<Replay, String> {
        let t0 = Instant::now();
        let mut tally = Tally::default();
        let mut outcomes = Vec::new();
        let mut unit = 0u64;
        let mut executed = 0u64;
        for ((&name, builder), plan) in prep.names.iter().zip(&prep.builders).zip(&prep.plans) {
            let kind = prep.kind;
            let oracle = tr.span("crashcheck.prepare_oracle", name, |_| {
                prepare_oracle(builder.as_ref(), kind, plan.env_seed)
            });
            let chosen = select_boundaries(oracle.boundaries, plan.mode, plan.seed);
            let mut mcu = Mcu::new(Supply::continuous());
            let app = tr.span("apps.build", name, |_| builder(&mut mcu));
            let trace = tr.span("crashcheck.reference_trace", name, |_| {
                reference_trace(
                    &app,
                    kind,
                    &mut mcu,
                    &oracle.snapshot,
                    plan.env_seed,
                    &plan.fault,
                )
            });
            let classes = tr.span("crashcheck.classify", name, |_| {
                classify_boundaries(&chosen, &trace)
            });
            executed += classes.reps.len() as u64;
            let records: Vec<RunRecord> = tr.span("crashcheck.inject", name, |tr| {
                classes
                    .reps
                    .iter()
                    .map(|&b| {
                        tr.set_unit(unit + b);
                        injected_run(
                            tr,
                            &mut tally,
                            &app,
                            kind,
                            &mut mcu,
                            &oracle.snapshot,
                            b,
                            plan,
                        )
                    })
                    .collect()
            });

            let mut violations = Vec::new();
            let mut boundary_waste_nj = Vec::with_capacity(chosen.len());
            let mut cause_energy_nj = [0u64; CAUSE_COUNT];
            for (j, &b) in chosen.iter().enumerate() {
                tr.set_unit(unit + b);
                let c = classes.class_of[j];
                let rep_b = classes.reps[c];
                let materialized;
                let r = if b == rep_b {
                    &records[c]
                } else {
                    materialized = tr.span("crashcheck.materialize", name, |_| {
                        materialize_record(&trace, &records[c], rep_b, b)
                    });
                    &materialized
                };
                violations.extend(tr.span("crashcheck.check_record", name, |_| {
                    check_record(r, &oracle.fram, b, plan.strict_memory)
                }));
                boundary_waste_nj.push(r.waste_nj);
                for (t, c) in cause_energy_nj.iter_mut().zip(r.cause_energy_nj) {
                    *t += c;
                }
            }
            unit += oracle.boundaries;
            outcomes.push(SweepOutcome {
                runtime: kind.name(),
                app: oracle.app,
                env_seed: plan.env_seed,
                config: plan.clone(),
                oracle_boundaries: oracle.boundaries,
                injections: chosen.len() as u64,
                violations,
                boundary_waste_nj,
                cause_energy_nj,
            });
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let violations: u64 = outcomes.iter().map(|o| o.violations.len() as u64).sum();
        let units: u64 = outcomes.iter().map(|o| o.injections).sum();
        let slices_per_injection = tally.slices as f64 / tally.runs.max(1) as f64;
        Ok(Replay {
            wall_s,
            units,
            digest: outcomes_digest(&outcomes),
            tally,
            layer: vec![
                ("crashcheck.violations", violations as f64),
                ("crashcheck.slices_per_injection", slices_per_injection),
                (
                    "crashcheck.executed_ratio",
                    executed as f64 / units.max(1) as f64,
                ),
            ],
        })
    }
}

/// `crashcheck::run_from`, with the restore and the run as separate spans.
#[allow(clippy::too_many_arguments)]
fn injected_run(
    tr: &mut Tracer,
    tally: &mut Tally,
    app: &App,
    kind: KernelKind,
    mcu: &mut Mcu,
    snap: &mcu_emu::McuSnapshot,
    boundary: u64,
    plan: &SweepPlan,
) -> RunRecord {
    tr.span("mcu-emu.restore", "", |_| mcu.restore(snap));
    tally.restores += 1;
    mcu.supply = Supply::injected(boundary, plan.off_us);
    let mut periph = Peripherals::new(plan.env_seed);
    plan.fault.apply(&mut periph);
    let mut rt = kind.make();
    let cfg = ExecConfig {
        retry: plan.fault.retry,
        ..ExecConfig::default()
    };
    let r = tr.span("kernel.run_app", "", |_| {
        run_app(app, rt.as_mut(), mcu, &mut periph, &cfg)
    });
    tally.add(&r.stats);
    RunRecord {
        outcome: r.outcome,
        verdict: r.verdict,
        boundaries: r.stats.boundaries,
        single_redundant: r.stats.counter("probe_single_redundant"),
        timely_stale: r.stats.counter("probe_timely_stale"),
        commit_overpriced: r.stats.counter("probe_commit_overpriced"),
        retry_duplicated_effect: r.stats.counter("probe_retry_duplicated_effect"),
        degraded_staleness_exceeded: r.stats.counter("probe_degraded_staleness_exceeded"),
        version_torn: r.stats.counter("probe_version_torn"),
        cause_energy_nj: r.stats.cause_energy_nj,
        total_energy_nj: r.stats.app_energy_nj + r.stats.overhead_energy_nj,
        waste_nj: r.stats.waste_energy_nj(),
        attribution_balanced: r.stats.attribution_balanced(),
        fram: app_fram(mcu),
    }
}
