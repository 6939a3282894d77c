//! Every document `easeio-sim` writes, built next to the engine result it
//! renders: the run, metrics and sweep reports, the run's Chrome trace,
//! the sweep forensics bundle, the grid table, `BENCH_sweep.json` and the
//! sweep utilization document. The CLI only parses flags, prints and writes files, so a test
//! that builds a document through these functions builds the bytes the
//! tool writes. The fleet and rollout bundles live in `easeio-fleet`
//! beside `FleetOutcome::report_inputs`; every bundle's repro command
//! comes from [`repro_command`].

use apps::harness::measure_footprint;
use crashcheck::{boundary_forensics, SweepMode, SweepOutcome, SweepPlan};
use easeio_trace::report::RunReportDoc;
use easeio_trace::{
    build_profile, chrome_trace_with_counters, CounterTrack, ForensicsInputs,
    ForensicsViolationDoc, FramDiffByte, FramDiffDoc, MetricsEntry, MetricsInputs, Report,
    ReportInputs, SiteWasteRow, SkippedApp, SweepInputs, SweepTimingDoc, SweepViolation,
    SweepWasteDoc, TaskWasteRow, Value, CATEGORY_NAMES,
};
use kernel::{RetryPolicy, RunResult, Verdict};
use mcu_emu::{Mcu, DMA_SITE_BASE};
use periph::MediumSpec;

use crate::config::{AppSpec, ScenarioSpec, SupplySpec, DEFAULT_RF_DISTANCE_IN};
use crate::grid::{GridCell, GridSpec};
use crate::pool::PoolStats;
use crate::sweep::{SweepOptions, SweepTiming};

/// One sweep per entry, as [`sweep_matrix`](crate::sweep_matrix) returns it.
pub type SweepResults = [(SweepOutcome, SweepTiming)];

fn u64_arr(xs: &[u64]) -> Value {
    Value::Arr(xs.iter().map(|&n| Value::u64(n)).collect())
}

/// The run report's free-form `supply` object.
fn supply_value(supply: SupplySpec) -> Value {
    let kind = |k: &str| ("kind".to_string(), Value::str(k));
    Value::Obj(match supply {
        SupplySpec::Continuous => vec![kind("continuous")],
        SupplySpec::Timer => vec![kind("timer")],
        SupplySpec::TimerOnMs(on_ms) => vec![kind("timer"), ("on_ms".into(), Value::u64(on_ms))],
        SupplySpec::Rf(d) => vec![kind("rf"), ("distance_in".into(), Value::u64(d))],
    })
}

/// The `kind: "run"` report of one traced run `r` of `spec`'s device:
/// ledger, the paper's metrics against the continuous-power `golden`
/// `(app µs, app nJ)`, memory footprint and the event profile.
pub fn run_report(
    spec: &ScenarioSpec,
    app: &str,
    r: &RunResult,
    golden: (u64, u64),
) -> Report<RunReportDoc> {
    let kind = spec.device.kernel;
    let build = |m: &mut Mcu| spec.build_app(m).expect("the run already built this app");
    let fp = measure_footprint(&build, kind, spec.seed);
    let s = &r.stats;
    Report::new(RunReportDoc {
        inputs: ReportInputs {
            runtime: kind.name().into(),
            app: app.into(),
            supply: supply_value(spec.supply),
            seed: spec.seed,
            outcome: r.outcome.label().into(),
            correct: r.verdict.as_ref().map(|v| matches!(v, Verdict::Correct)),
            wall_us: r.wall_us,
            on_us: r.on_us,
            app_time_us: s.app_time_us,
            overhead_time_us: s.overhead_time_us,
            app_energy_nj: s.app_energy_nj,
            overhead_energy_nj: s.overhead_energy_nj,
            golden_app_time_us: golden.0,
            golden_app_energy_nj: golden.1,
            power_failures: s.power_failures,
            task_attempts: s.task_attempts,
            task_commits: s.task_commits,
            io_executed: s.io_executed,
            io_skipped: s.io_skipped,
            io_reexecutions: s.io_reexecutions,
            dma_executed: s.dma_executed,
            dma_skipped: s.dma_skipped,
            dma_reexecutions: s.dma_reexecutions,
            memory: Some((fp.text, fp.ram, fp.fram)),
            events_recorded: r.events.len() as u64,
            events_dropped: r.events_dropped,
        },
        profile: build_profile(&r.events),
    })
}

/// The Chrome `trace_event` document of one traced run `r` of `spec`'s
/// device, with its cumulative per-cause energy as a counter track.
pub fn run_chrome_trace(spec: &ScenarioSpec, app: &str, r: &RunResult) -> Value {
    let counters = [CounterTrack {
        name: "energy by cause (nJ)".into(),
        series: CATEGORY_NAMES.iter().map(|n| (*n).to_string()).collect(),
        samples: r
            .cause_samples
            .iter()
            .map(|s| (s.ts_us, s.energy_nj.to_vec()))
            .collect(),
    }];
    let title = format!("{app} on {}", spec.device.kernel.name());
    chrome_trace_with_counters(&r.events, &title, &counters)
}

/// One run's attribution ledger as a metrics-report row.
pub fn metrics_entry(runtime: &str, app: &str, r: &RunResult) -> MetricsEntry {
    let stats = &r.stats;
    MetricsEntry {
        runtime: runtime.into(),
        app: app.into(),
        outcome: r.outcome.label().into(),
        correct: r.outcome == kernel::Outcome::Completed
            && !matches!(r.verdict, Some(Verdict::Incorrect(_))),
        reboots: stats.power_failures,
        total_time_us: stats.total_time_us(),
        total_energy_nj: stats.total_energy_nj(),
        cause_time_us: stats.cause_time_us,
        cause_energy_nj: stats.cause_energy_nj,
        tasks: stats
            .cause_energy_by_task
            .iter()
            .map(|(task, energy)| TaskWasteRow {
                task: *task,
                energy_nj: *energy,
            })
            .collect(),
        redundant_sites: stats
            .redundant_energy_by_site
            .iter()
            .map(|(key, nj)| SiteWasteRow {
                site: key & !DMA_SITE_BASE,
                dma: key & DMA_SITE_BASE != 0,
                energy_nj: *nj,
            })
            .collect(),
    }
}

/// The `kind: "metrics"` report over `entries`; `skipped` lists the apps
/// that did not run and why.
pub fn metrics_report(
    seed: u64,
    entries: Vec<MetricsEntry>,
    skipped: Vec<SkippedApp>,
) -> Report<MetricsInputs> {
    Report::new(MetricsInputs {
        seed,
        entries,
        skipped,
    })
}

/// The `kind: "sweep"` report of one sweep, host timing included
/// (`identity_document` strips it).
pub fn sweep_report(out: &SweepOutcome, timing: &SweepTiming) -> Report<SweepInputs> {
    let plan = &out.config;
    Report::new(SweepInputs {
        runtime: out.runtime.into(),
        app: out.app.into(),
        seed: plan.seed,
        off_us: plan.off_us,
        mode: plan.mode.name().into(),
        oracle_boundaries: out.oracle_boundaries,
        strict_memory: plan.strict_memory,
        injections: out.injections,
        violations: out
            .violations
            .iter()
            .map(|v| SweepViolation {
                boundary: v.boundary,
                kind: v.kind.name().into(),
                detail: v.detail.clone(),
            })
            .collect(),
        fault_spec: plan.fault.doc(),
        waste: Some(SweepWasteDoc::from_series(
            &out.boundary_waste_nj,
            CATEGORY_NAMES
                .iter()
                .zip(out.cause_energy_nj)
                .map(|(name, nj)| ((*name).to_string(), nj))
                .collect(),
        )),
        timing: Some(SweepTimingDoc {
            jobs: timing.jobs as u64,
            wall_us: timing.wall_us,
            injections_per_sec_milli: timing.injections_per_sec_milli,
            oracle_us: timing.oracle_us,
            classify_us: timing.classify_us,
            inject_us: timing.inject_us,
            merge_us: timing.merge_us,
            injections_per_worker: timing.injections_per_worker.clone(),
            busy_us_per_worker: timing.busy_us_per_worker.clone(),
            prune: Some(timing.prune.clone()),
        }),
    })
}

/// The forensics bundle for the first violation of `out`, a sweep of
/// `spec`'s device app under the plan `out` carries (built from `spec`:
/// same seed and fault spec). `None` when the sweep was clean. The bundle
/// holds the boundary and spend-seq coordinates, the fault plan, a capped
/// FRAM diff against the continuous-power oracle, and a `--boundary`
/// repro command that re-executes exactly that injection.
pub fn sweep_forensics(spec: &ScenarioSpec, out: &SweepOutcome) -> Option<Report<ForensicsInputs>> {
    let v = out.violations.first()?;
    let plan = &out.config;
    let build = |m: &mut Mcu| spec.build_app(m).expect("the sweep already built this app");
    let f = boundary_forensics(&build, spec.device.kernel, plan, v.boundary);
    Some(Report::new(ForensicsInputs {
        source: "sweep".into(),
        runtime: out.runtime.into(),
        app: out.app.into(),
        seed: plan.seed,
        violation: ForensicsViolationDoc {
            kind: v.kind.name().into(),
            detail: v.detail.clone(),
            boundary: Some(v.boundary),
            spend_seq: f.spend_seq,
            device: None,
            wave: None,
        },
        fault_spec: plan.fault.doc(),
        context: vec![
            ("oracle_boundaries".into(), f.oracle_boundaries),
            ("injections".into(), out.injections),
            ("violations".into(), out.violations.len() as u64),
            ("off_us".into(), plan.off_us),
            ("strict_memory".into(), plan.strict_memory as u64),
            ("update_window".into(), plan.update_window as u64),
        ],
        fram_diff: (f.divergent_bytes > 0).then(|| FramDiffDoc {
            divergent_bytes: f.divergent_bytes,
            first: f
                .fram_diff
                .iter()
                .map(|&(addr, oracle, observed)| FramDiffByte {
                    addr,
                    oracle,
                    observed,
                })
                .collect(),
        }),
        repro_command: repro_command(
            spec,
            &Replay::Sweep {
                plan,
                boundary: v.boundary,
            },
        ),
    }))
}

/// Which `easeio-sim` invocation a repro command replays.
#[derive(Debug, Clone, Copy)]
pub enum Replay<'a> {
    /// `sweep --boundary B` under `plan`.
    Sweep {
        /// The sweep's plan.
        plan: &'a SweepPlan,
        /// The one boundary to inject at.
        boundary: u64,
    },
    /// A plain `fleet` run that must put a duplicate on the air.
    Fleet,
    /// A `fleet --rollout` that must tear an image or double-activate.
    Rollout {
        /// Devices offered the update per wave.
        wave_size: u64,
        /// Image sequence rolled out.
        target_seq: u64,
        /// Whether a wave regression stops the rollout.
        abort_on_regression: bool,
    },
}

/// Renders `spec` back into the ready-to-paste `easeio-sim` command that
/// replays `replay`, with its verdict flag inverted so the replay exits 0
/// only if the violation recurs. Flags left at their CLI defaults (timer
/// supply, 61 in. RF distance, default airtimes, default retry budget
/// without a fault plan) are omitted, so a default scenario keeps its
/// historical command.
pub fn repro_command(spec: &ScenarioSpec, replay: &Replay) -> String {
    let (subcommand, verdict) = match replay {
        Replay::Sweep { .. } => ("sweep", "--expect-violations"),
        Replay::Fleet => ("fleet", "--expect-duplicates"),
        Replay::Rollout { .. } => ("fleet --rollout", "--expect-update-violations"),
    };
    let fleet = !matches!(replay, Replay::Sweep { .. });
    let mut cmd = format!("easeio-sim {subcommand}");
    if fleet {
        cmd += &format!(" --devices {}", spec.count);
    }
    // A rollout pins its app to the OTA update.
    if !matches!(replay, Replay::Rollout { .. }) {
        cmd += &match &spec.device.app {
            AppSpec::Named(n) => format!(" --app {n}"),
            AppSpec::Source(p) => format!(" --source {p}"),
        };
    }
    cmd += &format!(
        " --kernel {} --seed {}",
        spec.device.kernel.cli_name(),
        spec.seed
    );
    match replay {
        Replay::Sweep { plan, boundary } => {
            cmd += &format!(" --off-us {} --boundary {boundary}", plan.off_us)
        }
        Replay::Rollout {
            wave_size,
            target_seq,
            ..
        } => cmd += &format!(" --wave-size {wave_size} --target-seq {target_seq}"),
        Replay::Fleet => {}
    }
    if fleet {
        cmd += &format!(
            " --loss {} --medium-seed {}",
            spec.medium.loss_permille, spec.medium.seed
        );
    }
    match spec.supply {
        // The grid's on-time axis has no flag; the CLI default is `timer`.
        SupplySpec::Timer | SupplySpec::TimerOnMs(_) => {}
        SupplySpec::Continuous => cmd += " --supply continuous",
        SupplySpec::Rf(d) => {
            cmd += " --supply rf";
            if d != DEFAULT_RF_DISTANCE_IN {
                cmd += &format!(" --distance {d}");
            }
        }
    }
    let airtime = MediumSpec::ideal();
    if spec.medium.airtime_base_us != airtime.airtime_base_us {
        cmd += &format!(" --airtime-base-us {}", spec.medium.airtime_base_us);
    }
    if spec.medium.airtime_us_per_word != airtime.airtime_us_per_word {
        cmd += &format!(" --airtime-word-us {}", spec.medium.airtime_us_per_word);
    }
    match replay {
        Replay::Sweep { plan, .. } if plan.strict_memory => cmd += " --strict-memory",
        Replay::Rollout {
            abort_on_regression: false,
            ..
        } => cmd += " --no-abort",
        _ => {}
    }
    let retries = spec.device.fault.retry.max_retries;
    match spec.device.fault.plan {
        Some(p) => {
            cmd += &format!(
                " --fault-rate {} --fault-seed {} --max-retries {retries}",
                p.rate_permille, p.seed
            )
        }
        // The retry budget also bounds a rollout's downlink attempts.
        None if retries != RetryPolicy::default().max_retries => {
            cmd += &format!(" --max-retries {retries}")
        }
        None => {}
    }
    format!("{cmd} {verdict}")
}

/// The `easeio-sim grid` table of `app` over `spec`, host timing from the
/// pool record included.
pub fn grid_report(app: &AppSpec, spec: &GridSpec, cells: &[GridCell], pool: &PoolStats) -> Value {
    let rows = cells
        .iter()
        .map(|c| {
            Value::Obj(vec![
                ("kernel".into(), Value::str(c.kernel)),
                ("supply".into(), Value::str(c.supply.clone())),
                ("completed".into(), Value::u64(c.completed)),
                ("correct".into(), Value::u64(c.correct)),
                ("mean_wall_us".into(), Value::u64(c.mean_wall_us)),
                ("mean_on_us".into(), Value::u64(c.mean_on_us)),
                ("mean_failures".into(), Value::u64(c.mean_failures)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("tool".into(), Value::str("easeio-sim grid")),
        ("app".into(), Value::str(app.label().to_string())),
        ("runs".into(), Value::u64(spec.runs)),
        ("seed".into(), Value::u64(spec.seed)),
        ("cells".into(), Value::Arr(rows)),
        (
            "timing".into(),
            Value::Obj(vec![
                ("jobs".into(), Value::u64(pool.jobs as u64)),
                ("wall_us".into(), Value::u64(pool.wall_us)),
            ]),
        ),
    ])
}

/// `BENCH_sweep.json`: one sweep matrix run under `opts` (`mode`, `seed`
/// shared by every entry) that took `wall_us` end to end, its totals, and
/// a row per app. `serial` is the unpruned `--jobs 1` re-run of the same
/// matrix and its wall time, when one was recorded; it adds the speedup.
pub fn sweep_bench(
    results: &SweepResults,
    opts: &SweepOptions,
    mode: SweepMode,
    seed: u64,
    wall_us: u64,
    serial: Option<(&SweepResults, u64)>,
) -> Value {
    let sum = |f: fn(&(SweepOutcome, SweepTiming)) -> u64| results.iter().map(f).sum::<u64>();
    let injections = sum(|(o, _)| o.injections);
    let apps = results
        .iter()
        .enumerate()
        .map(|(i, (out, timing))| {
            let p = &timing.prune;
            let mut entry = vec![
                ("app".into(), Value::str(out.app)),
                ("runtime".into(), Value::str(out.runtime)),
                ("injections".into(), Value::u64(out.injections)),
                (
                    "injections_executed".into(),
                    Value::u64(p.injections_executed),
                ),
                ("injections_pruned".into(), Value::u64(p.injections_pruned)),
                ("violations".into(), Value::u64(out.violations.len() as u64)),
                ("checkpoints".into(), Value::u64(p.checkpoints)),
                ("resumed".into(), Value::u64(p.resumed)),
                ("cut".into(), Value::u64(p.cut)),
                ("slices_executed".into(), Value::u64(p.slices_executed)),
                // Summed worker busy time on this app's batches, not
                // elapsed time: apps share one pool, so their spans overlap.
                ("busy_us".into(), Value::u64(timing.wall_us)),
            ];
            if let Some(rate) = timing.injections_per_sec_milli {
                entry.push(("injections_per_sec_milli".into(), Value::u64(rate)));
            }
            // Per-app times sum worker busy spans, which preemption
            // inflates when workers outnumber cores — so the honest
            // speedup (elapsed vs elapsed) is reported only at the matrix
            // level, never per app.
            if let Some((serial, _)) = serial {
                entry.push(("serial_wall_us".into(), Value::u64(serial[i].1.wall_us)));
            }
            Value::Obj(entry)
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("tool".into(), Value::str("easeio-sim sweep")),
        ("nproc".into(), Value::u64(nproc as u64)),
        ("jobs".into(), Value::u64(opts.jobs as u64)),
        ("mode".into(), Value::str(mode.name())),
        ("seed".into(), Value::u64(seed)),
        ("prune".into(), Value::Bool(opts.prune)),
        ("injections".into(), Value::u64(injections)),
        (
            "injections_executed".into(),
            Value::u64(sum(|(_, t)| t.prune.injections_executed)),
        ),
        (
            "injections_pruned".into(),
            Value::u64(sum(|(_, t)| t.prune.injections_pruned)),
        ),
        (
            "violations".into(),
            Value::u64(sum(|(o, _)| o.violations.len() as u64)),
        ),
        ("wall_us".into(), Value::u64(wall_us)),
        (
            "injections_per_sec_milli".into(),
            Value::u64(
                (injections * 1_000_000_000)
                    .checked_div(wall_us)
                    .unwrap_or(0),
            ),
        ),
    ];
    if let Some((_, serial_wall_us)) = serial {
        fields.push(("serial_wall_us".into(), Value::u64(serial_wall_us)));
        fields.push((
            "speedup_milli".into(),
            Value::u64((serial_wall_us * 1000).checked_div(wall_us).unwrap_or(0)),
        ));
    }
    fields.push(("apps".into(), Value::Arr(apps)));
    Value::Obj(fields)
}

/// Per-worker utilization of the pool one sweep matrix shared, totalled
/// and per app: where `--jobs N` actually went.
pub fn sweep_utilization(results: &SweepResults, wall_us: u64) -> Value {
    let jobs = results.first().map_or(1, |(_, t)| t.jobs);
    let mut busy_us_per_worker = vec![0u64; jobs];
    let mut injections_per_worker = vec![0u64; jobs];
    let mut apps = Vec::with_capacity(results.len());
    for (out, timing) in results {
        for w in 0..timing.jobs.min(jobs) {
            busy_us_per_worker[w] += timing.busy_us_per_worker[w];
            injections_per_worker[w] += timing.injections_per_worker[w];
        }
        apps.push(Value::Obj(vec![
            ("app".into(), Value::str(out.app)),
            ("runtime".into(), Value::str(out.runtime)),
            (
                "injections_per_worker".into(),
                u64_arr(&timing.injections_per_worker),
            ),
            (
                "busy_us_per_worker".into(),
                u64_arr(&timing.busy_us_per_worker),
            ),
        ]));
    }
    Value::Obj(vec![
        ("tool".into(), Value::str("easeio-sim sweep")),
        ("jobs".into(), Value::u64(jobs as u64)),
        ("wall_us".into(), Value::u64(wall_us)),
        (
            "injections_per_worker".into(),
            u64_arr(&injections_per_worker),
        ),
        ("busy_us_per_worker".into(), u64_arr(&busy_us_per_worker)),
        ("apps".into(), Value::Arr(apps)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceSpec;
    use kernel::{FaultSpec, KernelKind};

    fn naive(app: &str, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            device: DeviceSpec {
                app: AppSpec::Named(app.into()),
                kernel: KernelKind::Naive,
                ..DeviceSpec::default()
            },
            seed,
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn default_scenarios_keep_their_historical_repro_commands() {
        let plan = SweepPlan {
            strict_memory: true,
            update_window: true,
            ..SweepPlan::with_env_seed(7)
        };
        let sweep = Replay::Sweep {
            plan: &plan,
            boundary: 27,
        };
        assert_eq!(
            repro_command(&naive("ota-update", 7), &sweep),
            "easeio-sim sweep --app ota-update --kernel naive --seed 7 --off-us 100000 \
             --boundary 27 --strict-memory --expect-violations"
        );
        let mut fleet = naive("flaky-radio", 42);
        fleet.count = 64;
        fleet.medium = MediumSpec::lossy(42, 100);
        fleet.device.fault = FaultSpec::with_rate(42, 50);
        assert_eq!(
            repro_command(&fleet, &Replay::Fleet),
            "easeio-sim fleet --devices 64 --app flaky-radio --kernel naive --seed 42 \
             --loss 100 --medium-seed 42 --fault-rate 50 --fault-seed 42 --max-retries 4 \
             --expect-duplicates"
        );
        let rollout = Replay::Rollout {
            wave_size: 32,
            target_seq: 2,
            abort_on_regression: false,
        };
        fleet.device.fault = FaultSpec::none();
        assert_eq!(
            repro_command(&fleet, &rollout),
            "easeio-sim fleet --rollout --devices 64 --kernel naive --seed 42 \
             --wave-size 32 --target-seq 2 --loss 100 --medium-seed 42 --no-abort \
             --expect-update-violations"
        );
    }

    #[test]
    fn sweep_bench_keeps_the_committed_keys() {
        let app = AppSpec::Named("dma".into());
        let builder = |m: &mut Mcu| app.build(KernelKind::EaseIo, m).unwrap();
        let entries = [crate::SweepEntry {
            builder: &builder,
            kind: KernelKind::EaseIo,
            plan: SweepPlan {
                mode: SweepMode::Sample(4),
                ..SweepPlan::with_env_seed(7)
            },
        }];
        let opts = SweepOptions::default();
        let results = crate::sweep_matrix(&entries, &opts);
        let doc = sweep_bench(
            &results,
            &opts,
            SweepMode::Sample(4),
            7,
            1,
            Some((&results, 2)),
        );
        let committed = include_str!("../../../BENCH_sweep.json");
        let committed = easeio_trace::parse_json(committed).unwrap();
        let keys = |v: &Value| match v {
            Value::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys(&doc), keys(&committed));
        // A row's throughput is omitted when its wall time rounds to 0 µs.
        let app_keys = |v: &Value| {
            let mut k = keys(&v.get("apps").and_then(Value::as_arr).unwrap()[0]);
            k.retain(|k| k != "injections_per_sec_milli");
            k
        };
        assert_eq!(app_keys(&doc), app_keys(&committed));
    }

    #[test]
    fn non_default_supply_and_airtime_ride_in_the_repro_command() {
        let mut spec = naive("flaky-radio", 3);
        spec.count = 8;
        spec.medium.airtime_base_us = 40;
        spec.medium.airtime_us_per_word = 6;
        spec.device.fault.retry.max_retries = 2;
        for (supply, flags) in [
            (SupplySpec::Rf(66), " --supply rf --distance 66 "),
            (
                SupplySpec::Rf(DEFAULT_RF_DISTANCE_IN),
                " --supply rf --airtime",
            ),
            (SupplySpec::Continuous, " --supply continuous "),
        ] {
            spec.supply = supply;
            let cmd = repro_command(&spec, &Replay::Fleet);
            assert!(cmd.contains(flags), "{cmd}");
            assert!(
                cmd.contains(" --airtime-base-us 40 --airtime-word-us 6 --max-retries 2 "),
                "{cmd}"
            );
        }
    }
}
