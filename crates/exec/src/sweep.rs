//! The parallel, pruning crash-consistency sweep engine.
//!
//! [`run_sweep`] (one app×runtime) and [`sweep_matrix`] (many, over one
//! shared worker pool) produce [`SweepOutcome`]s byte-identical to
//! `crashcheck::sweep` at any `--jobs` width, pruned or not. The identity
//! argument:
//!
//! * **Same boundary set.** The coordinator runs `prepare_oracle` once per
//!   entry and selects boundaries with the same `select_boundaries(total,
//!   mode, seed)` call the serial sweep makes — worker count and pruning
//!   never enter the selection.
//! * **Same per-boundary run.** Every *executed* injected run starts from
//!   the shared post-construction snapshot via `crashcheck::run_from`:
//!   restored machine, fresh peripherals seeded from `env_seed`, fresh
//!   kernel. A run's record is a function of (snapshot, boundary, plan)
//!   alone. Workers build their own `App` on their own machine — task
//!   bodies are `Rc` closures and cannot cross threads — but the allocator
//!   cursors in the snapshot are deterministic, so every worker's app binds
//!   identical addresses.
//! * **Pruning preserves records.** With pruning on, only one boundary per
//!   equivalence class (`crashcheck::classify_boundaries`) is executed; the
//!   rest are materialized by `crashcheck::materialize_record`, which is
//!   exact — same-class boundaries interrupt the same spend call over the
//!   same machine state and differ only in additive ledger prefixes the
//!   reference trace recorded (see DESIGN.md §14).
//! * **Same judgement.** Violations come from the shared
//!   `crashcheck::check_record`, applied on the coordinator in boundary
//!   order over real and materialized records alike.
//! * **Canonical merge.** Batches are contiguous chunks of each entry's
//!   (sorted) executed-boundary list and the pool returns batch results in
//!   item order, so the per-entry record sequence — and with it the
//!   violation order — reproduces the serial loop exactly.
//!
//! Fan-out is cheap because each snapshot is an `Arc` around a
//! copy-on-write image: a worker's first restore adopts it with one full
//! copy, and every restore after that copies only the pages the previous
//! run dirtied (see `mcu_emu::memory`). [`sweep_matrix`] additionally
//! spawns its workers *once* for the whole app×runtime matrix — workers
//! keep per-entry machines in a local cache — so short sweeps no longer
//! pay a pool spawn/join plus N full snapshot adoptions each.

use apps::harness::RuntimeKind;
use crashcheck::{
    check_record, classify_boundaries, filter_update_window, materialize_record, prepare_oracle,
    reference_trace, run_from, select_boundaries, BoundaryTrace, PruneClasses, RunRecord,
    SweepOracle, SweepOutcome, SweepPlan, Violation,
};
use easeio_trace::Progress;
use kernel::App;
use mcu_emu::{Mcu, Supply, CAUSE_COUNT};
use std::collections::HashMap;
use std::time::Instant;

use crate::pool::run_indexed;

/// Knobs of the sweep engine that do not affect outcome identity.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Worker threads.
    pub jobs: usize,
    /// Injection-point equivalence pruning: execute one boundary per
    /// equivalence class and materialize the rest from its record.
    pub prune: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            jobs: 1,
            prune: true,
        }
    }
}

/// What pruning did to one sweep.
#[derive(Debug, Clone, Default)]
pub struct PruneStats {
    /// Whether pruning was enabled for this sweep.
    pub enabled: bool,
    /// Injected runs actually executed (class representatives).
    pub injections_executed: u64,
    /// Injected runs skipped and materialized from a representative.
    pub injections_pruned: u64,
    /// Equivalence classes over the chosen boundaries.
    pub classes: u64,
    /// The reference run observed wall-clock time, so classification
    /// refused to merge anything (every class a singleton).
    pub time_observed: bool,
}

/// How the sweep spent its host time — reported next to the outcome but
/// never part of outcome identity (timing varies run to run; results may
/// not).
#[derive(Debug, Clone)]
pub struct SweepTiming {
    /// Worker threads the pool actually ran (clamped to the batch count).
    pub jobs: usize,
    /// Work batches this sweep contributed to the pool.
    pub batches: u64,
    /// Host wall-clock µs for everything after the oracle: classification,
    /// injections, materialization, checking, merge. For a matrix sweep
    /// the pool is shared, so a single entry's injection span cannot be
    /// separated from its neighbours'; this field then charges the entry
    /// its workers' *busy* time on its batches, the closest
    /// serializable-time equivalent.
    pub wall_us: u64,
    /// Oracle preparation µs (outside `wall_us`, identical work at any
    /// width — kept separate so speedups compare the parallelizable part).
    pub oracle_us: u64,
    /// Reference-trace run + classification µs (0 with pruning off).
    pub classify_us: u64,
    /// Injection-phase µs: busy time of this sweep's batches.
    pub inject_us: u64,
    /// Materialize + check + merge µs on the coordinator.
    pub merge_us: u64,
    /// Logical injections per second of `wall_us`, ×1000 (integer so
    /// reports stay float-free). `None` when the sweep was too small to
    /// measure (`wall_us` rounded to 0) — a 0 here would read as "no
    /// throughput" when the truth is "too fast to time".
    pub injections_per_sec_milli: Option<u64>,
    /// Injected runs executed by each worker.
    pub injections_per_worker: Vec<u64>,
    /// Busy µs of each worker on this sweep's batches.
    pub busy_us_per_worker: Vec<u64>,
    /// What pruning did.
    pub prune: PruneStats,
}

/// One sweep of an app×runtime matrix.
pub struct SweepEntry<'a> {
    /// App constructor (runs once per worker machine).
    pub builder: &'a (dyn Fn(&mut Mcu) -> App + Sync),
    /// Runtime under test.
    pub kind: RuntimeKind,
    /// The sweep plan.
    pub plan: SweepPlan,
}

/// Contiguous batches of roughly `per_batch` boundaries, preserving order.
/// Batching amortizes the pool's atomic cursor and keeps each worker on a
/// warm machine image for a stretch of nearby boundaries.
fn batch(boundaries: &[u64], per_batch: usize) -> Vec<Vec<u64>> {
    let per_batch = per_batch.max(1);
    boundaries.chunks(per_batch).map(|c| c.to_vec()).collect()
}

/// Coordinator-side preparation of one entry: oracle, boundary selection,
/// and (with pruning) the reference trace and equivalence classes.
struct EntryPrep {
    oracle: SweepOracle,
    chosen: Vec<u64>,
    trace: Option<BoundaryTrace>,
    classes: Option<PruneClasses>,
    /// Boundaries to actually execute: class representatives when pruning,
    /// every chosen boundary otherwise.
    exec: Vec<u64>,
    /// This entry's item range `[start, end)` in the global batch list.
    items: (usize, usize),
    oracle_us: u64,
    classify_us: u64,
}

/// One unit of pool work: a batch of boundaries of one entry.
struct WorkItem {
    entry: usize,
    boundaries: Vec<u64>,
}

/// Runs every sweep of `entries` over **one** shared worker pool and
/// returns `(outcome, timing)` per entry, in entry order. Each outcome is
/// byte-identical to `crashcheck::sweep(entry.builder, entry.kind,
/// &entry.plan)`.
pub fn sweep_matrix(
    entries: &[SweepEntry],
    opts: &SweepOptions,
) -> Vec<(SweepOutcome, SweepTiming)> {
    sweep_matrix_observed(entries, opts, None)
}

/// [`sweep_matrix`] with a live [`Progress`] channel. The observer ticks
/// through three phases — `oracle` (one per entry), `inject` (one per
/// executed boundary, ticked batch-wise from inside the workers), and
/// `judge` (one per entry) — and never enters outcome identity: the
/// returned vector is byte-identical to the unobserved call.
pub fn sweep_matrix_observed(
    entries: &[SweepEntry],
    opts: &SweepOptions,
    progress: Option<&Progress>,
) -> Vec<(SweepOutcome, SweepTiming)> {
    // Stage A (serial): per-entry oracle, selection, classification.
    if let Some(p) = progress {
        p.begin_phase("oracle", entries.len() as u64);
    }
    let mut preps: Vec<EntryPrep> = Vec::with_capacity(entries.len());
    let mut items: Vec<WorkItem> = Vec::new();
    for (e, entry) in entries.iter().enumerate() {
        let t0 = Instant::now();
        let oracle = prepare_oracle(entry.builder, entry.kind, entry.plan.env_seed);
        let oracle_us = t0.elapsed().as_micros() as u64;
        let t1 = Instant::now();
        let mut chosen = select_boundaries(oracle.boundaries, entry.plan.mode, entry.plan.seed);
        let (trace, classes, exec) = if opts.prune || entry.plan.update_window {
            // The reference run replays the injected runs' shared prefix on
            // continuous power with the recorder on: same fault plan, same
            // env seed — one extra run per entry, amortized over every
            // boundary it prunes (and reused for the update-window filter).
            let mut mcu = Mcu::new(Supply::continuous());
            let app = (entry.builder)(&mut mcu);
            let trace = reference_trace(
                &app,
                entry.kind,
                &mut mcu,
                &oracle.snapshot,
                entry.plan.env_seed,
                &entry.plan.fault,
            );
            // Same order as the serial sweep: window filter first, then
            // classification over the surviving boundaries.
            if entry.plan.update_window {
                chosen = filter_update_window(&chosen, &trace);
            }
            if opts.prune {
                let classes = classify_boundaries(&chosen, &trace);
                let exec = classes.reps.clone();
                (Some(trace), Some(classes), exec)
            } else {
                (Some(trace), None, chosen.clone())
            }
        } else {
            (None, None, chosen.clone())
        };
        let classify_us = t1.elapsed().as_micros() as u64;
        // ~4 batches per worker per entry balances cursor traffic against
        // tail latency while keeping matrix-wide work stealing effective.
        let per_batch = (exec.len() / (opts.jobs.max(1) * 4)).max(1);
        let start = items.len();
        for b in batch(&exec, per_batch) {
            items.push(WorkItem {
                entry: e,
                boundaries: b,
            });
        }
        preps.push(EntryPrep {
            oracle,
            chosen,
            trace,
            classes,
            exec,
            items: (start, items.len()),
            oracle_us,
            classify_us,
        });
        if let Some(p) = progress {
            p.add(1);
        }
    }

    if let Some(p) = progress {
        let total: u64 = items.iter().map(|i| i.boundaries.len() as u64).sum();
        p.begin_phase("inject", total);
    }

    // Stage B: one pool over every entry's batches. Workers hold one
    // machine+app per entry they touch, built on first contact and reused
    // across batches — and across *entries*: the pool is spawned once for
    // the whole matrix.
    let (results, _, stats) = run_indexed(
        opts.jobs,
        &items,
        HashMap::<usize, (Mcu, App)>::new,
        |cache, _, item: &WorkItem| {
            let t0 = Instant::now();
            let entry = &entries[item.entry];
            let prep = &preps[item.entry];
            let (mcu, app) = cache.entry(item.entry).or_insert_with(|| {
                let mut mcu = Mcu::new(Supply::continuous());
                let app = (entry.builder)(&mut mcu);
                (mcu, app)
            });
            let records: Vec<RunRecord> = item
                .boundaries
                .iter()
                .map(|&b| {
                    run_from(
                        app,
                        entry.kind,
                        mcu,
                        &prep.oracle.snapshot,
                        Supply::injected(b, entry.plan.off_us),
                        entry.plan.env_seed,
                        &entry.plan.fault,
                    )
                })
                .collect();
            if let Some(p) = progress {
                p.add(records.len() as u64);
            }
            (records, t0.elapsed().as_micros() as u64)
        },
        |_| (),
    );

    if let Some(p) = progress {
        p.begin_phase("judge", entries.len() as u64);
    }

    // Stage C (serial, entry order): flatten each entry's records back into
    // exec order, materialize the pruned boundaries, judge everything in
    // boundary order, and fold the outcome.
    let mut out = Vec::with_capacity(entries.len());
    for (e, entry) in entries.iter().enumerate() {
        let prep = &preps[e];
        let t0 = Instant::now();
        let (start, end) = prep.items;
        let recs: Vec<&RunRecord> = (start..end).flat_map(|i| results[i].0.iter()).collect();
        debug_assert_eq!(recs.len(), prep.exec.len());
        let mut violations: Vec<Violation> = Vec::new();
        let mut boundary_waste_nj = Vec::with_capacity(prep.chosen.len());
        let mut cause_energy_nj = [0u64; CAUSE_COUNT];
        let mut fold = |r: &RunRecord, b: u64| {
            violations.extend(check_record(
                r,
                &prep.oracle.fram,
                b,
                entry.plan.strict_memory,
            ));
            boundary_waste_nj.push(r.waste_nj);
            for (total, c) in cause_energy_nj.iter_mut().zip(r.cause_energy_nj) {
                *total += c;
            }
        };
        match (&prep.classes, &prep.trace) {
            (Some(classes), Some(trace)) => {
                for (j, &b) in prep.chosen.iter().enumerate() {
                    let c = classes.class_of[j];
                    let rep_b = classes.reps[c];
                    if b == rep_b {
                        fold(recs[c], b);
                    } else {
                        let materialized = materialize_record(trace, recs[c], rep_b, b);
                        fold(&materialized, b);
                    }
                }
            }
            _ => {
                for (j, &b) in prep.chosen.iter().enumerate() {
                    fold(recs[j], b);
                }
            }
        }
        let merge_us = t0.elapsed().as_micros() as u64;

        // Per-worker attribution of this entry's batches.
        let mut injections_per_worker = vec![0u64; stats.jobs];
        let mut busy_us_per_worker = vec![0u64; stats.jobs];
        for (w, idxs) in stats.indices_per_worker.iter().enumerate() {
            for &i in idxs {
                if i >= start && i < end {
                    injections_per_worker[w] += items[i].boundaries.len() as u64;
                    busy_us_per_worker[w] += results[i].1;
                }
            }
        }
        let inject_us: u64 = busy_us_per_worker.iter().sum();
        let wall_us = prep.classify_us + inject_us + merge_us;
        let injections = prep.chosen.len() as u64;
        let prune = PruneStats {
            enabled: opts.prune,
            injections_executed: prep.exec.len() as u64,
            injections_pruned: injections - prep.exec.len() as u64,
            classes: prep
                .classes
                .as_ref()
                .map(|c| c.reps.len() as u64)
                .unwrap_or(0),
            time_observed: prep
                .trace
                .as_ref()
                .map(|t| t.time_observed)
                .unwrap_or(false),
        };
        let timing = SweepTiming {
            jobs: stats.jobs,
            batches: (end - start) as u64,
            wall_us,
            oracle_us: prep.oracle_us,
            classify_us: prep.classify_us,
            inject_us,
            merge_us,
            injections_per_sec_milli: (injections * 1_000_000_000).checked_div(wall_us),
            injections_per_worker,
            busy_us_per_worker,
            prune,
        };
        let outcome = SweepOutcome {
            runtime: entry.kind.name(),
            app: prep.oracle.app,
            env_seed: entry.plan.env_seed,
            config: entry.plan.clone(),
            oracle_boundaries: prep.oracle.boundaries,
            injections,
            violations,
            boundary_waste_nj,
            cause_energy_nj,
        };
        out.push((outcome, timing));
        if let Some(p) = progress {
            p.add(1);
        }
    }
    out
}

/// Runs one crash sweep under `opts`. Outcome byte-identical to
/// `crashcheck::sweep(builder, kind, plan)` at any `jobs`, pruned or not.
pub fn run_sweep(
    builder: &(dyn Fn(&mut Mcu) -> App + Sync),
    kind: RuntimeKind,
    plan: &SweepPlan,
    opts: &SweepOptions,
) -> (SweepOutcome, SweepTiming) {
    sweep_matrix(
        &[SweepEntry {
            builder,
            kind,
            plan: plan.clone(),
        }],
        opts,
    )
    .pop()
    .expect("one entry in, one outcome out")
}

/// Pre-pruning spelling of [`run_sweep`]: parallel, unpruned.
pub fn parallel_sweep(
    builder: &(dyn Fn(&mut Mcu) -> App + Sync),
    kind: RuntimeKind,
    plan: &SweepPlan,
    jobs: usize,
) -> (SweepOutcome, SweepTiming) {
    run_sweep(builder, kind, plan, &SweepOptions { jobs, prune: false })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::dma_app;
    use crashcheck::{sweep, SweepMode};
    use kernel::FaultSpec;

    fn small_dma(m: &mut Mcu) -> App {
        dma_app::build(
            m,
            &dma_app::DmaAppCfg {
                bytes: 256,
                chunks: 3,
                iterations: 1,
                pre_compute: 200,
                post_compute: 200,
            },
        )
    }

    /// Long DMA bursts: spend calls spanning several slices, so pruning has
    /// classes to merge.
    fn chunky_dma(m: &mut Mcu) -> App {
        dma_app::build(
            m,
            &dma_app::DmaAppCfg {
                bytes: 4096,
                chunks: 2,
                iterations: 1,
                pre_compute: 2500,
                post_compute: 500,
            },
        )
    }

    fn outcomes_equal(a: &SweepOutcome, b: &SweepOutcome) {
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.app, b.app);
        assert_eq!(a.oracle_boundaries, b.oracle_boundaries);
        assert_eq!(a.injections, b.injections);
        assert_eq!(a.violations.len(), b.violations.len());
        for (x, y) in a.violations.iter().zip(&b.violations) {
            assert_eq!(x.boundary, y.boundary);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.detail, y.detail);
        }
        assert_eq!(a.boundary_waste_nj, b.boundary_waste_nj);
        assert_eq!(a.cause_energy_nj, b.cause_energy_nj);
    }

    #[test]
    fn parallel_matches_serial_with_violations_present() {
        // Naive on the DMA app violates at many boundaries — the violation
        // *order* is the sensitive part of the merge.
        let plan = SweepPlan {
            strict_memory: true,
            ..SweepPlan::with_env_seed(5)
        };
        let serial = sweep(&small_dma, RuntimeKind::Naive, &plan);
        for jobs in [1, 3, 4] {
            let (parallel, timing) = parallel_sweep(&small_dma, RuntimeKind::Naive, &plan, jobs);
            outcomes_equal(&serial, &parallel);
            // The pool clamps the worker count to the available batches.
            assert_eq!(timing.jobs, jobs.min(timing.batches.max(1) as usize));
            assert!(timing.jobs <= jobs);
            assert_eq!(
                timing.injections_per_worker.iter().sum::<u64>(),
                serial.injections,
                "every injection must be attributed to exactly one worker"
            );
        }
    }

    #[test]
    fn parallel_matches_serial_on_a_clean_sweep() {
        let plan = SweepPlan {
            mode: SweepMode::Sample(60),
            strict_memory: true,
            ..SweepPlan::with_env_seed(5)
        };
        let serial = sweep(&small_dma, RuntimeKind::EaseIo, &plan);
        let (parallel, _) = parallel_sweep(&small_dma, RuntimeKind::EaseIo, &plan, 4);
        outcomes_equal(&serial, &parallel);
        assert!(parallel.is_clean());
    }

    /// The tentpole identity: pruned outcomes are byte-identical to the
    /// unpruned serial sweep at every width, and pruning actually prunes.
    #[test]
    fn pruned_sweep_is_byte_identical_to_unpruned_serial() {
        for (kind, fault) in [
            (RuntimeKind::EaseIo, FaultSpec::none()),
            (RuntimeKind::Naive, FaultSpec::none()),
            (RuntimeKind::EaseIo, FaultSpec::with_rate(3, 120)),
        ] {
            let plan = SweepPlan {
                strict_memory: true,
                fault,
                ..SweepPlan::with_env_seed(5)
            };
            let serial = sweep(&chunky_dma, kind, &plan);
            for jobs in [1, 4, 8] {
                let (pruned, timing) = run_sweep(
                    &chunky_dma,
                    kind,
                    &plan,
                    &SweepOptions { jobs, prune: true },
                );
                outcomes_equal(&serial, &pruned);
                assert!(timing.prune.enabled);
                assert!(!timing.prune.time_observed, "the DMA app is time-blind");
                assert!(
                    timing.prune.injections_pruned > 0,
                    "multi-slice bursts must prune ({kind:?}, jobs {jobs})"
                );
                assert_eq!(
                    timing.prune.injections_executed + timing.prune.injections_pruned,
                    serial.injections
                );
            }
        }
    }

    /// Update-window sweeps must filter the same boundaries in the parallel
    /// engine as in the serial sweep — pruned or not, at every width.
    #[test]
    fn update_window_sweep_matches_serial_at_every_width() {
        use apps::ota_update;
        for (kind, fault) in [
            (RuntimeKind::EaseIo, FaultSpec::none()),
            (RuntimeKind::Naive, FaultSpec::none()),
            (RuntimeKind::EaseIo, FaultSpec::with_rate(3, 80)),
        ] {
            let build = move |m: &mut Mcu| {
                ota_update::build(
                    m,
                    &ota_update::OtaUpdateCfg {
                        two_phase: kind.two_phase_update(),
                        ..Default::default()
                    },
                )
                .0
            };
            let plan = SweepPlan {
                strict_memory: true,
                update_window: true,
                fault,
                ..SweepPlan::with_env_seed(5)
            };
            let serial = sweep(&build, kind, &plan);
            assert!(
                serial.injections > 0 && serial.injections < serial.oracle_boundaries,
                "the window filter must keep some boundaries and drop others"
            );
            for (jobs, prune) in [(1, false), (4, false), (4, true), (8, true)] {
                let (parallel, _) = run_sweep(&build, kind, &plan, &SweepOptions { jobs, prune });
                outcomes_equal(&serial, &parallel);
            }
        }
    }

    /// A time-observing app (the temp app senses) must disable merging —
    /// and still produce the identical outcome, now with singleton classes.
    #[test]
    fn time_observing_apps_prune_nothing_but_stay_identical() {
        use apps::temp_app;
        let build = |m: &mut Mcu| temp_app::build(m, &temp_app::TempAppCfg::default());
        let plan = SweepPlan {
            mode: SweepMode::Sample(40),
            ..SweepPlan::with_env_seed(5)
        };
        let serial = sweep(&build, RuntimeKind::EaseIo, &plan);
        let (pruned, timing) = run_sweep(
            &build,
            RuntimeKind::EaseIo,
            &plan,
            &SweepOptions {
                jobs: 4,
                prune: true,
            },
        );
        outcomes_equal(&serial, &pruned);
        assert!(timing.prune.time_observed);
        assert_eq!(timing.prune.injections_pruned, 0);
    }

    /// One pool across a heterogeneous matrix must reproduce each entry's
    /// serial outcome.
    #[test]
    fn matrix_sweep_matches_per_entry_serial_sweeps() {
        let plan = SweepPlan {
            mode: SweepMode::Sample(30),
            ..SweepPlan::with_env_seed(5)
        };
        let entries = [
            SweepEntry {
                builder: &small_dma,
                kind: RuntimeKind::EaseIo,
                plan: plan.clone(),
            },
            SweepEntry {
                builder: &chunky_dma,
                kind: RuntimeKind::Naive,
                plan: plan.clone(),
            },
        ];
        let results = sweep_matrix(
            &entries,
            &SweepOptions {
                jobs: 4,
                prune: true,
            },
        );
        assert_eq!(results.len(), 2);
        let serial_a = sweep(&small_dma, RuntimeKind::EaseIo, &plan);
        let serial_b = sweep(&chunky_dma, RuntimeKind::Naive, &plan);
        outcomes_equal(&serial_a, &results[0].0);
        outcomes_equal(&serial_b, &results[1].0);
    }

    /// Observation must never enter outcome identity, and the inject phase
    /// must tick exactly once per executed boundary.
    #[test]
    fn observed_sweep_is_identical_and_ticks_every_injection() {
        let plan = SweepPlan {
            mode: SweepMode::Sample(30),
            strict_memory: true,
            ..SweepPlan::with_env_seed(5)
        };
        let entries = [SweepEntry {
            builder: &small_dma,
            kind: RuntimeKind::Naive,
            plan: plan.clone(),
        }];
        let opts = SweepOptions {
            jobs: 3,
            prune: true,
        };
        let unobserved = sweep_matrix(&entries, &opts);
        let progress = Progress::new();
        let observed = sweep_matrix_observed(&entries, &opts, Some(&progress));
        outcomes_equal(&unobserved[0].0, &observed[0].0);
        let snap = progress.snapshot();
        assert_eq!(snap.phase, "judge");
        assert_eq!(snap.done, entries.len() as u64);
        assert_eq!(snap.total, entries.len() as u64);
        // The last inject tick count equals the executed (post-prune)
        // boundary count, which the timing also reports.
        let executed: u64 = observed[0].1.prune.injections_executed;
        assert!(executed > 0);
    }
}
