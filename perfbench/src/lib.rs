//! The EaseIO reproduction's benchmark: four workloads driven in-process
//! through the crates' public functions, with end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! Every workload follows one recipe ([`Bench`]):
//!
//! 1. **setup** — build specs and apps, compile `easec` sources, take the
//!    template snapshots. Repeated [`SETUP_REPS`] times; the median is
//!    `setup_s`.
//! 2. **timed passes** — the workload's public entry point
//!    (`exec::sweep_matrix`, `fleet::run_fleet_streamed`,
//!    `fleet::rollout::run_rollout_streamed`, `apps::harness::run_once`)
//!    called back to back for the run's seconds. `units_per_s` is the
//!    median over passes; every pass must produce the same simulated
//!    output.
//! 3. **replay** — the same work redone serially through the layers' own
//!    functions, with a span around each call. Its simulated output must
//!    equal the public call's. The traced run alternates untraced and
//!    traced replays; their throughput difference is the tracing
//!    overhead.

pub mod fleet;
pub mod paper;
pub mod rollout;
pub mod spans;
pub mod sweep;
pub mod tally;

use kernel::KernelKind;
use mcu_emu::EnergyCause;
use spans::{median, percentile, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use tally::{Sim, Tally};

/// Setup repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exhaustive pruned EaseIO crash sweep over every built-in app.
    SweepMatrix,
    /// Streamed `flaky-radio` fleet over a lossy, colliding medium.
    FleetRadio,
    /// Streamed rolling OTA update in small waves.
    OtaRollout,
    /// The paper's evaluation matrix plus every `easec` example program.
    PaperEval,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepMatrix,
        Workload::FleetRadio,
        Workload::OtaRollout,
        Workload::PaperEval,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepMatrix => "sweep-matrix",
            Workload::FleetRadio => "fleet-radio",
            Workload::OtaRollout => "ota-rollout",
            Workload::PaperEval => "paper-eval",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name}"))
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Host seconds of timed passes (split with the replays when traced).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// Kernel under test for the sweep, fleet and rollout workloads
    /// (EaseIO; the tests swap in Naive as the negative control).
    pub kernel: KernelKind,
    /// Worker threads of the parallel engine.
    pub jobs: usize,
    /// Repository root (reads `examples/programs`).
    pub root: PathBuf,
    /// Directory for stream files and the span dump.
    pub out_dir: PathBuf,
}

impl Opts {
    /// Full-size EaseIO settings for `workload`.
    pub fn new(workload: Workload, seed: u64, root: PathBuf, out_dir: PathBuf) -> Self {
        Self {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            tiny: false,
            kernel: KernelKind::EaseIo,
            jobs: default_jobs(),
            root,
            out_dir,
        }
    }

    /// Base seed of a fleet scenario. Device `i` derives every draw from
    /// `base + i`, so the bases of different workload seeds lie 2^20 apart
    /// and their device populations never share a seed.
    pub(crate) fn fleet_seed(&self) -> u64 {
        self.seed.wrapping_mul(1 << 20)
    }

    /// A scratch path for this run's stream files.
    pub(crate) fn stream_path(&self, what: &str) -> String {
        self.out_dir
            .join(format!(
                "{}-{what}-{}.jsonl",
                self.workload.name(),
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned()
    }
}

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The workloads' pool width: 2, never more than `nproc`.
pub fn default_jobs() -> usize {
    nproc().min(2)
}

/// What one timed pass through the public entry point produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds of the public call(s) alone.
    pub wall_s: f64,
    /// Units attempted.
    pub units: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// Simulated totals over the EaseIO units.
    pub sim: Sim,
    /// Digest of the pass's simulated output.
    pub digest: u64,
    /// Structural checks that failed (beyond per-unit failures).
    pub problems: Vec<String>,
    /// Per-layer values read from what the public call returned.
    pub layer: Vec<(&'static str, f64)>,
}

/// What one serial replay produced.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Host seconds of the replay.
    pub wall_s: f64,
    /// Units replayed.
    pub units: u64,
    /// Digest of the replay's simulated output, comparable to
    /// [`Pass::digest`].
    pub digest: u64,
    /// Ledger sums over the replay's own `run_app` calls.
    pub tally: Tally,
    /// Per-layer counts the replay derived.
    pub layer: Vec<(&'static str, f64)>,
}

/// One workload.
pub trait Bench {
    /// Everything the timed passes reuse.
    type Prep;
    /// Builds the inputs; timed as `setup_s`. Spans go to `tr`.
    fn setup(&self, o: &Opts, tr: &mut Tracer) -> Result<Self::Prep, String>;
    /// One untraced pass through the public entry point.
    fn pass(&self, o: &Opts, prep: &Self::Prep) -> Result<Pass, String>;
    /// The same work, serially, through the layers' own functions.
    fn replay(&self, o: &Opts, prep: &Self::Prep, tr: &mut Tracer) -> Result<Replay, String>;
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run: the result line plus human-readable notes.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Units attempted over every timed pass.
    pub attempted: u64,
    /// Units that failed a check over every timed pass.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Lines printed ahead of the result line.
    pub notes: Vec<String>,
    /// Checks that failed.
    pub problems: Vec<String>,
    /// Digest of every simulated statistic of the run.
    pub sim_digest: u64,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// End-to-end metrics printed by an untraced run, with units. `failed_frac`
/// is reported through the result line's `failed`/`attempted` and the notes.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_time_ms", "ms"),
    ("sim_energy_uj", "uJ"),
    ("sim_waste_uj", "uJ"),
];

/// Per-layer metrics printed by a traced run, with units, in layer order.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &'static str); 59] = [
        ("mcu-emu.restore_us.p50", "us"),
        ("mcu-emu.restore_us.p99", "us"),
        ("mcu-emu.restore.calls", "count"),
        ("mcu-emu.snapshot_us", "us"),
        ("mcu-emu.spend_slices", "count"),
        ("mcu-emu.host_ns_per_slice", "ns"),
        ("mcu-emu.power_failures", "count"),
        ("kernel.run_app_us.p50", "us"),
        ("kernel.run_app_us.p99", "us"),
        ("kernel.run_app.busy_s", "s"),
        ("kernel.run_app.calls", "count"),
        ("kernel.task_attempts", "count"),
        ("kernel.task_commits", "count"),
        ("kernel.commit_ratio", "ratio"),
        ("kernel.io_reexecutions", "count"),
        ("kernel.dma_reexecutions", "count"),
        ("core.io_skipped", "count"),
        ("core.dma_skipped", "count"),
        ("core.regional_snapshots", "count"),
        ("core.regional_restores", "count"),
        ("core.dma_privatizations", "count"),
        ("core.outputs_restored", "count"),
        ("core.commit_uj", "uJ"),
        ("core.dma_priv_uj", "uJ"),
        ("core.runtime_misc_uj", "uJ"),
        ("periph.io_faults", "count"),
        ("periph.io_retries", "count"),
        ("periph.degraded", "count"),
        ("periph.retry_uj", "uJ"),
        ("periph.downlink_chunks", "count"),
        ("periph.downlink_lost", "count"),
        ("apps.build_us", "us"),
        ("easec.compile_us", "us"),
        ("easec.source_bytes", "bytes"),
        ("crashcheck.prepare_oracle_us", "us"),
        ("crashcheck.reference_trace_us", "us"),
        ("crashcheck.classify_us", "us"),
        ("crashcheck.check_record_us.p50", "us"),
        ("crashcheck.check_record_us.p99", "us"),
        ("crashcheck.materialize_us", "us"),
        ("crashcheck.executed_ratio", "ratio"),
        ("crashcheck.slices_per_injection", "count"),
        ("crashcheck.violations", "count"),
        ("exec.pool.utilization", "ratio"),
        ("exec.pool.idle_s", "s"),
        ("exec.pool.imbalance", "ratio"),
        ("exec.sweep.batches", "count"),
        ("exec.sweep.oracle_s", "s"),
        ("exec.sweep.classify_s", "s"),
        ("exec.sweep.inject_s", "s"),
        ("exec.sweep.merge_s", "s"),
        ("fleet.reconcile_us", "us"),
        ("fleet.transmissions", "count"),
        ("fleet.collisions", "count"),
        ("fleet.agg_observe_ns", "ns"),
        ("fleet.rollout.waves", "count"),
        ("trace.stream.bytes", "bytes"),
        ("trace.stream.write_us", "us"),
        ("trace.stream.merge_us", "us"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    let at = out
        .iter()
        .position(|(n, _)| n == "crashcheck.violations")
        .expect("listed above")
        + 1;
    let per_app = easeio_exec::APP_NAMES
        .iter()
        .map(|a| (format!("crashcheck.inject_s.{a}"), "s"));
    out.splice(at..at, per_app);
    out
}

/// Runs one workload end to end and builds its report.
pub fn measure(o: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(&o.out_dir)
        .map_err(|e| format!("create {}: {e}", o.out_dir.display()))?;
    match o.workload {
        Workload::SweepMatrix => drive(&sweep::SweepMatrix, o),
        Workload::FleetRadio => drive(&fleet::FleetRadio, o),
        Workload::OtaRollout => drive(&rollout::OtaRollout, o),
        Workload::PaperEval => drive(&paper::PaperEval, o),
    }
}

fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    (percentile(&s, 25.0), median(&s), percentile(&s, 75.0))
}

fn drive<B: Bench>(b: &B, o: &Opts) -> Result<Report, String> {
    let mut notes =
        vec![format!(
        "perfbench: workload={} seed={} seconds={} trace={} kernel={} jobs={} nproc={} profile={}",
        o.workload.name(),
        o.seed,
        o.seconds,
        o.trace as u8,
        o.kernel.name(),
        o.jobs,
        nproc(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    )];
    let mut tr = Tracer::new(o.trace);

    // 1. Setup, repeated; the last one's inputs are kept.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prep = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let p = b.setup(o, &mut tr)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        prep = Some(p);
    }
    let prep = prep.expect("SETUP_REPS > 0");
    tr.set_on(false);

    // 2. Timed passes through the public entry point.
    let pass_budget = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let started = Instant::now();
    let mut passes: Vec<Pass> = vec![b.pass(o, &prep)?];
    // Peak memory of setup plus one pass: later passes only add allocator
    // fragmentation that varies with how many passes fit in the run.
    let peak_rss_mb = mcu_emu::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    while started.elapsed().as_secs_f64() < pass_budget {
        passes.push(b.pass(o, &prep)?);
    }
    let first = passes[0].clone();
    let mut problems = first.problems.clone();
    for (i, p) in passes.iter().enumerate().skip(1) {
        if (p.digest, p.units, p.failed) != (first.digest, first.units, first.failed) {
            problems.push(format!("pass {i} simulated output differs from pass 0"));
        }
    }
    let rates: Vec<f64> = passes.iter().map(|p| p.units as f64 / p.wall_s).collect();

    // 3. Replays: one untraced check, or alternating untraced/traced.
    let mut off_rates = Vec::new();
    let mut on_rates = Vec::new();
    let mut traced: Option<Replay> = None;
    let replay_started = Instant::now();
    let check = loop {
        tr.set_on(false);
        let r = b.replay(o, &prep, &mut tr)?;
        off_rates.push(r.units as f64 / r.wall_s);
        if !o.trace {
            break r;
        }
        tr.set_on(true);
        let t = b.replay(o, &prep, &mut tr)?;
        tr.set_on(false);
        on_rates.push(t.units as f64 / t.wall_s);
        if t.digest != first.digest {
            problems.push("traced replay's simulated output differs from the public call's".into());
        }
        if traced.is_none() {
            let path = o
                .out_dir
                .join(format!("spans-{}-seed{}.jsonl", o.workload.name(), o.seed));
            tr.write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            notes.push(format!("spans: written to {}", path.display()));
            traced = Some(t);
        }
        if replay_started.elapsed().as_secs_f64() >= o.seconds - pass_budget {
            break r;
        }
    };
    if (check.digest, check.units) != (first.digest, first.units) {
        problems.push(format!(
            "serial replay ({} units) differs from the public call ({} units) in simulated output",
            check.units, first.units
        ));
    }
    let runs = passes.len() as u64;
    let failed_frac = first.failed as f64 / first.units.max(1) as f64;
    if first.failed > 0 {
        problems.push(format!(
            "{} of {} units failed a check",
            first.failed, first.units
        ));
    }
    let sim_digest = {
        let mut h = tally::Fnv::default();
        h.u64(first.digest);
        h.u64(check.tally.digest.0);
        h.0
    };
    let (q1, q2, q3) = quartiles(&rates);
    notes.push(format!(
        "timed: {runs} pass(es) of {} units; units_per_s p25 {q1:.1} / median {q2:.1} / p75 {q3:.1}; per pass {:.0?}",
        first.units, rates
    ));
    notes.push(format!(
        "setup: {} reps; median {:.6} s, min {:.6} s",
        setup_s.len(),
        median(&setup_s),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min)
    ));
    notes.push(format!(
        "checks: failed_frac {failed_frac} ({} of {} units); sim_digest {sim_digest:016x}",
        first.failed, first.units
    ));

    let sim = &first.sim;
    let sim_time_ms = if sim.time_runs > 0 {
        sim.time_us as f64 / sim.time_runs as f64 / 1e3
    } else {
        check.tally.time_us as f64 / check.tally.runs.max(1) as f64 / 1e3
    };

    let metrics = if let Some(traced) = traced {
        let off = median(&off_rates);
        let on = median(&on_rates);
        notes.push(format!(
            "tracing overhead: public call (untraced) {q2:.1} units/s; serial replay untraced {off:.1}, traced {on:.1} units/s; difference {:.1} units/s ({:.2}%)",
            off - on,
            100.0 * (off - on) / off
        ));
        for (name, (calls, total, own)) in tr.self_times() {
            notes.push(format!(
                "self time: {name:<30} {calls:>9} calls {total:>10.4} s total {own:>10.4} s self"
            ));
        }
        let pass_layer = median_layer(&passes);
        let metrics = layer_metrics(&tr, on_rates.len() as f64, &traced, &pass_layer, sim);
        for m in &metrics {
            notes.push(format!(
                "per-layer: {:<36} {:>16.6} {}",
                m.name, m.value, m.unit
            ));
        }
        metrics
    } else {
        let values = [
            median(&setup_s),
            q2,
            peak_rss_mb,
            sim_time_ms,
            sim.energy_uj(),
            sim.waste_uj(),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            notes.push(format!("end-to-end: {name:<14} {v:>14.6} {unit}"));
        }
        notes.push(format!(
            "end-to-end: {:<14} {failed_frac:>14.6} ratio",
            "failed_frac"
        ));
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect()
    };
    Ok(Report {
        correct: problems.is_empty(),
        attempted: first.units * runs,
        failed: first.failed * runs,
        metrics,
        notes,
        problems,
        sim_digest,
    })
}

/// Median over passes of every per-layer value the public calls returned.
fn median_layer(passes: &[Pass]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for (name, v) in &p.layer {
            by_name.entry(name).or_default().push(*v);
        }
    }
    by_name.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Builds every per-layer metric. Times come from the traced replays'
/// spans (per-replay totals, or percentiles over all calls); counts come
/// from one traced replay's ledger sums or from what the public call
/// returned. A layer the workload never calls reads 0.
fn layer_metrics(
    tr: &Tracer,
    n_traced: f64,
    replay: &Replay,
    pass_layer: &BTreeMap<&'static str, f64>,
    sim: &Sim,
) -> Vec<Metric> {
    let t = &replay.tally;
    let pct = |name: &str, q: f64| percentile(&tr.durations_us(name), q);
    let med = |name: &str| median(&tr.durations_us(name));
    let per_replay_us = |name: &str| tr.total_s(name, None) / n_traced * 1e6;
    let run_app_s = tr.total_s("kernel.run_app", None) / n_traced;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    set("mcu-emu.restore_us.p50", pct("mcu-emu.restore", 50.0));
    set("mcu-emu.restore_us.p99", pct("mcu-emu.restore", 99.0));
    set("mcu-emu.restore.calls", t.restores as f64);
    set("mcu-emu.snapshot_us", med("mcu-emu.snapshot"));
    set("mcu-emu.spend_slices", t.slices as f64);
    set(
        "mcu-emu.host_ns_per_slice",
        if t.slices == 0 {
            0.0
        } else {
            run_app_s * 1e9 / t.slices as f64
        },
    );
    set("mcu-emu.power_failures", t.power_failures as f64);
    set("kernel.run_app_us.p50", pct("kernel.run_app", 50.0));
    set("kernel.run_app_us.p99", pct("kernel.run_app", 99.0));
    set("kernel.run_app.busy_s", run_app_s);
    set("kernel.run_app.calls", t.runs as f64);
    set("kernel.task_attempts", t.attempts as f64);
    set("kernel.task_commits", t.commits as f64);
    set("kernel.commit_ratio", ratio(t.commits, t.attempts));
    set("kernel.io_reexecutions", t.io_reexecutions as f64);
    set("kernel.dma_reexecutions", t.dma_reexecutions as f64);
    set("core.io_skipped", t.io_skipped as f64);
    set("core.dma_skipped", t.dma_skipped as f64);
    set(
        "core.regional_snapshots",
        t.counter("easeio_regional_snapshots") as f64,
    );
    set(
        "core.regional_restores",
        t.counter("easeio_regional_restores") as f64,
    );
    set(
        "core.dma_privatizations",
        t.counter("easeio_dma_privatizations") as f64,
    );
    set(
        "core.outputs_restored",
        t.counter("easeio_outputs_restored") as f64,
    );
    set("core.commit_uj", sim.cause_uj(EnergyCause::Commit));
    set("core.dma_priv_uj", sim.cause_uj(EnergyCause::DmaPriv));
    set(
        "core.runtime_misc_uj",
        sim.cause_uj(EnergyCause::RuntimeMisc),
    );
    set("periph.io_faults", t.counter("io_faults") as f64);
    set("periph.io_retries", t.counter("io_retries") as f64);
    set(
        "periph.degraded",
        (t.counter("io_degraded_fallbacks") + t.counter("io_degraded_skips")) as f64,
    );
    set("periph.retry_uj", sim.cause_uj(EnergyCause::Retry));
    set("apps.build_us", med("apps.build"));
    set("easec.compile_us", med("easec.compile"));
    set(
        "crashcheck.prepare_oracle_us",
        per_replay_us("crashcheck.prepare_oracle"),
    );
    set(
        "crashcheck.reference_trace_us",
        per_replay_us("crashcheck.reference_trace"),
    );
    set(
        "crashcheck.classify_us",
        per_replay_us("crashcheck.classify"),
    );
    set(
        "crashcheck.check_record_us.p50",
        pct("crashcheck.check_record", 50.0),
    );
    set(
        "crashcheck.check_record_us.p99",
        pct("crashcheck.check_record", 99.0),
    );
    set(
        "crashcheck.materialize_us",
        per_replay_us("crashcheck.materialize"),
    );
    for app in easeio_exec::APP_NAMES {
        set(
            &format!("crashcheck.inject_s.{app}"),
            tr.total_s("crashcheck.inject", Some(app)) / n_traced,
        );
    }
    set("fleet.reconcile_us", per_replay_us("fleet.reconcile"));
    set("fleet.agg_observe_ns", med("fleet.agg_observe") * 1e3);
    set("trace.stream.write_us", per_replay_us("trace.stream.write"));
    set("trace.stream.merge_us", per_replay_us("trace.stream.merge"));
    for (k, x) in pass_layer
        .iter()
        .chain(replay.layer.iter().map(|(k, x)| (k, x)))
    {
        set(k, *x);
    }
    per_layer_catalog()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: v.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect()
}
