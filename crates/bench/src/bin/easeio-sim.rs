//! easeio-sim — run any benchmark app under any kernel and supply.
//!
//! Common options (accepted by every mode, parsed once into a
//! `ScenarioSpec` — the single construction surface shared with the
//! library APIs):
//!
//! ```text
//!   --app <dma|temp|lea|fir|fir-long|weather|weather-single|branch|motion|flaky-radio
//!          |ota-update>                            (default dma)
//!   --kernel <naive|alpaca|ink|easeio|easeio-op>   (default easeio;
//!                            --runtime is a deprecated alias and warns)
//!   --supply <continuous|timer|rf>                 (default timer)
//!   --distance <inches>      RF supply distance    (default 61)
//!   --seed <u64>             (default 42; sweep defaults to 7, grid to 77)
//!   --runs <u64>             repetitions            (default 1)
//!   --jobs <N>               worker threads for parallel modes (default 1)
//!   --trace-out <path>       write the trace (.json Chrome, .jsonl lines)
//!   --report-out <path>      write the machine-readable report
//!                            (--report is a deprecated alias and warns)
//!   --source <prog.eio>      compile an easec program instead of --app
//! ```
//!
//! The peripheral-fault flag group rides with the common set and is shared
//! verbatim by every subcommand:
//!
//! ```text
//!   --fault-rate <permille>  peripheral fault probability per attempt
//!                            (default 0 = no injection)
//!   --fault-seed <u64>       fault-plan seed           (default: the run seed)
//!   --max-retries <N>        bounded retries before degradation (default 4)
//! ```
//!
//! Every file-writing flag ends in `-out` (`--trace-out`, `--report-out`,
//! `--metrics-out`, `--flame-out`, `--bench-out`, `--utilization-out`,
//! `--stream-out`, `--progress-out`, `--forensics-out`); see the README
//! table. The long-running modes (`sweep`, `fleet`, `fleet --rollout`)
//! also take `--progress` (heartbeat lines on stderr about once a
//! second) and `--progress-out <path>` (the same samples as JSONL);
//! both are pure observation and never affect report identity.
//!
//! Run mode (no subcommand) adds `--trace` (print the timeline),
//! `--validate-report <path>` (schema-check any report — run, sweep,
//! metrics or fleet, v1 or v2 — and exit) and `--emit-transform` (print
//! the easec transform of `--source`).
//!
//! Subcommand `sweep` runs the deterministic power-failure sweep from the
//! `crashcheck` crate on the parallel engine: a continuous-power oracle run
//! enumerates every energy-spend boundary, then the same app is re-run with
//! a single injected failure at each chosen boundary and checked against the
//! oracle. The result is byte-identical at any `--jobs` width.
//!
//! ```text
//! Usage: easeio-sim sweep [COMMON OPTIONS] [OPTIONS]
//!   --exhaustive             inject at every boundary          (default)
//!   --sample <N>             inject at N seeded-random boundaries
//!   --boundary <N>           inject only at boundary N — the single-shot
//!                            replay form forensics repro commands use
//!   --off-us <us>            outage length per injection       (default 100000)
//!   --strict-memory          force byte-exact FRAM compare (auto for
//!                            deterministic apps: dma, fir, lea, ota-update)
//!   --update-window          inject only at boundaries inside the app's
//!                            stage→flip→activate update window (read off
//!                            the continuous-power reference trace)
//!   --all-apps               sweep every built-in app over one shared pool
//!   --no-prune               execute every boundary instead of pruning
//!                            equivalent injection points (pruning is on by
//!                            default and outcome-preserving)
//!   --bench-out <path>       write BENCH_sweep.json (wall-clock, throughput,
//!                            prune counts, per-app breakdown)
//!   --utilization-out <path> write per-worker busy-time/injection counts
//!   --allow-violations       exit 0 even if violations are found
//!   --expect-violations      exit 1 only if NO violation is found
//!   --forensics-out <path>   write a self-contained bundle for the first
//!                            violation: boundary/fault coordinates, FRAM
//!                            diff vs the oracle, verbatim repro command
//! ```
//!
//! Subcommand `grid` fans a kernel × supply-point experiment matrix (the
//! Fig. 12/13 axes) across the worker pool:
//!
//! ```text
//! Usage: easeio-sim grid [COMMON OPTIONS] [OPTIONS]
//!   --kernels <a,b,c>        kernels to compare   (default alpaca,ink,easeio)
//!   --distances <d1,d2,..>   RF distances in inches (default 52,55,58,61,64)
//!   --on-times <m1,m2,..>    timer mean on-periods in ms (default none)
//! ```
//!
//! Subcommand `fleet` replicates the device template `--devices` times over
//! a shared lossy radio medium, shards the devices across the worker pool,
//! and reconciles every transmission at a simulated gateway — exactly-once
//! accounting under device power failures and peripheral faults. The
//! report (`kind: "fleet"`) is byte-identical at any `--jobs` width.
//!
//! ```text
//! Usage: easeio-sim fleet [COMMON OPTIONS] [OPTIONS]
//!   --devices <N>            fleet size                        (default 256)
//!   --loss <permille>        per-link channel loss             (default 0)
//!   --medium-seed <u64>      loss-draw seed          (default: the run seed)
//!   --airtime-base-us <us>   per-packet airtime floor          (default 32)
//!   --airtime-word-us <us>   airtime per payload word          (default 4)
//!   --stream-out <path>      stream per-device JSONL records as devices
//!                            complete (memory-flat; device-ordered and
//!                            byte-identical at any --jobs width)
//!   --forensics-out <path>   bundle for the first air-duplicate (plain
//!                            fleet) or update-safety violation (--rollout)
//!   --allow-duplicates       exit 0 even if duplicates hit the air
//!   --expect-duplicates      exit 1 unless duplicates hit the air (the
//!                            Naive-baseline pin)
//!   --rollout                roll an OTA update (app fixed to ota-update)
//!                            wave by wave instead of a plain fleet run
//!   --wave-size <N>          devices offered the update per wave (default 32)
//!   --target-seq <N>         image sequence to roll out       (default 2)
//!   --no-abort               keep offering after a wave regression
//!   --expect-update-violations
//!                            exit 1 unless torn images or duplicate
//!                            activations occurred (the Naive pin)
//! ```
//!
//! Exit status (all modes): 0 = ran and every requested check held,
//! 1 = a verdict failed (safety violation, regression, duplicate,
//! incomplete run), 2 = usage error or malformed input.

use apps::harness::{golden, run_once_faulted, run_traced_faulted, RuntimeKind};
use crashcheck::{SweepMode, SweepPlan};
use easeio_exec::report::{
    grid_report, metrics_entry, metrics_report, run_chrome_trace, run_report, sweep_bench,
    sweep_forensics, sweep_report, sweep_utilization,
};
use easeio_exec::{
    run_grid, sweep_matrix, sweep_matrix_observed, AppSpec, DeviceSpec, GridSpec, ScenarioSpec,
    SupplySpec, SweepEntry, SweepOptions, APP_NAMES, DEFAULT_RF_DISTANCE_IN,
};
use easeio_fleet::{run_fleet, run_rollout, RolloutPolicy};
use easeio_trace::{
    compare_metrics, flamegraph, flush_registered, jsonl, parse_json, validate_any_report, Event,
    EventKind, InstantKind, JsonlWriter, Progress, Report, ReportBody, SkippedApp, SpanKind, Value,
    CATEGORY_NAMES,
};
use kernel::{App, Fault, FaultSpec, Outcome, Verdict};
use mcu_emu::{Mcu, Supply};
use periph::MediumSpec;

/// Warns (once per occurrence, on stderr) that a still-accepted flag
/// spelling is deprecated, and what replaces it.
fn deprecated_flag(old: &str, new: &str) {
    eprintln!("warning: {old} is deprecated; use {new}");
}

/// The peripheral-fault flag group: `--fault-rate`, `--fault-seed`,
/// `--max-retries`. One struct shared verbatim by every subcommand (run,
/// sweep, grid, fleet), so the flags parse and resolve identically
/// everywhere.
struct FaultOpts {
    rate: u32,
    seed: Option<u64>,
    max_retries: Option<u32>,
}

impl FaultOpts {
    fn new() -> Self {
        Self {
            rate: 0,
            seed: None,
            max_retries: None,
        }
    }

    /// Consumes `flag` if it belongs to the fault group.
    fn accept(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag {
            "--fault-rate" => self.rate = parse_num(&val("--fault-rate")?)?,
            "--fault-seed" => self.seed = Some(parse_num(&val("--fault-seed")?)?),
            "--max-retries" => self.max_retries = Some(parse_num(&val("--max-retries")?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolves the group into a `FaultSpec`. `--fault-rate 0` (the
    /// default) disables injection entirely; the plan seed defaults to the
    /// run seed so `--fault-rate N` alone is a fully specified,
    /// reproducible experiment.
    fn into_spec(self, default_seed: u64) -> FaultSpec {
        let mut fault = FaultSpec::with_rate(self.seed.unwrap_or(default_seed), self.rate);
        if let Some(r) = self.max_retries {
            fault.retry.max_retries = r;
        }
        fault
    }
}

/// The one flag set shared by every mode. Parsed once; each subcommand adds
/// its own extras on top. `--runtime` (for `--kernel`) and `--report` (for
/// `--report-out`) are deprecated aliases that still parse but warn.
struct CommonOpts {
    app: String,
    source: Option<String>,
    kernel: String,
    supply: String,
    distance: u64,
    seed: Option<u64>,
    runs: u64,
    jobs: usize,
    trace: bool,
    trace_out: Option<String>,
    report_out: Option<String>,
    fault: FaultOpts,
}

impl CommonOpts {
    fn new() -> Self {
        Self {
            app: "dma".into(),
            source: None,
            kernel: "easeio".into(),
            supply: "timer".into(),
            distance: DEFAULT_RF_DISTANCE_IN,
            seed: None,
            runs: 1,
            jobs: 1,
            trace: false,
            trace_out: None,
            report_out: None,
            fault: FaultOpts::new(),
        }
    }

    /// Consumes `flag` if it is a common option (including the embedded
    /// fault group). Returns whether it was.
    fn accept(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        if self.fault.accept(flag, it)? {
            return Ok(true);
        }
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag {
            "--app" => self.app = val("--app")?,
            "--source" => self.source = Some(val("--source")?),
            "--kernel" => self.kernel = val("--kernel")?,
            "--runtime" => {
                deprecated_flag("--runtime", "--kernel");
                self.kernel = val("--runtime")?;
            }
            "--supply" => self.supply = val("--supply")?,
            "--distance" => self.distance = parse_num(&val("--distance")?)?,
            "--seed" => self.seed = Some(parse_num(&val("--seed")?)?),
            "--runs" => self.runs = parse_num(&val("--runs")?)?,
            "--jobs" => self.jobs = parse_num::<usize>(&val("--jobs")?)?.max(1),
            "--trace" => self.trace = true,
            "--trace-out" => self.trace_out = Some(val("--trace-out")?),
            "--report-out" => self.report_out = Some(val("--report-out")?),
            "--report" => {
                deprecated_flag("--report", "--report-out");
                self.report_out = Some(val("--report")?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolves the parsed strings into a 1-device [`ScenarioSpec`] (the
    /// fleet subcommand raises `count` afterwards). `default_seed` lets
    /// modes keep their historical defaults (run: 42, sweep: 7, grid: 77).
    fn into_scenario(self, default_seed: u64) -> Result<ScenarioSpec, String> {
        let kernel = RuntimeKind::parse(&self.kernel)?;
        let supply = SupplySpec::parse(&self.supply, self.distance)?;
        let app = match &self.source {
            Some(path) => AppSpec::Source(path.clone()),
            None => AppSpec::Named(self.app.clone()),
        };
        let seed = self.seed.unwrap_or(default_seed);
        let fault = self.fault.into_spec(seed);
        Ok(ScenarioSpec {
            device: DeviceSpec { app, kernel, fault },
            count: 1,
            supply,
            medium: MediumSpec::ideal(),
            seed,
            runs: self.runs,
            jobs: self.jobs,
            trace_out: self.trace_out,
            report_out: self.report_out,
        })
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("{e}"))
}

/// A comma-separated flag value, each item parsed by `item` (empty items
/// skipped).
fn parse_list<T>(s: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    s.split(',').filter(|p| !p.is_empty()).map(item).collect()
}

fn print_trace(events: &[Event], dropped: u64) {
    println!("\n-- event timeline --");
    for ev in events {
        let ms = ev.ts_us as f64 / 1000.0;
        let line = match ev.kind {
            EventKind::Instant(InstantKind::PowerFailure) => "*** POWER FAILURE ***".to_string(),
            EventKind::Instant(InstantKind::Boot) => "boot".to_string(),
            EventKind::Instant(k) => format!("  {} ({})", k.label(), ev.name),
            EventKind::SpanBegin(SpanKind::TaskAttempt) => {
                if ev.site > 0 {
                    format!(
                        "task {} `{}` RE-EXECUTE (attempt {})",
                        ev.task,
                        ev.name,
                        ev.site + 1
                    )
                } else {
                    format!("task {} `{}` enter", ev.task, ev.name)
                }
            }
            EventKind::SpanBegin(SpanKind::PowerOff) => "supply off".to_string(),
            EventKind::SpanEnd(SpanKind::PowerOff, _) => "supply restored".to_string(),
            EventKind::SpanBegin(k) => format!("  {} `{}` begin", k.label(), ev.name),
            EventKind::SpanEnd(SpanKind::TaskAttempt, st) => {
                format!("task {} `{}`: {}", ev.task, ev.name, st.label())
            }
            EventKind::SpanEnd(k, st) => format!("  {} `{}`: {}", k.label(), ev.name, st.label()),
        };
        println!("{ms:>10.3} ms  {line}");
    }
    if dropped > 0 {
        println!("  ({dropped} older events dropped by the ring)");
    }
}

/// The binary's whole exit-status vocabulary, in one place. Every exit
/// path goes through [`exit`] with one of these — scripts and CI match on
/// the number, so the mapping is a documented interface (see the README's
/// exit-code table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExitCode {
    /// The requested work ran and every requested check held.
    Ok = 0,
    /// The simulation ran but a verdict failed: safety violations found
    /// (or expected and absent), duplicates on the air, a regression
    /// beyond the gate, a run that did not complete, or a built report
    /// failing its own schema.
    VerdictFailure = 1,
    /// The request itself was unusable: unknown flag or app, missing
    /// value, unreadable file, or malformed input JSON.
    Usage = 2,
}

fn exit(code: ExitCode) -> ! {
    // Drain every registered JSONL sink first: a nonzero exit must not
    // truncate a buffered stream/progress tail (ISSUE 10 satellite).
    flush_registered();
    std::process::exit(code as i32)
}

fn write_or_die(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {what} {path}: {e}");
        exit(ExitCode::Usage);
    }
}

/// Exits after a failed parse: the error (unless help was asked for),
/// then `usage`; status 0 for `--help`, 2 otherwise.
fn usage_exit(e: &str, usage: &str) -> ! {
    if e != "help" {
        eprintln!("error: {e}\n");
    }
    eprintln!("{usage}");
    exit(if e == "help" {
        ExitCode::Ok
    } else {
        ExitCode::Usage
    })
}

/// Builds an app once on a scratch machine, so app and source errors exit 2
/// before any long run starts.
fn probe_or_die(build: impl FnOnce(&mut Mcu) -> Result<App, String>) -> App {
    build(&mut Mcu::new(Supply::continuous())).unwrap_or_else(|e| die(&e))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(ExitCode::Usage)
}

/// The CLI side of the live progress channel: owns the shared [`Progress`]
/// the engines tick and a monitor thread that samples it about once a
/// second — a heartbeat line on stderr with `--progress`, a JSONL record
/// per sample with `--progress-out`. Dropping the guard emits one final
/// sample and joins the monitor, so even sub-second runs leave a record.
struct ProgressGuard {
    progress: std::sync::Arc<Progress>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressGuard {
    /// Starts the monitor if either progress surface was requested.
    fn start(stderr_heartbeat: bool, out: Option<&str>) -> Option<ProgressGuard> {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        if !stderr_heartbeat && out.is_none() {
            return None;
        }
        let sink = out.map(|path| {
            JsonlWriter::create_registered(path)
                .unwrap_or_else(|e| die(&format!("cannot create progress log {path}: {e}")))
        });
        let progress = Arc::new(Progress::new());
        let stop = Arc::new(AtomicBool::new(false));
        let (p, s) = (progress.clone(), stop.clone());
        let handle = std::thread::spawn(move || loop {
            let done = s.load(Ordering::Relaxed);
            let snap = p.snapshot();
            // Skip the idle pre-phase sample; the final one always lands.
            if !snap.phase.is_empty() {
                if stderr_heartbeat {
                    eprintln!("{}", snap.stderr_line());
                }
                if let Some(sink) = &sink {
                    let _ = sink.lock().unwrap().write_line(&snap.to_json_line());
                }
            }
            if done {
                if let Some(sink) = &sink {
                    let _ = sink.lock().unwrap().flush();
                }
                break;
            }
            for _ in 0..10 {
                if s.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        });
        Some(ProgressGuard {
            progress,
            stop,
            handle: Some(handle),
        })
    }

    fn progress(&self) -> &Progress {
        &self.progress
    }
}

impl Drop for ProgressGuard {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The engines' optional observer from an optional guard.
fn observer(guard: &Option<ProgressGuard>) -> Option<&Progress> {
    guard.as_ref().map(|g| g.progress())
}

/// Writes `doc` to `path` as pretty JSON and says so.
fn write_json_or_die(path: &str, doc: &Value, what: &str) {
    let mut text = doc.to_pretty();
    text.push('\n');
    write_or_die(path, &text, what);
    println!("{what} written to {path}");
}

/// Renders `report` and checks it against its own schema: a document that
/// fails it never leaves the process (exit 1).
fn checked_or_die<T: ReportBody>(report: &Report<T>, what: &str) -> Value {
    let doc = report.to_value();
    if let Err(errs) = Report::<T>::validate(&doc) {
        eprintln!("error: built {what} fails its own schema:");
        for e in &errs {
            eprintln!("  - {e}");
        }
        exit(ExitCode::VerdictFailure);
    }
    doc
}

/// The one way a report leaves the process: validated, then written.
fn write_report_or_die<T: ReportBody>(path: &str, report: &Report<T>, what: &str) {
    write_json_or_die(path, &checked_or_die(report, what), what);
}

/// Runs a fleet engine with the `--stream-out` writer attached, if one was
/// asked for. The writer is registered so a nonzero exit still flushes
/// its tail.
fn with_stream<T>(
    path: Option<&str>,
    engine: impl FnOnce(Option<&mut JsonlWriter>) -> Result<T, String>,
) -> T {
    let sink = path.map(|path| {
        JsonlWriter::create_registered(path)
            .unwrap_or_else(|e| die(&format!("cannot create device stream {path}: {e}")))
    });
    let mut w = sink
        .as_ref()
        .map(|s| s.lock().expect("no other thread has used the writer yet"));
    let result = engine(w.as_deref_mut());
    // `die` flushes every registered writer, so release this one first.
    drop(w);
    result.unwrap_or_else(|e| die(&e))
}

fn read_json_or_die(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        exit(ExitCode::Usage)
    });
    parse_json(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: invalid JSON: {e}");
        exit(ExitCode::Usage)
    })
}

// -------------------------------------------------------------- metrics --

struct MetricsArgs {
    seed: u64,
    out: Option<String>,
    flame_out: Option<String>,
    kernels: Vec<RuntimeKind>,
    apps: Vec<String>,
    include_skipped: bool,
}

fn parse_metrics_args() -> Result<MetricsArgs, String> {
    let mut seed = 42;
    let mut out = None;
    let mut flame_out = None;
    let mut kernels = vec![
        RuntimeKind::Naive,
        RuntimeKind::Alpaca,
        RuntimeKind::Ink,
        RuntimeKind::EaseIo,
    ];
    // Every benchmark app. Apps the metrics supply cannot run (`fir-long`:
    // its chunk task is a ~25 ms atomic burst, longer than the timer
    // supply's 20 ms maximum on-period, so every task-atomic runtime
    // non-terminates by construction) are reported as explicit "skipped"
    // rows instead of silently omitted; `--include-skipped` forces them to
    // run anyway.
    let mut apps: Vec<String> = APP_NAMES.iter().map(|n| (*n).to_string()).collect();
    let mut include_skipped = false;
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--seed" => seed = parse_num(&val("--seed")?)?,
            "--metrics-out" => out = Some(val("--metrics-out")?),
            "--out" => {
                deprecated_flag("--out", "--metrics-out");
                out = Some(val("--out")?);
            }
            "--flame-out" => flame_out = Some(val("--flame-out")?),
            "--include-skipped" => include_skipped = true,
            "--kernels" => kernels = parse_list(&val("--kernels")?, RuntimeKind::parse)?,
            "--apps" => apps = parse_list(&val("--apps")?, |a| Ok(a.to_string()))?,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown metrics flag {other}")),
        }
    }
    Ok(MetricsArgs {
        seed,
        out,
        flame_out,
        kernels,
        apps,
        include_skipped,
    })
}

/// `metrics`: one timer-supply run per kernel × app at a fixed seed, every
/// run's attribution ledger folded into one `kind: "metrics"` document.
/// Purely virtual-time — the document is byte-identical across hosts and
/// runs, which is what makes it committable as a CI baseline.
fn metrics_main() -> ! {
    let args = parse_metrics_args().unwrap_or_else(|e| {
        usage_exit(
            &e,
            "usage: easeio-sim metrics [--seed N] [--metrics-out FILE.json]\n\
             \x20                         [--flame-out FILE.json] [--kernels a,b,c]\n\
             \x20                         [--apps x,y,z] [--include-skipped]",
        )
    });
    // Partition the app list once, up front: apps the metrics supply cannot
    // run become explicit "skipped" rows (console + document) rather than
    // silently vanishing from the table.
    let mut skipped: Vec<SkippedApp> = Vec::new();
    let mut runnable: Vec<String> = Vec::new();
    for app_name in &args.apps {
        match AppSpec::Named(app_name.clone()).metrics_skip_reason() {
            Some(reason) if !args.include_skipped => skipped.push(SkippedApp {
                app: app_name.clone(),
                reason: reason.into(),
            }),
            _ => runnable.push(app_name.clone()),
        }
    }
    let mut entries = Vec::new();
    println!(
        "{:<8} {:<15} {:>12} {:>11} {:>7} {:>13}",
        "kernel", "app", "energy_uj", "waste_uj", "waste%", "redundant_nj"
    );
    for s in &skipped {
        println!("{:<8} {:<15} skipped: {}", "-", s.app, s.reason);
    }
    for kind in &args.kernels {
        for app_name in &runnable {
            let spec = AppSpec::Named(app_name.clone());
            probe_or_die(|m| spec.build(*kind, m));
            let build = |m: &mut Mcu| spec.build(*kind, m).unwrap();
            let supply = SupplySpec::Timer.make(args.seed);
            let r = run_once_faulted(&build, *kind, supply, args.seed, &FaultSpec::none());
            let entry = metrics_entry(kind.name(), app_name, &r);
            let redundant: u64 = entry.redundant_sites.iter().map(|s| s.energy_nj).sum();
            println!(
                "{:<8} {:<15} {:>12.2} {:>11.2} {:>6.1}% {:>13}",
                kind.name(),
                app_name,
                entry.total_energy_nj as f64 / 1000.0,
                entry.waste_nj() as f64 / 1000.0,
                if entry.total_energy_nj > 0 {
                    entry.waste_nj() as f64 * 100.0 / entry.total_energy_nj as f64
                } else {
                    0.0
                },
                redundant,
            );
            entries.push(entry);
        }
    }
    let report = metrics_report(args.seed, entries, skipped);
    // Self-check before anything is written, the flamegraph included: a
    // document violating the attribution invariant must never become a
    // baseline.
    match &args.out {
        Some(path) => write_report_or_die(path, &report, "metrics report"),
        None => drop(checked_or_die(&report, "metrics report")),
    }
    if let Some(path) = &args.flame_out {
        write_json_or_die(path, &flamegraph(&report.body), "flamegraph");
    }
    exit(ExitCode::Ok);
}

// -------------------------------------------------------------- compare --

/// `compare OLD NEW --gate-pct N`: regression gate over two metrics
/// reports. Exit 0 = within gate, 1 = regression found, 2 = unreadable or
/// malformed input.
fn compare_main() -> ! {
    let mut paths: Vec<String> = Vec::new();
    let mut gate_pct = 5.0;
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--gate-pct" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("missing value for --gate-pct"));
                gate_pct = v
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--gate-pct: {e}")));
            }
            "--help" | "-h" => {
                eprintln!("usage: easeio-sim compare OLD.json NEW.json [--gate-pct N]");
                exit(ExitCode::Ok);
            }
            p if !p.starts_with('-') => paths.push(p.to_string()),
            other => die(&format!("unknown compare flag {other}")),
        }
    }
    if paths.len() != 2 {
        die("compare needs exactly two report paths (OLD NEW)");
    }
    let old = read_json_or_die(&paths[0]);
    let new = read_json_or_die(&paths[1]);
    match compare_metrics(&old, &new, gate_pct) {
        Err(errs) => {
            eprintln!("error: reports are not comparable:");
            for e in &errs {
                eprintln!("  - {e}");
            }
            exit(ExitCode::Usage);
        }
        Ok(regressions) if regressions.is_empty() => {
            println!(
                "compare: {} vs {} — within the {gate_pct}% gate",
                paths[0], paths[1]
            );
            exit(ExitCode::Ok);
        }
        Ok(regressions) => {
            eprintln!(
                "compare: {} regression(s) beyond the {gate_pct}% gate:",
                regressions.len()
            );
            for r in &regressions {
                eprintln!("  - {}", r.describe());
            }
            exit(ExitCode::VerdictFailure);
        }
    }
}

// ---------------------------------------------------------------- sweep --

struct SweepArgs {
    sc: ScenarioSpec,
    off_us: u64,
    sample: Option<u64>,
    strict_memory: bool,
    update_window: bool,
    all_apps: bool,
    bench_out: Option<String>,
    utilization_out: Option<String>,
    prune: bool,
    allow_violations: bool,
    expect_violations: bool,
    boundary: Option<u64>,
    forensics_out: Option<String>,
    progress: bool,
    progress_out: Option<String>,
}

fn parse_sweep_args() -> Result<SweepArgs, String> {
    let mut common = CommonOpts::new();
    let mut off_us = 100_000;
    let mut sample = None;
    let mut strict_memory = false;
    let mut update_window = false;
    let mut all_apps = false;
    let mut bench_out = None;
    let mut utilization_out = None;
    let mut prune = true;
    let mut allow_violations = false;
    let mut expect_violations = false;
    let mut boundary = None;
    let mut forensics_out = None;
    let mut progress = false;
    let mut progress_out = None;
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        if common.accept(&flag, &mut it)? {
            continue;
        }
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--off-us" => off_us = parse_num(&val("--off-us")?)?,
            "--exhaustive" => sample = None,
            "--sample" => sample = Some(parse_num(&val("--sample")?)?),
            "--boundary" => boundary = Some(parse_num(&val("--boundary")?)?),
            "--strict-memory" => strict_memory = true,
            "--update-window" => update_window = true,
            "--all-apps" => all_apps = true,
            "--bench-out" => bench_out = Some(val("--bench-out")?),
            "--utilization-out" => utilization_out = Some(val("--utilization-out")?),
            "--forensics-out" => forensics_out = Some(val("--forensics-out")?),
            "--no-prune" => prune = false,
            "--allow-violations" => allow_violations = true,
            "--expect-violations" => expect_violations = true,
            "--progress" => progress = true,
            "--progress-out" => progress_out = Some(val("--progress-out")?),
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown sweep flag {other}")),
        }
    }
    if boundary.is_some() && sample.is_some() {
        return Err("--boundary and --sample are mutually exclusive".into());
    }
    Ok(SweepArgs {
        sc: common.into_scenario(7)?,
        off_us,
        sample,
        strict_memory,
        update_window,
        all_apps,
        bench_out,
        utilization_out,
        prune,
        allow_violations,
        expect_violations,
        boundary,
        forensics_out,
        progress,
        progress_out,
    })
}

fn sweep_main() -> ! {
    let args = parse_sweep_args().unwrap_or_else(|e| {
        usage_exit(
            &e,
            "usage: easeio-sim sweep [--app NAME | --all-apps] [--kernel NAME] [--jobs N]\n\
             \x20                       [--exhaustive | --sample N | --boundary N] [--seed N]\n\
             \x20                       [--off-us US] [--strict-memory] [--update-window]\n\
             \x20                       [--report-out FILE.json]\n\
             \x20                       [--fault-rate PM] [--fault-seed N] [--max-retries N]\n\
             \x20                       [--no-prune] [--bench-out BENCH_sweep.json]\n\
             \x20                       [--utilization-out FILE.json]\n\
             \x20                       [--forensics-out FILE.json]\n\
             \x20                       [--progress] [--progress-out FILE.jsonl]\n\
             \x20                       [--allow-violations] [--expect-violations]",
        )
    });
    let sc = &args.sc;
    // One scenario per swept app.
    let specs: Vec<ScenarioSpec> = if args.all_apps {
        if sc.report_out.is_some() {
            die("--report-out is per-app; use --bench-out with --all-apps");
        }
        APP_NAMES
            .iter()
            .map(|n| {
                let mut spec = sc.clone();
                spec.device.app = AppSpec::Named((*n).into());
                spec
            })
            .collect()
    } else {
        vec![sc.clone()]
    };

    let mode = match (args.boundary, args.sample) {
        (Some(b), _) => SweepMode::Boundary(b),
        (None, Some(n)) => SweepMode::Sample(n),
        (None, None) => SweepMode::Exhaustive,
    };
    for spec in &specs {
        probe_or_die(|m| spec.build_app(m));
    }
    let builders: Vec<_> = specs
        .iter()
        .map(|spec| move |m: &mut Mcu| spec.build_app(m).expect("probe-built above"))
        .collect();
    let entries: Vec<SweepEntry> = specs
        .iter()
        .zip(&builders)
        .map(|(spec, builder)| SweepEntry {
            builder,
            kind: sc.device.kernel,
            plan: SweepPlan {
                mode,
                seed: sc.seed,
                off_us: args.off_us,
                strict_memory: args.strict_memory || spec.device.app.is_deterministic(),
                update_window: args.update_window,
                env_seed: sc.seed,
                fault: sc.device.fault,
            },
        })
        .collect();

    // One worker pool serves the whole app matrix: workers are spawned once
    // and keep a warm machine per app, instead of paying a pool spawn/join
    // and a cold snapshot adoption per app.
    let opts = SweepOptions {
        jobs: sc.jobs,
        prune: args.prune,
    };
    let guard = ProgressGuard::start(args.progress, args.progress_out.as_deref());
    let started = std::time::Instant::now();
    let results = sweep_matrix_observed(&entries, &opts, observer(&guard));
    let matrix_wall_us = (started.elapsed().as_micros() as u64).max(1);
    drop(guard);

    // With --bench-out, any sweep that could differ from the unpruned serial
    // loop (wider than one worker, or pruned) also runs that loop: it is the
    // identity gate — the engine must merge to the exact same outcome,
    // nanojoule for nanojoule — and the honest speedup baseline.
    let record_serial = args.bench_out.is_some() && (sc.jobs > 1 || args.prune);
    let serial_results = if record_serial {
        let started = std::time::Instant::now();
        let serial = sweep_matrix(
            &entries,
            &SweepOptions {
                jobs: 1,
                prune: false,
            },
        );
        Some((serial, (started.elapsed().as_micros() as u64).max(1)))
    } else {
        None
    };

    let mut total_violations = 0u64;
    for (i, (out, timing)) in results.iter().enumerate() {
        if let Some((serial, _)) = &serial_results {
            if serial[i].0 != *out {
                eprintln!(
                    "error: unpruned serial and --jobs {}{} sweeps of {} diverged",
                    sc.jobs,
                    if args.prune { " pruned" } else { "" },
                    specs[i].device.app.label()
                );
                exit(ExitCode::VerdictFailure);
            }
        }
        let plan = &out.config;
        println!(
            "sweep: {} under {} — {} boundaries, {} injections ({}), seed {}, outage {} µs{}{}, \
             {} job(s), {:.2} ms wall ({} inj/s), {} run / {} pruned, {} resumed / {} cut",
            out.app,
            out.runtime,
            out.oracle_boundaries,
            out.injections,
            plan.mode.name(),
            plan.seed,
            plan.off_us,
            if plan.strict_memory {
                ", strict memory"
            } else {
                ""
            },
            if plan.fault.plan.is_some() {
                format!(", faults {}", plan.fault.label())
            } else {
                String::new()
            },
            timing.jobs,
            timing.wall_us as f64 / 1000.0,
            timing
                .injections_per_sec_milli
                .map(|r| (r / 1000).to_string())
                .unwrap_or_else(|| "unmeasured".into()),
            timing.prune.injections_executed,
            timing.prune.injections_pruned,
            timing.prune.resumed,
            timing.prune.cut,
        );
        for v in &out.violations {
            println!(
                "  boundary {:>6}: {} — {}",
                v.boundary,
                v.kind.name(),
                v.detail
            );
        }
        println!(
            "sweep result: {} violation(s) in {} injection(s)",
            out.violations.len(),
            out.injections
        );
        let report = sweep_report(out, timing);
        if let Some(w) = &report.body.waste {
            println!(
                "sweep waste: mean {} nJ, p95 {} nJ, max {} nJ per boundary",
                w.mean_waste_nj, w.p95_waste_nj, w.max_waste_nj
            );
        }
        if let Some(path) = &sc.report_out {
            write_report_or_die(path, &report, "sweep report");
        }
        total_violations += out.violations.len() as u64;
    }

    if let Some(path) = &args.forensics_out {
        // The bundle documents the sweep's *first* violation in entry order.
        let bundle =
            (results.iter().zip(&specs)).find_map(|((out, _), spec)| sweep_forensics(spec, out));
        match bundle {
            Some(b) => write_report_or_die(path, &b, "forensics bundle"),
            None => println!("forensics: no violations — nothing written to {path}"),
        }
    }

    if let Some(path) = &args.bench_out {
        let serial = serial_results
            .as_ref()
            .map(|(s, wall)| (s.as_slice(), *wall));
        if let Some((_, serial_wall_us)) = serial {
            println!(
                "sweep bench: --jobs {}{} is {:.2}x serial-unpruned ({:.1} ms vs {:.1} ms)",
                sc.jobs,
                if args.prune { " with pruning" } else { "" },
                serial_wall_us as f64 / matrix_wall_us as f64,
                matrix_wall_us as f64 / 1000.0,
                serial_wall_us as f64 / 1000.0
            );
        }
        let doc = sweep_bench(&results, &opts, mode, sc.seed, matrix_wall_us, serial);
        write_json_or_die(path, &doc, "sweep bench");
    }

    if let Some(path) = &args.utilization_out {
        let doc = sweep_utilization(&results, matrix_wall_us);
        write_json_or_die(path, &doc, "sweep utilization");
    }

    if args.expect_violations {
        if total_violations == 0 {
            eprintln!("error: expected violations, found none");
            exit(ExitCode::VerdictFailure);
        }
        exit(ExitCode::Ok);
    }
    if total_violations > 0 && !args.allow_violations {
        exit(ExitCode::VerdictFailure);
    }
    exit(ExitCode::Ok);
}

// ----------------------------------------------------------------- grid --

struct GridArgs {
    sc: ScenarioSpec,
    spec: GridSpec,
}

fn parse_grid_args() -> Result<GridArgs, String> {
    let mut common = CommonOpts::new();
    let mut kernels: Option<Vec<RuntimeKind>> = None;
    let mut distances: Option<Vec<u64>> = None;
    let mut on_times: Vec<u64> = vec![];
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        if common.accept(&flag, &mut it)? {
            continue;
        }
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--kernels" => kernels = Some(parse_list(&val("--kernels")?, RuntimeKind::parse)?),
            "--distances" => distances = Some(parse_list(&val("--distances")?, parse_num)?),
            "--on-times" => on_times = parse_list(&val("--on-times")?, parse_num)?,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown grid flag {other}")),
        }
    }
    let runs = common.runs.max(1);
    let sc = common.into_scenario(77)?;
    let mut spec = GridSpec {
        runs,
        seed: sc.seed,
        fault: sc.device.fault,
        ..GridSpec::default()
    };
    if let Some(k) = kernels {
        spec.kernels = k;
    }
    if let Some(d) = distances {
        spec.distances_inch = d;
    }
    if !on_times.is_empty() {
        spec.on_times_ms = on_times;
    }
    Ok(GridArgs { sc, spec })
}

fn grid_main() -> ! {
    let args = parse_grid_args().unwrap_or_else(|e| {
        usage_exit(
            &e,
            "usage: easeio-sim grid [--app NAME] [--kernels a,b,c] [--distances d1,d2,..]\n\
             \x20                      [--on-times m1,m2,..] [--runs N] [--seed N] [--jobs N]\n\
             \x20                      [--fault-rate PM] [--fault-seed N] [--max-retries N]\n\
             \x20                      [--report-out FILE.json]",
        )
    });
    let sc = &args.sc;
    // Once: grid apps build the same under every kernel.
    probe_or_die(|m| sc.device.app.build(RuntimeKind::EaseIo, m));
    let app = &sc.device.app;
    let builder = |kind: RuntimeKind, m: &mut Mcu| app.build(kind, m).unwrap();
    let (cells, stats) = run_grid(&builder, &args.spec, sc.jobs);
    println!(
        "grid: {} — {} cells × {} run(s), {} job(s), {:.2} ms wall",
        app.label(),
        cells.len(),
        args.spec.runs,
        stats.jobs,
        stats.wall_us as f64 / 1000.0
    );
    println!(
        "{:<8} {:<12} {:>9} {:>8} {:>12} {:>12} {:>9}",
        "kernel", "supply", "completed", "correct", "mean_wall_ms", "mean_on_ms", "failures"
    );
    for c in &cells {
        println!(
            "{:<8} {:<12} {:>9} {:>8} {:>12.2} {:>12.2} {:>9}",
            c.kernel,
            c.supply,
            c.completed,
            c.correct,
            c.mean_wall_us as f64 / 1000.0,
            c.mean_on_us as f64 / 1000.0,
            c.mean_failures
        );
    }
    if let Some(path) = &sc.report_out {
        write_json_or_die(
            path,
            &grid_report(app, &args.spec, &cells, &stats),
            "grid report",
        );
    }
    exit(ExitCode::Ok);
}

// ---------------------------------------------------------------- fleet --

struct FleetArgs {
    sc: ScenarioSpec,
    allow_duplicates: bool,
    expect_duplicates: bool,
    rollout: Option<RolloutPolicy>,
    expect_update_violations: bool,
    stream_out: Option<String>,
    forensics_out: Option<String>,
    progress: bool,
    progress_out: Option<String>,
}

fn parse_fleet_args() -> Result<FleetArgs, String> {
    let mut common = CommonOpts::new();
    // The fleet's natural template is the radio relay under EaseIO; any
    // --app/--kernel combination can still be requested explicitly.
    common.app = "flaky-radio".into();
    let mut devices: u32 = 256;
    let mut loss: u32 = 0;
    let mut medium_seed: Option<u64> = None;
    let mut airtime_base: Option<u64> = None;
    let mut airtime_word: Option<u64> = None;
    let mut allow_duplicates = false;
    let mut expect_duplicates = false;
    let mut rollout = false;
    let mut wave_size: Option<u32> = None;
    let mut target_seq: Option<u32> = None;
    let mut no_abort = false;
    let mut expect_update_violations = false;
    let mut stream_out = None;
    let mut forensics_out = None;
    let mut progress = false;
    let mut progress_out = None;
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        if common.accept(&flag, &mut it)? {
            continue;
        }
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--devices" => devices = parse_num(&val("--devices")?)?,
            "--loss" => loss = parse_num(&val("--loss")?)?,
            "--medium-seed" => medium_seed = Some(parse_num(&val("--medium-seed")?)?),
            "--airtime-base-us" => airtime_base = Some(parse_num(&val("--airtime-base-us")?)?),
            "--airtime-word-us" => airtime_word = Some(parse_num(&val("--airtime-word-us")?)?),
            "--allow-duplicates" => allow_duplicates = true,
            "--expect-duplicates" => expect_duplicates = true,
            "--rollout" => rollout = true,
            "--wave-size" => wave_size = Some(parse_num(&val("--wave-size")?)?),
            "--target-seq" => target_seq = Some(parse_num(&val("--target-seq")?)?),
            "--no-abort" => no_abort = true,
            "--expect-update-violations" => expect_update_violations = true,
            "--stream-out" => stream_out = Some(val("--stream-out")?),
            "--forensics-out" => forensics_out = Some(val("--forensics-out")?),
            "--progress" => progress = true,
            "--progress-out" => progress_out = Some(val("--progress-out")?),
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown fleet flag {other}")),
        }
    }
    if devices == 0 {
        return Err("--devices must be at least 1".into());
    }
    if !rollout
        && (wave_size.is_some() || target_seq.is_some() || no_abort || expect_update_violations)
    {
        return Err(
            "--wave-size/--target-seq/--no-abort/--expect-update-violations need --rollout".into(),
        );
    }
    let mut sc = common.into_scenario(42)?;
    sc.count = devices;
    let rollout = rollout.then(|| {
        // The rollout's device workload is the OTA-update app by
        // construction; pin the spec so the report says so.
        sc.device.app = AppSpec::Named("ota-update".into());
        let defaults = RolloutPolicy::default();
        RolloutPolicy {
            target_seq: target_seq.unwrap_or(defaults.target_seq),
            wave_size: wave_size.unwrap_or(defaults.wave_size),
            abort_on_regression: !no_abort,
        }
    });
    let mut medium = MediumSpec::lossy(medium_seed.unwrap_or(sc.seed), loss);
    if let Some(b) = airtime_base {
        medium.airtime_base_us = b;
    }
    if let Some(w) = airtime_word {
        medium.airtime_us_per_word = w;
    }
    sc.medium = medium;
    Ok(FleetArgs {
        sc,
        allow_duplicates,
        expect_duplicates,
        rollout,
        expect_update_violations,
        stream_out,
        forensics_out,
        progress,
        progress_out,
    })
}

/// The `fleet --rollout` driver: rolling OTA update, convergence summary,
/// `kind: "fleet"` report with the `rollout` block, and the update-safety
/// verdict.
fn rollout_main(args: &FleetArgs, policy: &RolloutPolicy) -> ! {
    let sc = &args.sc;
    let guard = ProgressGuard::start(args.progress, args.progress_out.as_deref());
    let r = with_stream(args.stream_out.as_deref(), |out| {
        run_rollout(sc, policy, out, observer(&guard))
    });
    drop(guard);
    let s = &r.stats;
    println!(
        "rollout: {} devices to image seq {} under {} on {} supply \
         (seed {}, medium {}, waves of {})",
        sc.count,
        s.target_seq,
        sc.device.kernel.name(),
        sc.supply.label(),
        sc.seed,
        sc.medium.label(),
        s.wave_size
    );
    println!(
        "  waves:      {} of {} rolled out{}",
        s.waves_rolled_out,
        s.waves,
        if s.aborted {
            " — ABORTED on a wave regression"
        } else {
            ""
        }
    );
    println!(
        "  versions:   {} on seq {}, {} on seq 1 ({} stragglers, {} stale), {} failed",
        s.updated,
        s.target_seq,
        s.stragglers + s.stale,
        s.stragglers,
        s.stale,
        s.update_failed
    );
    println!(
        "  downlink:   {} chunk transmissions, {} lost to the channel",
        s.downlink_chunks_sent, s.downlink_chunks_lost
    );
    println!(
        "  safety:     {} torn image(s), {} duplicate activation(s)",
        s.version_torn, s.duplicate_activations
    );
    println!(
        "  pool:       {} job(s), {:.2} ms wall",
        r.pool.jobs,
        r.pool.wall_us as f64 / 1000.0
    );
    if let Some(path) = &args.stream_out {
        println!(
            "  stream:     {} device records -> {} ({} shard files)",
            r.stream.records, path, r.stream.shards
        );
    }
    if let Some(path) = &sc.report_out {
        write_report_or_die(path, &Report::new(r.report_inputs(sc)), "fleet report");
    }
    if let Some(path) = &args.forensics_out {
        match r.forensics(sc, policy) {
            Some(b) => write_report_or_die(path, &b, "forensics bundle"),
            None => println!("forensics: no update-safety violations — nothing written to {path}"),
        }
    }
    let violations = s.version_torn + s.duplicate_activations;
    if args.expect_update_violations {
        if violations == 0 {
            eprintln!("error: expected torn images or duplicate activations, found none");
            exit(ExitCode::VerdictFailure);
        }
        exit(ExitCode::Ok);
    }
    if violations > 0 {
        eprintln!(
            "error: {} torn image(s) and {} duplicate activation(s) — \
             old-or-new update atomicity violated",
            s.version_torn, s.duplicate_activations
        );
        exit(ExitCode::VerdictFailure);
    }
    exit(ExitCode::Ok);
}

fn fleet_main() -> ! {
    let args = parse_fleet_args().unwrap_or_else(|e| {
        usage_exit(
            &e,
            "usage: easeio-sim fleet [--devices N] [--app NAME] [--kernel NAME] [--jobs N]\n\
             \x20                       [--supply continuous|timer|rf] [--seed N]\n\
             \x20                       [--loss PM] [--medium-seed N] [--airtime-base-us US]\n\
             \x20                       [--airtime-word-us US] [--report-out FILE.json]\n\
             \x20                       [--fault-rate PM] [--fault-seed N] [--max-retries N]\n\
             \x20                       [--stream-out FILE.jsonl] [--forensics-out FILE.json]\n\
             \x20                       [--progress] [--progress-out FILE.jsonl]\n\
             \x20                       [--allow-duplicates | --expect-duplicates]\n\
             \x20                       [--rollout [--wave-size N] [--target-seq N]\n\
             \x20                        [--no-abort] [--expect-update-violations]]",
        )
    });
    if let Some(policy) = &args.rollout {
        rollout_main(&args, policy);
    }
    let sc = &args.sc;
    let guard = ProgressGuard::start(args.progress, args.progress_out.as_deref());
    let r = with_stream(args.stream_out.as_deref(), |out| {
        run_fleet(sc, out, observer(&guard))
    });
    drop(guard);
    let g = &r.gateway;
    let o = r.agg.outcomes();
    let straggle = r.agg.stragglers();
    println!(
        "fleet: {} × {} under {} on {} supply (seed {}, medium {}{})",
        sc.count,
        sc.device.app.label(),
        sc.device.kernel.name(),
        sc.supply.label(),
        sc.seed,
        sc.medium.label(),
        if sc.device.fault.plan.is_some() {
            format!(", faults {}", sc.device.fault.label())
        } else {
            String::new()
        }
    );
    println!(
        "  outcomes:   {} completed / {} non-terminated / {} faulted; {} correct / {} incorrect",
        o.completed, o.non_terminated, o.faulted, o.correct, o.incorrect
    );
    println!(
        "  reboots:    {} power failures across the fleet",
        r.agg.power_failures()
    );
    println!(
        "  air:        {} transmissions, {} unique, {} duplicates",
        g.transmissions, g.unique_sent, g.air_duplicates
    );
    println!(
        "  delivery:   {} delivered ({} unique, {}.{}% of sent identities), \
         {} lost to collisions, {} to the channel",
        g.delivered,
        g.delivered_unique,
        g.delivery_rate_milli() / 10,
        g.delivery_rate_milli() % 10,
        g.lost_collision,
        g.lost_channel
    );
    println!(
        "  stragglers: wall p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
        straggle.p50_wall_us as f64 / 1000.0,
        straggle.p90_wall_us as f64 / 1000.0,
        straggle.p99_wall_us as f64 / 1000.0,
        straggle.max_wall_us as f64 / 1000.0
    );
    println!(
        "  energy:     {:.2} µJ fleet total",
        r.agg.energy().total_energy_nj as f64 / 1000.0
    );
    println!(
        "  pool:       {} job(s), {:.2} ms wall",
        r.pool.jobs,
        r.pool.wall_us as f64 / 1000.0
    );
    if let Some(path) = &args.stream_out {
        println!(
            "  stream:     {} device records -> {} ({} shard files)",
            r.stream.records, path, r.stream.shards
        );
    }
    if let Some(path) = &sc.report_out {
        write_report_or_die(path, &Report::new(r.report_inputs(sc)), "fleet report");
    }
    if let Some(path) = &args.forensics_out {
        match r.forensics(sc) {
            Some(b) => write_report_or_die(path, &b, "forensics bundle"),
            None => println!("forensics: no air duplicates — nothing written to {path}"),
        }
    }
    if args.expect_duplicates {
        if g.air_duplicates == 0 {
            eprintln!("error: expected duplicate transmissions, found none");
            exit(ExitCode::VerdictFailure);
        }
        exit(ExitCode::Ok);
    }
    if g.air_duplicates > 0 && !args.allow_duplicates {
        eprintln!(
            "error: {} duplicate transmission(s) hit the air — Single semantics violated",
            g.air_duplicates
        );
        exit(ExitCode::VerdictFailure);
    }
    exit(ExitCode::Ok);
}

// ------------------------------------------------------------------ run --

struct RunArgs {
    sc: ScenarioSpec,
    trace: bool,
    validate: Option<String>,
    emit_transform: bool,
    metrics_out: Option<String>,
}

fn parse_run_args() -> Result<RunArgs, String> {
    let mut common = CommonOpts::new();
    let mut validate = None;
    let mut emit_transform = false;
    let mut metrics_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if common.accept(&flag, &mut it)? {
            continue;
        }
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--validate-report" => validate = Some(val("--validate-report")?),
            "--emit-transform" => emit_transform = true,
            "--metrics-out" => metrics_out = Some(val("--metrics-out")?),
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let trace = common.trace;
    Ok(RunArgs {
        sc: common.into_scenario(42)?,
        trace,
        validate,
        emit_transform,
        metrics_out,
    })
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("sweep") => sweep_main(),
        Some("grid") => grid_main(),
        Some("fleet") => fleet_main(),
        Some("metrics") => metrics_main(),
        Some("compare") => compare_main(),
        _ => {}
    }
    let args = parse_run_args().unwrap_or_else(|e| {
        usage_exit(
            &e,
            &format!(
                "usage: easeio-sim [--app {}]\n\
                 \x20                 [--kernel naive|alpaca|ink|easeio|easeio-op]\n\
                 \x20                 [--supply continuous|timer|rf] [--seed N] [--runs N]\n\
                 \x20                 [--distance INCHES] [--trace] [--trace-out FILE.json|.jsonl]\n\
                 \x20                 [--fault-rate PM] [--fault-seed N] [--max-retries N]\n\
                 \x20                 [--report-out FILE.json] [--metrics-out FILE.json]\n\
                 \x20                 [--validate-report FILE.json]\n\
                 \x20                 [--source prog.eio [--emit-transform]]\n\
                 \x20      easeio-sim sweep --help\n\
                 \x20      easeio-sim grid --help\n\
                 \x20      easeio-sim fleet --help\n\
                 \x20      easeio-sim metrics --help\n\
                 \x20      easeio-sim compare --help",
                APP_NAMES.join("|")
            ),
        )
    });
    let sc = &args.sc;

    // Standalone schema check: no simulation at all. Accepts v1 and v2
    // documents of either kind through the single validator entry point.
    if let Some(path) = &args.validate {
        let doc = read_json_or_die(path);
        match validate_any_report(&doc) {
            Ok(kind) => {
                let version = doc
                    .get("schema_version")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                println!("{path}: valid {} report (schema v{version})", kind.label());
                return;
            }
            Err(errs) => {
                eprintln!("{path}: {} schema violation(s):", errs.len());
                for e in &errs {
                    eprintln!("  - {e}");
                }
                exit(ExitCode::VerdictFailure);
            }
        }
    }

    if args.emit_transform {
        let AppSpec::Source(path) = &sc.device.app else {
            die("--emit-transform needs --source");
        };
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            exit(ExitCode::Usage)
        });
        match easec::transform_source(&src) {
            Ok(out) => {
                println!("{out}");
                return;
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                exit(ExitCode::Usage);
            }
        }
    }

    let kind = sc.device.kernel;
    let single = args.trace
        || sc.trace_out.is_some()
        || sc.report_out.is_some()
        || args.metrics_out.is_some()
        || sc.runs == 1;
    if single {
        // Single traced run.
        let supply = sc.supply.make(sc.seed);
        let app_name = probe_or_die(|m| sc.build_app(m)).name;
        let build = |m: &mut Mcu| sc.build_app(m).unwrap();
        let r = run_traced_faulted(&build, kind, supply, sc.seed, &sc.device.fault);
        println!(
            "{} under {} on {} supply (seed {}{})",
            app_name,
            kind.name(),
            sc.supply.label(),
            sc.seed,
            if sc.device.fault.plan.is_some() {
                format!(", faults {}", sc.device.fault.label())
            } else {
                String::new()
            }
        );
        println!("  outcome:        {:?}", r.outcome);
        if let Some(v) = &r.verdict {
            println!(
                "  correctness:    {}",
                match v {
                    Verdict::Correct => "correct".to_string(),
                    Verdict::Incorrect(why) => format!("INCORRECT — {why}"),
                }
            );
        }
        println!(
            "  time:           {:.2} ms on, {:.2} ms wall",
            r.on_us as f64 / 1000.0,
            r.wall_us as f64 / 1000.0
        );
        println!(
            "  energy:         {:.2} µJ ({:.2} app + {:.2} overhead)",
            r.stats.total_energy_nj() as f64 / 1000.0,
            r.stats.app_energy_nj as f64 / 1000.0,
            r.stats.overhead_energy_nj as f64 / 1000.0
        );
        println!("  power failures: {}", r.stats.power_failures);
        println!(
            "  I/O:            {} executed, {} skipped, {} redundant",
            r.stats.io_executed, r.stats.io_skipped, r.stats.io_reexecutions
        );
        println!(
            "  DMA:            {} executed, {} skipped, {} redundant",
            r.stats.dma_executed, r.stats.dma_skipped, r.stats.dma_reexecutions
        );
        let by_cause = CATEGORY_NAMES
            .iter()
            .zip(r.stats.cause_energy_nj)
            .filter(|(_, nj)| *nj > 0)
            .map(|(name, nj)| format!("{name} {:.2}", nj as f64 / 1000.0))
            .collect::<Vec<_>>()
            .join(", ");
        println!("  energy by cause (µJ): {by_cause}");

        // Wasted work against a continuous-power golden run of the same
        // app/runtime, for the one-line summary and the report.
        let (golden_us, golden_nj) = golden(&build, kind, sc.seed);
        let wasted_us = r.stats.app_time_us.saturating_sub(golden_us);
        let wasted_pct = if r.stats.app_time_us > 0 {
            wasted_us as f64 * 100.0 / r.stats.app_time_us as f64
        } else {
            0.0
        };
        println!(
            "summary: {} failures, {} commits, io {} executed / {} skipped, wasted work {:.1}%",
            r.stats.power_failures,
            r.stats.task_commits,
            r.stats.io_executed,
            r.stats.io_skipped,
            wasted_pct
        );

        if args.trace {
            print_trace(&r.events, r.events_dropped);
        }
        if let Some(path) = &sc.trace_out {
            let contents = if path.ends_with(".jsonl") {
                jsonl(&r.events)
            } else {
                let mut s = run_chrome_trace(sc, app_name, &r).to_pretty();
                s.push('\n');
                s
            };
            write_or_die(path, &contents, "trace");
            println!("trace written to {path} ({} events)", r.events.len());
        }
        if let Some(path) = &sc.report_out {
            let report = run_report(sc, app_name, &r, (golden_us, golden_nj));
            write_report_or_die(path, &report, "report");
        }
        if let Some(path) = &args.metrics_out {
            let entry = metrics_entry(kind.name(), app_name, &r);
            let report = metrics_report(sc.seed, vec![entry], Vec::new());
            write_report_or_die(path, &report, "metrics report");
        }
        if let Outcome::Fault(e) = &r.outcome {
            // Typed abort message: an unrecoverable I/O fault (retries
            // exhausted, no degradation possible) reads differently from a
            // DMA resource fault.
            let what = match e {
                Fault::Io(_) => "unrecoverable I/O fault",
                _ => "DMA fault",
            };
            eprintln!("error: aborted on {what}: {e}");
        }
        if r.outcome != Outcome::Completed {
            exit(ExitCode::VerdictFailure);
        }
        return;
    }

    // Aggregate mode.
    let mut completed = 0u64;
    let mut correct = 0u64;
    let mut total_on = 0u64;
    let mut failures = 0u64;
    let mut commits = 0u64;
    let mut io_executed = 0u64;
    let mut io_skipped = 0u64;
    let mut app_us = 0u64;
    for i in 0..sc.runs {
        let seed = sc.seed + i;
        let supply = sc.supply_for_run(i);
        let b = |m: &mut Mcu| sc.build_app(m).unwrap();
        let r = apps::harness::run_once_faulted(&b, kind, supply, seed, &sc.device.fault);
        if r.outcome == Outcome::Completed {
            completed += 1;
            total_on += r.stats.total_time_us();
            failures += r.stats.power_failures;
            commits += r.stats.task_commits;
            io_executed += r.stats.io_executed;
            io_skipped += r.stats.io_skipped;
            app_us += r.stats.app_time_us;
            if matches!(r.verdict, Some(Verdict::Correct) | None) {
                correct += 1;
            }
        }
    }
    println!(
        "{} × {} under {}: {}/{} completed, {}/{} correct, mean {:.2} ms, {:.2} failures/run",
        sc.runs,
        sc.device.app.label(),
        kind.name(),
        completed,
        sc.runs,
        correct,
        completed,
        total_on as f64 / completed.max(1) as f64 / 1000.0,
        failures as f64 / completed.max(1) as f64,
    );
    let b = |m: &mut Mcu| sc.build_app(m).unwrap();
    let (golden_us, _) = golden(&b, kind, sc.seed);
    let wasted = app_us.saturating_sub(golden_us * completed);
    let wasted_pct = if app_us > 0 {
        wasted as f64 * 100.0 / app_us as f64
    } else {
        0.0
    };
    println!(
        "summary: {} failures, {} commits, io {} executed / {} skipped, wasted work {:.1}%",
        failures, commits, io_executed, io_skipped, wasted_pct
    );
}
