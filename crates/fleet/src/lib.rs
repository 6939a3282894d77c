//! easeio-fleet — fleet-scale simulation on the deterministic engine.
//!
//! The paper validates EaseIO on one MCU; its headline workloads (sense-
//! and-transmit relays with `Single` packet semantics) only become
//! interesting at fleet scale, where N batteryless devices contend for a
//! lossy radio and a gateway must see each packet exactly once. This crate
//! instantiates a [`ScenarioSpec`] — device template × replication count ×
//! shared medium — as N independent device runs sharded across the
//! `easeio-exec` pool, then reconciles their radio logs at a simulated
//! [`gateway`].
//!
//! Determinism is the load-bearing property (DESIGN.md §15):
//!
//! * every device's result depends only on its device index — worker-local
//!   machines are restored from one shared copy-on-write
//!   [`mcu_emu::McuSnapshot`] of the template, supplies and
//!   fault plans derive from `seed + device`, and the pool merges results
//!   in device order — so the fleet report is **byte-identical at any
//!   `--jobs` width**;
//! * the gateway is a pure post-pass over the merged logs with a total
//!   event order and hash-keyed loss draws, adding no ordering freedom;
//! * a fleet of N = 1 devices reproduces a plain single-device run at the
//!   same seed exactly (the `ScenarioSpec` refactor's no-regression
//!   anchor, proptested in `tests/equivalence.rs`).
//!
//! Per-device state lives in the CoW page snapshot: restoring a device
//! only copies the pages the previous run dirtied, so a mostly-idle fleet
//! costs ~nothing per extra device and 10k+ devices are practical.
//!
//! ## One execution path, an optional record stream
//!
//! [`run_fleet`] is the only fleet engine. Each worker folds the devices
//! it runs into its own bounded [`FleetAgg`]; the per-worker aggregates
//! merge afterwards, and only the radio logs (needed by the gateway's
//! collision merge) survive per device. Given a stream, each device's
//! record also goes to a per-worker JSONL shard as it completes, and the
//! shards k-way-merge into the stream in device order; without one, no
//! shard file is created at all. The fold is commutative, so the report
//! is byte-identical with or without a stream and at any `--jobs` width,
//! while peak memory stays O(workers + sketches) instead of O(devices).

pub mod gateway;
pub mod rollout;
pub mod telemetry;

pub use gateway::{find_air_duplicate, reconcile, reconcile_logs, AirDuplicate, GatewayStats};
pub use rollout::{
    run_rollout, run_rollout_streamed, RolloutOutcome, RolloutPolicy, RolloutViolation,
    RolloutViolationKind, StreamedRolloutOutcome,
};
pub use telemetry::FleetAgg;

use easeio_exec::{run_indexed, PoolStats, ScenarioSpec};
use easeio_trace::fleet::{FleetDeliveryDoc, FleetInputs, FleetMediumDoc, FleetTimingDoc};
use easeio_trace::stream::{JsonlWriter, ShardedSink, StreamStats};
use easeio_trace::sweep::FaultSpecDoc;
use easeio_trace::{Progress, Value};
use kernel::{run_app, App, ExecConfig, Outcome, Verdict};
use mcu_emu::{Mcu, McuSnapshot, RunStats, Supply};
use periph::{Packet, Peripherals};

/// Everything one device's run produced.
#[derive(Debug, Clone)]
pub struct DeviceResult {
    /// Device index (0-based).
    pub device: u32,
    /// The seed this device derived its environment/supply/faults from.
    pub seed: u64,
    /// How the run ended.
    pub outcome: Outcome,
    /// Application correctness, if the app defines a check.
    pub verdict: Option<Verdict>,
    /// Total wall-clock including dead time (virtual µs).
    pub wall_us: u64,
    /// On-time (virtual µs).
    pub on_us: u64,
    /// The device's full time/energy ledger.
    pub stats: RunStats,
    /// Every packet the device put on the air, in transmission order.
    pub packets: Vec<Packet>,
}

impl DeviceResult {
    /// The device's `--stream-out` JSONL record (compact, canonical key
    /// order). Pure in the result, so the merged stream is byte-identical
    /// at any `--jobs` width.
    pub fn record_line(&self) -> String {
        let outcome = match self.outcome {
            Outcome::Completed => "completed",
            Outcome::NonTermination => "non_termination",
            Outcome::Fault(_) => "fault",
        };
        let verdict = match &self.verdict {
            Some(Verdict::Correct) => Value::str("correct"),
            Some(Verdict::Incorrect(_)) => Value::str("incorrect"),
            None => Value::Null,
        };
        Value::Obj(vec![
            ("device".into(), Value::u64(self.device as u64)),
            ("seed".into(), Value::u64(self.seed)),
            ("outcome".into(), Value::str(outcome)),
            ("verdict".into(), verdict),
            ("wall_us".into(), Value::u64(self.wall_us)),
            ("on_us".into(), Value::u64(self.on_us)),
            ("energy_nj".into(), Value::u64(self.stats.total_energy_nj())),
            (
                "power_failures".into(),
                Value::u64(self.stats.power_failures),
            ),
            ("packets".into(), Value::u64(self.packets.len() as u64)),
        ])
        .to_compact()
    }
}

/// One complete fleet run: the bounded aggregate and gateway accounting,
/// with per-device records in the caller's stream (if any) instead of in
/// memory.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Fleet-wide aggregate (merged per-worker folds).
    pub agg: FleetAgg,
    /// Gateway delivery accounting over the shared medium.
    pub gateway: GatewayStats,
    /// Worker utilization (host timing; stripped from report identity).
    pub pool: PoolStats,
    /// What the sharded sink merged; all zero when no stream was given.
    pub stream: StreamStats,
    /// Per-device radio logs in device order — the one per-device datum
    /// the gateway's collision merge cannot reduce incrementally.
    pub packets: Vec<(u32, Vec<Packet>)>,
}

/// The outcome of [`run_fleet_streamed`]: the one [`FleetOutcome`].
pub type StreamedFleetOutcome = FleetOutcome;

/// Runs one device of the scenario on `mcu`, restoring `snap` first. The
/// caller picks the machine, the app and the snapshot they were built
/// from (the fleet's template, or the rollout's image variant). The
/// result is a function of `(spec, snap, device)` alone — the determinism
/// contract every `--jobs` width relies on.
pub fn run_device(
    spec: &ScenarioSpec,
    mcu: &mut Mcu,
    app: &App,
    snap: &McuSnapshot,
    device: u32,
) -> DeviceResult {
    mcu.restore(snap);
    mcu.supply = spec.supply_for_device(device);
    let mut periph = Peripherals::new(spec.device_seed(device));
    let fault = spec.fault_for_device(device);
    fault.apply(&mut periph);
    let mut rt = spec.kernel_builder().with_faults(fault).build();
    let cfg = ExecConfig {
        retry: fault.retry,
        ..ExecConfig::default()
    };
    let r = run_app(app, rt.as_mut(), mcu, &mut periph, &cfg);
    DeviceResult {
        device,
        seed: spec.device_seed(device),
        outcome: r.outcome,
        verdict: r.verdict,
        wall_us: r.wall_us,
        on_us: r.on_us,
        stats: r.stats,
        packets: periph.radio.packets().to_vec(),
    }
}

/// Where one pool invocation's device records go: a private shard per
/// worker, k-way-merged into the caller's stream afterwards — or, with no
/// stream, nowhere (no shard file is created).
struct RecordSink(Option<ShardedSink>);

impl RecordSink {
    /// Shards named after `out`'s path plus `suffix`, one per worker.
    fn create(out: Option<&JsonlWriter>, suffix: &str, jobs: usize) -> Result<Self, String> {
        out.map(|out| {
            ShardedSink::create(&format!("{}{suffix}", out.path()), jobs)
                .map_err(|e| format!("stream shards for {}: {e}", out.path()))
        })
        .transpose()
        .map(RecordSink)
    }

    /// A worker's shard (call from the pool's per-worker init).
    fn claim(&self) -> usize {
        self.0.as_ref().map_or(0, ShardedSink::claim)
    }

    fn write(&self, shard: usize, r: &DeviceResult) {
        if let Some(sink) = &self.0 {
            sink.write(shard, r.device as u64, &r.record_line());
        }
    }

    /// Merges the shards into `out` in device order and deletes them.
    fn merge_into(self, out: Option<&mut JsonlWriter>) -> Result<StreamStats, String> {
        match (self.0, out) {
            (Some(sink), Some(out)) => sink
                .merge_into(out)
                .map_err(|e| format!("stream merge into {}: {e}", out.path())),
            _ => Ok(StreamStats::default()),
        }
    }
}

/// Reconciles the radio logs at the gateway as the `"reconcile"` phase.
fn reconcile_phase(
    packets: &[(u32, Vec<Packet>)],
    spec: &ScenarioSpec,
    progress: Option<&Progress>,
) -> GatewayStats {
    if let Some(p) = progress {
        p.begin_phase("reconcile", 1);
    }
    let gateway = reconcile_logs(
        packets.iter().map(|(d, p)| (*d, p.as_slice())),
        &spec.medium,
    );
    if let Some(p) = progress {
        p.add(1);
    }
    gateway
}

/// Runs the scenario's fleet: `spec.count` devices, sharded across
/// `spec.jobs` workers, reconciled at the gateway. `progress` ticks one
/// unit per device in a `"devices"` phase, then a `"reconcile"` phase.
///
/// Every worker builds its own template machine + app once (allocator
/// addresses are deterministic, so all workers' templates are identical),
/// then serves devices by restoring the shared CoW snapshot and installing
/// the device's supply and fault plan — the same restore discipline the
/// crash sweep uses, which is what makes results a function of the device
/// index alone. Each worker folds its devices into its own [`FleetAgg`]
/// and, given a `stream`, appends their records to a private JSONL shard;
/// the shards k-way-merge into `stream` in device order.
///
/// Peak memory is O(workers + sketches + radio logs) — per-device
/// `RunStats` ledgers never accumulate. The report is byte-identical with
/// or without a stream, at any `--jobs` width.
pub fn run_fleet(
    spec: &ScenarioSpec,
    stream: Option<&mut JsonlWriter>,
    progress: Option<&Progress>,
) -> Result<FleetOutcome, String> {
    if spec.count == 0 {
        return Err("a fleet needs at least 1 device".into());
    }
    // Validate the template once on the coordinator so workers can't hit
    // a build error mid-pool.
    let mut template = Mcu::new(Supply::continuous());
    spec.build_app(&mut template)?;
    let snap = template.snapshot();
    let jobs = spec.jobs.max(1).min(spec.count as usize);
    let sink = RecordSink::create(stream.as_deref(), "", jobs)?;
    if let Some(p) = progress {
        p.begin_phase("devices", spec.count as u64);
    }
    let devices: Vec<u32> = (0..spec.count).collect();
    let (packets, aggs, pool) = run_indexed(
        spec.jobs,
        &devices,
        || (None::<(Mcu, App)>, FleetAgg::new(), sink.claim()),
        |(cache, agg, shard), _, &device| {
            let (mcu, app) = cache.get_or_insert_with(|| {
                let mut mcu = Mcu::new(Supply::continuous());
                let app = spec
                    .build_app(&mut mcu)
                    .expect("template validated on the coordinator");
                (mcu, app)
            });
            let r = run_device(spec, mcu, app, &snap, device);
            agg.observe(&r);
            sink.write(*shard, &r);
            if let Some(p) = progress {
                p.add(1);
            }
            (device, r.packets)
        },
        |(_, agg, _)| agg,
    );
    let stream = sink.merge_into(stream)?;
    let mut agg = FleetAgg::new();
    for worker in &aggs {
        agg.merge(worker);
    }
    let gateway = reconcile_phase(&packets, spec, progress);
    Ok(FleetOutcome {
        agg,
        gateway,
        pool,
        stream,
        packets,
    })
}

/// [`run_fleet`] with its device records streamed into `out`.
pub fn run_fleet_streamed(
    spec: &ScenarioSpec,
    out: &mut JsonlWriter,
    progress: Option<&Progress>,
) -> Result<StreamedFleetOutcome, String> {
    run_fleet(spec, Some(out), progress)
}

/// The fleet report assembly: everything comes from the commutative
/// [`FleetAgg`] and the order-independent gateway ledger, so every
/// `--jobs` width, with or without a stream, renders identically outside
/// the stripped `timing` block.
pub(crate) fn fleet_inputs(
    spec: &ScenarioSpec,
    agg: &FleetAgg,
    g: &GatewayStats,
    timing: FleetTimingDoc,
) -> FleetInputs {
    FleetInputs {
        runtime: spec.device.kernel.name().to_string(),
        app: spec.device.app.label().to_string(),
        devices: spec.count as u64,
        seed: spec.seed,
        supply: spec.supply.label(),
        medium: FleetMediumDoc {
            seed: spec.medium.seed,
            loss_permille: spec.medium.loss_permille as u64,
            airtime_base_us: spec.medium.airtime_base_us,
            airtime_us_per_word: spec.medium.airtime_us_per_word,
        },
        fault_spec: spec.device.fault.plan.map(|p| FaultSpecDoc {
            seed: p.seed,
            rate_permille: p.rate_permille as u64,
            max_retries: spec.device.fault.retry.max_retries as u64,
            backoff_base_us: spec.device.fault.retry.backoff_base_us,
        }),
        outcomes: agg.outcomes(),
        power_failures: agg.power_failures(),
        delivery: FleetDeliveryDoc {
            transmissions: g.transmissions,
            unique_sent: g.unique_sent,
            air_duplicates: g.air_duplicates,
            delivered: g.delivered,
            delivered_unique: g.delivered_unique,
            gateway_duplicates: g.gateway_duplicates,
            lost_collision: g.lost_collision,
            lost_channel: g.lost_channel,
            delivery_rate_milli: g.delivery_rate_milli(),
        },
        energy: agg.energy(),
        stragglers: agg.stragglers(),
        rollout: None,
        timing: Some(timing),
    }
}

/// Host timing block from a pool record (measurement, stripped from
/// report identity), including the process peak RSS the memory-ceiling CI
/// gate reads and, for a streamed run, the records merged.
pub(crate) fn timing_doc(pool: &PoolStats, stream: &StreamStats) -> FleetTimingDoc {
    FleetTimingDoc {
        jobs: pool.jobs as u64,
        wall_us: pool.wall_us,
        devices_per_worker: pool.items_per_worker.clone(),
        busy_us_per_worker: pool.busy_us_per_worker.clone(),
        peak_rss_bytes: mcu_emu::peak_rss_bytes(),
        streamed_records: (stream.shards > 0).then_some(stream.records),
    }
}

impl FleetOutcome {
    /// The `kind: "fleet"` report inputs. Host timing from the pool is
    /// included; `identity_document` strips it before any comparison.
    pub fn report_inputs(&self, spec: &ScenarioSpec) -> FleetInputs {
        fleet_inputs(
            spec,
            &self.agg,
            &self.gateway,
            timing_doc(&self.pool, &self.stream),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeio_exec::{AppSpec, DeviceSpec};
    use easeio_trace::fleet::build_fleet_report;
    use easeio_trace::validate_any_report;
    use kernel::KernelKind;

    fn radio_fleet(count: u32, kernel: KernelKind) -> ScenarioSpec {
        ScenarioSpec {
            device: DeviceSpec {
                app: AppSpec::Named("flaky-radio".into()),
                kernel,
                ..DeviceSpec::default()
            },
            count,
            ..ScenarioSpec::default()
        }
    }

    /// Every device of `spec` through [`run_device`] on one template
    /// machine: the per-device results the engine folds.
    fn device_results(spec: &ScenarioSpec) -> Vec<DeviceResult> {
        let mut mcu = Mcu::new(Supply::continuous());
        let app = spec.build_app(&mut mcu).unwrap();
        let snap = mcu.snapshot();
        (0..spec.count)
            .map(|d| run_device(spec, &mut mcu, &app, &snap, d))
            .collect()
    }

    #[test]
    fn small_easeio_fleet_delivers_exactly_once() {
        let spec = radio_fleet(8, KernelKind::EaseIo);
        let fleet = run_fleet(&spec, None, None).unwrap();
        assert_eq!(fleet.agg.devices(), 8);
        let o = fleet.agg.outcomes();
        assert_eq!(o.completed, 8);
        assert_eq!(o.correct, 8);
        // Single semantics: no identity transmits twice, even across the
        // fleet's power failures.
        assert_eq!(fleet.gateway.air_duplicates, 0);
        assert!(fleet.agg.power_failures() > 0, "timer supply must cycle");
        // Device seeds decorrelate the supplies: not all wall-clocks equal.
        let wall = fleet.agg.wall();
        assert!(wall.min() < wall.max(), "{} .. {}", wall.min(), wall.max());
    }

    #[test]
    fn fleet_report_validates_as_kind_fleet() {
        let spec = radio_fleet(4, KernelKind::EaseIo);
        let fleet = run_fleet(&spec, None, None).unwrap();
        let doc = build_fleet_report(&fleet.report_inputs(&spec));
        let parsed = easeio_trace::parse_json(&doc.to_pretty()).unwrap();
        assert_eq!(
            validate_any_report(&parsed),
            Ok(easeio_trace::ReportKind::Fleet)
        );
    }

    #[test]
    fn empty_fleet_is_an_error_and_bad_apps_fail_early() {
        let mut spec = radio_fleet(0, KernelKind::EaseIo);
        assert!(run_fleet(&spec, None, None).is_err());
        spec.count = 1;
        spec.device.app = AppSpec::Named("no-such-app".into());
        assert!(run_fleet(&spec, None, None)
            .unwrap_err()
            .contains("no-such-app"));
    }

    #[test]
    fn attribution_stays_balanced_across_the_fleet() {
        let spec = radio_fleet(6, KernelKind::Alpaca);
        let results = device_results(&spec);
        for r in &results {
            assert!(r.stats.attribution_balanced(), "device {}", r.device);
        }
        let energy = run_fleet(&spec, None, None).unwrap().agg.energy();
        let cause_sum: u64 = energy.cause_energy_nj.iter().sum();
        assert_eq!(cause_sum, energy.total_energy_nj);
        let device_sum: u64 = results.iter().map(|r| r.stats.total_energy_nj()).sum();
        assert_eq!(energy.total_energy_nj, device_sum);
    }

    #[test]
    fn fleet_with_stream_matches_without_and_writes_device_order() {
        let dir = std::env::temp_dir().join("easeio-fleet-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir
            .join(format!("stream-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let spec = radio_fleet(12, KernelKind::EaseIo);
        let bare = run_fleet(&spec, None, None).unwrap();
        assert_eq!(bare.stream, StreamStats::default());
        let mut spec4 = spec.clone();
        spec4.jobs = 4;
        let mut out = JsonlWriter::create(&path).unwrap();
        let streamed = run_fleet(&spec4, Some(&mut out), None).unwrap();
        drop(out);
        assert_eq!(streamed.gateway, bare.gateway);
        assert_eq!(streamed.agg.outcomes(), bare.agg.outcomes());
        assert_eq!(streamed.agg.stragglers(), bare.agg.stragglers());
        assert_eq!(streamed.packets, bare.packets);
        assert_eq!(streamed.stream.records, 12);
        let text = std::fs::read_to_string(&path).unwrap();
        let expected: String = device_results(&spec)
            .iter()
            .map(|r| r.record_line() + "\n")
            .collect();
        assert_eq!(text, expected, "stream is the device-ordered records");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn progress_ticks_through_the_fleet_phases() {
        let spec = radio_fleet(5, KernelKind::EaseIo);
        let progress = Progress::new();
        run_fleet(&spec, None, Some(&progress)).unwrap();
        let s = progress.snapshot();
        assert_eq!(s.phase, "reconcile");
        assert_eq!((s.done, s.total), (1, 1));
    }
}
