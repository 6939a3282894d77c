//! `fleet-radio`: a streamed `flaky-radio` fleet over a lossy, colliding
//! medium with transient peripheral faults (`fleet::run_fleet_streamed`).
//! A unit is one device.
//!
//! The replay runs the devices serially through `Mcu::restore`,
//! `kernel::run_app`, `FleetAgg::observe`, a one-shard `ShardedSink` and
//! `fleet::reconcile_logs`, and must reproduce the public call's
//! aggregate, gateway ledger and stream bytes.

use crate::spans::Tracer;
use crate::tally::{file_digest, Fnv, Sim, Tally};
use crate::{Bench, Opts, Pass, Replay};
use easeio_exec::{AppSpec, DeviceSpec, PoolStats, ScenarioSpec, SupplySpec};
use easeio_fleet::{reconcile_logs, run_fleet_streamed, DeviceResult, FleetAgg, GatewayStats};
use easeio_trace::stream::{JsonlWriter, ShardedSink};
use kernel::{run_app, ExecConfig, FaultSpec};
use mcu_emu::{Mcu, McuSnapshot, Supply};
use periph::{MediumSpec, Packet, Peripherals};
use std::collections::BTreeSet;
use std::time::Instant;

/// Devices in the full-size fleet.
const DEVICES: u32 = 50_000;
/// Devices in the tiny (test-only) fleet.
const TINY_DEVICES: u32 = 300;
/// Uplink channel loss and transient peripheral-fault rate (per mille).
const LOSS_PERMILLE: u32 = 50;
const FAULT_PERMILLE: u32 = 50;
/// Retry budget per faulted I/O. At 50‰ faults the default budget (4)
/// exhausts on about one device in 50k, which the sweep's definition
/// counts as a failed run; 8 retries make exhaustion negligible.
const MAX_RETRIES: u32 = 8;

/// The `fleet-radio` workload.
pub struct FleetRadio;

/// The scenario and its template snapshot.
pub struct Prep {
    spec: ScenarioSpec,
    snap: McuSnapshot,
}

/// Builds the template machine and snapshots it, with spans.
pub(crate) fn template(spec: &ScenarioSpec, tr: &mut Tracer) -> Result<McuSnapshot, String> {
    let mut mcu = Mcu::new(Supply::continuous());
    tr.span("apps.build", "", |_| spec.build_app(&mut mcu))?;
    Ok(tr.span("mcu-emu.snapshot", "", |_| mcu.snapshot()))
}

/// Per-layer values of one pool invocation.
pub(crate) fn pool_layer(pool: &PoolStats) -> Vec<(&'static str, f64)> {
    let jobs = pool.jobs.max(1) as f64;
    let wall_s = pool.wall_us as f64 / 1e6;
    let busy: Vec<f64> = pool
        .busy_us_per_worker
        .iter()
        .map(|&b| b as f64 / 1e6)
        .collect();
    let busy_s: f64 = busy.iter().sum();
    let mean = busy_s / jobs;
    let max = busy.iter().copied().fold(0.0, f64::max);
    vec![
        ("exec.pool.utilization", busy_s / (jobs * wall_s).max(1e-9)),
        ("exec.pool.idle_s", (jobs * wall_s - busy_s).max(0.0)),
        (
            "exec.pool.imbalance",
            if mean > 0.0 { max / mean - 1.0 } else { 0.0 },
        ),
    ]
}

/// Digest of a fleet's simulated output: the aggregate, the gateway ledger
/// and the device stream's bytes.
pub(crate) fn fleet_digest(agg: &FleetAgg, gw: &GatewayStats, stream: u64) -> u64 {
    let mut h = Fnv::default();
    h.debug(&agg.outcomes());
    h.debug(&agg.energy());
    h.u64(agg.power_failures());
    h.debug(&agg.stragglers());
    h.debug(gw);
    h.u64(stream);
    h.0
}

/// Devices whose own radio log repeats a packet sequence number: a
/// `Single` send performed twice.
fn devices_with_air_duplicates(logs: &[(u32, Vec<Packet>)]) -> u64 {
    logs.iter()
        .filter(|(_, packets)| {
            let mut seen = BTreeSet::new();
            packets
                .iter()
                .enumerate()
                .any(|(k, p)| !seen.insert(p.payload.first().copied().unwrap_or(k as i32) as i64))
        })
        .count() as u64
}

/// Fleet-level checks shared by both fleet workloads. Failed units are the
/// devices that did not end completed and correct plus `unsafe_devices`
/// (devices that broke a safety property), capped at the fleet size; an
/// unbalanced fleet energy ledger is a structural failure. Returns the
/// simulated totals.
pub(crate) fn judge_fleet(agg: &FleetAgg, unsafe_devices: u64, devices: u64, p: &mut Pass) -> Sim {
    let outcomes = agg.outcomes();
    p.failed += (devices.saturating_sub(outcomes.correct) + unsafe_devices).min(devices);
    let energy = agg.energy();
    let cause_sum: u64 = energy.cause_energy_nj.iter().sum();
    if cause_sum != energy.total_energy_nj {
        p.problems.push(format!(
            "fleet energy ledger unbalanced: causes sum to {cause_sum} nJ of {} nJ",
            energy.total_energy_nj
        ));
    }
    Sim {
        units: devices,
        time_us: energy.total_time_us,
        time_runs: devices,
        cause_nj: energy.cause_energy_nj,
    }
}

impl Bench for FleetRadio {
    type Prep = Prep;

    fn setup(&self, o: &Opts, tr: &mut Tracer) -> Result<Prep, String> {
        let mut fault = FaultSpec::with_rate(o.fleet_seed(), FAULT_PERMILLE);
        fault.retry.max_retries = MAX_RETRIES;
        let spec = ScenarioSpec {
            device: DeviceSpec {
                app: AppSpec::Named("flaky-radio".into()),
                kernel: o.kernel,
                fault,
            },
            count: if o.tiny { TINY_DEVICES } else { DEVICES },
            supply: SupplySpec::Timer,
            medium: MediumSpec::lossy(o.fleet_seed(), LOSS_PERMILLE),
            seed: o.fleet_seed(),
            jobs: o.jobs,
            ..ScenarioSpec::default()
        };
        let snap = template(&spec, tr)?;
        Ok(Prep { spec, snap })
    }

    fn pass(&self, o: &Opts, prep: &Prep) -> Result<Pass, String> {
        let path = o.stream_path("pass");
        let mut out = JsonlWriter::create(&path).map_err(|e| format!("{path}: {e}"))?;
        let t0 = Instant::now();
        let r = run_fleet_streamed(&prep.spec, &mut out, None)?;
        let wall_s = t0.elapsed().as_secs_f64();
        drop(out);
        let (stream, bytes) = file_digest(path.as_ref())?;
        let _ = std::fs::remove_file(&path);

        let devices = prep.spec.count as u64;
        let mut p = Pass {
            wall_s,
            units: devices,
            digest: fleet_digest(&r.agg, &r.gateway, stream),
            ..Pass::default()
        };
        let air_duplicates = devices_with_air_duplicates(&r.packets);
        p.sim = judge_fleet(&r.agg, air_duplicates, devices, &mut p);
        if r.stream.records != devices {
            p.problems.push(format!(
                "stream holds {} records for {devices} devices",
                r.stream.records
            ));
        }
        p.layer = pool_layer(&r.pool);
        p.layer.extend([
            ("fleet.transmissions", r.gateway.transmissions as f64),
            ("fleet.collisions", r.gateway.lost_collision as f64),
            ("trace.stream.bytes", bytes as f64),
        ]);
        Ok(p)
    }

    fn replay(&self, o: &Opts, prep: &Prep, tr: &mut Tracer) -> Result<Replay, String> {
        let spec = &prep.spec;
        let path = o.stream_path("replay");
        let t0 = Instant::now();
        let mut tally = Tally::default();
        let mut mcu = Mcu::new(Supply::continuous());
        let app = spec.build_app(&mut mcu)?;
        let sink = ShardedSink::create(&path, 1).map_err(|e| format!("{path}: {e}"))?;
        let shard = sink.claim();
        let mut agg = FleetAgg::new();
        let mut logs: Vec<(u32, Vec<Packet>)> = Vec::with_capacity(spec.count as usize);
        for device in 0..spec.count {
            tr.set_unit(device as u64);
            tr.span("mcu-emu.restore", "", |_| mcu.restore(&prep.snap));
            tally.restores += 1;
            mcu.supply = spec.supply_for_device(device);
            let mut periph = Peripherals::new(spec.device_seed(device));
            let fault = spec.fault_for_device(device);
            fault.apply(&mut periph);
            let mut rt = spec.kernel_builder().with_faults(fault).build();
            let cfg = ExecConfig {
                retry: fault.retry,
                ..ExecConfig::default()
            };
            let r = tr.span("kernel.run_app", "", |_| {
                run_app(&app, rt.as_mut(), &mut mcu, &mut periph, &cfg)
            });
            tally.add(&r.stats);
            let result = DeviceResult {
                device,
                seed: spec.device_seed(device),
                outcome: r.outcome,
                verdict: r.verdict,
                wall_us: r.wall_us,
                on_us: r.on_us,
                stats: r.stats,
                packets: periph.radio.packets().to_vec(),
            };
            tr.span("fleet.agg_observe", "", |_| agg.observe(&result));
            tr.span("trace.stream.write", "", |_| {
                sink.write(shard, device as u64, &result.record_line())
            });
            logs.push((device, result.packets));
        }
        let mut out = JsonlWriter::create(&path).map_err(|e| format!("{path}: {e}"))?;
        tr.span("trace.stream.merge", "", |_| sink.merge_into(&mut out))
            .map_err(|e| format!("{path}: {e}"))?;
        drop(out);
        let gateway = tr.span("fleet.reconcile", "", |_| {
            reconcile_logs(logs.iter().map(|(d, p)| (*d, p.as_slice())), &spec.medium)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let (stream, _) = file_digest(path.as_ref())?;
        let _ = std::fs::remove_file(&path);
        Ok(Replay {
            wall_s,
            units: spec.count as u64,
            digest: fleet_digest(&agg, &gateway, stream),
            tally,
            layer: Vec::new(),
        })
    }
}
