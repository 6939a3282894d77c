//! `ota-rollout`: a streamed EaseIO rolling OTA update in small waves
//! (`fleet::rollout::run_rollout_streamed`). A unit is one device.
//!
//! The replay repeats the gateway's per-wave protocol serially: downlink
//! draws (`MediumSpec::downlink_drops`), per-device restore and run of the
//! received or factory image, the wave review, streaming and the final
//! reconciliation. It must reproduce the public call's aggregate, gateway
//! ledger, rollout ledger and stream bytes.

use crate::fleet::{fleet_digest, judge_fleet, pool_layer};
use crate::spans::Tracer;
use crate::tally::{file_digest, Fnv, Tally};
use crate::{Bench, Opts, Pass, Replay};
use apps::ota_update::{self, OtaUpdateCfg};
use easeio_exec::{AppSpec, DeviceSpec, ScenarioSpec, SupplySpec};
use easeio_fleet::rollout::{RolloutViolation, RolloutViolationKind};
use easeio_fleet::{
    reconcile_logs, run_rollout_streamed, DeviceResult, FleetAgg, GatewayStats, RolloutPolicy,
};
use easeio_trace::fleet::FleetRolloutDoc;
use easeio_trace::stream::{JsonlWriter, ShardedSink};
use kernel::update::{PROBE_DUPLICATE_ACTIVATION, PROBE_VERSION_TORN};
use kernel::{run_app, App, ExecConfig, FaultSpec, Outcome, Verdict};
use mcu_emu::{Mcu, McuSnapshot, Supply};
use periph::{MediumSpec, Packet, Peripherals};
use std::time::Instant;

/// Devices in the full-size rollout.
const DEVICES: u32 = 100_000;
/// Devices in the tiny (test-only) rollout.
const TINY_DEVICES: u32 = 256;
/// Downlink channel loss and transient peripheral-fault rate (per mille).
const LOSS_PERMILLE: u32 = 100;
const FAULT_PERMILLE: u32 = 20;
/// Mean on-period of the devices' timer supply (ms). A whole update takes
/// about 2 ms of on-time, so under the paper's 5–20 ms schedule it would
/// never see a power failure; at 1–3 ms about half the devices lose power
/// somewhere inside the two-phase staging.
const ON_MS: u64 = 2;

/// The `ota-rollout` workload.
pub struct OtaRollout;

/// The scenario, the rollout policy, and both image variants.
pub struct Prep {
    spec: ScenarioSpec,
    policy: RolloutPolicy,
    /// Factory image (index 0) and received update (index 1).
    cfgs: [OtaUpdateCfg; 2],
    snaps: [McuSnapshot; 2],
}

fn rollout_digest(
    agg: &FleetAgg,
    gw: &GatewayStats,
    stream: u64,
    stats: &FleetRolloutDoc,
    first_violation: &Option<RolloutViolation>,
) -> u64 {
    let mut h = Fnv::default();
    h.u64(fleet_digest(agg, gw, stream));
    h.debug(stats);
    h.debug(first_violation);
    h.0
}

impl Bench for OtaRollout {
    type Prep = Prep;

    fn setup(&self, o: &Opts, tr: &mut Tracer) -> Result<Prep, String> {
        let spec = ScenarioSpec {
            device: DeviceSpec {
                app: AppSpec::Named("ota-update".into()),
                kernel: o.kernel,
                fault: FaultSpec::with_rate(o.fleet_seed(), FAULT_PERMILLE),
            },
            count: if o.tiny { TINY_DEVICES } else { DEVICES },
            supply: SupplySpec::TimerOnMs(ON_MS),
            medium: MediumSpec::lossy(o.fleet_seed(), LOSS_PERMILLE),
            seed: o.fleet_seed(),
            jobs: o.jobs,
            ..ScenarioSpec::default()
        };
        let policy = RolloutPolicy::default();
        let updated = OtaUpdateCfg {
            target_seq: policy.target_seq,
            two_phase: o.kernel.two_phase_update(),
            ..OtaUpdateCfg::default()
        };
        let factory = OtaUpdateCfg {
            target_seq: 1,
            ..updated.clone()
        };
        let mut snapshot = |cfg: &OtaUpdateCfg| {
            let mut mcu = Mcu::new(Supply::continuous());
            tr.span("apps.build", "", |_| ota_update::build(&mut mcu, cfg));
            tr.span("mcu-emu.snapshot", "", |_| mcu.snapshot())
        };
        let snaps = [snapshot(&factory), snapshot(&updated)];
        Ok(Prep {
            spec,
            policy,
            cfgs: [factory, updated],
            snaps,
        })
    }

    fn pass(&self, o: &Opts, prep: &Prep) -> Result<Pass, String> {
        let path = o.stream_path("pass");
        let mut out = JsonlWriter::create(&path).map_err(|e| format!("{path}: {e}"))?;
        let t0 = Instant::now();
        let r = run_rollout_streamed(&prep.spec, &prep.policy, &mut out, None)?;
        let wall_s = t0.elapsed().as_secs_f64();
        drop(out);
        let (stream, bytes) = file_digest(path.as_ref())?;
        let _ = std::fs::remove_file(&path);

        let devices = prep.spec.count as u64;
        let s = &r.stats;
        let mut p = Pass {
            wall_s,
            units: devices,
            digest: rollout_digest(&r.agg, &r.gateway, stream, s, &r.first_violation),
            ..Pass::default()
        };
        // The streamed rollout keeps no per-device radio logs, so each torn
        // image, duplicate activation and air duplicate counts as one
        // failed device.
        let unsafe_devices = s.duplicate_activations + s.version_torn + r.gateway.air_duplicates;
        p.sim = judge_fleet(&r.agg, unsafe_devices, devices, &mut p);
        if s.aborted || s.update_failed > 0 {
            p.problems.push(format!(
                "rollout regressed: aborted {}, {} received updates failed",
                s.aborted, s.update_failed
            ));
        }
        p.layer = pool_layer(&r.pool);
        p.layer.extend([
            ("fleet.rollout.waves", s.waves as f64),
            ("fleet.transmissions", r.gateway.transmissions as f64),
            ("fleet.collisions", r.gateway.lost_collision as f64),
            ("periph.downlink_chunks", s.downlink_chunks_sent as f64),
            ("periph.downlink_lost", s.downlink_chunks_lost as f64),
            ("trace.stream.bytes", bytes as f64),
        ]);
        Ok(p)
    }

    fn replay(&self, o: &Opts, prep: &Prep, tr: &mut Tracer) -> Result<Replay, String> {
        let (spec, policy) = (&prep.spec, &prep.policy);
        let path = o.stream_path("replay");
        let t0 = Instant::now();
        let chunks = prep.cfgs[1]
            .payload_words
            .div_ceil(prep.cfgs[1].chunk_words.max(1));
        let attempts = 1 + spec.device.fault.retry.max_retries;
        let waves = spec.count.div_ceil(policy.wave_size);
        let mut stats = FleetRolloutDoc {
            target_seq: policy.target_seq as u64,
            wave_size: policy.wave_size as u64,
            waves: waves as u64,
            ..FleetRolloutDoc::default()
        };
        let mut first_violation = None;
        let mut aborted = false;
        let mut tally = Tally::default();
        let mut machines: Vec<(Mcu, App)> = prep
            .cfgs
            .iter()
            .map(|cfg| {
                let mut mcu = Mcu::new(Supply::continuous());
                let (app, _) = ota_update::build(&mut mcu, cfg);
                (mcu, app)
            })
            .collect();
        let sink = ShardedSink::create(&path, 1).map_err(|e| format!("{path}: {e}"))?;
        let shard = sink.claim();
        let mut agg = FleetAgg::new();
        let mut logs: Vec<(u32, Vec<Packet>)> = Vec::with_capacity(spec.count as usize);

        for wave in 0..waves {
            let first = wave * policy.wave_size;
            let last = (first + policy.wave_size).min(spec.count);
            let offered = !aborted;
            stats.waves_rolled_out += offered as u64;
            let mut regressed = false;
            for device in first..last {
                tr.set_unit(device as u64);
                let received = offered
                    && tr.span("periph.downlink", "", |_| {
                        downlink(&spec.medium, device, chunks, attempts, &mut stats)
                    });
                if !offered {
                    stats.stale += 1;
                }
                let (mcu, app) = &mut machines[received as usize];
                tr.span("mcu-emu.restore", "", |_| {
                    mcu.restore(&prep.snaps[received as usize])
                });
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
                    run_app(app, rt.as_mut(), mcu, &mut periph, &cfg)
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
                regressed |= review(wave, &result, received, &mut stats, &mut first_violation);
                logs.push((device, result.packets));
            }
            if offered && policy.abort_on_regression && regressed {
                aborted = true;
            }
        }
        stats.aborted = aborted;
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
            digest: rollout_digest(&agg, &gateway, stream, &stats, &first_violation),
            tally,
            layer: Vec::new(),
        })
    }
}

/// The gateway's downlink of every image chunk to `device`, each chunk
/// retried up to `attempts` times; stops at the first chunk that never
/// arrives. Returns whether the whole image arrived.
fn downlink(
    medium: &MediumSpec,
    device: u32,
    chunks: u32,
    attempts: u32,
    stats: &mut FleetRolloutDoc,
) -> bool {
    stats.offered += 1;
    for chunk in 0..chunks {
        let mut delivered = false;
        for attempt in 0..attempts {
            stats.downlink_chunks_sent += 1;
            if medium.downlink_drops(device, chunk, attempt) {
                stats.downlink_chunks_lost += 1;
            } else {
                delivered = true;
                break;
            }
        }
        if !delivered {
            stats.stragglers += 1;
            return false;
        }
    }
    true
}

/// The gateway's review of one device after its wave: version accounting
/// and the first update-safety violation. Returns whether a received
/// update regressed.
fn review(
    wave: u32,
    r: &DeviceResult,
    received: bool,
    stats: &mut FleetRolloutDoc,
    first_violation: &mut Option<RolloutViolation>,
) -> bool {
    let torn = r.stats.counter(PROBE_VERSION_TORN);
    let dups = r.stats.counter(PROBE_DUPLICATE_ACTIVATION);
    stats.duplicate_activations += dups;
    stats.version_torn += torn;
    if first_violation.is_none() {
        let kind = if torn > 0 {
            Some(RolloutViolationKind::VersionTorn)
        } else if dups > 0 {
            Some(RolloutViolationKind::DuplicateActivation)
        } else {
            None
        };
        if let Some(kind) = kind {
            *first_violation = Some(RolloutViolation {
                device: r.device,
                wave,
                kind,
            });
        }
    }
    if !received {
        return false;
    }
    let ok = r.outcome == Outcome::Completed && r.verdict == Some(Verdict::Correct);
    if ok {
        stats.updated += 1;
    } else {
        stats.update_failed += 1;
    }
    !ok || torn > 0 || dups > 0
}
