//! The record stream's identity anchors:
//!
//! 1. **With stream ≡ without stream** — `run_fleet` / `run_rollout`
//!    must render the same report byte-for-byte once host timing is
//!    stripped (`identity_document`) whether or not a record stream is
//!    attached, at every `--jobs` width. The sink/no-sink choice is the
//!    one branch the engines take on the stream, so this pins that it
//!    changes nothing observable.
//! 2. **Stream bytes are canonical** — the merged per-device JSONL is
//!    byte-identical across `--jobs` widths, in device order, one record
//!    per device, regardless of which worker wrote which shard.
//!
//! The CI stream identity gate enforces the same properties end-to-end
//! through the `easeio-sim fleet --stream-out` CLI.

use easeio_exec::{AppSpec, DeviceSpec, ScenarioSpec, SupplySpec};
use easeio_fleet::{
    run_fleet, run_fleet_streamed, run_rollout, run_rollout_streamed, RolloutPolicy,
};
use easeio_trace::envelope::identity_document;
use easeio_trace::fleet::build_fleet_report;
use easeio_trace::stream::JsonlWriter;
use easeio_trace::stream::StreamStats;
use kernel::{FaultSpec, KernelKind};

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("easeio-streaming-identity");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// A fleet whose devices exercise the radio (gateway reconciliation),
/// peripheral faults (retry ledgers), and power failures (timer supply) —
/// every aggregate the engine folds.
fn fleet_spec(jobs: usize) -> ScenarioSpec {
    ScenarioSpec {
        device: DeviceSpec {
            app: AppSpec::Named("flaky-radio".into()),
            kernel: KernelKind::EaseIo,
            fault: FaultSpec::with_rate(11, 30),
        },
        count: 96,
        supply: SupplySpec::Timer,
        medium: periph::MediumSpec::lossy(77, 100),
        seed: 1000,
        jobs,
        ..ScenarioSpec::default()
    }
}

fn rollout_spec(jobs: usize) -> ScenarioSpec {
    ScenarioSpec {
        device: DeviceSpec {
            app: AppSpec::Named("ota-update".into()),
            kernel: KernelKind::EaseIo,
            fault: FaultSpec::with_rate(5, 20),
        },
        count: 96,
        supply: SupplySpec::Timer,
        medium: periph::MediumSpec::lossy(3, 50),
        seed: 42,
        jobs,
        ..ScenarioSpec::default()
    }
}

/// Device order: record i is device i.
fn assert_device_ordered(text: &str, jobs: usize) {
    for (i, line) in text.lines().enumerate() {
        let rec = easeio_trace::parse_json(line).unwrap();
        assert_eq!(
            rec.get("device").and_then(easeio_trace::Value::as_u64),
            Some(i as u64),
            "jobs={jobs} line {i}"
        );
    }
}

#[test]
fn fleet_report_is_identical_with_and_without_a_stream_at_every_width() {
    let reference = {
        let spec = fleet_spec(1);
        let fleet = run_fleet(&spec, None, None).unwrap();
        identity_document(&build_fleet_report(&fleet.report_inputs(&spec))).to_pretty()
    };
    let mut stream_reference: Option<String> = None;
    for jobs in [1, 4, 8] {
        let spec = fleet_spec(jobs);
        let bare = run_fleet(&spec, None, None).unwrap();
        assert_eq!(bare.stream, StreamStats::default());
        let doc = identity_document(&build_fleet_report(&bare.report_inputs(&spec))).to_pretty();
        assert_eq!(doc, reference, "unstreamed report diverged at jobs={jobs}");

        let path = tmp(&format!("fleet-j{jobs}.jsonl"));
        let mut out = JsonlWriter::create(&path).unwrap();
        let streamed = run_fleet_streamed(&spec, &mut out, None).unwrap();
        let doc =
            identity_document(&build_fleet_report(&streamed.report_inputs(&spec))).to_pretty();
        assert_eq!(doc, reference, "streamed report diverged at jobs={jobs}");
        assert_eq!(streamed.packets, bare.packets, "radio logs at jobs={jobs}");

        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().count() as u64,
            streamed.stream.records,
            "stream stats disagree with the file"
        );
        assert_eq!(
            streamed.stream.records, spec.count as u64,
            "one record per device"
        );
        assert_device_ordered(&text, jobs);
        match &stream_reference {
            None => stream_reference = Some(text),
            Some(reference) => {
                assert_eq!(&text, reference, "stream bytes diverged at jobs={jobs}")
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn rollout_report_is_identical_with_and_without_a_stream_at_every_width() {
    let policy = RolloutPolicy::default();
    let (reference, reference_violation) = {
        let spec = rollout_spec(1);
        let rollout = run_rollout(&spec, &policy, None, None).unwrap();
        (
            identity_document(&build_fleet_report(&rollout.report_inputs(&spec))).to_pretty(),
            rollout.first_violation,
        )
    };
    let mut stream_reference: Option<String> = None;
    for jobs in [1, 4, 8] {
        let spec = rollout_spec(jobs);
        let bare = run_rollout(&spec, &policy, None, None).unwrap();
        assert_eq!(bare.stream, StreamStats::default());
        let doc = identity_document(&build_fleet_report(&bare.report_inputs(&spec))).to_pretty();
        assert_eq!(doc, reference, "unstreamed rollout diverged at jobs={jobs}");
        assert_eq!(bare.first_violation, reference_violation);

        let path = tmp(&format!("rollout-j{jobs}.jsonl"));
        let mut out = JsonlWriter::create(&path).unwrap();
        let streamed = run_rollout_streamed(&spec, &policy, &mut out, None).unwrap();
        let doc =
            identity_document(&build_fleet_report(&streamed.report_inputs(&spec))).to_pretty();
        assert_eq!(doc, reference, "streamed rollout diverged at jobs={jobs}");
        assert_eq!(
            streamed.first_violation, reference_violation,
            "forensics anchor diverged at jobs={jobs}"
        );

        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count() as u64, streamed.stream.records);
        assert_eq!(streamed.stream.records, spec.count as u64);
        assert_device_ordered(&text, jobs);
        match &stream_reference {
            None => stream_reference = Some(text),
            Some(reference) => {
                assert_eq!(
                    &text, reference,
                    "rollout stream bytes diverged at jobs={jobs}"
                )
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
