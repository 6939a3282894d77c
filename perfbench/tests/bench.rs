//! The benchmark's own checks at tiny scale: every metric `BENCHMARK.json`
//! names is printed with its unit, simulated output repeats at a seed, and
//! the correctness checks do fail on a kernel known to be unsafe.

use easeio_trace::json::{parse, Value};
use kernel::KernelKind;
use perfbench::{measure, Opts, Report, Workload};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool, kernel: KernelKind, seed: u64) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    // Tests run concurrently: no two calls with different arguments may
    // share a stream-file directory.
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}-{trace}-{seed}",
        workload.name(),
        kernel.name()
    ));
    let mut o = Opts::new(workload, seed, root, out);
    o.tiny = true;
    o.trace = trace;
    o.kernel = kernel;
    o.jobs = 1;
    o.seconds = 0.001;
    measure(&o).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json")).expect("JSON");
    doc.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric on a report's result line.
fn printed(r: &Report) -> Vec<(String, String)> {
    let line = parse(&r.json_line()).expect("result line is JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(line.get(key).is_some(), "result line lacks {key}");
    }
    line.get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let e2e = declared("end_to_end");
    let layer = declared("per_layer");
    for w in Workload::ALL {
        let r = tiny(w, false, KernelKind::EaseIo, 7);
        assert!(r.correct, "{}: {:?}", w.name(), r.problems);
        assert_eq!(printed(&r), e2e, "{} end-to-end", w.name());
        let r = tiny(w, true, KernelKind::EaseIo, 7);
        assert!(r.correct, "{} traced: {:?}", w.name(), r.problems);
        assert_eq!(printed(&r), layer, "{} per-layer", w.name());
    }
}

#[test]
fn simulated_output_and_counts_repeat_at_a_seed() {
    for w in Workload::ALL {
        let a = tiny(w, true, KernelKind::EaseIo, 11);
        let b = tiny(w, true, KernelKind::EaseIo, 11);
        assert_eq!(a.sim_digest, b.sim_digest, "{}", w.name());
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            if x.unit == "count" || x.unit == "bytes" {
                assert_eq!(x, y, "{}", w.name());
            }
        }
        let a = tiny(w, false, KernelKind::EaseIo, 11);
        let b = tiny(w, false, KernelKind::EaseIo, 11);
        for name in ["sim_time_ms", "sim_energy_uj", "sim_waste_uj"] {
            assert_eq!(a.get(name), b.get(name), "{} {name}", w.name());
        }
        let c = tiny(w, false, KernelKind::EaseIo, 12);
        assert_ne!(
            a.sim_digest,
            c.sim_digest,
            "{}: the seed reaches the inputs",
            w.name()
        );
    }
}

#[test]
fn naive_kernel_fails_the_sweep_checks() {
    let r = tiny(Workload::SweepMatrix, false, KernelKind::Naive, 7);
    assert!(r.failed > 0, "the Naive sweep reported no failed boundary");
    assert!(!r.correct);
}

#[test]
fn naive_kernel_fails_the_fleet_checks() {
    let r = tiny(Workload::FleetRadio, false, KernelKind::Naive, 7);
    assert!(r.failed > 0, "the Naive fleet reported no failed device");
    assert!(!r.correct);
}
