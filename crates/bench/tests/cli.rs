//! End-to-end checks of the `easeio-sim` binary: what a fleet run leaves
//! on disk, and typed exit codes for hostile input.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("easeio-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `easeio-sim` in `dir` and returns its exit code, failing the test
/// if the process is still running after a minute.
fn sim(dir: &Path, args: &[&str]) -> i32 {
    let mut child = Command::new(env!("CARGO_BIN_EXE_easeio-sim"))
        .current_dir(dir)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status.code().expect("exited, not killed by a signal");
        }
        if started.elapsed() > Duration::from_secs(60) {
            child.kill().unwrap();
            panic!("easeio-sim {args:?} hung");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn fleet_runs_without_a_stream_leave_no_shard_or_wave_files() {
    let dir = scratch("no-stream");
    let fleet = ["fleet", "--devices", "40", "--jobs", "4"];
    let rollout = ["fleet", "--rollout", "--devices", "40", "--wave-size", "8"];
    assert_eq!(
        sim(&dir, &[&fleet[..], &["--report-out", "f.json"]].concat()),
        0
    );
    assert_eq!(
        sim(&dir, &[&rollout[..], &["--report-out", "r.json"]].concat()),
        0
    );
    assert_eq!(files_in(&dir), ["f.json", "r.json"]);

    // With a stream the shards are merged and deleted: only the stream
    // itself is added.
    let streamed = [&fleet[..], &["--stream-out", "f.jsonl"]].concat();
    assert_eq!(sim(&dir, &streamed), 0);
    let streamed = [&rollout[..], &["--stream-out", "r.jsonl"]].concat();
    assert_eq!(sim(&dir, &streamed), 0);
    assert_eq!(files_in(&dir), ["f.json", "f.jsonl", "r.json", "r.jsonl"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hostile_inputs_exit_with_the_usage_code() {
    let dir = scratch("hostile");
    let n = 200_000;
    std::fs::write(dir.join("deep.json"), "[".repeat(n) + &"]".repeat(n)).unwrap();
    let n = 100_000;
    let program = format!(
        "__nv int x;\ntask t {{\n  x = {}1{};\n  done;\n}}\n",
        "(".repeat(n),
        ")".repeat(n)
    );
    std::fs::write(dir.join("deep.eio"), program).unwrap();
    assert_eq!(sim(&dir, &["--validate-report", "deep.json"]), 2);
    assert_eq!(sim(&dir, &["--source", "deep.eio"]), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn engine_errors_exit_with_the_usage_code_while_streaming() {
    // The error exit flushes every open stream, including the one the
    // failed engine was writing to; it must not wait on that writer.
    let dir = scratch("engine-error");
    let args = [
        "fleet",
        "--rollout",
        "--devices",
        "4",
        "--wave-size",
        "0",
        "--stream-out",
        "r.jsonl",
    ];
    assert_eq!(sim(&dir, &args), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}
