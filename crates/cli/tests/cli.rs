//! End-to-end tests of the `carpool` binary.

use std::process::Command;

#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_carpool"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_lists_all_commands() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    for cmd in ["phy-ber", "mac-sim", "sweep", "frame", "bloom", "gen-trace"] {
        assert!(stdout.contains(cmd), "missing {cmd} in help");
    }
}

#[test]
fn no_arguments_shows_help() {
    let (ok, stdout, _) = run(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn unknown_options_are_rejected_by_name() {
    // Options a subcommand does not read — typos, and options of
    // another subcommand — fail before any work starts.
    for (args, flag) in [
        (&["mac-sim", "--stass", "30"][..], "--stass"),
        (&["bloom", "--no-cache"][..], "--no-cache"),
        (&["report", "--sarif", "out"][..], "--sarif"),
        (
            &["phy-ber", "--frames", "1", "--snr-db", "20"][..],
            "--snr-db",
        ),
    ] {
        let (ok, _, stderr) = run(args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains(&format!("unknown option {flag}")),
            "{args:?}: stderr must name {flag}: {stderr}"
        );
    }
}

#[test]
fn global_options_are_accepted_by_every_command() {
    let (ok, stdout, stderr) = run(&["bloom", "--trials", "10", "--threads", "1"]);
    assert!(ok, "{stderr}");
    assert!(!stdout.is_empty());
}

#[test]
fn unknown_command_fails_cleanly() {
    let (ok, _, stderr) = run(&["warp-drive"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn bad_option_value_fails_cleanly() {
    let (ok, _, stderr) = run(&["mac-sim", "--stas", "lots"]);
    assert!(!ok);
    assert!(stderr.contains("invalid value"));
}

#[test]
fn bloom_analysis_prints_expected_fields() {
    let (ok, stdout, _) = run(&["bloom", "--receivers", "8", "--trials", "2000"]);
    assert!(ok);
    assert!(stdout.contains("optimal h"));
    assert!(stdout.contains("analytic r_FP"));
    assert!(stdout.contains("measured r_FP"));
}

#[test]
fn frame_delivery_reports_intact_payloads() {
    let (ok, stdout, _) = run(&["frame", "--receivers", "2", "--bytes", "120"]);
    assert!(ok, "{stdout}");
    assert_eq!(stdout.matches("payload intact").count(), 2, "{stdout}");
}

#[test]
fn gen_trace_emits_parseable_trace() {
    let (ok, stdout, _) = run(&["gen-trace", "--stas", "2", "--duration", "1"]);
    assert!(ok);
    let trace = carpool_traffic::trace::Trace::from_text(&stdout).expect("valid trace");
    assert!(!trace.is_empty());
}

#[test]
fn mac_sim_smoke() {
    let (ok, stdout, _) = run(&["mac-sim", "--stas", "6", "--duration", "1"]);
    assert!(ok);
    assert!(stdout.contains("downlink:"));
    assert!(stdout.contains("channel :"));
}

/// A fresh scratch directory for one test's output files.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn scratch_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("carpool-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The count in a report row like `  RTE updates        : 102 applied / ...`.
fn first_count(report: &str, row: &str) -> u64 {
    report
        .lines()
        .find(|l| l.trim_start().starts_with(row))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

#[test]
fn frame_obs_stream_round_trips_through_report() {
    let dir = scratch_dir("frame-obs");
    let stream = dir.join("x.jsonl");
    let stream = stream.to_str().expect("utf-8 path");
    let (ok, _, stderr) = run(&["frame", "--obs", stream]);
    assert!(ok, "{stderr}");
    let (ok, report, stderr) = run(&["report", stream]);
    assert!(ok, "{stderr}");
    for row in ["RTE updates", "side-channel CRC", "membership checks"] {
        assert!(
            first_count(&report, row) > 0,
            "{row} row is zero:\n{report}"
        );
    }
    assert!(report.contains("0 malformed, 0 unknown kinds"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_export_round_trips_through_report() {
    let dir = scratch_dir("trace-out");
    let trace = dir.join("t.json");
    let trace = trace.to_str().expect("utf-8 path");
    let (ok, _, stderr) = run(&["trace", "--trace-out", trace]);
    assert!(ok, "{stderr}");
    let (ok, report, stderr) = run(&["report", &format!("{trace}.jsonl")]);
    assert!(ok, "{stderr}");
    assert!(
        report.contains("(0 records lost to ring overflow)"),
        "dropped trailer missing:\n{report}"
    );
    let timeline = report
        .lines()
        .find(|l| l.trim_start().starts_with("frame 1 "))
        .unwrap_or_else(|| panic!("no timeline for frame 1:\n{report}"));
    for part in ["enq 0.0us", "agg 100.0us", "air 100.0us..", "acked x4"] {
        assert!(timeline.contains(part), "{part} missing: {timeline}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
