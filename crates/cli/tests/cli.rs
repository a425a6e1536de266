//! End-to-end tests of the `carpool` binary.

use std::process::Command;

/// Runs the binary: its exit code (`None` if killed), stdout, stderr.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn run_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_carpool"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn run(args: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = run_code(args);
    (code == Some(0), stdout, stderr)
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
            &["phy-ber", "--frames", "1", "--no-tx-cache"][..],
            "--no-tx-cache",
        ),
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
fn out_of_range_counts_are_rejected_by_name() {
    // Zero frames would print NaN rates; zero receivers has no A-HDR.
    for (args, message) in [
        (
            &["phy-ber", "--frames", "0"][..],
            "--frames must be at least 1",
        ),
        (
            &["bloom", "--receivers", "0"][..],
            "--receivers must be 1..=8",
        ),
    ] {
        let (code, stdout, stderr) = run_code(args);
        assert_eq!(code, Some(2), "{args:?} must fail as a usage error");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
        assert!(
            stderr.contains(message),
            "{args:?}: stderr must say {message}: {stderr}"
        );
    }
}

/// A MAC input the simulator cannot run is a usage error named by its
/// flag, before any simulation starts: a NaN duration (the clock would
/// never reach it), no AP, a hidden-pair fraction outside [0, 1] and a
/// negative or NaN OBSS coupling.
#[test]
fn malformed_mac_inputs_are_rejected_by_name() {
    for (args, message) in [
        (
            &["mac-sim", "--duration", "nan"][..],
            "--duration must be finite and positive",
        ),
        (
            &["mac-sim", "--duration", "0"][..],
            "--duration must be finite and positive",
        ),
        (
            &["mac-dense", "--duration", "inf"][..],
            "--duration must be finite and positive",
        ),
        (&["mac-sim", "--aps", "0"][..], "--aps must be at least 1"),
        (&["mac-dense", "--aps", "0"][..], "--aps must be at least 1"),
        (
            &["mac-sim", "--hidden", "1.5"][..],
            "--hidden must be in [0, 1]",
        ),
        (
            &["mac-sim", "--hidden", "nan"][..],
            "--hidden must be in [0, 1]",
        ),
        (
            &["mac-dense", "--coupling", "-3"][..],
            "--coupling must be a non-negative number",
        ),
        (
            &["mac-dense", "--coupling", "nan"][..],
            "--coupling must be a non-negative number",
        ),
    ] {
        let (code, stdout, stderr) = run_code(args);
        assert_eq!(
            code,
            Some(2),
            "{args:?} must fail as a usage error: {stderr}"
        );
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
        assert!(
            stderr.contains(message),
            "{args:?}: stderr must say {message}: {stderr}"
        );
    }
}

#[test]
fn phy_ber_prints_the_same_numbers_at_any_thread_count() {
    // Four 1 KiB frames at 20 dB: every decoder loses some frames, so
    // each printed rate is a count the run had to get right.
    let header = "mcs QAM64 3/4, 4 frames x 1 KiB, SNR 20 dB, coherence 4 ms, K 15, CFO 100 Hz\n";
    for (flag, expected) in [
        (
            None,
            "  estimation: standard\n  raw (pre-FEC) BER : 1.672e-2\n  \
             payload BER       : 1.477e-2\n  frame error rate  : 1.000\n",
        ),
        (
            Some("--soft"),
            "  estimation: standard + soft Viterbi\n  raw (pre-FEC) BER : 1.672e-2\n  \
             payload BER       : 9.155e-5\n  frame error rate  : 0.250\n",
        ),
        (
            Some("--rte"),
            "  estimation: RTE\n  raw (pre-FEC) BER : 1.661e-2\n  \
             payload BER       : 1.498e-2\n  frame error rate  : 1.000\n",
        ),
    ] {
        for threads in ["1", "2"] {
            let mut args: Vec<&str> = "phy-ber --frames 4 --kbytes 1 --snr 20 --threads"
                .split(' ')
                .collect();
            args.push(threads);
            args.extend(flag);
            let (ok, stdout, stderr) = run(&args);
            assert!(ok, "{args:?}: {stderr}");
            assert_eq!(stdout, format!("{header}{expected}"), "{args:?}");
        }
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
