//! Fixture tests for the workspace rules (L010–L015): one positive
//! (the rule fires) and one negative (compliant code passes) per rule,
//! plus disk-based scans of a miniature workspace that drive the full
//! `scan_workspace` pipeline: a seeded violation of each of the three
//! rules fails it, and the fixed tree passes.

use carpool_lint::interproc::{check_l010, check_l013, check_l015};
use carpool_lint::items::{FileRecord, Section};
use carpool_lint::rules::classify;

fn record(path: &str, crate_dir: &str, src: &str) -> FileRecord {
    FileRecord::parse(path, Section::Src, classify(crate_dir), src)
}

// ---------------------------------------------------------------- L010

#[test]
fn l010_fires_on_orphan_pub_item() {
    let files = vec![
        record(
            "crates/phy/src/lib.rs",
            "phy",
            "pub fn orphan_helper() {}\n",
        ),
        record("crates/mac/src/lib.rs", "mac", "fn other() {}\n"),
    ];
    let diags = check_l010(&files);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("orphan_helper"));
}

#[test]
fn l010_passes_when_item_is_referenced_or_waived() {
    let files = vec![
        record(
            "crates/phy/src/lib.rs",
            "phy",
            "pub fn used_helper() {}\n\
             // lint:allow(dead-api): kept for downstream users\n\
             pub fn kept_helper() {}\n",
        ),
        record(
            "crates/mac/src/lib.rs",
            "mac",
            "fn other() { carpool_phy::used_helper(); }\n",
        ),
    ];
    assert!(check_l010(&files).is_empty());
}

// ---------------------------------------------------------------- L013

#[test]
fn l013_fires_on_mixed_unit_arithmetic() {
    let files = vec![record(
        "crates/frame/src/airtime.rs",
        "frame",
        "fn total(airtime_s: f64, backoff_us: f64) -> f64 { airtime_s + backoff_us }\n",
    )];
    let (diags, unit_params) = check_l013(&files);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(
        diags[0].message.contains("s") && diags[0].message.contains("us"),
        "diagnostic must name both units: {}",
        diags[0].message
    );
    assert_eq!(unit_params, 2);
}

#[test]
fn l013_passes_matching_units_and_unit_converting_ops() {
    let files = vec![record(
        "crates/frame/src/airtime.rs",
        "frame",
        // Same unit adds fine; multiplication/division convert units by
        // design and are exempt from the mixing check.
        "fn ok(airtime_s: f64, gap_s: f64, rate_linear: f64) -> f64 {\n\
             (airtime_s + gap_s) * rate_linear\n\
         }\n",
    )];
    let (diags, _) = check_l013(&files);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn l013_flags_call_argument_unit_mismatch() {
    let files = vec![record(
        "crates/frame/src/airtime.rs",
        "frame",
        "fn wait(timeout_s: f64) -> f64 { timeout_s }\n\
         fn caller(delay_us: f64) -> f64 { wait(delay_us) }\n",
    )];
    let (diags, _) = check_l013(&files);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(
        diags[0].message.contains("wait"),
        "diagnostic must name the callee: {}",
        diags[0].message
    );
}

// ---------------------------------------------------------------- L015

#[test]
fn l015_fires_on_out_of_order_mailbox_absorb() {
    // Deliberately absorbs source shards in *descending* order: the
    // inbox assembly is no longer a pure function of shard indices.
    let files = vec![record(
        "crates/par/src/lib.rs",
        "par",
        "fn absorb_mailboxes(outboxes: &[Vec<u8>], inbox: &mut Vec<u8>) {\n\
             for source in outboxes.iter().rev() {\n\
                 inbox.extend_from_slice(source);\n\
             }\n\
         }\n",
    )];
    let (diags, checked) = check_l015(&files);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].line, 2);
    assert!(
        diags[0].message.contains("absorb-order"),
        "must carry the obligation tag: {}",
        diags[0].message
    );
    assert_eq!(checked, 1);
}

#[test]
fn l015_fires_on_barrier_without_panic_tag_and_unreset_scratch() {
    let files = vec![record(
        "crates/par/src/lib.rs",
        "par",
        // A barrier epoch loop that catches panics but never tags the
        // failing epoch with fetch_min: peers cannot agree on where to
        // stop deterministically.
        "fn run_epochs(barrier: &std::sync::Barrier) {\n\
             let _ = std::panic::catch_unwind(|| {\n\
                 barrier.wait();\n\
             });\n\
         }\n\
         fn decode_with_scratch(scratch: &mut Vec<u8>) -> usize {\n\
             scratch.push(1);\n\
             scratch.len()\n\
         }\n",
    )];
    let (diags, checked) = check_l015(&files);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("barrier-tag")));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("scratch-overwrite")));
    assert_eq!(checked, 2);
}

#[test]
fn l015_passes_compliant_shard_protocol_code() {
    let files = vec![record(
        "crates/par/src/lib.rs",
        "par",
        // Ascending absorb; barrier paired with fetch_min; scratch
        // fully taken over per the history-independence contract.
        "fn absorb_mailboxes(outboxes: &[Vec<u8>], inbox: &mut Vec<u8>) {\n\
             for source in outboxes.iter() {\n\
                 inbox.extend_from_slice(source);\n\
             }\n\
         }\n\
         fn run_epochs(barrier: &std::sync::Barrier, failed_at: &std::sync::atomic::AtomicUsize) {\n\
             let r = std::panic::catch_unwind(|| {\n\
                 barrier.wait();\n\
             });\n\
             if r.is_err() {\n\
                 // ordering: panic-tag min over epochs, pairs with the post-join load\n\
                 failed_at.fetch_min(0, std::sync::atomic::Ordering::AcqRel);\n\
             }\n\
         }\n\
         fn decode_with_scratch(scratch: &mut Vec<u8>) -> Vec<u8> {\n\
             std::mem::take(scratch)\n\
         }\n",
    )];
    let (diags, checked) = check_l015(&files);
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(checked, 3);
}

// ------------------------------------------------------ end to end

mod end_to_end {
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    use carpool_lint::rules::Rule;

    static COUNTER: AtomicUsize = AtomicUsize::new(0);

    /// A unique scratch workspace under the system temp directory.
    fn scratch(tag: &str) -> PathBuf {
        let n = COUNTER.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!(
            "carpool-lint-fixture-{}-{tag}-{n}",
            std::process::id()
        ))
    }

    #[expect(
        clippy::expect_used,
        reason = "test helper: a failed setup fails the test"
    )]
    fn write(path: &Path, text: &str) {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("create fixture dir");
        }
        fs::write(path, text).expect("write fixture file");
    }

    /// A miniature workspace: a `carpool-par` crate and a `carpool-mac`
    /// crate that uses it. `dirty` seeds one violation of every rule
    /// into it.
    fn workspace(tag: &str, dirty: bool) -> PathBuf {
        let root = scratch(tag);
        write(&root.join("Cargo.toml"), "[workspace]\nmembers = []\n");
        write(
            &root.join("crates/par/Cargo.toml"),
            "[package]\nname = \"carpool-par\"\n",
        );
        let (units, absorb) = if dirty {
            ("airtime_s + backoff_us", ".rev()")
        } else {
            ("airtime_s + backoff_s", "")
        };
        write(
            &root.join("crates/par/src/lib.rs"),
            &format!(
                "//! Pool fixture.\n\
                 pub fn total(airtime_s: f64, backoff_{unit}: f64) -> f64 {{ {units} }}\n\
                 pub fn absorb_mailboxes(outboxes: &[u8]) {{\n\
                     for b in outboxes.iter(){absorb} {{ let _ = b; }}\n\
                 }}\n",
                unit = if dirty { "us" } else { "s" },
            ),
        );
        write(
            &root.join("crates/mac/Cargo.toml"),
            "[package]\nname = \"carpool-mac\"\n",
        );
        let orphan = if dirty { "pub fn orphan() {}\n" } else { "" };
        write(
            &root.join("crates/mac/src/lib.rs"),
            &format!(
                "//! Mac fixture.\n\
                 {orphan}fn run() {{ carpool_par::total(); carpool_par::absorb_mailboxes(); }}\n"
            ),
        );
        root
    }

    #[test]
    fn seeded_violation_of_every_rule_fails_the_scan() {
        let root = workspace("dirty", true);
        let report = carpool_lint::scan_workspace(&root).expect("scan succeeds");
        assert!(!report.ok());
        let fired: Vec<Rule> = report.diagnostics.iter().map(|d| d.rule).collect();
        for rule in Rule::ALL {
            assert!(fired.contains(&rule), "{rule:?} missing: {fired:?}");
        }
        assert_eq!(report.crates_scanned, 3);
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.analysis.unit_params, 2);
        for stage in ["parse", "L010", "L013", "L015"] {
            assert!(report.rule_timings_ms.contains_key(stage), "{stage}");
        }
        let json = carpool_lint::render_json(&report, 1.0);
        assert!(json.contains("\"ok\": false"));
        assert!(json.contains("\"file\": \"crates/par/src/lib.rs\""));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fixed_workspace_passes() {
        let root = workspace("clean", false);
        let report = carpool_lint::scan_workspace(&root).expect("scan succeeds");
        assert!(report.ok(), "{:?}", report.diagnostics);
        // `absorb_mailboxes` and mac's `run`, whose body names it.
        assert_eq!(report.analysis.shard_fns, 2);
        assert!(carpool_lint::render_human(&report).contains("0 findings"));
        fs::remove_dir_all(&root).ok();
    }
}
