//! Integration tests for the exit-code contract of [`carpool_lint::run`]:
//! `0` clean, `1` un-waived findings, `2` the linter could not run. Scripts
//! (`scripts/check.sh`) rely on this split to tell "the code is dirty"
//! apart from "the linter itself broke".

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use carpool_lint::LintOptions;

static COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch workspace under the system temp directory.
fn scratch(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "carpool-lint-exit-{}-{tag}-{n}",
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

/// A minimal workspace with one library crate (`carpool-phy`) whose
/// `lib.rs` is `body`.
fn workspace(tag: &str, body: &str) -> PathBuf {
    let root = scratch(tag);
    write(&root.join("Cargo.toml"), "[workspace]\nmembers = []\n");
    write(
        &root.join("crates/phy/Cargo.toml"),
        "[package]\nname = \"carpool-phy\"\n",
    );
    write(&root.join("crates/phy/src/lib.rs"), body);
    root
}

fn run_at(root: &Path) -> i32 {
    carpool_lint::run(&LintOptions {
        root: Some(root.to_path_buf()),
        ..LintOptions::default()
    })
}

#[test]
fn exit_zero_on_clean_workspace() {
    let root = workspace("clean", "//! A clean demo crate.\n\nfn quiet() {}\n");
    assert_eq!(run_at(&root), 0);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn exit_one_on_seeded_finding() {
    // A public item no other file names (L010).
    let root = workspace("dirty", "//! Demo.\n\npub struct Orphan;\n");
    assert_eq!(run_at(&root), 1);
    // The JSON report carries the same verdict.
    let json = carpool_lint::run(&LintOptions {
        root: Some(root.clone()),
        json: true,
        ..LintOptions::default()
    });
    assert_eq!(json, 1);
    // A waiver with a reason clears it.
    write(
        &root.join("crates/phy/src/lib.rs"),
        "//! Demo.\n\n\
         // lint:allow(dead-api): fixture exercising the waiver\n\
         pub struct Orphan;\n",
    );
    assert_eq!(run_at(&root), 0);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn exit_two_on_missing_workspace() {
    let root = scratch("nothing");
    assert_eq!(run_at(&root), 2);
}

#[test]
fn exit_two_on_unknown_explain_rule() {
    for id in ["L999", "L001", "L003", "L009", "L011", "L012"] {
        let code = carpool_lint::run(&LintOptions {
            explain: Some(id.to_string()),
            ..LintOptions::default()
        });
        assert_eq!(code, 2, "{id} is not a rule of this gate");
    }
}

#[test]
fn exit_zero_on_explain() {
    for rule in carpool_lint::rules::Rule::ALL {
        let code = carpool_lint::run(&LintOptions {
            explain: Some(rule.id().to_string()),
            ..LintOptions::default()
        });
        assert_eq!(code, 0, "{rule:?}");
    }
}

#[test]
fn options_parse_only_the_three_flags() {
    let parse = |args: &[&str]| LintOptions::parse(args.iter().map(|a| a.to_string()));
    let opts = parse(&["--json", "--root", "/tmp/ws", "--explain", "L013"]).expect("valid");
    assert!(opts.json);
    assert_eq!(opts.root, Some(PathBuf::from("/tmp/ws")));
    assert_eq!(opts.explain.as_deref(), Some("L013"));
    for retired in [
        "--no-cache",
        "--sarif",
        "--write-baseline",
        "--force",
        "--graph",
        "--strict-indexing",
        "--budget-ms",
    ] {
        let err = parse(&[retired]).expect_err("retired flag must be rejected");
        assert!(err.contains(retired), "{err}");
    }
}
