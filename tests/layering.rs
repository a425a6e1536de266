//! Crate layering: the crates below the MAC simulator never depend on
//! a crate above it. Cargo already rejects most such edges as cycles,
//! because `carpool-mac` depends on every lower crate and each other
//! upper crate depends on `carpool-mac`; this test also catches the
//! edges Cargo accepts, such as one onto `carpool-lint`. Dev-dependencies
//! are exempt: a test-only edge does not change the runtime layering.

use std::path::Path;

/// Directories under `crates/` of the lower-layer crates.
const LOWER: [&str; 7] = ["obs", "par", "phy", "bloom", "channel", "frame", "traffic"];
/// Packages no lower-layer crate may depend on.
const UPPER: [&str; 5] = [
    "carpool-mac",
    "carpool",
    "carpool-cli",
    "carpool-bench",
    "carpool-lint",
];

/// Names in a manifest's `[dependencies]` and `[build-dependencies]`
/// tables: `name = ..` and `name.workspace = true` keys, and
/// `[dependencies.name]` sub-tables.
fn runtime_dependencies(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_table = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let (table, sub) = header.split_once('.').unwrap_or((header, ""));
            in_table = matches!(table, "dependencies" | "build-dependencies");
            if in_table && !sub.is_empty() {
                deps.push(sub.trim_matches('"').to_string());
                in_table = false;
            }
        } else if let Some((key, _)) = line.split_once('=').filter(|_| in_table) {
            let name = key.split('.').next().unwrap_or_default();
            deps.push(name.trim().trim_matches('"').to_string());
        }
    }
    deps
}

#[test]
fn lower_layer_crates_never_depend_on_upper_layer_crates() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    for dir in LOWER {
        let path = crates.join(dir).join("Cargo.toml");
        let manifest = std::fs::read_to_string(&path).expect("lower-layer manifest");
        for dep in runtime_dependencies(&manifest) {
            assert!(
                !UPPER.contains(&dep.as_str()),
                "{}: runtime dependency on upper-layer `{dep}`",
                path.display()
            );
        }
    }
}
