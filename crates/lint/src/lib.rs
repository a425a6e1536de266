//! carpool-lint — the project checks no compiler lint can express.
//!
//! rustc and clippy enforce most of this workspace's invariants through
//! the `[workspace.lints]` table, `clippy.toml` and `#[expect]`
//! waivers, and counting-allocator tests pin the allocation-free hot
//! paths (DESIGN.md, "Static analysis gate", maps each retired rule to
//! its replacement). This crate keeps the three rules that need
//! knowledge of the whole workspace or of the project's conventions:
//!
//! | rule | meaning |
//! |------|---------|
//! | L010 | no library `pub` item that no other workspace file names |
//! | L013 | no arithmetic/calls mixing unit suffixes (`_s`, `_db`, …) |
//! | L015 | shard-protocol discipline in worker pools and scratch fns |
//!
//! All three run over the whole workspace, scanned by the
//! comment/string-aware [`scanner`] and parsed into [`items`]
//! ([`interproc`] holds the rules). Crate layering is Cargo's and
//! `tests/layering.rs`'s job, and the atomic-ordering notes in `par` and
//! `obs` are a `scripts/check.sh` stage. The Viterbi kernel's `i32`
//! budget is not a lint rule: `const` asserts in
//! `crates/phy/src/convolutional.rs` prove it at compile time and
//! `crates/phy/tests/viterbi_overflow.rs` drives the kernel with
//! worst-case inputs under overflow checks.
//! `--explain <rule>` prints the full rationale for any rule.
//!
//! There is no baseline: any finding not waived inline with
//! `// lint:allow(<key>): <reason>` fails the gate (see
//! [`rules::Rule::waiver_key`]). Run as `cargo run -p carpool-lint`, or
//! `carpool lint` from the CLI; `scripts/check.sh` runs it as its lint
//! stage. Exit codes: 0 clean, 1 un-waived findings, 2 the linter
//! could not run.
#![allow(
    clippy::disallowed_methods,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "tool crate: times itself and reports on the terminal"
)]

pub mod interproc;
pub mod items;
pub mod rules;
pub mod scanner;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use items::{FileRecord, Section};
use rules::{Diagnostic, Rule};

/// Errors surfaced by the lint runner.
#[derive(Debug)]
pub enum LintError {
    /// Reading a file or directory failed.
    Io(PathBuf, std::io::Error),
    /// The workspace root does not look like the Carpool workspace.
    NotAWorkspace(PathBuf),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            LintError::NotAWorkspace(path) => write!(
                f,
                "{} does not look like the carpool workspace \
                 (expected Cargo.toml and crates/)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for LintError {}

/// Coverage statistics of the workspace rules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Function parameters carrying a recognized unit suffix (L013).
    pub unit_params: usize,
    /// Functions checked against the shard-protocol obligations (L015).
    pub shard_fns: usize,
}

/// Result of scanning the whole workspace.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Every un-waived finding, in deterministic (file, line) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned (src, tests, benches, examples).
    pub files_scanned: usize,
    /// Number of crates scanned.
    pub crates_scanned: usize,
    /// Wall time per stage in milliseconds: `parse` (reading and
    /// parsing every file), then one entry per rule.
    pub rule_timings_ms: BTreeMap<String, f64>,
    /// Rule coverage statistics.
    pub analysis: AnalysisStats,
}

impl ScanReport {
    /// Whether the gate passes: no un-waived finding.
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }

    fn time<T>(&mut self, stage: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.rule_timings_ms
            .insert(stage.to_string(), t.elapsed().as_secs_f64() * 1e3);
        out
    }
}

/// Scans the workspace rooted at `root`: the rules run over the whole
/// parsed workspace (src + tests + benches + examples as the reference
/// corpus).
///
/// # Errors
///
/// Returns [`LintError`] when `root` is not the workspace or a source
/// file cannot be read.
pub fn scan_workspace(root: &Path) -> Result<ScanReport, LintError> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err(LintError::NotAWorkspace(root.to_path_buf()));
    }
    let mut report = ScanReport::default();
    let mut crate_dirs: Vec<PathBuf> = vec![root.to_path_buf()];
    let mut entries = read_dir_sorted(&root.join("crates"))?;
    entries.retain(|p| p.join("Cargo.toml").is_file());
    crate_dirs.extend(entries);

    let t = Instant::now();
    let mut records: Vec<FileRecord> = Vec::new();
    for dir in &crate_dirs {
        // The root package is "", a member its directory under crates/.
        let name = if dir == root {
            ""
        } else {
            dir.file_name().and_then(|n| n.to_str()).unwrap_or("")
        };
        let class = rules::classify(name);
        report.crates_scanned += 1;
        const SECTIONS: [(Section, &str); 4] = [
            (Section::Src, "src"),
            (Section::Tests, "tests"),
            (Section::Benches, "benches"),
            (Section::Examples, "examples"),
        ];
        for (section, dir_name) in SECTIONS {
            let section_dir = dir.join(dir_name);
            if !section_dir.is_dir() {
                continue;
            }
            for file in rs_files_under(&section_dir)? {
                let text = read_file(&file)?;
                records.push(FileRecord::parse(
                    &relative(root, &file),
                    section,
                    class,
                    &text,
                ));
            }
        }
    }
    report.files_scanned = records.len();
    report
        .rule_timings_ms
        .insert("parse".to_string(), t.elapsed().as_secs_f64() * 1e3);

    let d10 = report.time(Rule::L010.id(), || interproc::check_l010(&records));
    report.diagnostics.extend(d10);
    let (d13, unit_params) = report.time(Rule::L013.id(), || interproc::check_l013(&records));
    report.diagnostics.extend(d13);
    let (d15, shard_fns) = report.time(Rule::L015.id(), || interproc::check_l015(&records));
    report.diagnostics.extend(d15);
    report.analysis = AnalysisStats {
        unit_params,
        shard_fns,
    };

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Per-rule finding totals of a scan (every rule present, zero or not).
pub fn per_rule_totals(report: &ScanReport) -> BTreeMap<&'static str, usize> {
    let mut totals: BTreeMap<&'static str, usize> = Rule::ALL.iter().map(|r| (r.id(), 0)).collect();
    for d in &report.diagnostics {
        *totals.entry(d.rule.id()).or_default() += 1;
    }
    totals
}

/// Renders the machine-readable report (`--json`); `elapsed_ms` is the
/// whole run's wall time.
pub fn render_json(report: &ScanReport, elapsed_ms: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"carpool-lint/v5\",\n");
    let _ = writeln!(
        out,
        "  \"files_scanned\": {},\n  \"crates_scanned\": {},",
        report.files_scanned, report.crates_scanned
    );
    let totals = per_rule_totals(report);
    let totals: Vec<String> = totals
        .iter()
        .map(|(rule, n)| format!("\n    \"{rule}\": {n}"))
        .collect();
    let _ = write!(
        out,
        "  \"per_rule_totals\": {{{}\n  }},\n",
        totals.join(",")
    );
    let timings: Vec<String> = report
        .rule_timings_ms
        .iter()
        .map(|(stage, ms)| format!("\n    {}: {ms:.3}", json_string(stage)))
        .collect();
    let _ = write!(
        out,
        "  \"rule_timings_ms\": {{{}\n  }},\n",
        timings.join(",")
    );
    let a = &report.analysis;
    let _ = writeln!(
        out,
        "  \"analysis\": {{\n    \"unit_params\": {},\n    \"shard_fns\": {}\n  }},",
        a.unit_params, a.shard_fns
    );
    let _ = writeln!(out, "  \"elapsed_ms\": {elapsed_ms:.3},");
    let _ = writeln!(out, "  \"ok\": {},", report.ok());
    let findings: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| {
            format!(
                "\n    {{\"rule\": \"{}\", \"file\": {}, \"line\": {}, \"message\": {}}}",
                d.rule.id(),
                json_string(&d.file),
                d.line,
                json_string(&d.message)
            )
        })
        .collect();
    let _ = write!(out, "  \"findings\": [{}\n  ]\n}}\n", findings.join(","));
    out
}

/// Renders the human-readable report.
pub fn render_human(report: &ScanReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(out, "{d}");
    }
    let _ = writeln!(
        out,
        "carpool-lint: {} files in {} crates, {} findings",
        report.files_scanned,
        report.crates_scanned,
        report.diagnostics.len()
    );
    let totals = per_rule_totals(report);
    for rule in Rule::ALL {
        let _ = writeln!(
            out,
            "  {}: {:<4} {}",
            rule.id(),
            totals.get(rule.id()).copied().unwrap_or(0),
            rule.summary()
        );
    }
    let a = &report.analysis;
    let _ = writeln!(
        out,
        "  coverage: {} unit-suffixed params, {} shard-protocol fns",
        a.unit_params, a.shard_fns
    );
    out
}

/// Quotes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parsed command line shared by `carpool-lint` and `carpool lint`.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Workspace root (defaults to the nearest ancestor with
    /// `Cargo.toml` + `crates/`).
    pub root: Option<PathBuf>,
    /// Emit the JSON report instead of human text.
    pub json: bool,
    /// Print the long-form rationale of one rule and exit.
    pub explain: Option<String>,
}

impl LintOptions {
    /// Parses `--json`, `--root <dir>` and `--explain <rule>`.
    ///
    /// # Errors
    ///
    /// Returns a usage string on unknown flags or missing values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<LintOptions, String> {
        let mut opts = LintOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--json" => opts.json = true,
                "--root" => {
                    let dir = iter.next().ok_or("--root needs a directory")?;
                    opts.root = Some(PathBuf::from(dir));
                }
                "--explain" => {
                    let rule = iter.next().ok_or("--explain needs a rule id (e.g. L013)")?;
                    opts.explain = Some(rule);
                }
                other => {
                    return Err(format!(
                        "unknown lint option '{other}' \
                         (expected --json, --root <dir>, --explain <rule>)"
                    ));
                }
            }
        }
        Ok(opts)
    }
}

/// Finds the workspace root: the given override, else the nearest
/// ancestor of the current directory containing `Cargo.toml` and
/// `crates/`.
pub fn find_root(explicit: Option<&Path>) -> Option<PathBuf> {
    if let Some(root) = explicit {
        return Some(root.to_path_buf());
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Full gate run driven by [`LintOptions`]; prints to stdout/stderr and
/// returns the process exit code.
///
/// Exit-code contract (tested in `tests/exit_codes.rs`):
/// * `0` — clean gate, or a successful `--explain`,
/// * `1` — gate failure: at least one un-waived finding,
/// * `2` — the linter could not run: unusable workspace root,
///   unreadable sources, an unknown rule for `--explain`, or an
///   analyzer panic (caught here so a linter bug is never reported as a
///   lint verdict).
pub fn run(opts: &LintOptions) -> i32 {
    if let Some(id) = &opts.explain {
        return match Rule::from_id(id) {
            Some(rule) => {
                println!("{}", rule.explain());
                0
            }
            None => {
                let ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
                eprintln!(
                    "carpool-lint: unknown rule '{id}' (expected one of {})",
                    ids.join(", ")
                );
                2
            }
        };
    }
    let Some(root) = find_root(opts.root.as_deref()) else {
        eprintln!("carpool-lint: cannot find the workspace root (try --root <dir>)");
        return 2;
    };
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(|| scan_workspace(&root));
    let report = match outcome {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => {
            eprintln!("carpool-lint: {e}");
            return 2;
        }
        Err(payload) => {
            eprintln!(
                "carpool-lint: internal analyzer error: {}",
                panic_message(payload.as_ref())
            );
            return 2;
        }
    };
    if opts.json {
        print!(
            "{}",
            render_json(&report, started.elapsed().as_secs_f64() * 1e3)
        );
    } else {
        print!("{}", render_human(&report));
    }
    i32::from(!report.ok())
}

/// Best-effort panic payload text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "unknown panic payload"
    }
}

fn read_file(path: &Path) -> Result<String, LintError> {
    std::fs::read_to_string(path).map_err(|e| LintError::Io(path.to_path_buf(), e))
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let entries = std::fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    let mut paths = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
        paths.push(entry.path());
    }
    paths.sort();
    Ok(paths)
}

/// All `.rs` files under `dir`, recursively, in sorted order.
fn rs_files_under(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for path in read_dir_sorted(&current)? {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// `path` relative to `root`, with forward slashes.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
