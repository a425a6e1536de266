//! The project rules and the line-based checks (L003 `use` paths,
//! L009) over scanned source lines and parsed manifests.
//!
//! Every rule reports `file:line` diagnostics. Inline waivers use the
//! `// lint:allow(<key>): <reason>` comment syntax — on the offending
//! line itself, or on a comment-only line directly above it. A waiver
//! without a non-empty reason is not honored.

use crate::scanner::SourceLine;

/// Rule identifiers. The numbering keeps the gaps left by rules that
/// moved to rustc/clippy lints and runtime tests (see DESIGN.md), so an
/// ID always means the same check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Crate layering: lower-layer crates must not depend on the MAC
    /// simulator, facade, CLI, bench, or lint crates.
    L003,
    /// Every atomic `Ordering::` in audited crates carries an
    /// `// ordering:` justification; `Relaxed` only for counters.
    L009,
    /// Dead public API: top-level `pub` items in library crates that
    /// no other workspace file references.
    L010,
    /// Unit-of-measure discipline: arithmetic must not mix
    /// differently-suffixed quantities (`_s`/`_us`/`_db`/...), and
    /// call arguments must match parameter unit suffixes.
    L013,
    /// Shard-protocol discipline: structural obligations on worker
    /// pools and sharded exchanges (ascending mailbox absorb, barrier
    /// epochs paired with a panic tag, index-keyed results, scratch
    /// history-independence).
    L015,
}

impl Rule {
    /// All rules, in order.
    pub const ALL: [Rule; 5] = [Rule::L003, Rule::L009, Rule::L010, Rule::L013, Rule::L015];

    /// Stable identifier, e.g. `"L003"`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::L003 => "L003",
            Rule::L009 => "L009",
            Rule::L010 => "L010",
            Rule::L013 => "L013",
            Rule::L015 => "L015",
        }
    }

    /// Parses a rule identifier (`L009`, `l009`, or `9`).
    pub fn from_id(id: &str) -> Option<Rule> {
        let trimmed = id.trim();
        let digits = trimmed
            .strip_prefix('L')
            .or_else(|| trimmed.strip_prefix('l'))
            .unwrap_or(trimmed);
        let n: usize = digits.parse().ok()?;
        Rule::ALL
            .into_iter()
            .find(|r| r.id()[1..].parse::<usize>().ok() == Some(n))
    }

    /// Waiver key accepted in `lint:allow(<key>)` for this rule.
    pub fn waiver_key(self) -> &'static str {
        match self {
            Rule::L003 => "layering",
            Rule::L009 => "atomic-ordering",
            Rule::L010 => "dead-api",
            Rule::L013 => "unit-mix",
            Rule::L015 => "shard-protocol",
        }
    }

    /// One-line description used in reports.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::L003 => "layering violation (lower crate depends on upper layer)",
            Rule::L009 => "unjustified atomic memory ordering in an audited crate",
            Rule::L010 => "dead public API (pub item referenced nowhere else)",
            Rule::L013 => "arithmetic or call mixing different units of measure",
            Rule::L015 => "shard-protocol violation in a worker pool or sharded exchange",
        }
    }

    /// Long-form description printed by `--explain <rule>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::L003 => {
                "L003 · crate layering\n\n\
                 Lower-layer crates (phy, bloom, channel, frame, traffic, par) must\n\
                 never depend on upper-layer crates (mac, carpool, cli, bench,\n\
                 lint) — neither via Cargo.toml dependencies nor via paths in code.\n\
                 The layering keeps the PHY reusable and the MAC simulator\n\
                 trace-reproducible.\n\n\
                 Waive with `// lint:allow(layering): <why>`."
            }
            Rule::L009 => {
                "L009 · atomics/lock audit in concurrency crates\n\n\
                 Every `Ordering::` use in crates/par must carry an `// ordering:`\n\
                 justification comment on the same line or directly above, so each\n\
                 memory-ordering choice is reviewable. `Ordering::Relaxed` is\n\
                 additionally only accepted when the justification describes a\n\
                 counter (word `counter` present) — Relaxed provides no\n\
                 happens-before edges, which is only sound for standalone counts.\n\n\
                 Waive with `// lint:allow(atomic-ordering): <why>`."
            }
            Rule::L010 => {
                "L010 · dead public API (cross-crate)\n\n\
                 A top-level `pub` item in a library crate that no other workspace\n\
                 file mentions — not another crate, not a test/bench/example, not\n\
                 the CLI, not even a doc comment — is unreachable API surface:\n\
                 unexercised, unreviewed, and free to rot. Remove it or demote it\n\
                 to pub(crate). Matching is by word-bounded identifier, so any\n\
                 mention anywhere (including docs) keeps an item alive.\n\n\
                 Waive with `// lint:allow(dead-api): <why external users need it>`."
            }
            Rule::L013 => {
                "L013 · unit-of-measure discipline (flow-aware)\n\n\
                 Identifier suffixes carry units in this workspace: `_s`, `_us`,\n\
                 `_symbols`, `_slots`, `_db`, `_linear`, plus SCREAMING consts\n\
                 like SYMBOL_DURATION / SLOT_TIME (seconds). Adding, subtracting\n\
                 or comparing two quantities with different recognized units —\n\
                 seconds to microseconds, dB to linear power — is almost always a\n\
                 conversion bug (multiplication and division are exempt: they\n\
                 convert units). Passing an argument whose suffix disagrees with\n\
                 the parameter name in the callee's signature is flagged too.\n\n\
                 Waive with `// lint:allow(unit-mix): <why the units agree>`."
            }
            Rule::L015 => {
                "L015 · shard-protocol discipline (structural)\n\n\
                 The sharded exchange in `carpool-par` keeps results\n\
                 deterministic only if every implementation honors four\n\
                 obligations, which this rule checks structurally:\n\n\
                 1. absorb-order: mailbox/shard-result absorption must iterate\n\
                    source shards in ascending index order — a `.rev()` over a\n\
                    mailbox read inverts merge order across thread counts.\n\
                 2. barrier-tag: a function that `.wait()`s on a barrier and\n\
                    catches unwinds must tag the failing epoch with\n\
                    `fetch_min`, so the earliest failure wins deterministically.\n\
                 3. index-keyed: a `thread::scope` worker pool must not publish\n\
                    results by arrival order (`.lock()` + `.push(..)` on one\n\
                    line); results go into index-keyed slots before reduction.\n\
                 4. scratch-overwrite: a `*_with_scratch` function (or any fn\n\
                    taking a `scratch` parameter) must fully overwrite its\n\
                    scratch — `.clear(`, `mem::take`, `.fill(`, or\n\
                    `copy_from_slice` — so results are history-independent.\n\n\
                 Waive with `// lint:allow(shard-protocol): <why the\n\
                 obligation is met another way>`."
            }
        }
    }
}

/// How each workspace crate is treated by the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrateClass {
    /// Library crate: L010 audits its public API.
    pub library: bool,
    /// Lower-layer crate: L003 applies.
    pub lower_layer: bool,
    /// Concurrency-audited crate: L009 applies to every `Ordering::`.
    pub atomics_audited: bool,
    /// Unit-suffix-audited crate: L013 applies to its arithmetic.
    pub units_audited: bool,
}

/// Crates that lower-layer crates must never depend on.
pub const UPPER_LAYER: [&str; 5] = [
    "carpool-mac",
    "carpool",
    "carpool-cli",
    "carpool-bench",
    "carpool-lint",
];

/// Classifies a workspace package by name. Unknown crates get the
/// library default so that new crates are linted until classified here.
pub fn classify(package: &str) -> CrateClass {
    let library = CrateClass {
        library: true,
        lower_layer: false,
        atomics_audited: false,
        units_audited: true,
    };
    match package {
        "carpool-phy" | "carpool-bloom" | "carpool-channel" | "carpool-frame"
        | "carpool-traffic" => CrateClass {
            lower_layer: true,
            ..library
        },
        // The worker pool sits below everything that fans trials out
        // through it (mac, carpool, bench, cli): L003 keeps it from ever
        // depending back up on those crates. Its atomics are the one
        // place thread interleavings touch results, so L009 audits it.
        "carpool-par" => CrateClass {
            lower_layer: true,
            atomics_audited: true,
            ..library
        },
        // The flight recorder's overflow counter is lock-free.
        "carpool-obs" => CrateClass {
            atomics_audited: true,
            ..library
        },
        // Tool crates: no public API audit, no unit audit.
        "carpool-bench" | "carpool-cli" | "carpool-lint" => CrateClass {
            library: false,
            lower_layer: false,
            atomics_audited: false,
            units_audited: false,
        },
        _ => library,
    }
}

/// One `file:line` finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule that fired.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (0 for whole-file/manifest findings).
    pub line: usize,
    /// Human-readable description of the finding.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Extracts honored waiver keys from one comment: every
/// `lint:allow(<key>): <non-empty reason>` occurrence.
pub fn waivers_in_comment(comment: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("lint:allow(") {
        rest = &rest[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let key = rest[..close].trim().to_string();
        let after = &rest[close + 1..];
        // The reason is mandatory: `): why this is sound`.
        let reasoned = after
            .strip_prefix(':')
            .is_some_and(|r| !r.trim_start().trim_start_matches('-').trim().is_empty());
        if reasoned && !key.is_empty() {
            keys.push(key);
        }
        rest = after;
    }
    keys
}

/// Whether `line` (or a comment-only line directly above it) carries a
/// waiver for `rule`.
pub(crate) fn is_waived(lines: &[SourceLine], idx: usize, rule: Rule) -> bool {
    let key = rule.waiver_key();
    let Some(line) = lines.get(idx) else {
        return false;
    };
    if waivers_in_comment(&line.comment).iter().any(|k| k == key) {
        return true;
    }
    // Walk up over comment-only lines (a waiver block may sit above).
    lines[..idx]
        .iter()
        .rev()
        .take_while(|above| above.code.trim().is_empty() && !above.comment.is_empty())
        .any(|above| waivers_in_comment(&above.comment).iter().any(|w| w == key))
}

/// Whether `code[at]` starts a word-boundary occurrence of `token`.
pub(crate) fn token_at(code: &str, at: usize, token: &str) -> bool {
    if !code[at..].starts_with(token) {
        return false;
    }
    let before_ok = at == 0
        || !code[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    let end = at + token.len();
    let after_ok = !code[end..]
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    before_ok && after_ok
}

/// Finds all word-boundary occurrences of `token` in `code`.
pub(crate) fn contains_token(code: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(at) = code[from..].find(token) {
        let at = from + at;
        if token_at(code, at, token) {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Runs the line-based rules (L003 `use` paths, L009) over one
/// scanned `src/` file.
pub fn check_lines(class: CrateClass, file: &str, lines: &[SourceLine]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if class.lower_layer {
            check_l003_use(lines, idx, file, &mut diags);
        }
        if class.atomics_audited {
            check_l009(lines, idx, file, &mut diags);
        }
    }
    diags
}

fn check_l003_use(lines: &[SourceLine], idx: usize, file: &str, diags: &mut Vec<Diagnostic>) {
    let line = &lines[idx];
    for upper in UPPER_LAYER {
        let module = upper.replace('-', "_");
        // Word-boundary matching is essential: `carpool` must not match
        // inside `carpool_obs` or `carpool_phy`.
        if references_module(&line.code, &module) {
            if is_waived(lines, idx, Rule::L003) {
                continue;
            }
            diags.push(Diagnostic {
                rule: Rule::L003,
                file: file.to_string(),
                line: line.number,
                message: format!(
                    "lower-layer crate references `{module}`; the PHY/channel/frame/\
                     traffic layers must not reach up into MAC/facade/tool crates"
                ),
            });
        }
    }
}

/// Whether `code` references crate `module`: `module::…`, a
/// word-bounded `use module…` import, or `extern crate module`.
fn references_module(code: &str, module: &str) -> bool {
    let mut from = 0;
    while let Some(at) = code[from..].find(module) {
        let at = from + at;
        from = at + 1;
        if !token_at(code, at, module) {
            continue;
        }
        let after = &code[at + module.len()..];
        if after.starts_with("::") {
            return true;
        }
        let before = code[..at].trim_end();
        if before.ends_with("use") || before.ends_with("extern crate") {
            return true;
        }
    }
    false
}

fn check_l009(lines: &[SourceLine], idx: usize, file: &str, diags: &mut Vec<Diagnostic>) {
    let line = &lines[idx];
    if !line.code.contains("Ordering::") || is_waived(lines, idx, Rule::L009) {
        return;
    }
    let Some(reason) = ordering_justification(lines, idx) else {
        diags.push(Diagnostic {
            rule: Rule::L009,
            file: file.to_string(),
            line: line.number,
            message: "atomic `Ordering::` use without an `// ordering: <why>` \
                      justification comment on the line or directly above"
                .to_string(),
        });
        return;
    };
    if line.code.contains("Ordering::Relaxed")
        && !contains_token(&reason.to_ascii_lowercase(), "counter")
    {
        diags.push(Diagnostic {
            rule: Rule::L009,
            file: file.to_string(),
            line: line.number,
            message: "`Ordering::Relaxed` outside a counter: Relaxed creates no \
                      happens-before edges, so the justification must describe a \
                      standalone counter (or use Acquire/Release/SeqCst)"
                .to_string(),
        });
    }
}

/// The text after `// ordering:` on the line or on comment-only lines
/// directly above; `None` when absent or empty.
fn ordering_justification(lines: &[SourceLine], idx: usize) -> Option<String> {
    if let Some(r) = justification_in(&lines[idx].comment) {
        return Some(r);
    }
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let above = &lines[k];
        if !above.code.trim().is_empty() || above.comment.is_empty() {
            break;
        }
        if let Some(r) = justification_in(&above.comment) {
            return Some(r);
        }
    }
    None
}

fn justification_in(comment: &str) -> Option<String> {
    let at = comment.find("ordering:")?;
    let reason = comment[at + "ordering:".len()..].trim();
    (!reason.is_empty()).then(|| reason.to_string())
}

/// L003 manifest check: `Cargo.toml` dependencies of a lower-layer
/// crate must not include upper-layer crates.
pub fn check_manifest_layering(
    class: CrateClass,
    manifest_path: &str,
    dependencies: &[String],
) -> Vec<Diagnostic> {
    if !class.lower_layer {
        return Vec::new();
    }
    dependencies
        .iter()
        .filter(|dep| UPPER_LAYER.contains(&dep.as_str()))
        .map(|dep| Diagnostic {
            rule: Rule::L003,
            file: manifest_path.to_string(),
            line: 0,
            message: format!(
                "Cargo.toml dependency on `{dep}` from a lower-layer crate breaks \
                 the phy/bloom/channel/frame/traffic < mac/carpool/cli/bench layering"
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_source;

    fn check(class: CrateClass, src: &str) -> Vec<Diagnostic> {
        check_lines(class, "fix.rs", &scan_source(src))
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn l003_upper_layer_references_flagged_with_word_boundaries() {
        let class = classify("carpool-channel");
        assert!(class.lower_layer);
        let src = "use carpool_mac::Schedule;\n";
        assert_eq!(rules_of(&check(class, src)), [Rule::L003]);
        let qualified = "fn f() { let x = carpool_cli::main(); }\n";
        assert_eq!(rules_of(&check(class, qualified)), [Rule::L003]);
        // Sibling lower-layer and obs imports are fine, and `carpool`
        // must not match inside `carpool_obs`.
        let ok = "use carpool_obs::Obs;\nuse carpool_bloom::Filter;\n";
        assert!(check(class, ok).is_empty());
        // Comments, strings, test code and waived lines do not fire.
        let quiet = "// see carpool_mac::sim\n\
                     fn f() -> &'static str { \"carpool_mac::x\" }\n\
                     use carpool_mac::X; // lint:allow(layering): doc example only\n\
                     #[cfg(test)]\n\
                     mod tests { use carpool_mac::Y; }\n";
        assert!(check(class, quiet).is_empty());
        // Upper-layer crates are not audited.
        assert!(check(classify("carpool-mac"), src).is_empty());
    }

    #[test]
    fn l003_manifest_dependencies_checked() {
        let deps = vec!["carpool-obs".to_string(), "carpool-mac".to_string()];
        let diags =
            check_manifest_layering(classify("carpool-frame"), "crates/frame/Cargo.toml", &deps);
        assert_eq!(rules_of(&diags), [Rule::L003]);
        assert!(diags[0].message.contains("carpool-mac"));
        // The worker pool is a lower-layer crate too.
        let par = check_manifest_layering(classify("carpool-par"), "crates/par/Cargo.toml", &deps);
        assert_eq!(rules_of(&par), [Rule::L003]);
        // Upper-layer crates may depend on whatever they like.
        assert!(check_manifest_layering(classify("carpool-mac"), "m", &deps).is_empty());
    }

    #[test]
    fn l009_ordering_needs_justification() {
        let class = classify("carpool-par");
        assert!(class.atomics_audited);
        let bare = "fn f() { c.fetch_add(1, Ordering::SeqCst); }\n";
        assert_eq!(rules_of(&check(class, bare)), [Rule::L009]);
        let justified = "// ordering: SeqCst — publishes the result slot to the join\n\
                         fn f() { c.store(1, Ordering::SeqCst); }\n";
        assert!(check(class, justified).is_empty());
        // Other crates are not audited.
        assert!(check(classify("carpool-frame"), bare).is_empty());
    }

    #[test]
    fn l009_relaxed_only_for_counters() {
        let class = classify("carpool-par");
        let counter = "// ordering: Relaxed — work-claim counter only\n\
                       fn f() { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(check(class, counter).is_empty());
        let not_counter = "fn f() { c.store(1, Ordering::Relaxed); } // ordering: fast\n";
        assert_eq!(rules_of(&check(class, not_counter)), [Rule::L009]);
        let waived =
            "fn f() { c.load(Ordering::Relaxed); } // lint:allow(atomic-ordering): bench-only\n";
        assert!(check(class, waived).is_empty());
    }

    #[test]
    fn rule_from_id_round_trips() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
        }
        assert_eq!(Rule::from_id("l013"), Some(Rule::L013));
        assert_eq!(Rule::from_id("9"), Some(Rule::L009));
        // Retired and unknown IDs are not rules of this gate.
        assert_eq!(Rule::from_id("L001"), None);
        assert_eq!(Rule::from_id("L011"), None);
        assert_eq!(Rule::from_id("L016"), None);
        assert_eq!(Rule::from_id("nope"), None);
    }

    #[test]
    fn waiver_parser_requires_reason() {
        assert_eq!(
            waivers_in_comment("// lint:allow(dead-api): used by downstream tools"),
            ["dead-api"]
        );
        assert!(waivers_in_comment("// lint:allow(dead-api)").is_empty());
        assert!(waivers_in_comment("// lint:allow(dead-api):   ").is_empty());
        assert_eq!(
            waivers_in_comment("// lint:allow(unit-mix): same unit, lint:allow(dead-api): kept"),
            ["unit-mix", "dead-api"]
        );
    }
}
