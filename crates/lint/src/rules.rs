//! The project rules, crate classification, diagnostics and waivers.
//!
//! Every rule reports `file:line` diagnostics. Inline waivers use the
//! `// lint:allow(<key>): <reason>` comment syntax — on the offending
//! line itself, or on a comment-only line directly above it. A waiver
//! without a non-empty reason is not honored.

use crate::scanner::SourceLine;

/// Rule identifiers. The numbering keeps the gaps left by rules that
/// moved to rustc/clippy lints, Cargo, tests and `scripts/check.sh`
/// (see DESIGN.md), so an ID always means the same check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
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
    pub const ALL: [Rule; 3] = [Rule::L010, Rule::L013, Rule::L015];

    /// Stable identifier, e.g. `"L013"`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::L010 => "L010",
            Rule::L013 => "L013",
            Rule::L015 => "L015",
        }
    }

    /// Parses a rule identifier (`L013`, `l013`, or `13`).
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
            Rule::L010 => "dead-api",
            Rule::L013 => "unit-mix",
            Rule::L015 => "shard-protocol",
        }
    }

    /// One-line description used in reports.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::L010 => "dead public API (pub item referenced nowhere else)",
            Rule::L013 => "arithmetic or call mixing different units of measure",
            Rule::L015 => "shard-protocol violation in a worker pool or sharded exchange",
        }
    }

    /// Long-form description printed by `--explain <rule>`.
    pub fn explain(self) -> &'static str {
        match self {
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
    /// Unit-suffix-audited crate: L013 applies to its arithmetic.
    pub units_audited: bool,
}

/// Classifies a workspace package by its directory name under
/// `crates/` (the root package passes `""`). The tool crates are
/// exempt from the API and unit audits; every other crate, including
/// a new one, is linted as a library.
pub fn classify(dir: &str) -> CrateClass {
    let library = !matches!(dir, "bench" | "cli" | "lint");
    CrateClass {
        library,
        units_audited: library,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tool_crates_are_exempt_from_the_library_audits() {
        for dir in ["bench", "cli", "lint"] {
            let class = classify(dir);
            assert!(!class.library && !class.units_audited, "{dir}");
        }
        for dir in ["", "phy", "par", "obs", "some-new-crate"] {
            let class = classify(dir);
            assert!(class.library && class.units_audited, "{dir:?}");
        }
    }

    #[test]
    fn rule_from_id_round_trips() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
        }
        assert_eq!(Rule::from_id("l013"), Some(Rule::L013));
        assert_eq!(Rule::from_id("15"), Some(Rule::L015));
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
