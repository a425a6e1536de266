//! Whole-workspace rules over parsed items: L010 (dead public API),
//! L012 (scaling budget), L013 (units) and L015 (shard protocol). The
//! line rules L003 and L009 live in [`crate::rules`].

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow;
use crate::items::{FileRecord, Section};
use crate::rules::{is_waived, Diagnostic, Rule};

/// L010 dead public API: top-level `pub` items in library crates that
/// no other workspace crate, no test/bench/example, and no tool crate
/// ever names. Matching is by word-bounded identifier occurrence in
/// code *or* comments (doc examples count as usage), so the rule only
/// fires when a name appears nowhere else at all.
pub fn check_l010(files: &[FileRecord]) -> Vec<Diagnostic> {
    // Per-file identifier sets over code + comments.
    let words: Vec<BTreeSet<String>> = files
        .iter()
        .map(|f| {
            let mut set = BTreeSet::new();
            for line in &f.lines {
                collect_idents(&line.code, &mut set);
                collect_idents(&line.comment, &mut set);
            }
            set
        })
        .collect();

    let mut diags = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        if !file.class.library || !matches!(file.section, Section::Src) {
            continue;
        }
        for item in &file.items.pub_items {
            // Any *other* file counts as a reference: another crate, a
            // test/bench/example, or a same-crate sibling (a crate-root
            // re-export or module caller still implies the item earns
            // its keep).
            let referenced = files.iter().enumerate().any(|(other_idx, _)| {
                other_idx != file_idx && words[other_idx].contains(&item.name)
            });
            if referenced {
                continue;
            }
            let idx = item.line.saturating_sub(1);
            if is_waived(&file.lines, idx, Rule::L010) {
                continue;
            }
            diags.push(Diagnostic {
                rule: Rule::L010,
                file: file.path.clone(),
                line: item.line,
                message: format!(
                    "pub {} `{}` is never referenced by any other workspace file; \
                     remove it, demote to pub(crate), or waive with \
                     `// lint:allow(dead-api): <why external users need it>`",
                    item.kind, item.name
                ),
            });
        }
    }
    diags
}

/// L012 scaling-budget verification: every fn annotated with
/// `// lint:budget(i32: [names in] ±N)` gets an interval abstract
/// interpretation proving its non-saturating i32 arithmetic cannot
/// wrap. Returns diagnostics plus `(annotated fns, ops checked)`.
pub fn check_l012(files: &[FileRecord]) -> (Vec<Diagnostic>, usize, usize) {
    let mut diags = Vec::new();
    let mut budget_fns = 0usize;
    let mut ops_checked = 0usize;
    for file in files {
        if !matches!(file.section, Section::Src) {
            continue;
        }
        for item in &file.items.fns {
            if item.in_test || item.body_start == 0 {
                continue;
            }
            let specs = dataflow::budget_specs(file, item);
            if specs.is_empty() {
                continue;
            }
            budget_fns += 1;
            let report = dataflow::check_budget_fn(file, item, &specs);
            ops_checked += report.ops_checked;
            for finding in report.findings {
                let idx = finding.line.saturating_sub(1);
                if is_waived(&file.lines, idx, Rule::L012) {
                    continue;
                }
                diags.push(Diagnostic {
                    rule: Rule::L012,
                    file: file.path.clone(),
                    line: finding.line,
                    message: format!(
                        "in `{}`: {}; or waive with \
                         `// lint:allow(scaling-budget): <why it cannot wrap>`",
                        item.name, finding.message
                    ),
                });
            }
        }
    }
    (diags, budget_fns, ops_checked)
}

/// Binary operators whose operands must share a unit (multiplication
/// and division are exempt — they convert units).
const MIX_OPS: [&str; 10] = ["+", "-", "+=", "-=", "<", ">", "<=", ">=", "==", "!="];

/// L013 unit-of-measure discipline over unit-audited crates:
/// arithmetic/comparison mixing differently-suffixed quantities, and
/// call arguments whose unit suffix disagrees with the parameter name
/// in the callee's signature. Returns diagnostics plus the number of
/// unit-suffixed parameters seen.
pub fn check_l013(files: &[FileRecord]) -> (Vec<Diagnostic>, usize) {
    // Parameter-unit table by bare fn name: None entries are positions
    // without a recognized unit; fns whose same-name overloads disagree
    // are dropped as ambiguous.
    let mut table: BTreeMap<String, Vec<Option<&'static str>>> = BTreeMap::new();
    let mut ambiguous: BTreeSet<String> = BTreeSet::new();
    let mut unit_params = 0usize;
    for file in files {
        if !matches!(file.section, Section::Src) {
            continue;
        }
        for item in &file.items.fns {
            if item.in_test {
                continue;
            }
            let groups = dataflow::param_names(file, item);
            let units: Vec<Option<&'static str>> = groups
                .iter()
                .map(|g| match g.as_slice() {
                    [single] => dataflow::unit_of(single),
                    _ => None,
                })
                .collect();
            unit_params += units.iter().flatten().count();
            if !file.class.units_audited || units.iter().all(Option::is_none) {
                continue;
            }
            match table.get(&item.name) {
                Some(existing) if existing != &units => {
                    ambiguous.insert(item.name.clone());
                }
                _ => {
                    table.insert(item.name.clone(), units);
                }
            }
        }
    }
    for name in &ambiguous {
        table.remove(name);
    }

    let mut diags = Vec::new();
    for file in files {
        if !file.class.units_audited || !matches!(file.section, Section::Src) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for (left, op, right) in mixed_unit_pairs(&line.code) {
                if is_waived(&file.lines, idx, Rule::L013) {
                    continue;
                }
                diags.push(Diagnostic {
                    rule: Rule::L013,
                    file: file.path.clone(),
                    line: line.number,
                    message: format!(
                        "`{left} {op} {right}` mixes units ({} vs {}); convert \
                         explicitly or waive with \
                         `// lint:allow(unit-mix): <why the units agree>`",
                        dataflow::unit_of(&left).unwrap_or("?"),
                        dataflow::unit_of(&right).unwrap_or("?"),
                    ),
                });
            }
            for (callee, position, arg, want, got) in unit_mismatched_args(&line.code, &table) {
                if is_waived(&file.lines, idx, Rule::L013) {
                    continue;
                }
                diags.push(Diagnostic {
                    rule: Rule::L013,
                    file: file.path.clone(),
                    line: line.number,
                    message: format!(
                        "argument {position} of `{callee}(...)` is `{arg}` ({got}) \
                         but the parameter is named in {want}; convert explicitly \
                         or waive with `// lint:allow(unit-mix): <why>`",
                    ),
                });
            }
        }
    }
    (diags, unit_params)
}

/// Line token for the unit-mix scan.
enum UnitTok {
    Id(String),
    Sym(String),
}

/// Tokenizes one blanked code line into identifiers and (merged
/// multi-char) symbols.
fn unit_tokens(code: &str) -> Vec<UnitTok> {
    const MULTI: [&str; 16] = [
        "<<=", ">>=", "..=", "->", "=>", "::", "==", "!=", "<=", ">=", "<<", ">>", "&&", "||",
        "+=", "-=",
    ];
    let chars: Vec<char> = code.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphanumeric() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            toks.push(UnitTok::Id(chars[start..i].iter().collect()));
            continue;
        }
        let rest: String = chars[i..].iter().collect();
        if let Some(op) = MULTI.iter().find(|op| rest.starts_with(**op)) {
            toks.push(UnitTok::Sym((*op).to_string()));
            i += op.len();
            continue;
        }
        toks.push(UnitTok::Sym(c.to_string()));
        i += 1;
    }
    toks
}

/// Finds `lhs <op> rhs` pairs on one line where both sides carry
/// recognized but different units. The left operand is the identifier
/// directly before the operator; the right operand follows `a.b::c`
/// chains to their last segment and rejects calls.
fn mixed_unit_pairs(code: &str) -> Vec<(String, String, String)> {
    let toks = unit_tokens(code);
    let mut out = Vec::new();
    for at in 1..toks.len() {
        let UnitTok::Sym(op) = &toks[at] else {
            continue;
        };
        if !MIX_OPS.contains(&op.as_str()) {
            continue;
        }
        let UnitTok::Id(left) = &toks[at - 1] else {
            continue;
        };
        // Follow the right-hand primary's `a.b` / `a::b` chain.
        let mut j = at + 1;
        let mut right: Option<&String> = None;
        while let Some(UnitTok::Id(name)) = toks.get(j) {
            right = Some(name);
            match toks.get(j + 1) {
                Some(UnitTok::Sym(s)) if s == "." || s == "::" => j += 2,
                _ => break,
            }
        }
        // A call's value has no inferable unit.
        if matches!(toks.get(j + 1), Some(UnitTok::Sym(s)) if s == "(") {
            continue;
        }
        let Some(right) = right else { continue };
        let (Some(lu), Some(ru)) = (dataflow::unit_of(left), dataflow::unit_of(right)) else {
            continue;
        };
        if lu != ru {
            out.push((left.clone(), op.clone(), right.clone()));
        }
    }
    out
}

/// Finds call arguments whose unit suffix disagrees with the callee's
/// parameter-name unit: `(callee, 1-based position, arg, want, got)`.
fn unit_mismatched_args(
    code: &str,
    table: &BTreeMap<String, Vec<Option<&'static str>>>,
) -> Vec<(String, usize, String, &'static str, &'static str)> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if !(b.is_ascii_alphabetic() || b == b'_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        let name = &code[start..i];
        if start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
            continue;
        }
        if bytes.get(i) != Some(&b'(') {
            continue;
        }
        // Skip the definition site itself.
        if code[..start].trim_end().ends_with("fn") {
            continue;
        }
        let Some(units) = table.get(name) else {
            continue;
        };
        // Balanced argument span on this line only.
        let mut depth = 0i32;
        let mut end = None;
        for (k, &c) in bytes.iter().enumerate().skip(i) {
            match c {
                b'(' | b'[' => depth += 1,
                b')' | b']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(k);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(end) = end else { continue };
        let args_text = &code[i + 1..end];
        for (pos, arg) in dataflow::split_args(args_text).iter().enumerate() {
            let Some(&Some(want)) = units.get(pos) else {
                continue;
            };
            // Only bare identifiers / field chains carry an inferable
            // unit; the chain's last segment names the quantity.
            let arg = arg.trim().trim_start_matches('&');
            let arg = arg
                .trim_start_matches("mut ")
                .trim_start_matches('*')
                .trim();
            if arg.contains(['(', '[', '+', '-', '*', '/', ' ']) {
                continue;
            }
            let last = arg.rsplit(['.', ':']).next().unwrap_or(arg);
            let Some(got) = dataflow::unit_of(last) else {
                continue;
            };
            if got != want {
                out.push((name.to_string(), pos + 1, last.to_string(), want, got));
            }
        }
        i = end;
    }
    out
}

/// Tokens that discharge the scratch-overwrite obligation: the body
/// either explicitly resets its scratch or hands it to a `*_into`
/// writer (the workspace idiom for "fully overwrites the destination").
const SCRATCH_RESET_TOKENS: [&str; 5] = [
    ".clear(",
    "mem::take",
    ".fill(",
    "copy_from_slice",
    "_into(",
];

/// L015 shard-protocol discipline: structural obligations on worker
/// pools and sharded exchanges, checked per non-test `src/` fn.
/// Returns the diagnostics plus the number of fns that triggered at
/// least one obligation.
///
/// 1. *absorb-order*: a fn in shard/mailbox context must not iterate
///    with `.rev()` — absorbing source shards in descending order
///    inverts the merge across thread counts.
/// 2. *barrier-tag*: a fn that waits on a barrier and catches unwinds
///    must tag the failing epoch with `fetch_min`.
/// 3. *index-keyed*: a `thread::scope` pool must not publish results in
///    arrival order (`.lock()` + `.push(` on one line); results belong
///    in index-keyed slots.
/// 4. *scratch-overwrite*: a `*_with_scratch` fn (or one taking a
///    `scratch` parameter) must fully overwrite its scratch so results
///    are history-independent. Setup fns (`new`/`with_*`/`from_*`) that
///    merely store the scratch are exempt.
pub fn check_l015(files: &[FileRecord]) -> (Vec<Diagnostic>, usize) {
    let mut diags = Vec::new();
    let mut fns_checked = 0usize;
    for file in files {
        if !matches!(file.section, Section::Src) {
            continue;
        }
        for item in &file.items.fns {
            if item.in_test || item.body_start == 0 {
                continue;
            }
            let body: Vec<&crate::scanner::SourceLine> = file
                .lines
                .iter()
                .filter(|l| l.number >= item.decl_line && l.number <= item.body_end && !l.in_test)
                .collect();
            let has = |token: &str| body.iter().any(|l| l.code.contains(token));

            let shard_context = item.name.contains("shard")
                || item.name.contains("mailbox")
                || body
                    .iter()
                    .any(|l| l.code.contains("mailbox") || l.code.contains("shard"));
            let barrier_fn = has(".wait()") && has("catch_unwind");
            let pool_fn = has("thread::scope");
            let scratch_fn = !dataflow::is_setup_fn(&item.name)
                && (item.name.contains("_with_scratch")
                    || dataflow::param_names(file, item)
                        .iter()
                        .any(|group| group.iter().any(|n| n == "scratch")));
            if shard_context || barrier_fn || pool_fn || scratch_fn {
                fns_checked += 1;
            }

            let mut push = |line: usize, message: String| {
                let idx = line.saturating_sub(1);
                if !is_waived(&file.lines, idx, Rule::L015) {
                    diags.push(Diagnostic {
                        rule: Rule::L015,
                        file: file.path.clone(),
                        line,
                        message,
                    });
                }
            };

            if shard_context {
                for l in &body {
                    if l.code.contains(".rev()") {
                        push(
                            l.number,
                            format!(
                                "`.rev()` in shard/mailbox context (fn `{}`): absorbs \
                                 must iterate source shards in ascending index order \
                                 or the merge inverts across thread counts; iterate \
                                 forward or waive with \
                                 `// lint:allow(shard-protocol): <why order-free>` \
                                 [absorb-order]",
                                item.name
                            ),
                        );
                    }
                }
            }
            if barrier_fn && !has("fetch_min") {
                push(
                    item.decl_line,
                    format!(
                        "fn `{}` waits on a barrier and catches unwinds but never \
                         tags the failing epoch with `fetch_min`; without the tag \
                         the earliest failure is lost and recovery is \
                         schedule-dependent — add a `fetch_min` panic tag or waive \
                         with `// lint:allow(shard-protocol): <why>` [barrier-tag]",
                        item.name
                    ),
                );
            }
            if pool_fn {
                for l in &body {
                    if l.code.contains(".lock()") && l.code.contains(".push(") {
                        push(
                            l.number,
                            format!(
                                "fn `{}` publishes worker results in arrival order \
                                 (`.lock()` + `.push(` on one line); key results by \
                                 item index before reduction so output is \
                                 schedule-independent, or waive with \
                                 `// lint:allow(shard-protocol): <why ordered>` \
                                 [index-keyed]",
                                item.name
                            ),
                        );
                    }
                }
            }
            if scratch_fn && !SCRATCH_RESET_TOKENS.iter().any(|t| has(t)) {
                push(
                    item.decl_line,
                    format!(
                        "fn `{}` takes a scratch buffer but never overwrites it \
                         (no `.clear(`/`mem::take`/`.fill(`/`copy_from_slice`/\
                         `*_into(`); stale contents make results depend on call \
                         history — reset the scratch or waive with \
                         `// lint:allow(shard-protocol): <why fully written>` \
                         [scratch-overwrite]",
                        item.name
                    ),
                );
            }
        }
    }
    (diags, fns_checked)
}

/// Collects word-bounded ASCII identifiers into `set`.
fn collect_idents(text: &str, set: &mut BTreeSet<String>) {
    let bytes = text.as_bytes();
    let mut start: Option<usize> = None;
    for at in 0..=bytes.len() {
        let is_ident = at < bytes.len() && {
            let b = bytes[at];
            b.is_ascii_alphanumeric() || b == b'_'
        };
        match (start, is_ident) {
            (None, true) => start = Some(at),
            (Some(s), false) => {
                if let Ok(word) = std::str::from_utf8(&bytes[s..at]) {
                    if word.chars().next().is_some_and(|c| !c.is_ascii_digit()) {
                        set.insert(word.to_string());
                    }
                }
                start = None;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::classify;

    fn record(path: &str, crate_name: &str, src: &str) -> FileRecord {
        FileRecord::parse(path, Section::Src, classify(crate_name), src)
    }

    #[test]
    fn l010_flags_unreferenced_pub_items() {
        let files = vec![
            record(
                "crates/frame/src/lib.rs",
                "carpool-frame",
                "pub fn used() {}\npub fn orphan() {}\n",
            ),
            record(
                "crates/mac/src/lib.rs",
                "carpool-mac",
                "fn f() { carpool_frame::used(); }\n",
            ),
        ];
        let diags = check_l010(&files);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`orphan`"));
    }

    #[test]
    fn l010_doc_mentions_and_waivers_keep_items_alive() {
        let files = vec![
            record(
                "crates/frame/src/lib.rs",
                "carpool-frame",
                "pub fn documented() {}\n\
                 // lint:allow(dead-api): kept for downstream experiments\n\
                 pub fn waived() {}\n",
            ),
            record(
                "crates/mac/src/lib.rs",
                "carpool-mac",
                "// see `documented` in carpool-frame\nfn f() {}\n",
            ),
        ];
        assert!(check_l010(&files).is_empty());
    }

    #[test]
    fn l010_tool_crates_are_exempt() {
        let files = vec![record(
            "crates/cli/src/main.rs",
            "carpool-cli",
            "pub fn orphan() {}\n",
        )];
        assert!(check_l010(&files).is_empty());
    }
}
