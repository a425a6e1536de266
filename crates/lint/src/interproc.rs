//! Whole-workspace rules over parsed items: L010 (dead public API),
//! L013 (units) and L015 (shard protocol), plus the fn-signature
//! helpers L013 and L015 share.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{FileRecord, FnItem, Section};
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
            let groups = param_names(file, item);
            let units: Vec<Option<&'static str>> = groups
                .iter()
                .map(|g| match g.as_slice() {
                    [single] => unit_of(single),
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
                        unit_of(&left).unwrap_or("?"),
                        unit_of(&right).unwrap_or("?"),
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
        let (Some(lu), Some(ru)) = (unit_of(left), unit_of(right)) else {
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
        for (pos, arg) in split_args(args_text).iter().enumerate() {
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
            let Some(got) = unit_of(last) else {
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
            let scratch_fn = !is_setup_fn(&item.name)
                && (item.name.contains("_with_scratch")
                    || param_names(file, item)
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

// ---------------------------------------------------------------------
// Fn-signature helpers shared by L013 and L015
// ---------------------------------------------------------------------

/// Whether a fn name marks a setup-time path by convention:
/// constructors and builders that merely store a scratch buffer are
/// exempt from L015's scratch-overwrite obligation.
fn is_setup_fn(name: &str) -> bool {
    name == "new"
        || name == "default"
        || name.starts_with("new_")
        || name.starts_with("with_")
        || name.starts_with("build")
        || name.starts_with("from_")
}

/// Finds a word-bounded occurrence of `word` in `text`.
fn find_word(text: &str, word: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(at) = text[from..].find(word) {
        let at = from + at;
        from = at + 1;
        if crate::rules::token_at(text, at, word) {
            return Some(at);
        }
    }
    None
}

/// The signature text of `item`: the declaration line through the line
/// the body opens on (or just the declaration line for bodiless fns),
/// comments and strings already blanked.
fn signature_text(file: &FileRecord, item: &FnItem) -> String {
    let end = item.body_start.max(item.decl_line);
    let mut out = String::new();
    for line in &file.lines {
        if line.number >= item.decl_line && line.number <= end {
            out.push_str(&line.code);
            out.push(' ');
        }
    }
    out
}

/// Parameter names of `item`, in declaration order, extracted from the
/// signature's parenthesized parameter list. `self` receivers are
/// skipped, so positions line up with method-call arguments. Tuple
/// patterns contribute each of their binding names at that position.
fn param_names(file: &FileRecord, item: &FnItem) -> Vec<Vec<String>> {
    let sig = signature_text(file, item);
    let Some(fn_at) = find_word(&sig, "fn") else {
        return Vec::new();
    };
    let after = &sig[fn_at..];
    let Some(open_rel) = after.find('(') else {
        return Vec::new();
    };
    let chars: Vec<char> = after[open_rel..].chars().collect();
    // Balanced parameter list, respecting nested () [] groups.
    let mut depth = 0i32;
    let mut end = chars.len();
    for (k, &c) in chars.iter().enumerate() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => {
                depth -= 1;
                if depth == 0 {
                    end = k;
                    break;
                }
            }
            _ => {}
        }
    }
    let inner: String = chars[1..end.min(chars.len())].iter().collect();
    let mut params: Vec<Vec<String>> = Vec::new();
    for part in split_args(&inner) {
        // The binding pattern sits before the `:` (generic bounds live
        // inside the type side, which we discard).
        let pat = part.split(':').next().unwrap_or(part);
        let idents = idents_of(pat);
        if idents.iter().any(|n| n == "self") {
            continue;
        }
        let names: Vec<String> = idents
            .into_iter()
            .filter(|n| !matches!(n.as_str(), "mut" | "ref" | "_"))
            .collect();
        if !names.is_empty() {
            params.push(names);
        }
    }
    params
}

/// Splits an argument/parameter list on top-level commas (respecting
/// `()`, `[]`, `{}`, and `<>` nesting).
fn split_args(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0usize;
    for (at, c) in text.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            '<' => angle += 1,
            // `->` is not a closing angle.
            '>' if !text[..at].ends_with('-') => angle = (angle - 1).max(0),
            ',' if depth == 0 && angle == 0 => {
                parts.push(&text[start..at]);
                start = at + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

/// All identifiers in a text fragment, in order.
fn idents_of(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i].is_ascii_alphabetic() || chars[i] == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(chars[start..i].iter().collect());
        } else {
            i += 1;
        }
    }
    out
}

/// Recognized unit suffixes (lowercase identifiers).
const UNIT_SUFFIXES: [(&str, &str); 6] = [
    ("_us", "us"),
    ("_s", "s"),
    ("_symbols", "symbols"),
    ("_slots", "slots"),
    ("_db", "db"),
    ("_linear", "linear"),
];

/// Infers the unit of one identifier from its suffix, or from
/// `SYMBOL_DURATION`-style const naming. `None` when the name carries
/// no recognized unit.
fn unit_of(ident: &str) -> Option<&'static str> {
    if ident
        .chars()
        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && ident.chars().any(|c| c.is_ascii_uppercase())
    {
        // Const naming: durations and times are seconds.
        if ident.contains("DURATION") || ident.ends_with("_TIME") || ident.ends_with("_S") {
            return Some("s");
        }
        if ident.ends_with("_US") {
            return Some("us");
        }
        if ident.ends_with("_DB") {
            return Some("db");
        }
        return None;
    }
    UNIT_SUFFIXES
        .iter()
        .find(|(suffix, _)| ident.len() > suffix.len() && ident.ends_with(suffix))
        .map(|&(_, unit)| unit)
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
                "frame",
                "pub fn used() {}\npub fn orphan() {}\n",
            ),
            record(
                "crates/mac/src/lib.rs",
                "mac",
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
                "frame",
                "pub fn documented() {}\n\
                 // lint:allow(dead-api): kept for downstream experiments\n\
                 pub fn waived() {}\n",
            ),
            record(
                "crates/mac/src/lib.rs",
                "mac",
                "// see `documented` in carpool-frame\nfn f() {}\n",
            ),
        ];
        assert!(check_l010(&files).is_empty());
    }

    #[test]
    fn l010_tool_crates_are_exempt() {
        let files = vec![record(
            "crates/cli/src/main.rs",
            "cli",
            "pub fn orphan() {}\n",
        )];
        assert!(check_l010(&files).is_empty());
    }

    #[test]
    fn setup_fn_names() {
        for name in [
            "new",
            "new_rician",
            "with_obs",
            "build",
            "from_bits",
            "default",
        ] {
            assert!(is_setup_fn(name), "{name}");
        }
        for name in ["transmit", "renew_lease", "newton_step"] {
            assert!(!is_setup_fn(name), "{name}");
        }
    }

    #[test]
    fn param_names_align_with_call_positions() {
        let file = record(
            "crates/phy/src/fix.rs",
            "phy",
            "impl S {\n\
                 fn go(&mut self, airtime_s: f64, n_symbols: usize) {}\n\
             }\n\
             fn free(delay_us: f64, (a, b): (u8, u8)) {}\n",
        );
        let names = |fn_name: &str| {
            let item = file.items.fns.iter().find(|f| f.name == fn_name);
            item.map(|f| param_names(&file, f)).unwrap_or_default()
        };
        assert_eq!(
            names("go"),
            [vec!["airtime_s".to_string()], vec!["n_symbols".to_string()]]
        );
        let free = names("free");
        assert_eq!(free.len(), 2);
        assert_eq!(free[1], ["a", "b"]);
    }

    #[test]
    fn unit_inference_suffixes_and_consts() {
        assert_eq!(unit_of("airtime_s"), Some("s"));
        assert_eq!(unit_of("delay_us"), Some("us"));
        assert_eq!(unit_of("n_symbols"), Some("symbols"));
        assert_eq!(unit_of("backoff_slots"), Some("slots"));
        assert_eq!(unit_of("snr_db"), Some("db"));
        assert_eq!(unit_of("snr_linear"), Some("linear"));
        assert_eq!(unit_of("SYMBOL_DURATION"), Some("s"));
        assert_eq!(unit_of("SLOT_TIME"), Some("s"));
        assert_eq!(unit_of("count"), None);
        assert_eq!(unit_of("_s"), None, "a bare suffix is not a unit");
        assert_eq!(unit_of("NUM_STATES"), None);
    }
}
