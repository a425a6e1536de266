//! Source rules that need the whole workspace at once, run over the
//! real tree and over inline fixtures by the same [`findings`] function:
//!
//! - **L010, dead public API.** A top-level `pub` item, or a `pub fn`
//!   of an `impl` block, in a library crate's `src/` must be named by
//!   some other workspace file: another crate, a test, a bench, an
//!   example or a doc comment. `rustc`'s `unreachable_pub` cannot see
//!   this, because the item *is* exported.
//! - **L013, unit mixing.** No `+ - += -= < > <= >= == !=` between two
//!   identifiers with different unit suffixes (`_s`, `_us`, `_symbols`,
//!   `_slots`, `_db`, `_linear`, and `*_DURATION`/`*_TIME` consts in
//!   seconds), and no call argument whose suffix disagrees with the
//!   callee's parameter name. `*` and `/` convert units and are exempt.
//! - **L015, barrier tag.** A `src/` file that waits on a barrier and
//!   catches unwinds tags the failing epoch with `fetch_min`, as
//!   `carpool_par::run_sharded` does. Its other shard-protocol duties
//!   (ascending inbox order, index-keyed results, scratch reset) are
//!   behaviour, pinned by the `carpool-par` unit tests and the
//!   thread-count invariance tests; a `store` in place of the
//!   `fetch_min` behaves the same under today's barrier schedule, so
//!   only this check notices it.
//! - **`pub fn` ratchet.** The `pub fn` declarations of each directory
//!   (a crate under `crates/`, or a section of the root package) must
//!   number exactly its ceiling in [`PUB_FN_CEILINGS`] (0 when unlisted):
//!   a count over the ceiling fails, so the public surface never grows,
//!   and a count under it fails with the lower ceiling to write, so a
//!   removal ratchets it down. Raising a ceiling needs a stated reason
//!   in the change. A declaration is `pub`, any of `const`, `async`,
//!   `unsafe` and `extern "ABI"`, then `fn`, in code: the words in a
//!   string or a comment do not count.
//!
//! The scan leans on the rustfmt layout `scripts/check.sh` enforces: a
//! top-level item starts at column 0, so the `pub` items are the code
//! lines that begin with `pub `, and the methods are the indented lines
//! that begin with `pub fn`. Comments and string contents are blanked
//! first, so neither a doc comment nor a format string fakes a finding,
//! and each `#[cfg(test)]`/`#[test]` item is skipped up to its end.
//! `crates/bench` and `crates/cli` are tool crates: the rules skip their
//! sources, but their mentions still keep library items alive.
//!
//! A finding is waived with `// lint:allow(dead-api): <reason>` or
//! `// lint:allow(unit-mix): <reason>` on its line or on the comment-only
//! lines directly above it; a waiver without a reason does not count.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Crates under `crates/` whose sources the rules do not audit.
const TOOL_CRATES: [&str; 2] = ["bench", "cli"];

/// The `pub fn` ratchet's ceiling per directory; an unlisted directory
/// (the root package's `src/`, `tests/` and `examples/` among them) has
/// a ceiling of 0.
const PUB_FN_CEILINGS: [(&str, usize); 11] = [
    ("crates/bench", 10),
    ("crates/bloom", 17),
    ("crates/carpool", 27),
    ("crates/channel", 33),
    ("crates/cli", 19),
    ("crates/frame", 56),
    ("crates/mac", 39),
    ("crates/obs", 75),
    ("crates/par", 5),
    ("crates/phy", 134),
    ("crates/traffic", 40),
];

/// One line of a file after [`blank`].
#[derive(Debug, Default)]
struct Line {
    /// Code with comments removed and string/char contents blanked.
    code: String,
    /// The line's comment text, markers included.
    comment: String,
    /// Whether the line belongs to a `#[cfg(test)]`/`#[test]` item.
    test: bool,
}

/// One workspace file: its path relative to the root, and its lines.
struct File {
    path: String,
    lines: Vec<Line>,
}

impl File {
    fn new(path: &str, text: &str) -> File {
        let mut lines = blank(text);
        mark_tests(&mut lines);
        File {
            path: path.to_string(),
            lines,
        }
    }

    /// The file's crate directory under `crates/` (`""` for the root
    /// package) and its section (`src`, `tests`, ...).
    fn place(&self) -> (&str, &str) {
        match self.path.split_once('/') {
            Some(("crates", rest)) => rest.split_once('/').map_or(("", ""), |(dir, rest)| {
                (dir, rest.split('/').next().unwrap_or_default())
            }),
            Some((section, _)) => ("", section),
            None => ("", ""),
        }
    }

    /// The directory the `pub fn` ratchet counts this file under: its
    /// crate (`crates/<name>`) or its section of the root package.
    fn ratchet_dir(&self) -> &str {
        let mut parts = self.path.splitn(3, '/');
        match (parts.next(), parts.next()) {
            (Some("crates"), Some(name)) => &self.path[.."crates/".len() + name.len()],
            (Some(section), _) => section,
            (None, _) => "",
        }
    }

    /// Whether L010 and L013 audit this file: `src/` of a library crate
    /// (the root package counts as one).
    fn audited(&self) -> bool {
        let (dir, section) = self.place();
        section == "src" && !TOOL_CRATES.contains(&dir)
    }

    /// Whether the non-test code of the file contains `token`.
    fn has(&self, token: &str) -> bool {
        self.lines.iter().any(|l| !l.test && l.code.contains(token))
    }
}

/// Every un-waived finding over `sources` (path relative to the
/// workspace root, text), as `path:line: rule message`.
fn findings(sources: &[(String, String)]) -> Vec<String> {
    let files: Vec<File> = sources.iter().map(|(p, t)| File::new(p, t)).collect();
    let mut out = dead_api(&files);
    out.extend(unit_mix(&files));
    out.extend(barrier_tag(&files));
    out
}

// ------------------------------------------------------------- blanking

/// Splits `text` into lines whose `code` keeps only real code: comments
/// move to `comment`, and string, raw-string and char-literal contents
/// are dropped (the delimiters stay). Block comments nest; a lifetime
/// (`'a`) does not open a char literal.
fn blank(text: &str) -> Vec<Line> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Code,
        LineComment,
        Block(u32),
        Str,
        Raw(usize),
        Char,
    }
    let chars: Vec<char> = text.chars().collect();
    let at = |k: usize| chars.get(k).copied();
    let mut lines = vec![Line::default()];
    let mut state = State::Code;
    let mut i = 0;
    while let Some(c) = at(i) {
        let next = at(i + 1);
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(Line::default());
            i += 1;
            continue;
        }
        let Some(line) = lines.last_mut() else { break };
        match state {
            State::Code => {
                let ident_before = line.code.chars().next_back().is_some_and(is_ident);
                let raw_from = match (c, next) {
                    ('r', _) if !ident_before => Some(i + 1),
                    ('b', Some('r')) if !ident_before => Some(i + 2),
                    _ => None,
                };
                if let Some(from) = raw_from {
                    let h = (from..).take_while(|&k| at(k) == Some('#')).count();
                    if at(from + h) == Some('"') {
                        line.code.push('"');
                        state = State::Raw(h);
                        i = from + h + 1;
                        continue;
                    }
                }
                match (c, next) {
                    ('/', Some('/')) => {
                        state = State::LineComment;
                        line.comment.push_str("//");
                        i += 1;
                    }
                    ('/', Some('*')) => {
                        state = State::Block(1);
                        line.comment.push_str("/*");
                        line.code.push(' ');
                        i += 1;
                    }
                    ('"', _) => {
                        state = State::Str;
                        line.code.push('"');
                    }
                    ('\'', _) => {
                        // `'x'` and `'\n'` are literals; `'a` alone is a lifetime.
                        let literal = match next {
                            Some('\\') => true,
                            Some(n) if is_ident(n) => at(i + 2) == Some('\''),
                            Some(_) => true,
                            None => false,
                        };
                        if literal {
                            state = State::Char;
                        }
                        line.code.push('\'');
                    }
                    _ => line.code.push(c),
                }
            }
            State::LineComment => line.comment.push(c),
            State::Block(depth) => match (c, next) {
                ('/', Some('*')) => {
                    state = State::Block(depth + 1);
                    line.comment.push_str("/*");
                    i += 1;
                }
                ('*', Some('/')) => {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::Block(depth - 1)
                    };
                    line.comment.push_str("*/");
                    i += 1;
                }
                _ => line.comment.push(c),
            },
            // An escaped newline still ends the line.
            State::Str | State::Char if c == '\\' && next != Some('\n') => i += 1,
            State::Str if c == '"' => {
                state = State::Code;
                line.code.push('"');
            }
            State::Char if c == '\'' => {
                state = State::Code;
                line.code.push('\'');
            }
            State::Raw(h) if c == '"' && (1..=h).all(|k| at(i + k) == Some('#')) => {
                state = State::Code;
                line.code.push('"');
                i += h;
            }
            State::Str | State::Char | State::Raw(_) => {}
        }
        i += 1;
    }
    lines
}

/// Marks the lines of every `#[cfg(test)]`/`#[test]` item: from the
/// attribute through the brace that closes the item's body, or through
/// its `;` when it has no body.
fn mark_tests(lines: &mut [Line]) {
    let mut depth = 0usize;
    let mut groups = 0usize;
    // The depth the open test item sits at, and whether its body opened.
    let mut item: Option<(usize, bool)> = None;
    for line in lines {
        if line.code.contains("#[cfg(test)]") || line.code.contains("#[test]") {
            item = item.or(Some((depth, false)));
        }
        line.test = item.is_some();
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                '(' | '[' => groups += 1,
                ')' | ']' => groups = groups.saturating_sub(1),
                _ => {}
            }
            if let Some((at, opened)) = item.as_mut() {
                *opened |= depth > *at;
                let item_ends = depth < *at
                    || (*opened && depth == *at)
                    || (c == ';' && groups == 0 && depth == *at);
                if item_ends {
                    item = None;
                }
            }
        }
    }
}

const fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers in `text`, in order.
fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident(c))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// Whether `comment` holds `lint:allow(<key>): <non-empty reason>`.
fn waives(comment: &str, key: &str) -> bool {
    comment.split("lint:allow(").skip(1).any(|rest| {
        rest.split_once(')').is_some_and(|(k, after)| {
            k.trim() == key
                && after
                    .strip_prefix(':')
                    .is_some_and(|r| !r.trim().trim_start_matches('-').trim().is_empty())
        })
    })
}

/// Whether line `n`, or a comment-only line directly above it, waives `key`.
fn waived(lines: &[Line], n: usize, key: &str) -> bool {
    waives(&lines[n].comment, key)
        || lines[..n]
            .iter()
            .rev()
            .take_while(|l| l.code.trim().is_empty() && !l.comment.is_empty())
            .any(|l| waives(&l.comment, key))
}

// ----------------------------------------------------------------- L010

/// The `(kind, name)` of the top-level `pub` item a line declares.
/// `pub(crate)` and `pub use` declare none.
fn pub_item(code: &str) -> Option<(&str, &str)> {
    const KINDS: [&str; 9] = [
        "fn", "struct", "enum", "trait", "type", "mod", "union", "const", "static",
    ];
    let words: Vec<&str> = idents(code.strip_prefix("pub ")?).collect();
    let mut k = 0;
    while let Some(&word) = words.get(k) {
        let next = words.get(k + 1).copied();
        let qualifier = matches!(word, "unsafe" | "async" | "extern")
            || (word == "const" && matches!(next, Some("fn" | "unsafe" | "async" | "extern")));
        if !qualifier {
            return KINDS.contains(&word).then_some((word, next?));
        }
        k += 1;
    }
    None
}

/// The top-level `pub` items of the audited files, as `(file index,
/// line index, kind, name)`.
fn pub_items(files: &[File]) -> Vec<(usize, usize, &str, &str)> {
    let mut out = Vec::new();
    for (f, file) in files.iter().enumerate().filter(|(_, f)| f.audited()) {
        for (n, line) in file.lines.iter().enumerate().filter(|(_, l)| !l.test) {
            let code = line.code.trim_start();
            // Indented, only a `pub fn` counts: a method of an `impl`
            // block or a fn of an inline module. A `pub` field is none.
            let top_level = code.len() == line.code.len();
            if let Some((kind, name)) = pub_item(code).filter(|&(k, _)| top_level || k == "fn") {
                out.push((f, n, kind, name));
            }
        }
    }
    out
}

fn dead_api(files: &[File]) -> Vec<String> {
    // How many files name each identifier, in code or in comments.
    let mut named_in: BTreeMap<&str, usize> = BTreeMap::new();
    for file in files {
        let words: BTreeSet<&str> = file
            .lines
            .iter()
            .flat_map(|l| idents(&l.code).chain(idents(&l.comment)))
            .collect();
        for word in words {
            *named_in.entry(word).or_default() += 1;
        }
    }
    pub_items(files)
        .into_iter()
        .filter(|&(f, n, _, name)| {
            named_in.get(name) == Some(&1) && !waived(&files[f].lines, n, "dead-api")
        })
        .map(|(f, n, kind, name)| {
            format!(
                "{}:{}: L010 pub {kind} `{name}` is named by no other workspace file; \
                 remove it, make it pub(crate) or waive it with \
                 `// lint:allow(dead-api): <why external users need it>`",
                files[f].path,
                n + 1
            )
        })
        .collect()
}

// ----------------------------------------------------------------- L013

/// The unit an identifier's name carries, if any.
fn unit_of(ident: &str) -> Option<&'static str> {
    let screaming = ident.contains(|c: char| c.is_ascii_uppercase())
        && ident
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
    if screaming {
        // Durations and times are seconds.
        return if ident.contains("DURATION") || ident.ends_with("_TIME") || ident.ends_with("_S") {
            Some("s")
        } else if ident.ends_with("_US") {
            Some("us")
        } else if ident.ends_with("_DB") {
            Some("db")
        } else {
            None
        };
    }
    const SUFFIXES: [(&str, &str); 6] = [
        ("_us", "us"),
        ("_s", "s"),
        ("_symbols", "symbols"),
        ("_slots", "slots"),
        ("_db", "db"),
        ("_linear", "linear"),
    ];
    SUFFIXES
        .iter()
        .find(|(suffix, _)| ident.len() > suffix.len() && ident.ends_with(suffix))
        .map(|&(_, unit)| unit)
}

/// Splits an argument or parameter list on its top-level commas.
fn split_args(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let (mut depth, mut angle, mut start) = (0i32, 0i32, 0);
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

/// The text inside the `(`/`[` group that opens `text`, if it closes.
fn group(text: &str) -> Option<&str> {
    let mut depth = 0;
    for (at, c) in text.char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&text[1..at]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether `text[at..at + len]` is a whole word.
fn word_at(text: &str, at: usize, len: usize) -> bool {
    !text[..at].ends_with(is_ident) && !text[at + len..].starts_with(is_ident)
}

/// The parameter units of every `fn` declared in `code`, by name:
/// `self` receivers are skipped so positions line up with method-call
/// arguments, and a tuple pattern has no unit.
fn signatures(code: &str) -> Vec<(&str, Vec<Option<&'static str>>)> {
    let mut out = Vec::new();
    for (at, _) in code.match_indices("fn") {
        if !word_at(code, at, 2) {
            continue;
        }
        let rest = code[at + 2..].trim_start();
        let Some(name) = idents(rest).next().filter(|n| rest.starts_with(n)) else {
            continue;
        };
        let Some(list) = rest.find('(').and_then(|open| group(&rest[open..])) else {
            continue;
        };
        let units = split_args(list)
            .into_iter()
            .filter_map(|param| {
                let pattern = param.split(':').next().unwrap_or(param);
                let names: Vec<&str> = idents(pattern)
                    .filter(|n| !matches!(*n, "mut" | "ref" | "_"))
                    .collect();
                match names.as_slice() {
                    [] | ["self"] => None,
                    [single] => Some(unit_of(single)),
                    _ => Some(None),
                }
            })
            .collect();
        out.push((name, units));
    }
    out
}

/// Each `left <op> right` on a line whose two identifiers carry
/// different units. The right operand follows its `a.b::c` chain to the
/// last segment; a call's value has no unit.
fn mixed_pairs(code: &str) -> Vec<String> {
    const OPS: [&str; 10] = ["+=", "-=", "<=", ">=", "==", "!=", "+", "-", "<", ">"];
    const OTHER: [&str; 10] = [
        "<<=", ">>=", "..=", "->", "=>", "::", "<<", ">>", "&&", "||",
    ];
    // Identifiers and symbols, longest symbol first.
    let mut toks: Vec<(bool, &str)> = Vec::new();
    let mut at = 0;
    while let Some(c) = code[at..].chars().next() {
        let len = if is_ident(c) {
            code[at..]
                .find(|c: char| !is_ident(c))
                .unwrap_or(code.len() - at)
        } else {
            let multi = OTHER
                .iter()
                .chain(&OPS)
                .find(|op| code[at..].starts_with(**op));
            multi.map_or(c.len_utf8(), |op| op.len())
        };
        if !c.is_whitespace() {
            toks.push((is_ident(c), &code[at..at + len]));
        }
        at += len;
    }
    let mut out = Vec::new();
    for k in 1..toks.len() {
        let ((true, left), (false, op)) = (toks[k - 1], toks[k]) else {
            continue;
        };
        if !OPS.contains(&op) {
            continue;
        }
        let mut j = k + 1;
        let mut right = None;
        while let Some(&(true, name)) = toks.get(j) {
            right = Some(name);
            match toks.get(j + 1) {
                Some((false, "." | "::")) => j += 2,
                _ => break,
            }
        }
        if matches!(toks.get(j + 1), Some((false, "("))) {
            continue;
        }
        let Some(right) = right else { continue };
        if let (Some(lu), Some(ru)) = (unit_of(left), unit_of(right)) {
            if lu != ru {
                out.push(format!("`{left} {op} {right}` mixes units ({lu} vs {ru})"));
            }
        }
    }
    out
}

/// Each call argument on a line whose unit suffix disagrees with the
/// callee's parameter name. Only plain identifiers and field chains
/// carry an argument unit.
fn mismatched_args(
    code: &str,
    params: &BTreeMap<&str, Option<Vec<Option<&'static str>>>>,
) -> Vec<String> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < code.len() {
        let Some(start) = code[at..].find(|c: char| c.is_ascii_alphabetic() || c == '_') else {
            break;
        };
        let start = at + start;
        let end = code[start..]
            .find(|c: char| !is_ident(c))
            .map_or(code.len(), |e| start + e);
        at = end;
        if code[..start].ends_with(is_ident) || !code[end..].starts_with('(') {
            continue;
        }
        if code[..start].trim_end().ends_with("fn") {
            continue;
        }
        let name = &code[start..end];
        let Some(Some(units)) = params.get(name) else {
            continue;
        };
        let Some(args) = group(&code[end..]) else {
            continue;
        };
        for (pos, arg) in split_args(args).into_iter().enumerate() {
            let Some(&Some(want)) = units.get(pos) else {
                continue;
            };
            let arg = arg.trim().trim_start_matches('&');
            let arg = arg
                .trim_start_matches("mut ")
                .trim_start_matches('*')
                .trim();
            if arg.contains(['(', '[', '+', '-', '*', '/', ' ']) {
                continue;
            }
            let last = arg.rsplit(['.', ':']).next().unwrap_or(arg);
            if let Some(got) = unit_of(last).filter(|&got| got != want) {
                out.push(format!(
                    "argument {} of `{name}(...)` is `{last}` ({got}) but the \
                     parameter is named in {want}",
                    pos + 1
                ));
            }
        }
        at = end + args.len() + 2;
    }
    out
}

fn unit_mix(files: &[File]) -> Vec<String> {
    // Parameter units by fn name, from the non-test code of the audited
    // files; a name whose definitions disagree maps to `None`.
    let code: Vec<String> = files
        .iter()
        .filter(|f| f.audited())
        .map(|f| {
            let lines = f.lines.iter().filter(|l| !l.test);
            lines
                .map(|l| l.code.as_str())
                .collect::<Vec<_>>()
                .join("\n")
        })
        .collect();
    let mut params: BTreeMap<&str, Option<Vec<Option<&'static str>>>> = BTreeMap::new();
    for (name, units) in code.iter().flat_map(|c| signatures(c)) {
        if units.iter().any(Option::is_some) {
            params
                .entry(name)
                .and_modify(|known| {
                    if known.as_ref() != Some(&units) {
                        *known = None;
                    }
                })
                .or_insert(Some(units));
        }
    }

    let mut out = Vec::new();
    for file in files.iter().filter(|f| f.audited()) {
        for (n, line) in file.lines.iter().enumerate().filter(|(_, l)| !l.test) {
            let mut found = mixed_pairs(&line.code);
            found.extend(mismatched_args(&line.code, &params));
            if found.is_empty() || waived(&file.lines, n, "unit-mix") {
                continue;
            }
            for message in found {
                out.push(format!(
                    "{}:{}: L013 {message}; convert explicitly or waive it with \
                     `// lint:allow(unit-mix): <why the units agree>`",
                    file.path,
                    n + 1
                ));
            }
        }
    }
    out
}

// ----------------------------------------------------------------- L015

fn barrier_tag(files: &[File]) -> Vec<String> {
    files
        .iter()
        .filter(|f| f.place().1 == "src" && f.has(".wait()") && f.has("catch_unwind"))
        .filter(|f| !f.has("fetch_min"))
        .map(|f| {
            format!(
                "{}:1: L015 waits on a barrier and catches unwinds but never tags \
                 the failing epoch with `fetch_min`, so the earliest failure is \
                 not the one every worker stops at",
                f.path
            )
        })
        .collect()
}

// ---------------------------------------------------- the pub fn ratchet

/// Words that may stand between `pub` and `fn` in a declaration; `""`
/// is an `extern` ABI string after blanking.
const FN_QUALIFIERS: [&str; 5] = ["const", "async", "unsafe", "extern", "\"\""];

/// Whether a blanked code line declares a `pub` function.
fn declares_pub_fn(code: &str) -> bool {
    let tokens: Vec<&str> = code.split_whitespace().collect();
    tokens.iter().enumerate().any(|(k, &token)| {
        token == "pub"
            && tokens[k + 1..]
                .iter()
                .find(|t| !FN_QUALIFIERS.contains(t))
                .is_some_and(|&t| t == "fn")
    })
}

/// A finding for each directory whose `pub fn` count is not its ceiling
/// (0 for a directory `ceilings` does not list).
fn pub_fn_ratchet(sources: &[(String, String)], ceilings: &[(&str, usize)]) -> Vec<String> {
    let files: Vec<File> = sources.iter().map(|(p, t)| File::new(p, t)).collect();
    let mut counts: BTreeMap<&str, usize> = ceilings.iter().map(|&(dir, _)| (dir, 0)).collect();
    for file in &files {
        let declared = file.lines.iter().filter(|l| declares_pub_fn(&l.code));
        *counts.entry(file.ratchet_dir()).or_default() += declared.count();
    }
    let ceiling = |dir: &str| {
        ceilings
            .iter()
            .find(|(d, _)| *d == dir)
            .map_or(0, |&(_, c)| c)
    };
    counts
        .into_iter()
        .filter_map(|(dir, count)| match count.cmp(&ceiling(dir)) {
            std::cmp::Ordering::Greater => Some(format!(
                "{dir}: {count} pub fn, over its ceiling of {}",
                ceiling(dir)
            )),
            std::cmp::Ordering::Less => Some(format!(
                "{dir}: {count} pub fn, under its ceiling of {}: lower the ceiling to {count}",
                ceiling(dir)
            )),
            std::cmp::Ordering::Equal => None,
        })
        .collect()
}

// ------------------------------------------------------- the real tree

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The sources the rules read: `src/`, `tests/`, `benches/` and
/// `examples/` of the root package and of every crate under `crates/`.
fn workspace_sources() -> std::io::Result<Vec<(String, String)>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![root.to_path_buf()];
    for entry in std::fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        if dir.join("Cargo.toml").is_file() {
            packages.push(dir);
        }
    }
    let mut paths = Vec::new();
    for package in packages {
        for section in ["src", "tests", "benches", "examples"] {
            rs_files(&package.join(section), &mut paths)?;
        }
    }
    paths.sort();
    let mut sources = Vec::new();
    for path in paths {
        let relative = path.strip_prefix(root).unwrap_or(&path);
        let relative = relative.to_string_lossy().replace('\\', "/");
        sources.push((relative, std::fs::read_to_string(&path)?));
    }
    Ok(sources)
}

#[test]
fn workspace_passes_every_source_rule() {
    let sources = workspace_sources().expect("read the workspace sources");
    assert!(sources.len() > 100, "found only {} files", sources.len());
    let found = findings(&sources);
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn workspace_pub_fns_match_their_ceilings() {
    let sources = workspace_sources().expect("read the workspace sources");
    let found = pub_fn_ratchet(&sources, &PUB_FN_CEILINGS);
    assert!(found.is_empty(), "{}", found.join("\n"));
}

// ------------------------------------------------------------- fixtures

fn check(files: &[(&str, &str)]) -> Vec<String> {
    findings(&owned(files))
}

fn owned(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect()
}

#[test]
fn pub_fn_ratchet_counts_declarations_not_words() {
    let sources = owned(&[
        (
            "crates/phy/src/lib.rs",
            "pub fn a() {}\n\
             \x20   pub const fn b() {}\n\
             pub unsafe extern \"C\" fn c() {}\n\
             pub(crate) fn d() {}\n\
             // pub fn e\n\
             /* pub fn f */\n\
             const S: &str = \"pub fn g\";\n",
        ),
        ("crates/phy/tests/t.rs", "pub fn h() {}\n"),
        (
            "tests/root.rs",
            "fn i() -> &'static str { r\"pub fn j() {}\" }\n",
        ),
    ]);
    assert_eq!(
        pub_fn_ratchet(&sources, &[("crates/phy", 4)]),
        Vec::<String>::new()
    );
    assert_eq!(
        pub_fn_ratchet(&sources, &[("crates/phy", 3)]),
        ["crates/phy: 4 pub fn, over its ceiling of 3"]
    );
    assert_eq!(
        pub_fn_ratchet(&sources, &[("crates/phy", 5)]),
        ["crates/phy: 4 pub fn, under its ceiling of 5: lower the ceiling to 4"]
    );
    // An unlisted directory has a ceiling of 0.
    let seeded = owned(&[("examples/demo.rs", "pub fn demo() {}\n")]);
    assert_eq!(
        pub_fn_ratchet(&seeded, &[]),
        ["examples: 1 pub fn, over its ceiling of 0"]
    );
}

#[test]
fn l010_fires_on_an_orphan_pub_item() {
    let found = check(&[
        ("crates/phy/src/lib.rs", "pub fn orphan_helper() {}\n"),
        ("crates/mac/src/lib.rs", "fn other() {}\n"),
    ]);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("crates/phy/src/lib.rs:1: L010 pub fn `orphan_helper`"));

    let found = check(&[
        (
            "crates/frame/src/lib.rs",
            "pub fn used() {}\npub fn orphan() {}\n",
        ),
        (
            "crates/mac/src/lib.rs",
            "fn f() { carpool_frame::used(); }\n",
        ),
    ]);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("`orphan`"), "{found:?}");
}

#[test]
fn l010_passes_referenced_documented_and_waived_items() {
    let found = check(&[
        (
            "crates/phy/src/lib.rs",
            "pub fn used_helper() {}\n\
             pub fn documented() {}\n\
             // lint:allow(dead-api): kept for downstream users\n\
             pub fn kept_helper() {}\n",
        ),
        (
            "crates/mac/src/lib.rs",
            "// see `documented` in carpool-phy\n\
             fn other() { carpool_phy::used_helper(); }\n",
        ),
    ]);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn l010_needs_a_reason_to_waive_and_another_file_to_count() {
    let found = check(&[
        (
            "crates/phy/src/lib.rs",
            "// lint:allow(dead-api)\n\
         pub fn bare_waiver() {}\n\
         pub fn self_named() {}\n\
         fn caller() { self_named(); }\n\
         pub fn in_a_string() {}\n",
        ),
        (
            "crates/mac/src/lib.rs",
            "fn f() { let _ = \"in_a_string\"; }\n",
        ),
    ]);
    assert_eq!(found.len(), 3, "{found:?}");
}

#[test]
fn l010_skips_tool_crates_tests_and_non_public_items() {
    let found = check(&[
        ("crates/cli/src/main.rs", "pub fn orphan_cli() {}\n"),
        ("crates/bench/src/lib.rs", "pub fn orphan_bench() {}\n"),
        ("crates/phy/tests/t.rs", "pub fn orphan_test() {}\n"),
        (
            "crates/phy/src/lib.rs",
            "pub(crate) fn internal() {}\n\
             pub use a::b::{self, c};\n\
             impl Tr for S {\n    fn method() {}\n}\n\
             #[cfg(test)]\n\
             mod tests {\n    pub fn helper() {}\n}\n",
        ),
    ]);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn l010_fires_on_an_orphan_method() {
    let found = check(&[
        (
            "crates/phy/src/est.rs",
            "pub struct Est {\n    pub taps: u8,\n}\n\
             impl Est {\n\
             \x20   pub fn used(&self) {}\n\
             \x20   pub fn orphan_method(&self) {}\n\
             \x20   pub(crate) fn internal(&self) {}\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n    pub fn helper() {}\n}\n",
        ),
        (
            "crates/mac/src/lib.rs",
            "fn f(e: &carpool_phy::Est) { e.used(); let _ = e.taps; }\n",
        ),
    ]);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].starts_with("crates/phy/src/est.rs:6: L010 pub fn `orphan_method`"),
        "{found:?}"
    );
}

#[test]
fn l010_sees_every_item_kind() {
    let found = check(&[(
        "src/lib.rs",
        "pub struct S;\n\
         pub enum E { A }\n\
         pub const C: u8 = 0;\n\
         pub static G: u8 = 0;\n\
         pub type T = u8;\n\
         pub mod m;\n\
         pub union U { a: u8 }\n\
         pub const fn k() {}\n\
         pub unsafe trait Tr {}\n",
    )]);
    let kinds: Vec<&str> = found
        .iter()
        .filter_map(|f| f.split("L010 pub ").nth(1)?.split(' ').next())
        .collect();
    assert_eq!(
        kinds,
        ["struct", "enum", "const", "static", "type", "mod", "union", "fn", "trait"]
    );
}

#[test]
fn l013_fires_on_mixed_unit_arithmetic() {
    let found = check(&[(
        "crates/frame/src/airtime.rs",
        "fn total(airtime_s: f64, backoff_us: f64) -> f64 { airtime_s + backoff_us }\n",
    )]);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].contains("`airtime_s + backoff_us` mixes units (s vs us)"),
        "{found:?}"
    );
}

#[test]
fn l013_passes_matching_units_and_unit_converting_ops() {
    let found = check(&[(
        "crates/frame/src/airtime.rs",
        "fn ok(airtime_s: f64, gap_s: f64, rate_linear: f64) -> f64 {\n\
             (airtime_s + gap_s) * rate_linear + f(x_s) - SLOT_TIME\n\
         }\n",
    )]);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn l013_flags_call_argument_unit_mismatch() {
    let found = check(&[(
        "crates/frame/src/airtime.rs",
        "fn wait(timeout_s: f64) -> f64 { timeout_s }\n\
         fn caller(delay_us: f64) -> f64 { wait(delay_us) }\n",
    )]);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("argument 1 of `wait(...)`"), "{found:?}");
}

#[test]
fn l013_method_arguments_skip_the_receiver() {
    let found = check(&[(
        "crates/phy/src/fix.rs",
        "impl S {\n\
         \x20   fn go(&mut self, airtime_s: f64, n_symbols: usize) {}\n\
         }\n\
         fn free(delay_us: f64, (a, b): (u8, u8)) {}\n\
         fn caller(s: &mut S, wait_us: f64, gap_s: f64) {\n\
         \x20   s.go(wait_us, 3);\n\
         \x20   free(gap_s, (1, 2));\n\
         }\n",
    )]);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].contains("argument 1 of `go(...)` is `wait_us` (us)"));
    assert!(found[1].contains("argument 1 of `free(...)` is `gap_s` (s)"));
}

#[test]
fn l013_drops_callees_whose_definitions_disagree() {
    let found = check(&[
        ("crates/phy/src/a.rs", "fn wait(timeout_s: f64) {}\n"),
        ("crates/mac/src/b.rs", "fn wait(timeout_us: f64) {}\n"),
        (
            "crates/mac/src/c.rs",
            "fn f(delay_us: f64) { wait(delay_us) }\n",
        ),
    ]);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn l013_ignores_comments_strings_tests_and_tool_crates_and_honours_waivers() {
    let mix = "fn f() { airtime_s + backoff_us }\n";
    let found = check(&[
        (
            "crates/mac/src/a.rs",
            "/// `airtime_s + backoff_us` in a doc comment\n\
             fn f<'a>(x: &'a str) -> &'a str { let c = '\"'; x }\n\
             const S: &str = \"airtime_s + backoff_us\";\n\
             const R: &str = r#\"a \" airtime_s + backoff_us\"#;\n\
             /* airtime_s /* nested */ + backoff_us */\n\
             // lint:allow(unit-mix): both are converted upstream\n\
             fn waived() { airtime_s + backoff_us }\n\
             #[cfg(test)]\n\
             mod tests {\n    fn t() { airtime_s + backoff_us }\n}\n",
        ),
        ("crates/cli/src/main.rs", mix),
        ("crates/mac/tests/t.rs", mix),
    ]);
    assert!(found.is_empty(), "{found:?}");

    // The code after a lifetime, a char literal and a string is live.
    let found = check(&[(
        "crates/mac/src/a.rs",
        "fn f<'a>(x: &'a str) { let c = '\"'; let s = \"'\"; airtime_s + backoff_us }\n",
    )]);
    assert_eq!(found.len(), 1, "{found:?}");
}

#[test]
fn test_only_items_end_where_their_body_ends() {
    let found = check(&[(
        "crates/mac/src/a.rs",
        "impl S {\n\
         \x20   #[cfg(test)]\n\
         \x20   fn probe(&self) -> f64 {\n\
         \x20       airtime_s + backoff_us\n\
         \x20   }\n\
         \x20   fn live(&self) -> f64 {\n\
         \x20       airtime_s - backoff_us\n\
         \x20   }\n\
         }\n\
         #[cfg(test)]\n\
         use helpers::x;\n\
         fn after() { gap_s < SLOT_US }\n",
    )]);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(
        found[0].starts_with("crates/mac/src/a.rs:7: L013"),
        "{found:?}"
    );
    assert!(
        found[1].starts_with("crates/mac/src/a.rs:12: L013"),
        "{found:?}"
    );
}

#[test]
fn a_seeded_workspace_fails_and_its_fixed_twin_passes() {
    let workspace = |dirty: bool| {
        let (unit, orphan) = if dirty {
            ("us", "pub fn orphan() {}\n")
        } else {
            ("s", "")
        };
        check(&[
            (
                "crates/par/src/lib.rs",
                &format!(
                    "//! Pool fixture.\n\
                     pub fn total(airtime_s: f64, backoff_{unit}: f64) -> f64 {{ airtime_s + backoff_{unit} }}\n"
                ),
            ),
            (
                "crates/mac/src/lib.rs",
                &format!("//! Mac fixture.\n{orphan}fn run() {{ carpool_par::total(); }}\n"),
            ),
        ])
    };
    let dirty = workspace(true);
    assert_eq!(dirty.len(), 2, "{dirty:?}");
    assert!(
        dirty[0].starts_with("crates/mac/src/lib.rs:2: L010"),
        "{dirty:?}"
    );
    assert!(
        dirty[1].starts_with("crates/par/src/lib.rs:2: L013"),
        "{dirty:?}"
    );
    assert!(workspace(false).is_empty());
}

#[test]
fn l015_fires_on_a_barrier_without_a_fetch_min_tag() {
    let epochs = |tag: &str| {
        format!(
            "fn run_epochs(barrier: &Barrier, failed_at: &AtomicUsize, epoch: usize) {{\n\
             \x20   if catch_unwind(|| step()).is_err() {{\n\
             \x20       failed_at.{tag}(epoch, Ordering::AcqRel);\n\
             \x20   }}\n\
             \x20   barrier.wait();\n\
             }}\n"
        )
    };
    let found = check(&[("crates/par/src/lib.rs", &epochs("store"))]);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].starts_with("crates/par/src/lib.rs:1: L015"),
        "{found:?}"
    );
    assert!(check(&[("crates/par/src/lib.rs", &epochs("fetch_min"))]).is_empty());
    // Test code and non-`src/` files may wait however they like.
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{}}}\n", epochs("store"));
    assert!(check(&[("crates/par/src/lib.rs", &in_test)]).is_empty());
    assert!(check(&[("crates/par/tests/t.rs", &epochs("store"))]).is_empty());
}

#[test]
fn units_come_from_suffixes_and_const_names() {
    for (ident, unit) in [
        ("airtime_s", Some("s")),
        ("delay_us", Some("us")),
        ("n_symbols", Some("symbols")),
        ("backoff_slots", Some("slots")),
        ("snr_db", Some("db")),
        ("snr_linear", Some("linear")),
        ("SYMBOL_DURATION", Some("s")),
        ("SLOT_TIME", Some("s")),
        ("SIFS_US", Some("us")),
        ("count", None),
        ("_s", None),
        ("NUM_STATES", None),
    ] {
        assert_eq!(unit_of(ident), unit, "{ident}");
    }
}
