//! Lightweight Rust item parser on top of the line scanner.
//!
//! [`parse_items`] folds the comment/string-blanked [`SourceLine`]s of
//! one file into structural items: `fn` declarations with their body
//! extents, and top-level `pub` items. It is deliberately not a full
//! Rust parser — it tracks exactly the token shapes the workspace rules
//! (L010, L013, L015) need, never panics on malformed input, and
//! degrades to "no item seen" rather than guessing.
//!
//! Span contract: every line number reported by the parser is one of
//! the scanner's 1-based [`SourceLine::number`]s, and a function's
//! `decl_line <= body_start <= body_end` whenever a body exists. The
//! property tests in `tests/item_parser_properties.rs` pin both
//! invariants on arbitrary token soup.

use crate::rules::CrateClass;
use crate::scanner::{scan_source, SourceLine};

/// Where a file sits within its crate (rules apply to `Src` only; the
/// other sections are the reference corpus for dead-API detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `src/` — library or binary sources.
    Src,
    /// `tests/` — integration tests.
    Tests,
    /// `benches/` — bench binaries.
    Benches,
    /// `examples/` — example binaries.
    Examples,
}

/// One `fn` item with its body extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub decl_line: usize,
    /// Line of the opening body brace (0 when the fn has no body, e.g.
    /// a trait required method).
    pub body_start: usize,
    /// Line of the closing body brace (0 when the fn has no body).
    pub body_end: usize,
    /// Whether the declaration sits in `#[cfg(test)]`/`#[test]` code.
    pub in_test: bool,
}

/// A top-level `pub` item (dead-API candidates for L010).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubItem {
    /// Item keyword (`fn`, `struct`, `enum`, `trait`, `const`,
    /// `static`, `type`, `mod`, `union`).
    pub kind: &'static str,
    /// Item name.
    pub name: String,
    /// Declaration line.
    pub line: usize,
}

/// Everything the parser extracts from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileItems {
    /// All functions, in completion order (inner fns close first).
    pub fns: Vec<FnItem>,
    /// Top-level `pub` items.
    pub pub_items: Vec<PubItem>,
}

/// One parsed workspace file: identity, scanned lines, and items.
#[derive(Debug, Clone)]
pub struct FileRecord {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Which crate section the file belongs to.
    pub section: Section,
    /// Rule classification of the owning crate.
    pub class: CrateClass,
    /// Scanned source lines.
    pub lines: Vec<SourceLine>,
    /// Parsed items.
    pub items: FileItems,
}

impl FileRecord {
    /// Scans and parses `source` into a record.
    pub fn parse(path: &str, section: Section, class: CrateClass, source: &str) -> FileRecord {
        let lines = scan_source(source);
        let items = parse_items(&lines);
        FileRecord {
            path: path.to_string(),
            section,
            class,
            lines,
            items,
        }
    }
}

/// A fn header seen, waiting for its body `{` or a `;`.
struct PendingFn {
    name: String,
    decl_line: usize,
    decl_depth: usize,
    in_test: bool,
}

/// A fn whose body is open.
struct ActiveFn {
    item: FnItem,
    /// Depth inside the body (`decl_depth + 1`).
    body_depth: usize,
}

/// Token runs the parser skips over without interpreting them.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Skip {
    /// Not skipping.
    None,
    /// A `use` declaration, up to its `;`.
    Use,
    /// An `impl`/`trait` header, up to its `{` (or a `;`).
    Header,
}

struct Parser {
    depth: usize,
    active: Vec<ActiveFn>,
    pending_fn: Option<PendingFn>,
    skip: Skip,
    saw_pub: bool,
    /// `(`/`[` nesting inside a pending fn signature. A `;` or `{`
    /// inside such a group (`[u8; N]`, `-> [u8; { N }]`) belongs to a
    /// type, not to the item grammar, and must not terminate the
    /// pending fn or open its body.
    sig_group: usize,
    out: FileItems,
}

/// Parses the scanned lines of one file into items. Never panics; on
/// unparseable shapes it simply records fewer items.
pub fn parse_items(lines: &[SourceLine]) -> FileItems {
    let mut p = Parser {
        depth: 0,
        active: Vec::new(),
        pending_fn: None,
        skip: Skip::None,
        saw_pub: false,
        sig_group: 0,
        out: FileItems::default(),
    };
    for line in lines {
        p.feed_line(line);
    }
    // Close any fns left open by unbalanced braces so spans stay valid.
    let last_line = lines.last().map_or(0, |l| l.number);
    while let Some(active) = p.active.pop() {
        let mut item = active.item;
        item.body_end = last_line.max(item.body_start);
        p.out.fns.push(item);
    }
    p.out
}

impl Parser {
    fn feed_line(&mut self, line: &SourceLine) {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            match self.skip {
                Skip::Use => {
                    if c == ';' {
                        self.skip = Skip::None;
                    }
                    i += 1;
                    continue;
                }
                Skip::Header => {
                    if c == '{' {
                        self.depth += 1;
                        self.skip = Skip::None;
                    } else if c == ';' {
                        self.skip = Skip::None;
                    }
                    i += 1;
                    continue;
                }
                Skip::None => {}
            }
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if self.pending_fn.is_some() {
                // Inside a fn signature: keep the `(`/`[` group nesting
                // so `;` and `{` belonging to array types or const
                // expressions don't end the item early.
                match c {
                    '(' | '[' => {
                        self.sig_group += 1;
                        i += 1;
                        continue;
                    }
                    ')' | ']' => {
                        self.sig_group = self.sig_group.saturating_sub(1);
                        i += 1;
                        continue;
                    }
                    '{' | '}' | ';' if self.sig_group > 0 => {
                        i += 1;
                        continue;
                    }
                    _ => {}
                }
            }
            match c {
                '{' => {
                    self.depth += 1;
                    if let Some(pf) = self
                        .pending_fn
                        .take_if(|pf| self.depth == pf.decl_depth + 1)
                    {
                        self.active.push(ActiveFn {
                            body_depth: self.depth,
                            item: FnItem {
                                name: pf.name,
                                decl_line: pf.decl_line,
                                body_start: line.number,
                                body_end: 0,
                                in_test: pf.in_test,
                            },
                        });
                    }
                    self.saw_pub = false;
                    i += 1;
                }
                '}' => {
                    self.depth = self.depth.saturating_sub(1);
                    while let Some(active) = self.active.pop_if(|a| a.body_depth > self.depth) {
                        let mut item = active.item;
                        item.body_end = line.number;
                        self.out.fns.push(item);
                    }
                    self.saw_pub = false;
                    i += 1;
                }
                ';' => {
                    // Trait required method: record without a body.
                    if let Some(pf) = self.pending_fn.take_if(|pf| pf.decl_depth == self.depth) {
                        self.out.fns.push(FnItem {
                            name: pf.name,
                            decl_line: pf.decl_line,
                            body_start: 0,
                            body_end: 0,
                            in_test: pf.in_test,
                        });
                    }
                    self.saw_pub = false;
                    i += 1;
                }
                c if is_ident_start(c) => {
                    let start = i;
                    while i < chars.len() && is_ident_char(chars[i]) {
                        i += 1;
                    }
                    let word: String = chars[start..i].iter().collect();
                    i = self.handle_word(&word, &chars, i, line);
                }
                _ => {
                    i += 1;
                }
            }
        }
    }

    /// Dispatches one identifier token; returns the new scan position.
    fn handle_word(&mut self, word: &str, chars: &[char], i: usize, line: &SourceLine) -> usize {
        let top_level_pub = self.depth == 0 && self.saw_pub && !line.in_test;
        match word {
            "pub" => {
                if next_sig(chars, i) == Some('(') {
                    // Restricted visibility `pub(crate)` etc. is not
                    // public API; skip the scope parens.
                    return skip_balanced(chars, skip_ws(chars, i), '(', ')');
                }
                self.saw_pub = true;
                i
            }
            "fn" => {
                let (Some(name), after) = read_ident(chars, i) else {
                    return i;
                };
                if top_level_pub {
                    self.push_pub("fn", &name, line);
                }
                self.pending_fn = Some(PendingFn {
                    name,
                    decl_line: line.number,
                    decl_depth: self.depth,
                    in_test: line.in_test,
                });
                self.sig_group = 0;
                self.saw_pub = false;
                after
            }
            // `impl` inside a fn signature is `impl Trait` in argument
            // or return position, not a block header — skipping to the
            // next `{` there would swallow the fn body brace.
            "impl" if self.pending_fn.is_none() => {
                self.skip = Skip::Header;
                self.saw_pub = false;
                i
            }
            "trait" => {
                let (name, after) = read_ident(chars, i);
                if let Some(name) = name.filter(|_| top_level_pub) {
                    self.push_pub("trait", &name, line);
                }
                self.skip = Skip::Header;
                self.saw_pub = false;
                after
            }
            "struct" | "enum" | "const" | "static" | "type" | "mod" | "union" => {
                let (Some(name), after) = read_ident(chars, i) else {
                    return i;
                };
                // `const fn` / `static ref` shapes: `const` followed
                // by `fn` is a qualifier, not an item.
                if name == "fn" {
                    return i;
                }
                if top_level_pub {
                    let kind = match word {
                        "struct" => "struct",
                        "enum" => "enum",
                        "const" => "const",
                        "static" => "static",
                        "type" => "type",
                        "union" => "union",
                        _ => "mod",
                    };
                    self.push_pub(kind, &name, line);
                }
                self.saw_pub = false;
                after
            }
            "use" => {
                self.skip = Skip::Use;
                self.saw_pub = false;
                i
            }
            _ => i,
        }
    }

    fn push_pub(&mut self, kind: &'static str, name: &str, line: &SourceLine) {
        self.out.pub_items.push(PubItem {
            kind,
            name: name.to_string(),
            line: line.number,
        });
    }
}

const fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

const fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Position after skipping whitespace.
fn skip_ws(chars: &[char], mut i: usize) -> usize {
    while chars.get(i).is_some_and(|c| c.is_whitespace()) {
        i += 1;
    }
    i
}

/// Next significant char at/after `i`.
fn next_sig(chars: &[char], i: usize) -> Option<char> {
    chars.get(skip_ws(chars, i)).copied()
}

/// Skips a balanced `open...close` group starting at/after `i`;
/// returns the position after the closing delimiter (or the end of the
/// line if unbalanced — the caller continues safely either way).
fn skip_balanced(chars: &[char], i: usize, open: char, close: char) -> usize {
    let mut k = skip_ws(chars, i);
    if chars.get(k) != Some(&open) {
        return k;
    }
    let mut depth = 0usize;
    while k < chars.len() {
        let c = chars[k];
        if c == open {
            depth += 1;
        } else if c == close {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    k
}

/// Reads the next identifier after whitespace; returns it plus the new
/// position.
fn read_ident(chars: &[char], i: usize) -> (Option<String>, usize) {
    let start = skip_ws(chars, i);
    let mut k = start;
    if !chars.get(k).copied().is_some_and(is_ident_start) {
        return (None, i);
    }
    while k < chars.len() && is_ident_char(chars[k]) {
        k += 1;
    }
    (Some(chars[start..k].iter().collect()), k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileItems {
        parse_items(&scan_source(src))
    }

    fn find<'a>(items: &'a FileItems, name: &str) -> Option<&'a FnItem> {
        items.fns.iter().find(|f| f.name == name)
    }

    /// `(body_start, body_end)` of the named fn.
    fn span(items: &FileItems, name: &str) -> Option<(usize, usize)> {
        find(items, name).map(|f| (f.body_start, f.body_end))
    }

    #[test]
    fn free_fn_with_body_extent() {
        let src = "\
pub fn alpha(x: u8) -> u8 {
    helper(x);
    beta::gamma(x)
}
fn helper(x: u8) -> u8 { x }
";
        let items = parse(src);
        assert_eq!(items.fns.len(), 2);
        let alpha = find(&items, "alpha");
        assert!(alpha.is_some_and(|f| f.decl_line == 1 && f.body_end == 4));
        assert_eq!(span(&items, "helper"), Some((5, 5)));
        assert_eq!(items.pub_items.len(), 1);
        assert_eq!(items.pub_items[0].name, "alpha");
    }

    #[test]
    fn impl_and_trait_blocks_hold_their_methods() {
        let src = "\
struct Decoder;
impl<T: Clone + Default> Holder<T> {
    fn get(&self) -> T { T::default() }
}
impl Iterator for Decoder {
    type Item = u8;
    fn next(&mut self) -> Option<u8> { None }
}
";
        let items = parse(src);
        assert_eq!(span(&items, "get"), Some((3, 3)));
        assert_eq!(span(&items, "next"), Some((7, 7)));
        // Generic parameters in the impl header are not items.
        assert!(items.pub_items.is_empty());
    }

    #[test]
    fn use_declarations_are_not_items() {
        let src = "\
use std::collections::{BTreeMap, BTreeSet as Set};
pub use a::b::{self, c};
pub fn after() {}
";
        let items = parse(src);
        let names: Vec<&str> = items.pub_items.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["after"]);
    }

    #[test]
    fn trait_required_methods_have_no_body() {
        let src = "\
pub trait Model {
    fn predict(&self, x: f64) -> f64;
    fn doubled(&self, x: f64) -> f64 {
        self.predict(x) * 2.0
    }
}
";
        let items = parse(src);
        assert_eq!(span(&items, "predict"), Some((0, 0)));
        assert_eq!(span(&items, "doubled"), Some((3, 5)));
        assert_eq!(
            items.pub_items.iter().map(|p| p.kind).collect::<Vec<_>>(),
            ["trait"]
        );
    }

    #[test]
    fn restricted_visibility_is_not_pub() {
        let src = "\
pub(crate) fn internal() {}
pub fn external() {}
";
        let items = parse(src);
        assert_eq!(items.pub_items.len(), 1);
        assert_eq!(items.pub_items[0].name, "external");
        assert!(find(&items, "internal").is_some());
    }

    #[test]
    fn pub_items_cover_all_kinds() {
        let src = "\
pub struct S;
pub enum E { A }
pub const C: u8 = 0;
pub static G: u8 = 0;
pub type T = u8;
pub mod m;
pub union U { a: u8 }
pub const fn k() {}
";
        let items = parse(src);
        let kinds: Vec<&str> = items.pub_items.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            ["struct", "enum", "const", "static", "type", "mod", "union", "fn"]
        );
    }

    #[test]
    fn nested_fns_close_in_order() {
        let src = "\
fn outer() {
    fn inner() { leaf(); }
    inner();
}
";
        let items = parse(src);
        assert_eq!(span(&items, "inner"), Some((2, 2)));
        assert_eq!(span(&items, "outer"), Some((1, 4)));
        assert_eq!(items.fns[0].name, "inner", "inner fns close first");
    }

    #[test]
    fn impl_trait_in_signature_is_not_a_block_header() {
        // `impl FnOnce` in argument/return position must not start an
        // impl header — that would swallow the body brace and make the
        // fn invisible to every rule.
        let src = "\
struct S;
impl S {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        helper();
        f()
    }
    fn after(&self) -> impl Iterator<Item = u8> {
        leaf();
        std::iter::empty()
    }
}
";
        let items = parse(src);
        assert_eq!(span(&items, "time"), Some((3, 6)));
        assert_eq!(span(&items, "after"), Some((7, 10)));
    }

    #[test]
    fn const_generic_and_array_type_signatures_keep_their_bodies() {
        let src = "\
pub fn pack<const N: usize>(x: [u8; N]) -> [u8; N] {
    helper(x)
}
fn braces<const N: usize>() -> [u8; { N }] {
    leaf()
}
fn plain_array(buf: [f64; 64]) -> [f64; 64] {
    twiddle(buf)
}
";
        let items = parse(src);
        assert_eq!(
            span(&items, "pack"),
            Some((1, 3)),
            "array-type `;` in the signature must not end the fn"
        );
        assert_eq!(
            span(&items, "braces"),
            Some((4, 6)),
            "brace const-expr in return type must not open the body"
        );
        assert_eq!(span(&items, "plain_array"), Some((7, 9)));
    }

    #[test]
    fn where_clause_signatures_keep_their_bodies() {
        let src = "\
fn inline<T>(t: T) -> usize where T: Into<usize> {
    t.into()
}
fn multiline<T, U>(t: T, u: U) -> usize
where
    T: Into<usize>,
    U: Clone,
{
    inner(t, u)
}
impl<T> Holder<T>
where
    T: Clone,
{
    fn go(&self) {
        leaf();
    }
}
";
        let items = parse(src);
        assert_eq!(span(&items, "inline"), Some((1, 3)));
        assert_eq!(span(&items, "multiline"), Some((8, 10)));
        assert_eq!(span(&items, "go"), Some((15, 17)));
    }

    #[test]
    fn trait_required_method_with_array_type_still_terminates() {
        let src = "\
trait Codec {
    fn encode(&self, block: [u8; 8]) -> [u8; 16];
    fn name(&self) -> &str;
}
";
        let items = parse(src);
        assert_eq!(span(&items, "encode"), Some((0, 0)));
        assert_eq!(span(&items, "name"), Some((0, 0)));
    }

    #[test]
    fn unbalanced_input_still_yields_valid_spans() {
        let src = "fn f() { g(\n"; // never closed
        let items = parse(src);
        let f = find(&items, "f");
        assert!(f.is_some_and(|f| f.body_end >= f.body_start && f.decl_line == 1));
    }
}
