//! Property tests for the item parser: arbitrary "token soup" built
//! from Rust-ish fragments must never panic the parser, and every span
//! it reports must round-trip to a real scanner line number with
//! `decl_line <= body_start <= body_end` whenever a body exists.

use carpool_lint::items::{parse_items, FileRecord, Section};
use carpool_lint::rules::classify;
use carpool_lint::scanner::scan_source;
use proptest::prelude::*;

/// Source fragments chosen to stress the parser's state machine:
/// unbalanced braces, half-finished headers, generics, raw idents,
/// strings with braces, and ordinary items.
const FRAGMENTS: [&str; 18] = [
    "pub fn alpha() {",
    "fn beta(x: u8) -> u8 { x }",
    "}",
    "{",
    "impl Foo {",
    "impl Iterator for Foo {",
    "trait Widget {",
    "use std::collections::{HashMap, BTreeMap as Map};",
    "use crate::sub::*;",
    "pub struct Thing<T> { inner: T }",
    "let s = \"{ not a brace }\";",
    "call(a, b); other::path::f(x);",
    "x.method(y).chain(z);",
    "pub const K: usize = 3;",
    "#[cfg(test)] mod tests {",
    "fn gamma<T: Iterator<Item = u8>>(t: T)",
    "; ; ;",
    "pub fn",
];

fn soup_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(FRAGMENTS.to_vec()), 0..12)
        .prop_map(|parts| parts.join("\n"))
}

proptest! {
    #[test]
    fn parser_never_panics_on_token_soup(src in soup_strategy()) {
        // Both entry points must absorb anything without panicking.
        let lines = scan_source(&src);
        let _ = parse_items(&lines);
        let _ = FileRecord::parse(
            "crates/x/src/soup.rs",
            Section::Src,
            classify("x"),
            &src,
        );
    }

    #[test]
    fn spans_round_trip_scanner_line_numbers(src in soup_strategy()) {
        let lines = scan_source(&src);
        let items = parse_items(&lines);
        let max = lines.len();
        for f in &items.fns {
            prop_assert!(
                (1..=max).contains(&f.decl_line),
                "decl_line {} out of 1..={max} for fn {}",
                f.decl_line,
                f.name
            );
            if f.body_start > 0 {
                prop_assert!(
                    f.decl_line <= f.body_start && f.body_start <= f.body_end,
                    "span order violated for fn {}: decl {} body {}..{}",
                    f.name,
                    f.decl_line,
                    f.body_start,
                    f.body_end
                );
                prop_assert!((1..=max).contains(&f.body_end));
            }
        }
        for p in &items.pub_items {
            prop_assert!((1..=max).contains(&p.line));
        }
        // Line numbers the scanner hands out are exactly 1..=len; the
        // parser must agree with that numbering (round trip).
        for (k, line) in lines.iter().enumerate() {
            prop_assert_eq!(line.number, k + 1);
        }
    }

    #[test]
    fn parse_is_deterministic(src in soup_strategy()) {
        let lines = scan_source(&src);
        prop_assert_eq!(parse_items(&lines), parse_items(&lines));
    }
}
