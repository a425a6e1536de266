//! Property tests for the comment/string stripper: a token placed
//! inside a comment or string literal must never reach a line's `code`
//! text, the only text the rules match, no matter how the surrounding
//! code is shaped; the same token in code position must stay there.

use carpool_lint::scanner::{scan_source, SourceLine};
use proptest::prelude::*;

/// Path tokens of the kind the rules match in code position.
const TRIGGERS: [&str; 8] = [
    "carpool_mac::sim::run()",
    "carpool_mac::Schedule",
    "carpool_cli::main()",
    "carpool_bench::table()",
    "carpool_lint::run()",
    "carpool::link::deliver()",
    "Ordering::SeqCst",
    "Ordering::Relaxed",
];

/// Ways to hide a token from code position.
#[derive(Debug, Clone, Copy)]
enum Container {
    LineComment,
    DocComment,
    BlockComment,
    MultilineBlockComment,
    Str,
    RawStr,
    RawStrHashes,
}

const CONTAINERS: [Container; 7] = [
    Container::LineComment,
    Container::DocComment,
    Container::BlockComment,
    Container::MultilineBlockComment,
    Container::Str,
    Container::RawStr,
    Container::RawStrHashes,
];

/// Embeds `token` in the chosen container, producing a source snippet
/// that is benign despite containing the trigger text.
fn embed(container: Container, token: &str, pad: &str) -> String {
    match container {
        Container::LineComment => format!("let {pad} = 1; // {pad} {token} {pad}\n"),
        Container::DocComment => format!("/// {pad} {token}\nfn {pad}_f() {{}}\n"),
        Container::BlockComment => format!("let {pad} = /* {token} */ 2;\n"),
        Container::MultilineBlockComment => {
            format!("let {pad} = 3; /* open {pad}\n {token}\n close */ fn g_{pad}() {{}}\n")
        }
        Container::Str => {
            // Escape quotes so the token text cannot close the string.
            let inner = token.replace('\\', "\\\\").replace('"', "\\\"");
            format!("let {pad} = \"{pad} {inner}\";\n")
        }
        Container::RawStr => {
            // A bare raw string cannot contain `"`; strip them.
            let inner = token.replace('"', " ");
            format!("let {pad} = r\"{inner}\";\n")
        }
        Container::RawStrHashes => format!("let {pad} = r#\"{token} \"quoted\" {token}\"#;\n"),
    }
}

/// Whether any line's code text contains `token`'s leading path
/// segment (`carpool_mac`, `Ordering`, ...).
fn code_mentions(lines: &[SourceLine], token: &str) -> bool {
    let head = token.split("::").next().unwrap_or(token);
    lines.iter().any(|line| line.code.contains(head))
}

/// Lowercase identifier fragments used as padding between fixtures.
fn pad_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::sample::select(vec!["x", "y", "zq", "w9", "ab_c"]),
        1..4,
    )
    .prop_map(|parts| parts.join("_"))
}

proptest! {
    #[test]
    fn hidden_tokens_never_reach_code(
        token in proptest::sample::select(TRIGGERS.to_vec()),
        container_idx in 0usize..CONTAINERS.len(),
        pad in pad_strategy(),
        repeat in 1usize..4,
    ) {
        let container = CONTAINERS[container_idx];
        let snippet = embed(container, token, &pad).repeat(repeat);
        let lines = scan_source(&snippet);
        prop_assert!(
            !code_mentions(&lines, token),
            "token {:?} in {:?} leaked into code position: {:?}\nsnippet:\n{}",
            token,
            container,
            lines,
            snippet
        );
    }

    #[test]
    fn visible_tokens_stay_in_code(
        token in proptest::sample::select(TRIGGERS.to_vec()),
        pad in pad_strategy(),
    ) {
        // The same tokens in real code position must stay in `code` —
        // the stripper may only remove, never over-blank.
        let snippet = format!("fn {pad}() {{ let v = {token}; }}\n");
        let lines = scan_source(&snippet);
        prop_assert!(
            lines.iter().any(|line| line.code.contains(token)),
            "token blanked out of code position:\n{snippet}"
        );
    }

    #[test]
    fn scan_is_deterministic_and_preserves_line_count(
        pad in pad_strategy(),
        repeat in 1usize..6,
    ) {
        let src = embed(Container::MultilineBlockComment, "Ordering::SeqCst", &pad).repeat(repeat);
        let a = scan_source(&src);
        let b = scan_source(&src);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), src.lines().count());
    }
}
