//! EXPERIMENTS.md quotes the bench outputs, and the quotes stay true.
//!
//! Each `##` section of EXPERIMENTS.md names its bench target in
//! backticks at the end of its heading. Every number in a cell of a
//! table column headed "Measured…" must appear verbatim, as a whole
//! number token, in that target's golden stdout,
//! `crates/bench/golden/<target>.txt` (which `scripts/golden.sh` checks
//! against the bench itself). A number marked `†` (after its unit sign,
//! as in `2.6%†`) is derived from
//! the printed ones (a ratio or a difference the bench does not print)
//! and is exempt. A hand copy that goes stale when a figure is
//! re-blessed fails here, naming its line.

use std::path::Path;

/// The number tokens of `text`: a run of ASCII digits, with an optional
/// fraction (`.` and digits) and exponent (`e`, an optional `-`, and
/// digits), as `{:.2}`/`{:.2e}` print them. Each comes with whether a
/// `†` follows it, after its `%`, `×` or `x` if it has one.
fn numbers(text: &str) -> Vec<(&str, bool)> {
    let bytes = text.as_bytes();
    let digits_from = |mut i: usize| {
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        i
    };
    let mut found = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        i = digits_from(i);
        if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
            i = digits_from(i + 1);
        }
        if bytes.get(i) == Some(&b'e') {
            let sign = usize::from(bytes.get(i + 1) == Some(&b'-'));
            if bytes.get(i + 1 + sign).is_some_and(u8::is_ascii_digit) {
                i = digits_from(i + 1 + sign);
            }
        }
        let unit = text[i..].trim_start_matches(['%', '×', 'x']);
        found.push((&text[start..i], unit.starts_with('†')));
    }
    found
}

/// The bench target a section heading names: its last backticked span.
fn heading_target(heading: &str) -> Option<&str> {
    let (before, _) = heading.rsplit_once('`')?;
    let (_, name) = before.rsplit_once('`')?;
    Some(name)
}

#[test]
fn measured_numbers_are_printed_by_their_bench_target() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let experiments =
        std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md is readable");
    let mut target = None;
    let mut printed = Vec::new();
    // The column index of "Measured" in the current table, once its
    // header row has been read.
    let mut table: Option<Option<usize>> = None;
    let (mut checked, mut derived) = (0, 0);
    let mut stale = Vec::new();
    for (n, line) in experiments.lines().enumerate() {
        let at = format!("EXPERIMENTS.md:{}", n + 1);
        if let Some(heading) = line.strip_prefix("## ") {
            target = heading_target(heading);
            let golden = match target {
                Some(t) => {
                    std::fs::read_to_string(root.join(format!("crates/bench/golden/{t}.txt")))
                        .unwrap_or_else(|e| panic!("{at}: no golden output for `{t}`: {e}"))
                }
                None => String::new(),
            };
            printed = numbers(&golden)
                .into_iter()
                .map(|(t, _)| t.to_string())
                .collect();
        }
        let Some(row) = line.strip_prefix('|') else {
            table = None;
            continue;
        };
        let cells: Vec<&str> = row
            .trim_end()
            .trim_end_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        let Some(measured) = table else {
            table = Some(cells.iter().position(|c| c.starts_with("Measured")));
            continue;
        };
        let Some(cell) = measured.and_then(|col| cells.get(col)) else {
            continue;
        };
        if cell.chars().all(|c| c == '-' || c == ':') {
            continue;
        }
        for (number, is_derived) in numbers(cell) {
            if is_derived {
                derived += 1;
                continue;
            }
            checked += 1;
            if target.is_none() {
                stale.push(format!(
                    "{at}: {number} is in a section that names no bench target"
                ));
            } else if !printed.iter().any(|p| p == number) {
                let t = target.unwrap_or_default();
                stale.push(format!(
                    "{at}: {number} is not printed in crates/bench/golden/{t}.txt"
                ));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md quotes numbers its bench does not print:\n{}",
        stale.join("\n")
    );
    // The scan found the tables: a format change must not empty it.
    assert!(checked >= 60, "only {checked} measured numbers found");
    assert!(derived >= 1, "no derived number found");
}

#[test]
fn numbers_are_read_as_printed() {
    let text = "x60.8 3.11e-3 → 5.48e-6, 0.042–0.190 s, 18.7x–157.7x, −2.6%† QAM64 e5 1.";
    let found: Vec<(&str, bool)> = numbers(text);
    let expect = [
        ("60.8", false),
        ("3.11e-3", false),
        ("5.48e-6", false),
        ("0.042", false),
        ("0.190", false),
        ("18.7", false),
        ("157.7", false),
        ("2.6", true),
        ("64", false),
        ("5", false),
        ("1", false),
    ];
    assert_eq!(found, expect);
    assert_eq!(
        heading_target("Fig. 16 — With background (`fig16_background`)"),
        Some("fig16_background")
    );
    assert_eq!(heading_target("Known divergences (and why)"), None);
}
