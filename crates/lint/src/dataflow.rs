//! Flow-aware intraprocedural analysis over parsed function bodies:
//! the fn-signature helpers L013 and L015 share, and the L012 interval
//! abstract interpretation.
//!
//! The interpreter tracks integer locals through the
//! [`crate::ranges::Interval`] lattice. Input bounds come from
//! `// lint:budget(i32: ...)` annotations; it then proves that no
//! *non-saturating* `+ - * <<` (or negation) over budgeted data can
//! leave the `i32` range. Values the analysis cannot see (calls,
//! indexing, fields) become unbounded top values; an annotated name
//! re-bound from such a source is re-seeded to its declared interval,
//! which is how loop patterns like `for &(la, lb) in lattice` pick
//! their bounds back up.
//!
//! The analysis is deliberately modest: it never panics, degrades to
//! "unknown" on shapes it cannot parse, and only reports on data that
//! is *tracked* — i.e. transitively tainted by a budget annotation —
//! so un-annotated functions are silent by construction.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{FileRecord, FnItem};
use crate::ranges::Interval;
use crate::scanner::SourceLine;

/// Whether a fn name marks a setup-time path by convention:
/// constructors and builders that merely store a scratch buffer are
/// exempt from L015's scratch-overwrite obligation.
pub fn is_setup_fn(name: &str) -> bool {
    name == "new"
        || name == "default"
        || name.starts_with("new_")
        || name.starts_with("with_")
        || name.starts_with("build")
        || name.starts_with("from_")
}

// ---------------------------------------------------------------------
// Budget annotations and fn signatures
// ---------------------------------------------------------------------

/// One parsed `// lint:budget(i32: ...)` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Names the bound applies to; empty means "every parameter".
    pub names: Vec<String>,
    /// Symmetric magnitude bound: values lie in `[-bound, bound]`.
    pub bound: i128,
    /// Line the annotation sits on.
    pub line: usize,
}

/// Extracts the budget annotations attached to `item`: on the
/// declaration line's comment, or on comment/attribute lines directly
/// above it (the same attachment walk doc comments use).
pub fn budget_specs(file: &FileRecord, item: &FnItem) -> Vec<BudgetSpec> {
    let mut specs = Vec::new();
    let Some(decl_idx) = item.decl_line.checked_sub(1) else {
        return specs;
    };
    let mut collect = |idx: usize| {
        if let Some(line) = file.lines.get(idx) {
            for (names, bound) in parse_budget_comment(&line.comment) {
                specs.push(BudgetSpec {
                    names,
                    bound,
                    line: line.number,
                });
            }
        }
    };
    collect(decl_idx);
    let mut k = decl_idx;
    while k > 0 {
        k -= 1;
        let Some(line) = file.lines.get(k) else { break };
        let code = line.code.trim();
        let attr_like = code.starts_with("#[") || code.ends_with(']');
        if !code.is_empty() && !attr_like {
            break;
        }
        if code.is_empty() && line.comment.is_empty() {
            break;
        }
        collect(k);
    }
    specs.sort_by_key(|s| s.line);
    specs
}

/// Parses every `lint:budget(i32: [names in] ±N)` occurrence in one
/// comment. `N` may be decimal or `2^k`; the `±` is optional and also
/// accepted as `+-`.
fn parse_budget_comment(comment: &str) -> Vec<(Vec<String>, i128)> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("lint:budget(") {
        rest = &rest[at + "lint:budget(".len()..];
        let Some(close) = rest.find(')') else { break };
        let body = &rest[..close];
        rest = &rest[close + 1..];
        let Some(spec) = body.trim().strip_prefix("i32") else {
            continue;
        };
        let Some(spec) = spec.trim_start().strip_prefix(':') else {
            continue;
        };
        let spec = spec.trim();
        let (names_text, bound_text) = match find_word(spec, "in") {
            Some(at) => (&spec[..at], &spec[at + 2..]),
            None => ("", spec),
        };
        let Some(bound) = parse_bound(bound_text) else {
            continue;
        };
        let names: Vec<String> = names_text
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        out.push((names, bound));
    }
    out
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

/// Parses `±N`, `+-N`, `N`, or `2^k` into a magnitude.
fn parse_bound(text: &str) -> Option<i128> {
    let t = text
        .trim()
        .trim_start_matches('±')
        .trim_start_matches("+/-")
        .trim_start_matches("+-")
        .trim();
    if let Some((base, exp)) = t.split_once('^') {
        let base: i128 = base.trim().parse().ok()?;
        let exp: u32 = exp.trim().parse().ok()?;
        if base != 2 || exp > 100 {
            return None;
        }
        return Some(1i128 << exp);
    }
    t.replace('_', "").parse().ok()
}

/// The signature text of `item`: the declaration line through the line
/// the body opens on (or just the declaration line for bodiless fns),
/// comments and strings already blanked.
pub fn signature_text(file: &FileRecord, item: &FnItem) -> String {
    let end = if item.body_start >= item.decl_line {
        item.body_start.max(item.decl_line)
    } else {
        item.decl_line
    };
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
pub fn param_names(file: &FileRecord, item: &FnItem) -> Vec<Vec<String>> {
    let sig = signature_text(file, item);
    let Some(fn_at) = find_word(&sig, "fn") else {
        return Vec::new();
    };
    let after = &sig[fn_at..];
    let Some(open_rel) = after.find('(') else {
        return Vec::new();
    };
    let chars: Vec<char> = after[open_rel..].chars().collect();
    // Balanced parameter list, respecting nested () [] <> groups.
    let mut depth = 0i32;
    let mut angle = 0i32;
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
            '<' => angle += 1,
            '>' => angle = (angle - 1).max(0),
            _ => {}
        }
    }
    let inner: String = chars[1..end.min(chars.len())].iter().collect();
    let _ = angle;
    let mut params: Vec<Vec<String>> = Vec::new();
    for part in split_args(&inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        // The binding pattern sits before the `:` (generic bounds live
        // inside the type side, which we discard).
        let pat = part.split(':').next().unwrap_or(part);
        let names: Vec<String> = idents_of(pat)
            .into_iter()
            .filter(|n| !matches!(n.as_str(), "mut" | "ref" | "self" | "_"))
            .collect();
        if idents_of(pat).iter().any(|n| n == "self") {
            continue;
        }
        if !names.is_empty() {
            params.push(names);
        }
    }
    params
}

/// Splits an argument/parameter list on top-level commas (respecting
/// `()`, `[]`, `{}`, and `<>` nesting).
pub fn split_args(text: &str) -> Vec<&str> {
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
pub fn idents_of(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        if is_ident_start(chars[i]) {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            out.push(chars[start..i].iter().collect());
        } else {
            i += 1;
        }
    }
    out
}

const fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

const fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

// ---------------------------------------------------------------------
// Statement splitting
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum StmtKind {
    /// A `;`-terminated (or block-tail) statement.
    Simple,
    /// A block-opening head (`for ... {`, `if ... {`, `... => {`).
    Open { is_loop: bool },
    /// A block close.
    Close,
}

#[derive(Debug, Clone)]
struct Stmt {
    kind: StmtKind,
    line: usize,
    text: String,
}

/// Splits the body lines of a fn into a flat statement stream. `;`,
/// `{` and `}` inside `()`/`[]` groups (array types, closure bodies in
/// arguments) do not split.
fn split_stmts(lines: &[SourceLine], from_line: usize, to_line: usize) -> Vec<Stmt> {
    let mut stmts = Vec::new();
    let mut acc = String::new();
    let mut acc_line = 0usize;
    let mut group = 0usize;
    for line in lines {
        if line.number < from_line || line.number > to_line || line.in_test {
            continue;
        }
        for c in line.code.chars() {
            if acc.trim().is_empty() && !c.is_whitespace() {
                acc_line = line.number;
            }
            match c {
                '(' | '[' => {
                    group += 1;
                    acc.push(c);
                }
                ')' | ']' => {
                    group = group.saturating_sub(1);
                    acc.push(c);
                }
                ';' if group == 0 => {
                    if !acc.trim().is_empty() {
                        stmts.push(Stmt {
                            kind: StmtKind::Simple,
                            line: acc_line,
                            text: std::mem::take(&mut acc),
                        });
                    }
                    acc.clear();
                }
                '{' if group == 0 => {
                    let head = std::mem::take(&mut acc);
                    let is_loop = ["for", "while", "loop"]
                        .iter()
                        .any(|kw| find_word(&head, kw).is_some());
                    stmts.push(Stmt {
                        kind: StmtKind::Open { is_loop },
                        line: if head.trim().is_empty() {
                            line.number
                        } else {
                            acc_line
                        },
                        text: head,
                    });
                }
                '}' if group == 0 => {
                    if !acc.trim().is_empty() {
                        stmts.push(Stmt {
                            kind: StmtKind::Simple,
                            line: acc_line,
                            text: std::mem::take(&mut acc),
                        });
                    }
                    acc.clear();
                    stmts.push(Stmt {
                        kind: StmtKind::Close,
                        line: line.number,
                        text: String::new(),
                    });
                }
                _ => acc.push(c),
            }
        }
        acc.push(' ');
    }
    stmts
}

// ---------------------------------------------------------------------
// Interval interpretation (L012)
// ---------------------------------------------------------------------

/// An abstract value: an interval plus a taint flag marking data
/// derived from a budget annotation. Only tracked data is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Val {
    iv: Interval,
    tracked: bool,
}

impl Val {
    const UNKNOWN: Val = Val {
        iv: Interval::TOP,
        tracked: false,
    };

    fn exact(v: i128) -> Val {
        Val {
            iv: Interval::exact(v),
            tracked: false,
        }
    }
}

type Env = BTreeMap<String, Val>;

/// One L012 finding inside an annotated fn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetFinding {
    /// 1-based source line of the offending operation.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// Outcome of checking one annotated fn.
#[derive(Debug, Clone, Default)]
pub struct BudgetReport {
    /// Violations (wraps possible, or bounds unprovable).
    pub findings: Vec<BudgetFinding>,
    /// Distinct `(line, operator)` sites of non-saturating arithmetic
    /// over budgeted data that were bounds-checked.
    pub ops_checked: usize,
}

struct Interp<'a> {
    seeds: &'a BTreeMap<String, Interval>,
    findings: BTreeSet<(usize, String)>,
    ops_seen: BTreeSet<(usize, &'static str)>,
    collect: bool,
    /// Recursion fuel: malformed nesting degrades to unknown instead
    /// of overflowing the stack.
    fuel: u32,
}

/// Runs the interval interpretation of one annotated fn.
///
/// Each [`BudgetSpec`] seeds its named identifiers (or, with no names,
/// every parameter) to `[-bound, bound]` as *tracked* values. The
/// interpreter then walks the body: non-saturating `+ - * <<` (and
/// negation) over tracked operands must stay inside `i32`; tracked
/// data meeting an unbounded operand is reported as unprovable.
pub fn check_budget_fn(file: &FileRecord, item: &FnItem, specs: &[BudgetSpec]) -> BudgetReport {
    let mut report = BudgetReport::default();
    if item.body_start == 0 || specs.is_empty() {
        return report;
    }
    let mut seeds: BTreeMap<String, Interval> = BTreeMap::new();
    for spec in specs {
        let iv = Interval::symmetric(spec.bound);
        if spec.names.is_empty() {
            for group in param_names(file, item) {
                for name in group {
                    let entry = seeds.entry(name).or_insert(iv);
                    *entry = entry.join(iv);
                }
            }
        } else {
            for name in &spec.names {
                let entry = seeds.entry(name.clone()).or_insert(iv);
                *entry = entry.join(iv);
            }
        }
    }
    let mut env: Env = Env::new();
    for (name, &iv) in &seeds {
        env.insert(name.clone(), Val { iv, tracked: true });
    }
    let stmts = split_stmts(&file.lines, item.body_start, item.body_end);
    let mut interp = Interp {
        seeds: &seeds,
        findings: BTreeSet::new(),
        ops_seen: BTreeSet::new(),
        collect: false,
        fuel: 0,
    };
    // The first Open is the fn header itself; start past it so its
    // matching Close ends the walk.
    let start = stmts
        .iter()
        .position(|s| matches!(s.kind, StmtKind::Open { .. }))
        .map_or(0, |at| at + 1);
    // Pass 1 (probe) stabilizes loop-carried state; pass 2 collects.
    let mut cursor = start;
    interp.run_block(&stmts, &mut cursor, &mut env.clone());
    interp.collect = true;
    let mut cursor = start;
    interp.run_block(&stmts, &mut cursor, &mut env);
    report.ops_checked = interp.ops_seen.len();
    report.findings = interp
        .findings
        .into_iter()
        .map(|(line, message)| BudgetFinding { line, message })
        .collect();
    report
}

impl Interp<'_> {
    /// Executes statements until the block's Close (or the end).
    fn run_block(&mut self, stmts: &[Stmt], cursor: &mut usize, env: &mut Env) {
        while *cursor < stmts.len() {
            let stmt = &stmts[*cursor];
            *cursor += 1;
            match &stmt.kind {
                StmtKind::Close => return,
                StmtKind::Simple => self.exec_stmt(stmt, env),
                StmtKind::Open { is_loop } => {
                    self.exec_head(stmt, env);
                    let body_start = *cursor;
                    if *is_loop {
                        // Probe the body once, widen what changed, probe
                        // again, then run for real on the stable state.
                        let entry = env.clone();
                        let was_collect = self.collect;
                        self.collect = false;
                        for _ in 0..2 {
                            let mut probe = env.clone();
                            let mut c = body_start;
                            self.run_block(stmts, &mut c, &mut probe);
                            // Loop heads re-execute per iteration too.
                            self.exec_head(stmt, &mut probe);
                            for (name, after) in probe {
                                let before = env.get(&name).copied().unwrap_or(Val::UNKNOWN);
                                if env.contains_key(&name) && after != before {
                                    env.insert(
                                        name,
                                        Val {
                                            iv: before.iv.widen(before.iv.join(after.iv)),
                                            tracked: before.tracked || after.tracked,
                                        },
                                    );
                                }
                            }
                        }
                        self.collect = was_collect;
                        let mut body_env = env.clone();
                        self.run_block(stmts, cursor, &mut body_env);
                        // The loop may run zero times: join, not replace.
                        join_env(env, &entry, &body_env);
                    } else {
                        // Conditional block: the body may not execute.
                        let entry = env.clone();
                        let mut body_env = env.clone();
                        self.run_block(stmts, cursor, &mut body_env);
                        join_env(env, &entry, &body_env);
                    }
                }
            }
        }
    }

    /// Processes a block head: loop/`if let` bindings and condition
    /// expressions.
    fn exec_head(&mut self, stmt: &Stmt, env: &mut Env) {
        let text = stmt.text.trim();
        if let Some(after_for) = strip_leading_word(text, "for") {
            if let Some(at) = find_word(after_for, "in") {
                let (pat, expr) = (&after_for[..at], &after_for[at + 2..]);
                self.eval(expr, env, stmt.line);
                self.bind_pattern(pat, Val::UNKNOWN, env);
            }
            return;
        }
        for kw in ["if", "while", "match", "else"] {
            if let Some(rest) = strip_leading_word(text, kw) {
                let rest = strip_leading_word(rest, "if").unwrap_or(rest); // `else if`
                if let Some(after_let) = strip_leading_word(rest.trim_start(), "let") {
                    // `if let PAT = EXPR` / `while let PAT = EXPR`.
                    if let Some(eq) = top_level_assign(after_let) {
                        let (pat, expr) = (&after_let[..eq], &after_let[eq + 1..]);
                        self.eval(expr, env, stmt.line);
                        self.bind_pattern(pat, Val::UNKNOWN, env);
                        return;
                    }
                }
                self.eval(rest, env, stmt.line);
                return;
            }
        }
        if text.contains("=>") {
            // Match arm: bind the pattern names conservatively.
            let pat = text.split("=>").next().unwrap_or("");
            self.bind_pattern(pat, Val::UNKNOWN, env);
            return;
        }
        if let Some(after_let) = strip_leading_word(text, "let") {
            // `let x = <block expr> {` — the tail value is invisible.
            let pat = after_let
                .split('=')
                .next()
                .unwrap_or(after_let)
                .split(':')
                .next()
                .unwrap_or(after_let);
            self.bind_pattern(pat, Val::UNKNOWN, env);
            return;
        }
        self.eval(text, env, stmt.line);
    }

    /// Executes one simple statement.
    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut Env) {
        let text = stmt.text.trim();
        if let Some(after_let) = strip_leading_word(text, "let") {
            let after_let = strip_leading_word(after_let.trim_start(), "mut").unwrap_or(after_let);
            let Some(eq) = top_level_assign(after_let) else {
                self.bind_pattern(after_let, Val::UNKNOWN, env);
                return;
            };
            let (lhs, rhs) = (&after_let[..eq], &after_let[eq + 1..]);
            let val = self.eval(rhs, env, stmt.line);
            let pat = lhs.split(':').next().unwrap_or(lhs);
            self.bind_pattern(pat, val, env);
            return;
        }
        for kw in ["return", "break"] {
            if let Some(rest) = strip_leading_word(text, kw) {
                self.eval(rest, env, stmt.line);
                return;
            }
        }
        // Compound assignment `x op= rhs` desugars to `x = x op rhs`.
        for (op_text, op) in [
            ("+=", "+"),
            ("-=", "-"),
            ("*=", "*"),
            ("<<=", "<<"),
            (">>=", ">>"),
            ("/=", "/"),
            ("%=", "%"),
            ("|=", "|"),
            ("&=", "&"),
            ("^=", "^"),
        ] {
            if let Some(at) = find_top_level(text, op_text) {
                let (lhs, rhs) = (&text[..at], &text[at + op_text.len()..]);
                let base = self.place_value(lhs, env);
                let rv = self.eval(rhs, env, stmt.line);
                let result = self.apply_binop(op, base, rv, stmt.line);
                self.assign_place(lhs, result, env);
                return;
            }
        }
        if let Some(eq) = top_level_assign(text) {
            let (lhs, rhs) = (&text[..eq], &text[eq + 1..]);
            let val = self.eval(rhs, env, stmt.line);
            self.assign_place(lhs, val, env);
            return;
        }
        self.eval(text, env, stmt.line);
    }

    /// Current abstract value of an assignment target.
    fn place_value(&mut self, lhs: &str, env: &Env) -> Val {
        let lhs = lhs.trim().trim_start_matches('*');
        match env.get(lhs) {
            Some(&v) => v,
            None => Val::UNKNOWN,
        }
    }

    /// Writes to an assignment target; non-trivial places (indexing,
    /// fields) are invisible to the environment.
    fn assign_place(&mut self, lhs: &str, val: Val, env: &mut Env) {
        let lhs = lhs.trim().trim_start_matches('*');
        if idents_of(lhs).len() == 1 && lhs.chars().all(is_ident_char) {
            self.bind_one(lhs, val, env);
        }
    }

    /// Binds every identifier of a pattern. Annotated names bound from
    /// an unanalyzable source re-seed to their declared interval.
    fn bind_pattern(&mut self, pat: &str, val: Val, env: &mut Env) {
        let names = idents_of(pat);
        let distribute = names.len() == 1;
        for name in names {
            if matches!(name.as_str(), "mut" | "ref" | "_" | "box") {
                continue;
            }
            let v = if distribute { val } else { Val::UNKNOWN };
            self.bind_one(&name, v, env);
        }
    }

    fn bind_one(&mut self, name: &str, val: Val, env: &mut Env) {
        let val = if !val.tracked && val.iv.is_top() {
            match self.seeds.get(name) {
                // Re-seed: the annotation is the documented bound for
                // whatever source the analysis could not see.
                Some(&iv) => Val { iv, tracked: true },
                None => val,
            }
        } else {
            val
        };
        env.insert(name.to_string(), val);
    }

    /// Applies one binary operator, checking budgeted non-saturating
    /// arithmetic.
    fn apply_binop(&mut self, op: &str, a: Val, b: Val, line: usize) -> Val {
        let tracked = a.tracked || b.tracked;
        let iv = match op {
            "+" => a.iv.add(b.iv),
            "-" => a.iv.sub(b.iv),
            "*" => a.iv.mul(b.iv),
            "<<" => a.iv.shl(b.iv),
            ">>" => a.iv.shr(b.iv),
            "/" => a.iv.div(b.iv),
            "%" => a.iv.rem(b.iv),
            _ => Interval::TOP,
        };
        let checked: Option<&'static str> = match op {
            "+" => Some("+"),
            "-" => Some("-"),
            "*" => Some("*"),
            "<<" => Some("<<"),
            _ => None,
        };
        if let Some(op_name) = checked {
            if tracked && self.collect {
                self.ops_seen.insert((line, op_name));
                if a.iv.is_top() || b.iv.is_top() {
                    self.findings.insert((
                        line,
                        format!(
                            "cannot bound non-saturating `{op_name}` over budgeted data: \
                             an operand has no derivable interval — annotate its source \
                             with `lint:budget(i32: ...)` or use a saturating op"
                        ),
                    ));
                } else if !iv.fits_i32() {
                    self.findings.insert((
                        line,
                        format!(
                            "non-saturating `{op_name}` on budgeted data can leave i32: \
                             result range {} exceeds [-2^31, 2^31); tighten the declared \
                             budget or use `saturating_{}`",
                            iv.render(),
                            match op_name {
                                "+" => "add",
                                "-" => "sub",
                                "*" => "mul",
                                _ => "shl",
                            }
                        ),
                    ));
                }
            }
        }
        Val { iv, tracked }
    }

    /// Negation with the same wrap check.
    fn apply_neg(&mut self, a: Val, line: usize) -> Val {
        let iv = a.iv.neg();
        if a.tracked && self.collect {
            self.ops_seen.insert((line, "neg"));
            if a.iv.is_top() {
                self.findings.insert((
                    line,
                    "cannot bound negation over budgeted data: the operand has no \
                     derivable interval"
                        .to_string(),
                ));
            } else if !iv.fits_i32() {
                self.findings.insert((
                    line,
                    format!(
                        "negation of budgeted data can leave i32: result range {}",
                        iv.render()
                    ),
                ));
            }
        }
        Val {
            iv,
            tracked: a.tracked,
        }
    }

    /// Evaluates one expression string.
    fn eval(&mut self, text: &str, env: &Env, line: usize) -> Val {
        if self.fuel > 64 {
            return Val::UNKNOWN;
        }
        self.fuel += 1;
        let val = self.eval_inner(text, env, line);
        self.fuel -= 1;
        val
    }

    fn eval_inner(&mut self, text: &str, env: &Env, line: usize) -> Val {
        let tokens = tokenize(text);
        let mut parser = ExprParser {
            tokens: &tokens,
            at: 0,
            env,
            line,
        };
        parser.parse_expr(self, 0)
    }
}

/// Joins `then` into `base` against the `entry` state: a variable ends
/// up as the hull of "block ran" and "block skipped".
fn join_env(base: &mut Env, entry: &Env, after: &Env) {
    let names: BTreeSet<&String> = entry.keys().chain(after.keys()).collect();
    for name in names {
        let a = entry.get(name).copied().unwrap_or(Val::UNKNOWN);
        let b = after.get(name).copied().unwrap_or(Val::UNKNOWN);
        base.insert(
            name.clone(),
            Val {
                iv: a.iv.join(b.iv),
                tracked: a.tracked || b.tracked,
            },
        );
    }
}

/// Strips a leading word-bounded keyword; `None` when absent.
fn strip_leading_word<'t>(text: &'t str, word: &str) -> Option<&'t str> {
    let t = text.trim_start();
    let rest = t.strip_prefix(word)?;
    if rest.chars().next().is_some_and(is_ident_char) {
        return None;
    }
    Some(rest)
}

/// Position of a top-level plain `=` (not `==`, `=>`, `<=`, `>=`, `!=`,
/// or a compound assignment).
fn top_level_assign(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut depth = 0i32;
    for at in 0..bytes.len() {
        match bytes[at] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'=' if depth == 0 => {
                let prev = at.checked_sub(1).map(|p| bytes[p]);
                let next = bytes.get(at + 1);
                let compound = matches!(
                    prev,
                    Some(
                        b'=' | b'!'
                            | b'<'
                            | b'>'
                            | b'+'
                            | b'-'
                            | b'*'
                            | b'/'
                            | b'%'
                            | b'&'
                            | b'|'
                            | b'^'
                    )
                );
                if !compound && next != Some(&b'=') && next != Some(&b'>') {
                    return Some(at);
                }
            }
            _ => {}
        }
    }
    None
}

/// Position of a top-level occurrence of a multi-char operator.
fn find_top_level(text: &str, op: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let ob = op.as_bytes();
    let mut depth = 0i32;
    let mut at = 0usize;
    while at < bytes.len() {
        match bytes[at] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            _ => {}
        }
        if depth == 0 && bytes[at..].starts_with(ob) {
            // `<<=` must not be found as `<=`/`=`-family confusions:
            // require the char before to not extend the operator.
            let prev = at.checked_sub(1).map(|p| bytes[p]);
            let extends = matches!(prev, Some(b'<' | b'>' | b'=' | b'!'))
                && (ob[0] == b'<' || ob[0] == b'>' || ob[0] == b'=');
            if !extends {
                return Some(at);
            }
        }
        at += 1;
    }
    None
}

// ---------------------------------------------------------------------
// Expression tokens and parser
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Int(i128),
    Ident(String),
    Op(&'static str),
    Open(char),
    Close(char),
    Comma,
    Semi,
    Dot,
    PathSep,
    Other,
}

/// Operators, longest first so `<=`/`<<` win over bare `<`.
const OPS: [&str; 23] = [
    "<<=", ">>=", "..=", "&&", "||", "==", "!=", "<=", ">=", "<<", ">>", "->", "=>", "..", "+",
    "-", "*", "/", "%", "&", "|", "<", ">",
];

fn tokenize(text: &str) -> Vec<Tok> {
    let chars: Vec<char> = text.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            if c == '0' && matches!(chars.get(i + 1), Some('x' | 'X' | 'b' | 'o')) {
                i += 2;
            }
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let lit: String = chars[start..i].iter().collect();
            toks.push(match parse_int_literal(&lit) {
                Some(v) => Tok::Int(v),
                None => Tok::Other,
            });
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            toks.push(Tok::Ident(chars[start..i].iter().collect()));
            continue;
        }
        if c == ':' && chars.get(i + 1) == Some(&':') {
            toks.push(Tok::PathSep);
            i += 2;
            continue;
        }
        let rest: String = chars[i..].iter().collect();
        if let Some(op) = OPS.iter().find(|op| rest.starts_with(**op)) {
            toks.push(Tok::Op(op));
            i += op.len();
            continue;
        }
        toks.push(match c {
            '(' | '[' | '{' => Tok::Open(c),
            ')' | ']' | '}' => Tok::Close(c),
            ',' => Tok::Comma,
            ';' => Tok::Semi,
            '.' => Tok::Dot,
            _ => Tok::Other,
        });
        i += 1;
    }
    toks
}

/// Parses a Rust integer literal (dec/hex/bin/oct, `_` separators, type
/// suffix).
fn parse_int_literal(lit: &str) -> Option<i128> {
    let clean: String = lit.chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(rest) = clean.strip_prefix("0x").or(clean.strip_prefix("0X"))
    {
        (rest, 16)
    } else if let Some(rest) = clean.strip_prefix("0b") {
        (rest, 2)
    } else if let Some(rest) = clean.strip_prefix("0o") {
        (rest, 8)
    } else {
        (clean.as_str(), 10)
    };
    // Strip a type suffix (`123i64`, `0xFFu32`).
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    let suffix = &digits[end..];
    const SUFFIXES: [&str; 13] = [
        "", "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize",
    ];
    if !SUFFIXES.contains(&suffix) {
        return None;
    }
    i128::from_str_radix(&digits[..end], radix).ok()
}

/// Integer-type range constants the evaluator knows (`i32::MAX`, ...).
fn type_const(ty: &str, name: &str) -> Option<i128> {
    let (lo, hi): (i128, i128) = match ty {
        "i8" => (i128::from(i8::MIN), i128::from(i8::MAX)),
        "i16" => (i128::from(i16::MIN), i128::from(i16::MAX)),
        "i32" => (i128::from(i32::MIN), i128::from(i32::MAX)),
        "i64" => (i128::from(i64::MIN), i128::from(i64::MAX)),
        "u8" => (0, i128::from(u8::MAX)),
        "u16" => (0, i128::from(u16::MAX)),
        "u32" => (0, i128::from(u32::MAX)),
        "u64" => (0, i128::from(u64::MAX)),
        _ => return None,
    };
    match name {
        "MIN" => Some(lo),
        "MAX" => Some(hi),
        _ => None,
    }
}

struct ExprParser<'t, 'e> {
    tokens: &'t [Tok],
    at: usize,
    env: &'e Env,
    line: usize,
}

impl ExprParser<'_, '_> {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.at)
    }

    fn bump(&mut self) -> Option<&Tok> {
        let t = self.tokens.get(self.at);
        if t.is_some() {
            self.at += 1;
        }
        t
    }

    /// Precedence-climbing expression parser. Levels (loosest first):
    /// ranges/logic/comparison (result unknown), bitops, shifts,
    /// additive, multiplicative, `as` casts, unary, postfix, primary.
    fn parse_expr(&mut self, interp: &mut Interp<'_>, min_level: u8) -> Val {
        let mut lhs = self.parse_unary(interp);
        while let Some(Tok::Op(op)) = self.peek() {
            let op = *op;
            let level = match op {
                "*" | "/" | "%" => 6,
                "+" | "-" => 5,
                "<<" | ">>" => 4,
                "&" => 3,
                "|" => 3,
                // `->`/`=>` and turbofish are tokenized before bare
                // `<`/`>` reach operator position, so these are
                // comparisons — a bool result carries no budget taint.
                "==" | "!=" | "<=" | ">=" | "<" | ">" => 2,
                ".." | "..=" => 1,
                "&&" | "||" => 1,
                _ => return lhs, // `->`, `=>`, compound assigns: stop.
            };
            if level < min_level {
                break;
            }
            self.at += 1;
            let rhs = self.parse_expr(interp, level + 1);
            lhs = match level {
                4..=6 => interp.apply_binop(op, lhs, rhs, self.line),
                3 => Val {
                    iv: Interval::TOP,
                    tracked: lhs.tracked || rhs.tracked,
                },
                _ => Val::UNKNOWN,
            };
        }
        lhs
    }

    fn parse_unary(&mut self, interp: &mut Interp<'_>) -> Val {
        match self.peek() {
            Some(Tok::Op("-")) => {
                self.at += 1;
                let v = self.parse_unary(interp);
                interp.apply_neg(v, self.line)
            }
            Some(Tok::Op("&")) => {
                self.at += 1;
                // `&mut x` / `&x`: a reference to the same value.
                if matches!(self.peek(), Some(Tok::Ident(m)) if m == "mut") {
                    self.at += 1;
                }
                self.parse_unary(interp)
            }
            Some(Tok::Op("*")) => {
                self.at += 1;
                self.parse_unary(interp)
            }
            Some(Tok::Other) => {
                self.at += 1;
                self.parse_unary(interp)
            }
            _ => self.parse_postfix(interp),
        }
    }

    fn parse_postfix(&mut self, interp: &mut Interp<'_>) -> Val {
        let mut val = self.parse_primary(interp);
        loop {
            match self.peek() {
                Some(Tok::Dot) => {
                    self.at += 1;
                    let Some(Tok::Ident(name)) = self.bump().cloned() else {
                        return val;
                    };
                    // Turbofish after a method name.
                    self.skip_generics();
                    if matches!(self.peek(), Some(Tok::Open('('))) {
                        let args = self.parse_args(interp);
                        val = method_value(interp, &name, val, &args, self.line);
                    } else {
                        // Field access: invisible to the environment.
                        val = Val {
                            iv: Interval::TOP,
                            tracked: false,
                        };
                    }
                }
                Some(Tok::Open('[')) => {
                    // Indexing: element values are not tracked.
                    self.skip_group('[', ']', interp);
                    val = Val::UNKNOWN;
                }
                Some(Tok::Ident(kw)) if kw == "as" => {
                    self.at += 1;
                    let target = match self.bump() {
                        Some(Tok::Ident(ty)) => ty.clone(),
                        _ => String::new(),
                    };
                    val = cast_value(val, &target);
                }
                _ => return val,
            }
        }
    }

    fn parse_primary(&mut self, interp: &mut Interp<'_>) -> Val {
        match self.bump().cloned() {
            Some(Tok::Int(v)) => Val::exact(v),
            Some(Tok::Open('(')) => {
                let vals = self.parse_group_elems(')', interp);
                if vals.len() == 1 {
                    vals[0]
                } else {
                    Val::UNKNOWN
                }
            }
            Some(Tok::Open('[')) => {
                // Array literal (or `[init; len]`): elements evaluated
                // for checking, aggregate value untracked.
                let _ = self.parse_group_elems(']', interp);
                Val::UNKNOWN
            }
            Some(Tok::Open('{')) => {
                let _ = self.parse_group_elems('}', interp);
                Val::UNKNOWN
            }
            Some(Tok::Ident(name)) => self.parse_path_or_call(&name, interp),
            _ => Val::UNKNOWN,
        }
    }

    /// Parses `name`, `a::b::c`, or a call of either; returns its value.
    fn parse_path_or_call(&mut self, first: &str, interp: &mut Interp<'_>) -> Val {
        let mut segments = vec![first.to_string()];
        while matches!(self.peek(), Some(Tok::PathSep)) {
            self.at += 1;
            self.skip_generics();
            match self.bump().cloned() {
                Some(Tok::Ident(seg)) => segments.push(seg),
                _ => break,
            }
        }
        if matches!(self.peek(), Some(Tok::Open('('))) {
            let args = self.parse_args(interp);
            return call_value(&segments, &args);
        }
        if segments.len() >= 2 {
            let ty = &segments[segments.len() - 2];
            let name = &segments[segments.len() - 1];
            if let Some(v) = type_const(ty, name) {
                return Val::exact(v);
            }
            return Val::UNKNOWN;
        }
        match self.env.get(first) {
            Some(&v) => v,
            None => Val::UNKNOWN,
        }
    }

    /// Parses a parenthesized argument list; returns each argument's
    /// value (evaluated, so nested ops are checked).
    fn parse_args(&mut self, interp: &mut Interp<'_>) -> Vec<Val> {
        // Consume the '('.
        self.at += 1;
        let mut args = Vec::new();
        loop {
            match self.peek() {
                None => return args,
                Some(Tok::Close(')')) => {
                    self.at += 1;
                    return args;
                }
                Some(Tok::Comma) => {
                    self.at += 1;
                }
                _ => {
                    let before = self.at;
                    args.push(self.parse_expr(interp, 0));
                    if self.at == before {
                        self.at += 1; // Always make progress.
                    }
                }
            }
        }
    }

    /// Elements of a bracketed group after its opener was consumed.
    fn parse_group_elems(&mut self, close: char, interp: &mut Interp<'_>) -> Vec<Val> {
        let mut vals = Vec::new();
        loop {
            match self.peek() {
                None => return vals,
                Some(Tok::Close(c)) if *c == close => {
                    self.at += 1;
                    return vals;
                }
                Some(Tok::Comma | Tok::Semi) => {
                    self.at += 1;
                }
                _ => {
                    let before = self.at;
                    vals.push(self.parse_expr(interp, 0));
                    if self.at == before {
                        self.at += 1;
                    }
                }
            }
        }
    }

    /// Skips a balanced group without collecting values.
    fn skip_group(&mut self, open: char, close: char, interp: &mut Interp<'_>) {
        if !matches!(self.peek(), Some(Tok::Open(c)) if *c == open) {
            return;
        }
        self.at += 1;
        loop {
            match self.peek() {
                None => return,
                Some(Tok::Close(c)) if *c == close => {
                    self.at += 1;
                    return;
                }
                Some(Tok::Comma | Tok::Semi) => {
                    self.at += 1;
                }
                _ => {
                    let before = self.at;
                    let _ = self.parse_expr(interp, 0);
                    if self.at == before {
                        self.at += 1;
                    }
                }
            }
        }
    }

    /// Skips turbofish/generic argument tokens after `::`.
    fn skip_generics(&mut self) {
        if !matches!(self.peek(), Some(Tok::Op("<"))) {
            return;
        }
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t {
                Tok::Op("<") | Tok::Op("<<") => {
                    depth += if matches!(t, Tok::Op("<<")) { 2 } else { 1 }
                }
                Tok::Op(">") | Tok::Op(">>") => {
                    depth -= if matches!(t, Tok::Op(">>")) { 2 } else { 1 };
                    if depth <= 0 {
                        self.at += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.at += 1;
        }
    }
}

/// Value of a method call on `recv`.
fn method_value(interp: &mut Interp<'_>, name: &str, recv: Val, args: &[Val], line: usize) -> Val {
    let arg0 = args.first().copied().unwrap_or(Val::UNKNOWN);
    match name {
        // Saturating arithmetic can never wrap: the result stays inside
        // the mathematical interval (clamping only moves values inward).
        "saturating_add" => Val {
            iv: recv.iv.add(arg0.iv),
            tracked: recv.tracked || arg0.tracked,
        },
        "saturating_sub" => Val {
            iv: recv.iv.sub(arg0.iv),
            tracked: recv.tracked || arg0.tracked,
        },
        "saturating_mul" => Val {
            iv: recv.iv.mul(arg0.iv),
            tracked: recv.tracked || arg0.tracked,
        },
        "saturating_neg" | "saturating_abs" => Val {
            iv: recv.iv.abs_i().join(recv.iv.neg()),
            tracked: recv.tracked,
        },
        // Wrapping/unchecked arithmetic on budgeted data destroys the
        // bound; keep the taint so downstream use is reported.
        "wrapping_add" | "wrapping_sub" | "wrapping_mul" | "wrapping_neg" | "wrapping_shl" => Val {
            iv: Interval::TOP,
            tracked: recv.tracked || arg0.tracked,
        },
        "min" => Val {
            iv: recv.iv.min_i(arg0.iv),
            tracked: recv.tracked || arg0.tracked,
        },
        "max" => Val {
            iv: recv.iv.max_i(arg0.iv),
            tracked: recv.tracked || arg0.tracked,
        },
        "clamp" => {
            let arg1 = args.get(1).copied().unwrap_or(Val::UNKNOWN);
            Val {
                iv: recv.iv.clamp_i(arg0.iv, arg1.iv),
                tracked: recv.tracked,
            }
        }
        "abs" => interp.apply_neg_free(recv, line),
        "unsigned_abs" => Val {
            iv: recv.iv.abs_i(),
            tracked: recv.tracked,
        },
        _ => Val::UNKNOWN,
    }
}

impl Interp<'_> {
    /// `.abs()` is `-x` on the negative side: same wrap check at
    /// `i32::MIN`, then the non-negative hull.
    fn apply_neg_free(&mut self, a: Val, line: usize) -> Val {
        let checked = self.apply_neg(a, line);
        Val {
            iv: a.iv.abs_i(),
            tracked: checked.tracked,
        }
    }
}

/// Value of a free/path function call.
fn call_value(segments: &[String], args: &[Val]) -> Val {
    let last = segments.last().map(String::as_str).unwrap_or("");
    let arg0 = args.first().copied().unwrap_or(Val::UNKNOWN);
    match last {
        // Lossless widening conversions preserve the value.
        "from" if segments.len() >= 2 => {
            let ty = segments[segments.len() - 2].as_str();
            if matches!(
                ty,
                "i16" | "i32" | "i64" | "i128" | "u16" | "u32" | "u64" | "u128"
            ) {
                arg0
            } else {
                Val::UNKNOWN
            }
        }
        "min" => Val {
            iv: arg0.iv.min_i(args.get(1).map_or(Interval::TOP, |v| v.iv)),
            tracked: args.iter().any(|a| a.tracked),
        },
        "max" => Val {
            iv: arg0.iv.max_i(args.get(1).map_or(Interval::TOP, |v| v.iv)),
            tracked: args.iter().any(|a| a.tracked),
        },
        _ => Val::UNKNOWN,
    }
}

/// Value after an `as` cast: preserved when it provably fits the
/// target, else the target's full range (the cast may wrap, which is
/// the cast lints' concern, not a bound the analysis may keep).
fn cast_value(val: Val, target: &str) -> Val {
    let range = match target {
        "i8" => Interval::new(i128::from(i8::MIN), i128::from(i8::MAX)),
        "i16" => Interval::new(i128::from(i16::MIN), i128::from(i16::MAX)),
        "i32" => Interval::new(i128::from(i32::MIN), i128::from(i32::MAX)),
        "i64" => Interval::new(i128::from(i64::MIN), i128::from(i64::MAX)),
        "u8" => Interval::new(0, i128::from(u8::MAX)),
        "u16" => Interval::new(0, i128::from(u16::MAX)),
        "u32" => Interval::new(0, i128::from(u32::MAX)),
        "u64" | "usize" => Interval::new(0, i128::from(u64::MAX)),
        _ => return Val::UNKNOWN,
    };
    if range.lo <= val.iv.lo && val.iv.hi <= range.hi {
        val
    } else {
        Val {
            iv: range,
            tracked: val.tracked,
        }
    }
}

// ---------------------------------------------------------------------
// Unit-of-measure inference (L013 support)
// ---------------------------------------------------------------------

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
pub fn unit_of(ident: &str) -> Option<&'static str> {
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
    for (suffix, unit) in UNIT_SUFFIXES {
        if ident.len() > suffix.len() && ident.ends_with(suffix) {
            // `_symbols` must win over `_s`: longest-suffix order above.
            return Some(unit);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::Section;
    use crate::rules::classify;

    fn record(src: &str) -> FileRecord {
        FileRecord::parse(
            "crates/phy/src/fix.rs",
            Section::Src,
            classify("carpool-phy"),
            src,
        )
    }

    fn only_fn(file: &FileRecord) -> &FnItem {
        &file.items.fns[0]
    }

    #[test]
    fn setup_fn_names() {
        assert!(is_setup_fn("new"));
        assert!(is_setup_fn("new_rician"));
        assert!(is_setup_fn("with_obs"));
        assert!(is_setup_fn("build"));
        assert!(is_setup_fn("from_bits"));
        assert!(is_setup_fn("default"));
        assert!(!is_setup_fn("transmit"));
        assert!(!is_setup_fn("renew_lease"));
        assert!(!is_setup_fn("newton_step"));
    }

    #[test]
    fn budget_annotation_grammar() {
        let src = "\
// lint:budget(i32: la, lb in ±2^20)
// lint:budget(i32: ±1000)
fn f(la: i32, lb: i32) {}
";
        let file = record(src);
        let specs = budget_specs(&file, only_fn(&file));
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].names, ["la", "lb"]);
        assert_eq!(specs[0].bound, 1 << 20);
        assert!(specs[1].names.is_empty());
        assert_eq!(specs[1].bound, 1000);
    }

    #[test]
    fn budget_proves_the_viterbi_cost_shape() {
        let src = "\
// lint:budget(i32: la, lb in ±2^20)
fn acs(lattice: &[(i32, i32)]) -> i32 {
    let mut best = 0i32;
    for &(la, lb) in lattice.iter() {
        let costs = [la + lb, la - lb, lb - la, -la - lb];
        best = best.saturating_add(costs[0]);
    }
    best
}
";
        let file = record(src);
        let specs = budget_specs(&file, only_fn(&file));
        let report = check_budget_fn(&file, only_fn(&file), &specs);
        assert!(
            report.findings.is_empty(),
            "±2^20 inputs prove the budget: {:?}",
            report.findings
        );
        assert!(report.ops_checked >= 3, "ops: {}", report.ops_checked);
    }

    #[test]
    fn comparison_results_drop_budget_taint() {
        // The real ACS butterfly: metrics flow through comparisons into
        // bool survivor bits, which are packed with `<<`. A bool cannot
        // wrap, so the shift over `u64::from(t)` must not be flagged.
        let src = "\
// lint:budget(i32: d in ±2^21)
fn acs_step(costs: &[i32; 4], cur: &[i32; 64], nxt: &mut [i32; 64]) -> u64 {
    let mut word = 0u64;
    for j in 0..32 {
        let m0 = cur[j];
        let m1 = cur[j + 32];
        let d = costs[PAIR_CODE[j]];
        let a0 = m0.saturating_add(d);
        let b0 = m1.saturating_sub(d);
        let t0 = b0 < a0;
        nxt[2 * j] = if t0 { b0 } else { a0 };
        let a1 = m0.saturating_sub(d);
        let b1 = m1.saturating_add(d);
        let t1 = b1 < a1;
        nxt[2 * j + 1] = if t1 { b1 } else { a1 };
        word |= (u64::from(t0) | (u64::from(t1) << 1)) << (2 * j);
    }
    word
}
";
        let file = record(src);
        let specs = budget_specs(&file, only_fn(&file));
        assert_eq!(specs.len(), 1);
        let report = check_budget_fn(&file, only_fn(&file), &specs);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn broken_budget_bound_is_caught() {
        let src = "\
// lint:budget(i32: la, lb in ±2^30)
fn acs(lattice: &[(i32, i32)]) -> i32 {
    let mut best = 0i32;
    for &(la, lb) in lattice.iter() {
        let sum = la + lb;
        best = best.saturating_add(sum);
    }
    best
}
";
        let file = record(src);
        let specs = budget_specs(&file, only_fn(&file));
        let report = check_budget_fn(&file, only_fn(&file), &specs);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert!(report.findings[0].message.contains("can leave i32"));
        assert_eq!(report.findings[0].line, 5);
    }

    #[test]
    fn unbounded_operand_is_unprovable() {
        let src = "\
// lint:budget(i32: q in ±2^20)
fn f(q: i32, raw: i32) -> i32 {
    q + raw
}
";
        let file = record(src);
        let specs = budget_specs(&file, only_fn(&file));
        let report = check_budget_fn(&file, only_fn(&file), &specs);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("cannot bound"));
    }

    #[test]
    fn saturating_and_untracked_ops_are_silent() {
        let src = "\
// lint:budget(i32: q in ±2^20)
fn f(q: i32, ticks: usize) -> i32 {
    let t2 = ticks + 1;
    let _ = t2 * 2;
    q.saturating_add(q).saturating_mul(2)
}
";
        let file = record(src);
        let specs = budget_specs(&file, only_fn(&file));
        let report = check_budget_fn(&file, only_fn(&file), &specs);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn loop_accumulation_widens_to_a_finding() {
        let src = "\
// lint:budget(i32: step in ±100)
fn f(steps: &[i32]) -> i32 {
    let mut acc = 0;
    for &step in steps {
        acc = acc + step;
    }
    acc
}
";
        let file = record(src);
        let specs = budget_specs(&file, only_fn(&file));
        let report = check_budget_fn(&file, only_fn(&file), &specs);
        // `acc` grows without bound across iterations; widening makes
        // the accumulation unprovable rather than looping forever.
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    }

    #[test]
    fn clamped_values_are_bounded() {
        let src = "\
// lint:budget(i32: raw in ±2^30)
fn f(raw: i32) -> i32 {
    let q = raw.clamp(-1024, 1024);
    q * 1024
}
";
        let file = record(src);
        let specs = budget_specs(&file, only_fn(&file));
        let report = check_budget_fn(&file, only_fn(&file), &specs);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn param_names_align_with_call_positions() {
        let src = "\
impl S {
    fn go(&mut self, airtime_s: f64, n_symbols: usize) {}
}
fn free(delay_us: f64, (a, b): (u8, u8)) {}
";
        let file = record(src);
        let go = file.items.fns.iter().find(|f| f.name == "go");
        let free = file.items.fns.iter().find(|f| f.name == "free");
        let go = go.map(|f| param_names(&file, f)).unwrap_or_default();
        assert_eq!(
            go,
            [vec!["airtime_s".to_string()], vec!["n_symbols".to_string()]]
        );
        let free = free.map(|f| param_names(&file, f)).unwrap_or_default();
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
