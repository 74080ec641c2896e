//! The numerical-soundness rules, the suppression grammar, and the manifest
//! (dep-policy) audit.
//!
//! Rules operate on the token stream from [`crate::lex`] with the per-token
//! contexts from [`crate::context`]. They are heuristics tuned for this
//! workspace — see DESIGN.md § Lint for the exact catalog and the rationale
//! behind each exemption.

use crate::context::{contexts, ContextMap};
use crate::lex::{lex, Comment, TokKind, Token};
use std::collections::BTreeSet;

/// Stable rule identifiers (these appear in suppressions and the baseline).
pub const FLOAT_EQ: &str = "float-eq";
pub const PANIC_IN_LIB: &str = "panic-in-lib";
pub const LOSSY_CAST: &str = "lossy-cast";
pub const MAGIC_EPSILON: &str = "magic-epsilon";
pub const DEP_POLICY: &str = "dep-policy";
pub const SLICE_INDEX: &str = "slice-index";
pub const SUPPRESSION: &str = "suppression";
// Semantic (workspace-phase) rules — see `crate::semantic` and DESIGN.md
// § Lint v2. They need the item AST, the symbol table, and the call graph,
// so they run only in `--workspace` mode, not on single files.
pub const NONDET_ITERATION: &str = "nondet-iteration";
pub const NONDET_REDUCTION: &str = "nondet-reduction";
pub const AMBIENT_ENTROPY: &str = "ambient-entropy";
pub const PANIC_PATH: &str = "panic-path";
pub const NUMERIC_PROVENANCE: &str = "numeric-provenance";

/// All rule ids, for `--rules` validation and docs.
pub const ALL_RULES: &[&str] = &[
    FLOAT_EQ,
    PANIC_IN_LIB,
    LOSSY_CAST,
    MAGIC_EPSILON,
    DEP_POLICY,
    SLICE_INDEX,
    SUPPRESSION,
    NONDET_ITERATION,
    NONDET_REDUCTION,
    AMBIENT_ENTROPY,
    PANIC_PATH,
    NUMERIC_PROVENANCE,
];

/// Rules enabled by default. `slice-index` is opt-in workspace-wide but
/// *promoted to default* for the crates in [`SLICE_INDEX_DEFAULT_CRATES`]
/// (see ROADMAP.md for the decision); `suppression` (malformed suppression
/// comments) is always on and cannot be disabled.
pub fn default_rules() -> BTreeSet<String> {
    [
        FLOAT_EQ,
        PANIC_IN_LIB,
        LOSSY_CAST,
        MAGIC_EPSILON,
        DEP_POLICY,
        SUPPRESSION,
        NONDET_ITERATION,
        NONDET_REDUCTION,
        AMBIENT_ENTROPY,
        PANIC_PATH,
        NUMERIC_PROVENANCE,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Crates whose library sources get `slice-index` whether or not the run
/// opted in: the dense and sparse kernels in `linalg` and the simplex in
/// `lp` are the workspace's hottest indexing code, where an out-of-bounds
/// index is a solver-state corruption bug rather than a recoverable input
/// error.
pub const SLICE_INDEX_DEFAULT_CRATES: &[&str] = &["crates/lp/", "crates/linalg/"];

/// Whether `slice-index` applies to `rel_path` under `cfg`: enabled
/// globally by opt-in, or by the per-crate promotion.
fn slice_index_on(cfg: &LintConfig, rel_path: &str) -> bool {
    cfg.on(SLICE_INDEX)
        || SLICE_INDEX_DEFAULT_CRATES
            .iter()
            .any(|p| rel_path.replace('\\', "/").starts_with(p))
}

/// What kind of target a file belongs to — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Library source (`src/` of a workspace crate).
    Lib,
    /// Binary source (`src/bin/`, `src/main.rs`).
    Bin,
    /// Integration tests (`tests/`).
    Test,
    /// Benches and the `testkit`/`bench` crates (panic rules waived).
    Bench,
    /// Examples.
    Example,
}

/// Classifies a workspace-relative path.
pub fn role_for_path(rel: &str) -> Role {
    let rel = rel.replace('\\', "/");
    // Whole crates whose job is test/bench support: panics are their idiom.
    if rel.starts_with("crates/testkit/") || rel.starts_with("crates/bench/") {
        return Role::Bench;
    }
    if rel.contains("/benches/") || rel.starts_with("benches/") {
        return Role::Bench;
    }
    if rel.contains("/tests/") || rel.starts_with("tests/") {
        return Role::Test;
    }
    if rel.contains("/examples/") || rel.starts_with("examples/") {
        return Role::Example;
    }
    if rel.contains("/src/bin/") || rel.ends_with("/main.rs") || rel.ends_with("build.rs") {
        return Role::Bin;
    }
    Role::Lib
}

/// One finding. `fn_name` and `snippet` (not the line number) feed the
/// baseline fingerprint, so baselines survive unrelated edits to the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub fn_name: Option<String>,
    pub snippet: String,
    pub message: String,
}

impl Finding {
    /// Render for the console.
    pub fn display(&self) -> String {
        let ctx = self
            .fn_name
            .as_deref()
            .map(|f| format!(" in {f}"))
            .unwrap_or_default();
        format!(
            "{}:{} [{}]{}: `{}` — {}",
            self.path, self.line, self.rule, ctx, self.snippet, self.message
        )
    }
}

/// Linter configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Enabled rule ids.
    pub rules: BTreeSet<String>,
    /// `.expect("…")` with a message at least this long is treated as an
    /// invariant-documenting expect and allowed in library code.
    pub expect_doc_len: usize,
    /// Inline float literals with |value| below this (and above zero) are
    /// tolerance-scale magic numbers.
    pub epsilon_threshold: f64,
    /// Public entry points whose panic behavior is part of their documented
    /// contract: `panic-path` does not flag them. Entries are either a bare
    /// fn name or `path.rs::fn_name` (workspace-relative path) for
    /// precision.
    pub certified_entries: Vec<String>,
    /// When set, `panic-path` also treats slice/array indexing as a panic
    /// source (the interprocedural analogue of `slice-index`). Off by
    /// default: the kernel crates carry per-file indexing invariants
    /// already audited by the lexical rule.
    pub panic_path_index_sources: bool,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            rules: default_rules(),
            expect_doc_len: 15,
            epsilon_threshold: 1e-4,
            certified_entries: Vec::new(),
            panic_path_index_sources: false,
        }
    }
}

impl LintConfig {
    pub(crate) fn on(&self, rule: &str) -> bool {
        self.rules.contains(rule)
    }
}

/// Everything the lexical phase learned about one file, kept around so the
/// workspace (semantic) phase can build the symbol table and call graph
/// without re-lexing: the token stream, its context map, the item AST, the
/// parsed suppressions, and the lexical findings (not yet split into
/// active/suppressed).
#[derive(Debug)]
pub struct FileAnalysis {
    pub path: String,
    pub role: Role,
    pub tokens: Vec<Token>,
    pub map: ContextMap,
    pub ast: crate::ast::Ast,
    pub suppressions: Vec<Suppression>,
    /// Lexical findings plus malformed-suppression findings, sorted by
    /// `(line, rule, snippet)`.
    pub findings: Vec<Finding>,
}

/// Runs the lexical phase on one file: lex, context-attribute, parse the
/// item AST, and evaluate every per-file rule. Suppressions are parsed but
/// *not* applied — [`apply_suppressions`] does that, after the semantic
/// phase has contributed its findings.
pub fn analyze_file(rel_path: &str, src: &str, cfg: &LintConfig) -> FileAnalysis {
    let role = role_for_path(rel_path);
    let out = lex(src);
    let map = contexts(&out.tokens);
    let ast = crate::ast::parse(&out.tokens, &map);
    let ctx = FileCtx {
        path: rel_path,
        map: &map,
        tokens: &out.tokens,
    };

    let mut findings = Vec::new();
    if cfg.on(FLOAT_EQ) {
        float_eq(&ctx, role, &mut findings);
    }
    if cfg.on(PANIC_IN_LIB) {
        panic_in_lib(&ctx, role, cfg, &mut findings);
    }
    if cfg.on(LOSSY_CAST) {
        lossy_cast(&ctx, role, &mut findings);
    }
    if cfg.on(MAGIC_EPSILON) {
        magic_epsilon(&ctx, role, cfg, &mut findings);
    }
    if slice_index_on(cfg, rel_path) {
        slice_index(&ctx, role, &mut findings);
    }

    let (suppressions, malformed) = parse_suppressions(rel_path, &out.comments);
    findings.extend(malformed);
    findings.sort_by(|a, b| (a.line, a.rule, &a.snippet).cmp(&(b.line, b.rule, &b.snippet)));
    FileAnalysis {
        path: rel_path.to_string(),
        role,
        tokens: out.tokens,
        map,
        ast,
        suppressions,
        findings,
    }
}

/// Splits findings into `(active, suppressed)` under a file's suppressions.
/// `suppression` findings (malformed comments) can never be suppressed.
pub fn apply_suppressions(
    findings: Vec<Finding>,
    suppressions: &[Suppression],
) -> (Vec<Finding>, Vec<Finding>) {
    let mut active = Vec::new();
    let mut suppressed = Vec::new();
    for f in findings {
        let hit = f.rule != SUPPRESSION
            && suppressions
                .iter()
                .any(|s| s.rules.iter().any(|r| r == f.rule) && s.covers(f.line));
        if hit {
            suppressed.push(f);
        } else {
            active.push(f);
        }
    }
    (active, suppressed)
}

/// A `suppression` finding for each of a file's suppressions that
/// silenced none of its `suppressed` findings: a `lint:allow` whose
/// finding is gone. Only a workspace run can tell, since the semantic
/// rules need every file before they report.
pub fn stale_suppressions(
    path: &str,
    suppressions: &[Suppression],
    suppressed: &[Finding],
) -> Vec<Finding> {
    suppressions
        .iter()
        .filter(|s| !suppressed.iter().any(|f| s.allows(f.rule, f.line)))
        .map(|s| Finding {
            rule: SUPPRESSION,
            path: path.to_string(),
            line: s.line,
            fn_name: None,
            snippet: s.text.clone(),
            message: "stale suppression: it silences no finding, so delete it".into(),
        })
        .collect()
}

/// Lints one Rust source file with the per-file (lexical) rules. Returns
/// `(active, suppressed)` findings — suppressed ones carried a valid
/// `lint:allow` and are reported only for accounting. Malformed
/// suppressions become `suppression` findings (which cannot themselves be
/// suppressed). The workspace-phase rules (`nondet-*`, `panic-path`,
/// `numeric-provenance`) need cross-file context and only run under
/// [`crate::workspace::run`].
pub fn lint_source(rel_path: &str, src: &str, cfg: &LintConfig) -> (Vec<Finding>, Vec<Finding>) {
    let fa = analyze_file(rel_path, src, cfg);
    apply_suppressions(fa.findings, &fa.suppressions)
}

// ---------------------------------------------------------------------------
// Suppressions: `// lint:allow(rule[, rule…]): reason`
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub struct Suppression {
    pub rules: Vec<String>,
    /// Line of the comment; covers this line and the next (ignored for
    /// file-scope suppressions).
    pub line: u32,
    /// `lint:allow-file` — covers the whole file. Reserved for files that
    /// are one dense kernel end to end (factorizations, the simplex
    /// tableau), where a per-line suppression on every indexing statement
    /// would outweigh the code.
    pub file_scope: bool,
    /// The comment, as a finding's snippet.
    pub text: String,
}

impl Suppression {
    pub fn covers(&self, line: u32) -> bool {
        self.file_scope || line == self.line || line == self.line + 1
    }

    /// Does this suppression certify `rule` at `line`?
    pub(crate) fn allows(&self, rule: &str, line: u32) -> bool {
        self.covers(line) && self.rules.iter().any(|r| r == rule)
    }
}

/// Parses `lint:allow` comments. A suppression must name at least one known
/// rule and carry a non-empty reason after a colon; anything else is a
/// `suppression` finding.
fn parse_suppressions(rel_path: &str, comments: &[Comment]) -> (Vec<Suppression>, Vec<Finding>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // A suppression comment *starts* with `lint:allow` (after the
        // comment markers) — prose that merely mentions the grammar, like
        // this sentence, is not parsed.
        let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        if !body.starts_with("lint:allow") {
            continue;
        }
        let at = c
            .text
            .find("lint:allow")
            .expect("starts_with checked above");
        let mut fail = |message: String| {
            bad.push(Finding {
                rule: SUPPRESSION,
                path: rel_path.to_string(),
                line: c.line,
                fn_name: None,
                snippet: c.text.trim_start_matches('/').trim().to_string(),
                message,
            });
        };
        let rest = &c.text[at + "lint:allow".len()..];
        let (rest, file_scope) = match rest.strip_prefix("-file") {
            Some(stripped) => (stripped, true),
            None => (rest, false),
        };
        let Some(open) = rest.find('(') else {
            fail("malformed suppression: expected `lint:allow(<rule>): <reason>`".into());
            continue;
        };
        let Some(close) = rest.find(')') else {
            fail("malformed suppression: unclosed rule list".into());
            continue;
        };
        let rules: Vec<String> = rest[open + 1..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            fail("suppression names no rule".into());
            continue;
        }
        if let Some(unknown) = rules.iter().find(|r| !ALL_RULES.contains(&r.as_str())) {
            fail(format!("suppression names unknown rule `{unknown}`"));
            continue;
        }
        if rules.iter().any(|r| r == SUPPRESSION) {
            fail("the `suppression` rule cannot be suppressed".into());
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            fail("suppression requires a written reason: `lint:allow(<rule>): <why>`".into());
            continue;
        }
        ok.push(Suppression {
            rules,
            line: c.line,
            file_scope,
            text: c.text.trim_start_matches('/').trim().to_string(),
        });
    }
    (ok, bad)
}

// ---------------------------------------------------------------------------
// Rule helpers
// ---------------------------------------------------------------------------

pub(crate) fn snippet_around(
    tokens: &[Token],
    center: usize,
    before: usize,
    after: usize,
) -> String {
    let lo = center.saturating_sub(before);
    let hi = (center + after + 1).min(tokens.len());
    let mut s = String::new();
    for t in &tokens[lo..hi] {
        if !s.is_empty()
            && !matches!(
                t.text.as_str(),
                ")" | "]" | "," | ";" | "." | "::" | "(" | "!"
            )
            && !s.ends_with('(')
            && !s.ends_with('.')
            && !s.ends_with("::")
        {
            s.push(' ');
        }
        s.push_str(&t.text);
    }
    if s.len() > 60 {
        s.truncate(60);
    }
    s
}

/// Per-file state shared by every rule: the path plus the token stream and
/// its context map.
#[derive(Clone, Copy)]
struct FileCtx<'a> {
    path: &'a str,
    map: &'a ContextMap,
    tokens: &'a [Token],
}

impl FileCtx<'_> {
    fn push(
        &self,
        findings: &mut Vec<Finding>,
        rule: &'static str,
        i: usize,
        snippet: String,
        message: String,
    ) {
        findings.push(Finding {
            rule,
            path: self.path.to_string(),
            line: self.tokens[i].line,
            fn_name: self.map.fn_name_at(i).map(str::to_owned),
            snippet,
            message,
        });
    }
}

/// Is token `i` clearly float-valued: a float literal, `f64::X` / `f32::X`
/// path, or a unary minus in front of either.
pub(crate) fn is_floatish(tokens: &[Token], i: usize, forward: bool) -> bool {
    let Some(t) = tokens.get(i) else {
        return false;
    };
    if t.kind == TokKind::Float {
        return true;
    }
    if forward {
        // Looking right: `f64::CONST`, `- 1.0`.
        if t.text == "-" {
            return is_floatish(tokens, i + 1, true);
        }
        if matches!(t.text.as_str(), "f64" | "f32")
            && tokens.get(i + 1).is_some_and(|n| n.text == "::")
        {
            return true;
        }
    } else {
        // Looking left: the operand *ends* at `i`; `f64::CONST` ends on the
        // constant ident, preceded by `::` preceded by `f64`.
        if t.kind == TokKind::Ident
            && i >= 2
            && tokens[i - 1].text == "::"
            && matches!(tokens[i - 2].text.as_str(), "f64" | "f32")
        {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// float-eq
// ---------------------------------------------------------------------------

/// Files that *define* the tolerance vocabulary: exact comparisons there are
/// the point, not a hazard.
pub(crate) fn is_tolerance_module(rel: &str) -> bool {
    let name = rel.rsplit('/').next().unwrap_or(rel);
    matches!(name, "approx.rs" | "tol.rs" | "tolerance.rs")
}

fn float_eq(ctx: &FileCtx, role: Role, findings: &mut Vec<Finding>) {
    let FileCtx { path, map, tokens } = *ctx;
    if matches!(role, Role::Test | Role::Bench | Role::Example) || is_tolerance_module(path) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let c = map.ctx[i];
        if c.in_test || c.in_attr {
            continue;
        }
        let floaty =
            (i > 0 && is_floatish(tokens, i - 1, false)) || is_floatish(tokens, i + 1, true);
        if floaty {
            ctx.push(
                findings,
                FLOAT_EQ,
                i,
                snippet_around(tokens, i, 2, 2),
                format!(
                    "exact float `{}` — use the tolerance helpers (hslb_linalg::approx) or \
                     justify with `lint:allow(float-eq): <reason>`",
                    t.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// panic-in-lib
// ---------------------------------------------------------------------------

pub(crate) const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn panic_in_lib(ctx: &FileCtx, role: Role, cfg: &LintConfig, findings: &mut Vec<Finding>) {
    let FileCtx {
        path: _,
        map,
        tokens,
    } = *ctx;
    if role != Role::Lib {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let c = map.ctx[i];
        if c.in_test || c.in_attr {
            continue;
        }
        let next_is = |s: &str| tokens.get(i + 1).is_some_and(|n| n.text == s);
        match t.text.as_str() {
            "unwrap" if i > 0 && tokens[i - 1].text == "." && next_is("(") => {
                ctx.push(
                    findings,
                    PANIC_IN_LIB,
                    i,
                    snippet_around(tokens, i, 3, 1),
                    "`.unwrap()` in library code — propagate a Result or use an \
                     invariant-documenting `.expect(\"…\")`"
                        .into(),
                );
            }
            "expect" if i > 0 && tokens[i - 1].text == "." && next_is("(") => {
                // Only judge `.expect("…")` with a string-literal message:
                // `Option::expect`/`Result::expect` take `&str`, so a short
                // literal is a non-documenting panic. Non-string arguments
                // (e.g. a byte passed to a parser's own `expect` method)
                // are a different function entirely.
                let msg = tokens.get(i + 2);
                let undocumented = msg.is_some_and(|m| {
                    m.kind == TokKind::Str && m.text.len() < cfg.expect_doc_len + 2
                });
                if undocumented {
                    ctx.push(
                        findings,
                        PANIC_IN_LIB,
                        i,
                        snippet_around(tokens, i, 3, 2),
                        format!(
                            "`.expect(…)` without an invariant-documenting message \
                             (≥ {} chars) in library code",
                            cfg.expect_doc_len
                        ),
                    );
                }
            }
            m if PANIC_MACROS.contains(&m) && next_is("!") => {
                ctx.push(
                    findings,
                    PANIC_IN_LIB,
                    i,
                    snippet_around(tokens, i, 0, 3),
                    format!("`{m}!` in library code — return an error instead"),
                );
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// lossy-cast
// ---------------------------------------------------------------------------

const INT_TYPES: &[&str] = &[
    "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128",
];
/// Methods that pin the source of a cast as float-typed.
const FLOAT_METHODS: &[&str] = &[
    "floor", "ceil", "round", "trunc", "sqrt", "abs", "exp", "ln", "powf", "powi", "min", "max",
    "recip", "cbrt",
];

/// Conversion-helper functions are the sanctioned home for casts: a name
/// that says what the conversion means (`ceil_to_i64`, `to_count`, …).
pub(crate) fn is_conversion_helper(name: Option<&str>) -> bool {
    name.is_some_and(|n| n.starts_with("to_") || n.starts_with("as_") || n.contains("_to_"))
}

/// Is the `as` at `i` a clearly float-sourced cast to an integer type?
/// (The detection the lexical `lossy-cast` rule uses; `numeric-provenance`
/// reuses it to audit conversion helpers.)
pub(crate) fn is_lossy_cast_at(tokens: &[Token], i: usize) -> bool {
    if tokens.get(i).is_none_or(|t| t.text != "as") {
        return false;
    }
    let Some(target) = tokens.get(i + 1) else {
        return false;
    };
    // Only float → int casts truncate; int → f64 is exact for every
    // count this workspace produces (< 2^53), so it is allowed.
    if !INT_TYPES.contains(&target.text.as_str()) {
        return false;
    }
    if i == 0 {
        false
    } else if tokens[i - 1].kind == TokKind::Float {
        true
    } else if tokens[i - 1].text == ")" {
        // `x.round() as i64`: the call just before the cast is a float
        // method. Walk back over `( )` to the method name.
        i >= 3
            && tokens[i - 2].text == "("
            && tokens[i - 3].kind == TokKind::Ident
            && FLOAT_METHODS.contains(&tokens[i - 3].text.as_str())
            && i >= 4
            && tokens[i - 4].text == "."
    } else {
        false
    }
}

fn lossy_cast(ctx: &FileCtx, role: Role, findings: &mut Vec<Finding>) {
    let FileCtx {
        path: _,
        map,
        tokens,
    } = *ctx;
    if matches!(role, Role::Test | Role::Bench | Role::Example) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "as" {
            continue;
        }
        let c = map.ctx[i];
        if c.in_test || c.in_attr || is_conversion_helper(map.fn_name_at(i)) {
            continue;
        }
        if is_lossy_cast_at(tokens, i) {
            ctx.push(
                findings,
                LOSSY_CAST,
                i,
                snippet_around(tokens, i, 5, 1),
                "float → int `as` cast truncates — route through a named conversion \
                 helper (`*_to_*` fn) that states the rounding intent"
                    .into(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// magic-epsilon
// ---------------------------------------------------------------------------

fn magic_epsilon(ctx: &FileCtx, role: Role, cfg: &LintConfig, findings: &mut Vec<Finding>) {
    let FileCtx {
        path: _,
        map,
        tokens,
    } = *ctx;
    if role != Role::Lib {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Float {
            continue;
        }
        let c = map.ctx[i];
        if c.in_test || c.in_attr || c.in_const {
            continue;
        }
        let cleaned: String = t
            .text
            .chars()
            .filter(|ch| *ch != '_')
            .take_while(|ch| ch.is_ascii_digit() || matches!(ch, '.' | 'e' | 'E' | '+' | '-'))
            .collect();
        let Ok(v) = cleaned.parse::<f64>() else {
            continue;
        };
        if v > 0.0 && v < cfg.epsilon_threshold {
            ctx.push(
                findings,
                MAGIC_EPSILON,
                i,
                snippet_around(tokens, i, 2, 2),
                format!(
                    "inline tolerance literal `{}` — name it as a `const` so the \
                     tolerance policy is auditable",
                    t.text
                ),
            );
        } else if v >= cfg.epsilon_threshold
            && v < 1.0
            && !is_power_of_two(v)
            && beside_threshold_op(tokens, i)
        {
            // Sub-unit fractions feeding a comparison or a scaling multiply
            // are thresholds/damping factors in disguise (`lambda * 0.3`,
            // `gap < 0.05`). Exact powers of two are exempt: `0.5 * (lo + hi)`
            // midpoints and halving steps are arithmetic, not policy.
            ctx.push(
                findings,
                MAGIC_EPSILON,
                i,
                snippet_around(tokens, i, 2, 2),
                format!(
                    "inline threshold/damping literal `{}` — name it as a `const` \
                     so the policy is auditable",
                    t.text
                ),
            );
        }
    }
}

/// Exact binary fractions (0.5, 0.25, …) have a zero mantissa in IEEE-754;
/// bit test avoids float comparison.
fn is_power_of_two(v: f64) -> bool {
    const MANTISSA_MASK: u64 = (1 << 52) - 1;
    v > 0.0 && v.to_bits() & MANTISSA_MASK == 0
}

/// True when the float at `i` is operand of a comparison or multiplication:
/// the adjacent token (previous, skipping a unary `-`, or next) is one of
/// `<ops>`. Additive uses (`0.5 + 1e6`) are arithmetic and stay clean.
fn beside_threshold_op(tokens: &[Token], i: usize) -> bool {
    const OPS: &[&str] = &["<", ">", "<=", ">=", "*", "*="];
    let is_op = |t: &Token| t.kind == TokKind::Punct && OPS.contains(&t.text.as_str());
    let prev = i
        .checked_sub(1)
        .and_then(|p| {
            if tokens[p].text == "-" {
                p.checked_sub(1)
            } else {
                Some(p)
            }
        })
        .map(|p| &tokens[p]);
    prev.is_some_and(is_op) || tokens.get(i + 1).is_some_and(is_op)
}

// ---------------------------------------------------------------------------
// slice-index (opt-in)
// ---------------------------------------------------------------------------

fn slice_index(ctx: &FileCtx, role: Role, findings: &mut Vec<Finding>) {
    let FileCtx {
        path: _,
        map,
        tokens,
    } = *ctx;
    if role != Role::Lib {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Punct || t.text != "[" {
            continue;
        }
        let c = map.ctx[i];
        if c.in_test || c.in_attr {
            continue;
        }
        // Indexing: `[` directly after an expression end (ident, `)`, `]`).
        let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) else {
            continue;
        };
        // `mut`/`dyn` precede slice *types* (`&mut [f64]`), not indexing.
        let is_index = prev.kind == TokKind::Ident
            && !matches!(
                prev.text.as_str(),
                "return" | "in" | "else" | "match" | "mut" | "dyn"
            )
            || prev.text == ")"
            || prev.text == "]";
        if is_index {
            ctx.push(
                findings,
                SLICE_INDEX,
                i,
                snippet_around(tokens, i, 2, 3),
                "slice/array indexing can panic — prefer `.get()` or document the \
                 bound invariant"
                    .into(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// dep-policy (manifest audit)
// ---------------------------------------------------------------------------

/// Audits one `Cargo.toml`: every dependency must stay inside the workspace
/// (`path = …` or `workspace = true`). External registries, versions, and
/// git dependencies are findings.
pub fn lint_manifest(rel_path: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_dep_table = false; // [dependencies] / [dev-dependencies] / …
    let mut in_dep_entry = false; // [dependencies.foo]
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            let section = line.trim_matches(['[', ']']);
            let is_dep_section = |s: &str| {
                s == "dependencies"
                    || s == "dev-dependencies"
                    || s == "build-dependencies"
                    || s == "workspace.dependencies"
                    || s.ends_with(".dependencies")
                    || s.ends_with(".dev-dependencies")
            };
            in_dep_entry = false;
            in_dep_table = false;
            if is_dep_section(section) {
                in_dep_table = true;
            } else if let Some((head, _name)) = section.rsplit_once('.') {
                if is_dep_section(head) {
                    in_dep_entry = true;
                }
            }
            continue;
        }
        if !in_dep_table && !in_dep_entry {
            continue;
        }
        let mut flag = |message: String| {
            findings.push(Finding {
                rule: DEP_POLICY,
                path: rel_path.to_string(),
                line: (lineno + 1) as u32,
                fn_name: None,
                snippet: line.chars().take(60).collect(),
                message,
            });
        };
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        if in_dep_entry {
            // Inside [dependencies.foo]: only external-source keys are bad.
            if matches!(
                key,
                "version" | "git" | "registry" | "branch" | "tag" | "rev"
            ) {
                flag(format!(
                    "external dependency source `{key}` — only intra-workspace \
                     (path/workspace) dependencies are permitted"
                ));
            }
            continue;
        }
        // Inside a flat dep table: `name = …` entries.
        let ok = key.ends_with(".workspace")
            || value.contains("workspace = true")
            || value.contains("path =");
        if !ok {
            flag(
                "external dependency — only intra-workspace (path/workspace) \
                 dependencies are permitted"
                    .to_string(),
            );
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active(path: &str, src: &str) -> Vec<Finding> {
        lint_source(path, src, &LintConfig::default()).0
    }

    #[test]
    fn float_eq_flags_literal_and_path_operands() {
        let src = "fn f(a: f64) -> bool { a == 0.0 }";
        let f = active("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, FLOAT_EQ);
        assert_eq!(f[0].fn_name.as_deref(), Some("f"));

        let src2 = "fn g(a: f64) -> bool { a != f64::NEG_INFINITY }";
        assert_eq!(active("crates/x/src/lib.rs", src2).len(), 1);
        // Int comparison is fine.
        assert!(active("crates/x/src/lib.rs", "fn h(a: i64) -> bool { a == 0 }").is_empty());
    }

    #[test]
    fn float_eq_exempts_tests_and_tolerance_modules() {
        let src = "#[cfg(test)]\nmod t { fn f(a: f64) -> bool { a == 0.0 } }";
        assert!(active("crates/x/src/lib.rs", src).is_empty());
        let src2 = "fn f(a: f64) -> bool { a == 0.0 }";
        assert!(active("crates/x/src/approx.rs", src2).is_empty());
        assert!(active("crates/x/tests/t.rs", src2).is_empty());
    }

    #[test]
    fn panic_in_lib_flags_unwrap_and_macros() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        let f = active("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, PANIC_IN_LIB);

        assert_eq!(
            active("crates/x/src/lib.rs", "fn f() { panic!(\"boom\") }").len(),
            1
        );
        // Allowed in bins, tests, benches, testkit.
        assert!(active("crates/x/src/bin/tool.rs", src).is_empty());
        assert!(active("crates/testkit/src/lib.rs", src).is_empty());
        assert!(active("crates/x/tests/t.rs", src).is_empty());
    }

    #[test]
    fn documenting_expect_is_allowed() {
        let short = "fn f(x: Option<u8>) -> u8 { x.expect(\"x\") }";
        assert_eq!(active("crates/x/src/lib.rs", short).len(), 1);
        let documented =
            "fn f(x: Option<u8>) -> u8 { x.expect(\"set in new(); never empty here\") }";
        assert!(active("crates/x/src/lib.rs", documented).is_empty());
    }

    #[test]
    fn lossy_cast_flags_float_to_int() {
        let src = "fn f(x: f64) -> i64 { x.ceil() as i64 }";
        let f = active("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, LOSSY_CAST);
        // …but not inside a named conversion helper, and not int → float.
        assert!(active(
            "crates/x/src/lib.rs",
            "fn ceil_to_i64(x: f64) -> i64 { x.ceil() as i64 }"
        )
        .is_empty());
        assert!(active("crates/x/src/lib.rs", "fn f(n: usize) -> f64 { n as f64 }").is_empty());
    }

    #[test]
    fn magic_epsilon_flags_inline_but_not_const() {
        let src = "fn f(a: f64, b: f64) -> bool { (a - b).abs() < 1e-9 }";
        let f = active("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, MAGIC_EPSILON);
        let named = "const TOL: f64 = 1e-9;\nfn f(a: f64, b: f64) -> bool { (a - b).abs() < TOL }";
        assert!(active("crates/x/src/lib.rs", named).is_empty());
        // Non-tolerance floats are fine.
        assert!(active("crates/x/src/lib.rs", "fn f() -> f64 { 0.5 + 1e6 }").is_empty());
    }

    #[test]
    fn magic_epsilon_flags_bare_damping_factors() {
        // A sub-unit fraction scaling a value is a damping/shrink policy.
        let f = active(
            "crates/x/src/lib.rs",
            "fn f(lambda: f64) -> f64 { lambda * 0.3 }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, MAGIC_EPSILON);
        // Same for a comparison threshold above the tolerance cutoff...
        let f = active(
            "crates/x/src/lib.rs",
            "fn f(gap: f64) -> bool { gap < 0.05 }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        // ...including against a negated literal.
        let f = active(
            "crates/x/src/lib.rs",
            "fn f(step: f64) -> bool { step > -0.05 }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        // Naming the constant resolves it.
        let named = "const DAMP: f64 = 0.3;\nfn f(lambda: f64) -> f64 { lambda * DAMP }";
        assert!(active("crates/x/src/lib.rs", named).is_empty());
    }

    #[test]
    fn magic_epsilon_exempts_binary_fractions_and_arithmetic() {
        // Exact powers of two are arithmetic (midpoints, halving), not policy.
        let mid = "fn f(lo: f64, hi: f64) -> f64 { 0.5 * (lo + hi) }";
        assert!(active("crates/x/src/lib.rs", mid).is_empty());
        let quarter = "fn f(x: f64) -> f64 { x * 0.25 }";
        assert!(active("crates/x/src/lib.rs", quarter).is_empty());
        // Fractions not beside a comparison/multiply are left alone.
        let add = "fn f(x: f64) -> f64 { x + 0.3 }";
        assert!(active("crates/x/src/lib.rs", add).is_empty());
        // Factors >= 1.0 (growth, scaling up) are out of scope.
        let grow = "fn f(x: f64) -> f64 { x * 10.0 }";
        assert!(active("crates/x/src/lib.rs", grow).is_empty());
    }

    #[test]
    fn suppression_with_reason_suppresses() {
        let src = "fn f(a: f64) -> bool {\n    // lint:allow(float-eq): structural zero check\n    a == 0.0\n}";
        let (active, suppressed) = lint_source("crates/x/src/lib.rs", src, &LintConfig::default());
        assert!(active.is_empty(), "{active:?}");
        assert_eq!(suppressed.len(), 1);
    }

    #[test]
    fn suppression_without_reason_is_a_finding() {
        let src = "fn f(a: f64) -> bool {\n    // lint:allow(float-eq)\n    a == 0.0\n}";
        let (active, _) = lint_source("crates/x/src/lib.rs", src, &LintConfig::default());
        assert_eq!(active.len(), 2, "{active:?}"); // float-eq + malformed suppression
        assert!(active.iter().any(|f| f.rule == SUPPRESSION));
    }

    #[test]
    fn suppression_unknown_rule_is_a_finding() {
        let src = "// lint:allow(no-such-rule): whatever\nfn f() {}";
        let (active, _) = lint_source("crates/x/src/lib.rs", src, &LintConfig::default());
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].rule, SUPPRESSION);
    }

    #[test]
    fn slice_index_is_opt_in() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }";
        assert!(active("crates/x/src/lib.rs", src).is_empty());
        let mut cfg = LintConfig::default();
        cfg.rules.insert(SLICE_INDEX.to_string());
        let (f, _) = lint_source("crates/x/src/lib.rs", src, &cfg);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, SLICE_INDEX);
    }

    #[test]
    fn slice_index_is_default_in_kernel_crates() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }";
        for path in ["crates/lp/src/lib.rs", "crates/linalg/src/qr.rs"] {
            let f = active(path, src);
            assert_eq!(f.len(), 1, "{path}");
            assert_eq!(f[0].rule, SLICE_INDEX);
        }
    }

    #[test]
    fn slice_index_ignores_slice_type_syntax() {
        let src = "fn f(v: &mut [u8], w: &[u8]) { v.copy_from_slice(w) }";
        let mut cfg = LintConfig::default();
        cfg.rules.insert(SLICE_INDEX.to_string());
        let (f, _) = lint_source("crates/x/src/lib.rs", src, &cfg);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn file_scope_suppression_covers_whole_file() {
        let src = "// lint:allow-file(slice-index): dense kernel, bounds asserted at entry\n\
                   fn f(v: &[u8]) -> u8 { v[0] }\n\n\n\n\
                   fn g(v: &[u8]) -> u8 { v[1] }";
        let (active, suppressed) = lint_source("crates/lp/src/lib.rs", src, &LintConfig::default());
        assert!(active.is_empty(), "{active:?}");
        assert_eq!(suppressed.len(), 2);
    }

    #[test]
    fn file_scope_suppression_still_requires_reason() {
        let src = "// lint:allow-file(slice-index)\nfn f() {}";
        let (active, _) = lint_source("crates/x/src/lib.rs", src, &LintConfig::default());
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].rule, SUPPRESSION);
    }

    #[test]
    fn dep_policy_flags_external_deps() {
        let good = "[dependencies]\nhslb-lp.workspace = true\nfoo = { path = \"../foo\" }\n";
        assert!(lint_manifest("crates/x/Cargo.toml", good).is_empty());
        let bad = "[dependencies]\nserde = \"1.0\"\n";
        let f = lint_manifest("crates/x/Cargo.toml", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, DEP_POLICY);
        let git = "[dependencies.rand]\ngit = \"https://example.com/rand\"\n";
        assert_eq!(lint_manifest("crates/x/Cargo.toml", git).len(), 1);
        let sub_ok = "[dependencies.hslb-nlp]\nworkspace = true\nfeatures = [\"x\"]\n";
        assert!(lint_manifest("crates/x/Cargo.toml", sub_ok).is_empty());
    }
}
