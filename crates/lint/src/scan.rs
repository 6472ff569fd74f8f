//! The analysis pass: walks a file's token stream with enough context
//! (crate, module path, enclosing `impl`/`fn`, `#[cfg(test)]` regions) to
//! evaluate every rule, then applies inline suppressions and `lint.toml`
//! allowlist entries.
//!
//! The matching is deliberately token-level — an over-approximation with no
//! type information. Rules are tuned so that a match is either a real
//! contract violation or a site worth an explicit, reasoned suppression.

use crate::config::Config;
use crate::lexer::{self, Suppression, Token, TokenKind};
use crate::rules::{self, Severity};

/// What kind of target a file belongs to, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library or binary source (`src/`), including `src/bin/`.
    Lib,
    /// Integration tests (`tests/`).
    Test,
    /// Criterion benches (`benches/`).
    Bench,
    /// Examples (`examples/`).
    Example,
}

/// One diagnostic produced by the pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`det001`, …).
    pub rule: &'static str,
    /// Whether this finding fails the run.
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed column.
    pub col: u32,
    /// Site-specific message.
    pub message: String,
}

/// Result of linting a single file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that survived suppression filtering.
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned inline suppression or allow entry.
    pub suppressed: usize,
    /// Unlexable constructs (reported as hard errors by the CLI).
    pub lex_errors: Vec<(u32, String)>,
    /// Indices into `Config::hot_functions` of the entries that name a
    /// function this file defines in library code.
    pub hot_functions_defined: Vec<usize>,
}

/// Classification of one workspace file.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Crate short name (`engine`, `fleet`, … or `sizeless` for the root).
    pub krate: String,
    /// Module path of the file itself (`core::service`, `neural::matrix`).
    pub module: String,
    /// Target kind, by path.
    pub kind: FileKind,
}

/// Derives crate name, module path, and target kind from a workspace-relative
/// path. Returns `None` for non-Rust files.
pub fn classify(rel_path: &str) -> Option<FileInfo> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (krate, rest): (String, &[&str]) = match parts.as_slice() {
        ["crates", krate, rest @ ..] if !rest.is_empty() => (krate.to_string(), rest),
        _ => ("sizeless".to_string(), &parts[..]),
    };
    let kind = if rest.contains(&"tests") {
        FileKind::Test
    } else if rest.contains(&"benches") {
        FileKind::Bench
    } else if rest.contains(&"examples") {
        FileKind::Example
    } else {
        FileKind::Lib
    };
    // Module path: crate name, then path segments after a leading `src`,
    // dropping `lib.rs`/`main.rs`/`mod.rs` stems.
    let mut module = vec![krate.clone()];
    let segs = if rest.first() == Some(&"src") { &rest[1..] } else { rest };
    for (i, seg) in segs.iter().enumerate() {
        let is_last = i + 1 == segs.len();
        let seg = if is_last { seg.trim_end_matches(".rs") } else { seg };
        if is_last && matches!(seg, "lib" | "main" | "mod") {
            continue;
        }
        module.push(seg.to_string());
    }
    Some(FileInfo {
        krate,
        module: module.join("::"),
        kind,
    })
}

#[derive(Debug)]
enum FrameKind {
    Mod(String),
    Fn(String),
    ImplBlock(String),
    Other,
}

#[derive(Debug)]
struct Frame {
    kind: FrameKind,
    test: bool,
}

#[derive(Debug)]
enum Pending {
    Fn(String),
    Mod(String),
    ImplBlock(String),
}

struct Walker<'a> {
    tokens: &'a [Token],
    frames: Vec<Frame>,
    pending: Option<Pending>,
    pending_test: bool,
    /// Qualified names of the functions defined with a body outside test
    /// code.
    defined_fns: Vec<String>,
}

impl<'a> Walker<'a> {
    fn new(tokens: &'a [Token]) -> Self {
        Walker {
            tokens,
            frames: Vec::new(),
            pending: None,
            pending_test: false,
            defined_fns: Vec::new(),
        }
    }

    fn in_test(&self) -> bool {
        self.frames.iter().any(|f| f.test)
    }

    fn module_suffix(&self) -> Vec<&str> {
        self.frames
            .iter()
            .filter_map(|f| match &f.kind {
                FrameKind::Mod(m) => Some(m.as_str()),
                _ => None,
            })
            .collect()
    }

    fn enclosing_fn(&self) -> Option<&str> {
        self.frames.iter().rev().find_map(|f| match &f.kind {
            FrameKind::Fn(name) => Some(name.as_str()),
            _ => None,
        })
    }

    /// Advances the item/frame state machine over token `i`.
    fn step(&mut self, i: usize) {
        let t = &self.tokens[i];
        match t.kind {
            // Outer attribute: `#[...]`. Inner attributes (`#![...]`)
            // don't gate the next item.
            TokenKind::Punct
                if t.text == "#"
                    && self.peek_is(i + 1, TokenKind::Open, "[")
                    && self.attr_marks_test(i + 1) =>
            {
                self.pending_test = true;
            }
            TokenKind::Punct if t.text == ";" => {
                // A semicolon ends a declaration (trait method, file module)
                // before any body brace: drop pending item state.
                self.pending = None;
                self.pending_test = false;
            }
            TokenKind::Ident => match t.text.as_str() {
                "fn" => {
                    if let Some(name) = self.ident_at(i + 1) {
                        let qualified = match self.frames.last() {
                            Some(Frame {
                                kind: FrameKind::ImplBlock(ty),
                                ..
                            }) => format!("{ty}::{name}"),
                            _ => name.to_string(),
                        };
                        self.pending = Some(Pending::Fn(qualified));
                    }
                }
                "mod" => {
                    if let Some(name) = self.ident_at(i + 1) {
                        self.pending = Some(Pending::Mod(name.to_string()));
                    }
                }
                // An `impl Trait` in a signature, in argument or return
                // position, belongs to the pending fn: not an impl block.
                "impl" if !matches!(self.pending, Some(Pending::Fn(_))) => {
                    if let Some(ty) = self.impl_type_name(i + 1) {
                        self.pending = Some(Pending::ImplBlock(ty));
                    }
                }
                _ => {}
            },
            TokenKind::Open if t.text == "{" => {
                let kind = match self.pending.take() {
                    Some(Pending::Fn(name)) => {
                        if !self.pending_test && !self.in_test() {
                            self.defined_fns.push(name.clone());
                        }
                        FrameKind::Fn(name)
                    }
                    Some(Pending::Mod(name)) => FrameKind::Mod(name),
                    Some(Pending::ImplBlock(ty)) => FrameKind::ImplBlock(ty),
                    None => FrameKind::Other,
                };
                self.frames.push(Frame {
                    kind,
                    test: self.pending_test,
                });
                self.pending_test = false;
            }
            TokenKind::Close if t.text == "}" => {
                self.frames.pop();
            }
            _ => {}
        }
    }

    fn peek_is(&self, i: usize, kind: TokenKind, text: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == kind && t.text == text)
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        self.tokens
            .get(i)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
    }

    /// `open` points at the `[` of an outer attribute. True when it gates the
    /// next item to test-only builds (`#[test]`, `#[cfg(test)]`, `#[bench]`)
    /// — but not `#[cfg(not(test))]`.
    fn attr_marks_test(&self, open: usize) -> bool {
        let mut depth = 0usize;
        let mut saw_test = false;
        let mut saw_not = false;
        for t in &self.tokens[open..] {
            match t.kind {
                TokenKind::Open => depth += 1,
                TokenKind::Close => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident if t.text == "test" || t.text == "bench" => saw_test = true,
                TokenKind::Ident if t.text == "not" => saw_not = true,
                _ => {}
            }
        }
        saw_test && !saw_not
    }

    /// `start` is the token after `impl`; extracts the implemented type's
    /// name (the path tail after `for` when present).
    fn impl_type_name(&self, mut start: usize) -> Option<String> {
        // Skip the generic parameter list, if any.
        if self.peek_is(start, TokenKind::Punct, "<") {
            let mut depth = 0i32;
            while let Some(t) = self.tokens.get(start) {
                if t.kind == TokenKind::Punct && t.text == "<" {
                    depth += 1;
                } else if t.kind == TokenKind::Punct && t.text == ">" {
                    depth -= 1;
                    if depth == 0 {
                        start += 1;
                        break;
                    }
                }
                start += 1;
            }
        }
        // Scan the header up to `{`; restart path capture after `for`.
        let mut last_path_ident: Option<&str> = None;
        let mut angle_depth = 0i32;
        let mut i = start;
        while let Some(t) = self.tokens.get(i) {
            match t.kind {
                TokenKind::Open if t.text == "{" => break,
                TokenKind::Punct if t.text == ";" => return None,
                TokenKind::Punct if t.text == "<" => angle_depth += 1,
                TokenKind::Punct if t.text == ">" => angle_depth -= 1,
                TokenKind::Ident if angle_depth == 0 => {
                    if t.text == "for" {
                        last_path_ident = None;
                    } else if t.text != "dyn" && t.text != "where" {
                        last_path_ident = Some(&t.text);
                    }
                }
                _ => {}
            }
            i += 1;
        }
        last_path_ident.map(|s| s.to_string())
    }
}

/// Lints one file's source, returning suppression-filtered findings.
pub fn lint_source(rel_path: &str, src: &str, config: &Config) -> FileReport {
    let Some(info) = classify(rel_path) else {
        return FileReport::default();
    };
    let lexed = lexer::lex(src);
    let tokens = &lexed.tokens;
    let mut walker = Walker::new(tokens);
    let mut raw: Vec<Finding> = Vec::new();

    for i in 0..tokens.len() {
        walker.step(i);
        check_token(tokens, i, &walker, &info, config, rel_path, &mut raw);
    }

    let mut report =
        filter_report(rel_path, &info, raw, &lexed.suppressions, tokens, config, lexed.errors);
    if info.kind == FileKind::Lib {
        report.hot_functions_defined = (0..config.hot_functions.len())
            .filter(|&i| {
                let entry = &config.hot_functions[i];
                walker.defined_fns.iter().any(|q| hot_entry_names(entry, q))
            })
            .collect();
    }
    report
}

const FALLBACK_META: rules::RuleMeta = rules::RuleMeta {
    id: "lint000",
    severity: Severity::Deny,
    summary: "internal: finding raised for a rule missing from the registry",
};

fn mk(rule: &'static str, path: &str, t: &Token, message: String) -> Finding {
    let meta = rules::rule(rule).unwrap_or(&FALLBACK_META);
    Finding {
        rule: meta.id,
        severity: meta.severity,
        path: path.to_string(),
        line: t.line,
        col: t.col,
        message,
    }
}

#[allow(clippy::too_many_arguments)]
fn check_token(
    tokens: &[Token],
    i: usize,
    walker: &Walker<'_>,
    info: &FileInfo,
    config: &Config,
    path: &str,
    out: &mut Vec<Finding>,
) {
    let t = &tokens[i];
    let in_test = info.kind == FileKind::Test || walker.in_test();
    let lib_code = info.kind == FileKind::Lib && !in_test;
    let sim_crate = config.sim_crates.iter().any(|c| c == &info.krate);
    let prev_is = |text: &str| i > 0 && tokens[i - 1].kind == TokenKind::Punct && tokens[i - 1].text == text;
    let next_is_open_paren =
        || tokens.get(i + 1).is_some_and(|n| n.kind == TokenKind::Open && n.text == "(");

    if t.kind == TokenKind::Ident {
        let name = t.text.as_str();
        // det001 — wall-clock time sources in simulation crates.
        if lib_code && sim_crate && (name == "Instant" || name == "SystemTime") {
            out.push(mk(
                "det001",
                path,
                t,
                format!("`{name}` is wall-clock time; simulations must read engine::time::SimTime"),
            ));
        }
        // det002 — ambient, seedless RNG.
        if lib_code
            && (name == "thread_rng"
                || (name == "random" && path_prefix_is(tokens, i, "rand")))
        {
            out.push(mk(
                "det002",
                path,
                t,
                "ambient RNG has no seed and breaks bit-identical replay; \
                 draw from a named engine::rng::RngStream"
                    .into(),
            ));
        }
        // det003 — ad-hoc threading outside approved parallel modules.
        if lib_code
            && (name == "spawn" || name == "scope")
            && path_prefix_is(tokens, i, "thread")
        {
            out.push(mk(
                "det003",
                path,
                t,
                format!(
                    "`thread::{name}` outside an approved parallel module; \
                     fan out via engine::parallel so per-job seeding holds"
                ),
            ));
        }
        // det004 — arbitrary-order hash collections in simulation crates.
        if lib_code
            && sim_crate
            && matches!(name, "HashMap" | "HashSet" | "FxHashMap" | "FxHashSet")
        {
            out.push(mk(
                "det004",
                path,
                t,
                format!("`{name}` iterates in arbitrary order; use BTreeMap/BTreeSet or a sorted Vec"),
            ));
        }
        // hot001 — allocation/clone tokens inside configured hot paths.
        if lib_code && in_hot_path(walker, info, config) {
            let method_hit = matches!(name, "clone" | "to_vec" | "collect") && prev_is(".");
            let vec_new = name == "Vec" && path_suffix_is(tokens, i, "new");
            let macro_hit = matches!(name, "vec" | "format")
                && tokens
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "!");
            if method_hit || vec_new || macro_hit {
                let what = if vec_new {
                    "Vec::new".to_string()
                } else if macro_hit {
                    format!("{name}!")
                } else {
                    format!(".{name}()")
                };
                out.push(mk(
                    "hot001",
                    path,
                    t,
                    format!("`{what}` allocates in a declared hot path; reuse a scratch buffer"),
                ));
            }
        }
        // panic001 / panic002 — unwrap/expect in library code.
        if lib_code && name == "unwrap" && prev_is(".") && next_is_open_paren() {
            out.push(mk(
                "panic001",
                path,
                t,
                "`.unwrap()` can abort the simulation; propagate a Result or \
                 use expect with a documented invariant"
                    .into(),
            ));
        }
        if lib_code && name == "expect" && prev_is(".") && next_is_open_paren() {
            out.push(mk(
                "panic002",
                path,
                t,
                "`.expect()` in library code; suppress with the invariant as \
                 the reason or propagate a Result"
                    .into(),
            ));
        }
        // float001 — NaN-panicking comparisons (applies everywhere).
        if name == "partial_cmp" && next_is_open_paren() {
            if let Some(close) = matching_close(tokens, i + 1) {
                let after_dot = tokens
                    .get(close + 1)
                    .is_some_and(|n| n.kind == TokenKind::Punct && n.text == ".");
                let unwrapish = tokens.get(close + 2).is_some_and(|n| {
                    n.kind == TokenKind::Ident && (n.text == "unwrap" || n.text == "expect")
                });
                if after_dot && unwrapish {
                    out.push(mk(
                        "float001",
                        path,
                        t,
                        "`partial_cmp(..).unwrap()` panics on NaN and is not a \
                         total order; use f64::total_cmp"
                            .into(),
                    ));
                }
            }
        }
    }

    // panic003 — literal index on an identifier.
    if lib_code
        && t.kind == TokenKind::Open
        && t.text == "["
        && i > 0
        && tokens[i - 1].kind == TokenKind::Ident
        && !matches!(tokens[i - 1].text.as_str(), "mut" | "in" | "return" | "else")
        && tokens.get(i + 1).is_some_and(|n| n.kind == TokenKind::Num)
        && tokens
            .get(i + 2)
            .is_some_and(|n| n.kind == TokenKind::Close && n.text == "]")
    {
        out.push(mk(
            "panic003",
            path,
            t,
            format!(
                "literal index `{}[{}]` panics when the slice is short; \
                 prefer first()/get() or prove the length",
                tokens[i - 1].text,
                tokens[i + 1].text
            ),
        ));
    }
}

/// True when `tokens[i]` is the tail of a `prefix::tail` path.
fn path_prefix_is(tokens: &[Token], i: usize, prefix: &str) -> bool {
    i >= 3
        && tokens[i - 1].kind == TokenKind::Punct
        && tokens[i - 1].text == ":"
        && tokens[i - 2].kind == TokenKind::Punct
        && tokens[i - 2].text == ":"
        && tokens[i - 3].kind == TokenKind::Ident
        && tokens[i - 3].text == prefix
}

/// True when `tokens[i]` is the head of a `head::suffix` path.
fn path_suffix_is(tokens: &[Token], i: usize, suffix: &str) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.kind == TokenKind::Punct && t.text == ":")
        && tokens.get(i + 2).is_some_and(|t| t.kind == TokenKind::Punct && t.text == ":")
        && tokens.get(i + 3).is_some_and(|t| t.kind == TokenKind::Ident && t.text == suffix)
}

/// Index of the `Close` matching the `Open` at `open`.
fn matching_close(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Open => depth += 1,
            TokenKind::Close => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

fn in_hot_path(walker: &Walker<'_>, info: &FileInfo, config: &Config) -> bool {
    let mut module = info.module.clone();
    for seg in walker.module_suffix() {
        module.push_str("::");
        module.push_str(seg);
    }
    if config
        .hot_modules
        .iter()
        .any(|m| module == *m || module.starts_with(&format!("{m}::")))
    {
        return true;
    }
    match walker.enclosing_fn() {
        Some(qualified) => config.hot_functions.iter().any(|f| hot_entry_names(f, qualified)),
        None => false,
    }
}

/// True when the `[hot] functions` entry names the function `qualified`
/// (`Type::method`, or a bare name matching any function's last segment).
fn hot_entry_names(entry: &str, qualified: &str) -> bool {
    entry == qualified || Some(entry) == qualified.rsplit("::").next()
}

/// Applies inline suppressions and `lint.toml` allows, and emits the
/// suppression-hygiene findings (`lint001`–`lint003`).
fn filter_report(
    path: &str,
    info: &FileInfo,
    raw: Vec<Finding>,
    suppressions: &[Suppression],
    tokens: &[Token],
    config: &Config,
    lex_errors: Vec<(u32, String)>,
) -> FileReport {
    let mut report = FileReport {
        lex_errors,
        ..Default::default()
    };

    // Resolve each suppression to the line it covers: its own line for a
    // trailing comment, the next code line for a standalone one.
    let mut resolved: Vec<(usize, u32, bool)> = Vec::new(); // (index, line, valid)
    for (si, s) in suppressions.iter().enumerate() {
        for r in &s.rules {
            if rules::rule(r).is_none() {
                report.findings.push(Finding {
                    rule: "lint003",
                    severity: Severity::Deny,
                    path: path.to_string(),
                    line: s.line,
                    col: s.col,
                    message: format!("suppression names unknown rule `{r}`"),
                });
            }
        }
        let valid = s.reason.is_some();
        if !valid {
            report.findings.push(Finding {
                rule: "lint001",
                severity: Severity::Deny,
                path: path.to_string(),
                line: s.line,
                col: s.col,
                message: format!(
                    "suppression of {} has no reason; write `lint: allow({}) reason=\"…\"`",
                    s.rules.join(", "),
                    s.rules.join(", ")
                ),
            });
        }
        let effective = if s.own_line {
            tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > s.line)
                .unwrap_or(u32::MAX)
        } else {
            s.line
        };
        resolved.push((si, effective, valid));
    }

    let mut used = vec![false; suppressions.len()];
    for f in raw {
        // lint.toml allow entries: module-prefix or crate scope.
        let allowed = config.allows.iter().any(|a| {
            a.rule == f.rule
                && (a.krate.as_deref() == Some(info.krate.as_str())
                    || a.module.as_deref().is_some_and(|m| {
                        info.module == m || info.module.starts_with(&format!("{m}::"))
                    }))
        });
        if allowed {
            report.suppressed += 1;
            continue;
        }
        let inline = resolved.iter().find(|(si, line, valid)| {
            *valid && *line == f.line && suppressions[*si].rules.iter().any(|r| r == f.rule)
        });
        if let Some((si, _, _)) = inline {
            used[*si] = true;
            report.suppressed += 1;
            continue;
        }
        report.findings.push(f);
    }

    for (si, s) in suppressions.iter().enumerate() {
        if s.reason.is_some() && !used[si] && s.rules.iter().all(|r| rules::rule(r).is_some()) {
            report.findings.push(Finding {
                rule: "lint002",
                severity: Severity::Deny,
                path: path.to_string(),
                line: s.line,
                col: s.col,
                message: format!(
                    "suppression of {} matches no finding on its target line; delete it",
                    s.rules.join(", ")
                ),
            });
        }
    }

    report.findings.sort_by_key(|f| (f.line, f.col));
    report
}
