//! Per-file structural analysis layered on top of the lexer.
//!
//! [`SourceFile`] separates comments from code, parses `simlint:` allow
//! directives out of line comments, and runs a single brace-matching pass
//! that computes for every code token:
//!
//! - the innermost named `fn` whose body contains it (both the bare name
//!   and a definition id into [`SourceFile::defs`]),
//! - the innermost `impl`/`trait` type, so `fn route` on `EarliestStart`
//!   and `fn route` on `LeastLoaded` are distinct definitions,
//! - whether it sits inside a `#[cfg(test)] mod … { }` block, or in a
//!   file that a `#[cfg(test)] mod name;` declares (see
//!   [`mark_cfg_test_files`]),
//! - whether it is guarded by an `ENABLED` conditional: an enclosing
//!   `if …ENABLED… { }` block, a preceding `if !…ENABLED… { return…; }`
//!   early-out in the same scope, or `ENABLED` mentioned in the same
//!   statement (`debug_assert!(P::ENABLED && …)`).
//!
//! Rules then work over `code` tokens plus these annotations and never
//! have to re-derive scoping themselves; the call-graph pass
//! ([`crate::graph`]) consumes the definition table.

use crate::lexer::{lex, Tok, TokKind};

/// An inline escape: `// simlint: allow(<rule>) — <reason>`.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Line the comment sits on. The directive covers findings on this
    /// line and, when the comment is alone on its line, the next line.
    pub line: u32,
    pub rule: String,
    /// Text after the rule, with any leading dash/em-dash stripped.
    pub reason: String,
    /// Set by the engine when a finding consumes this directive; an
    /// unconsumed directive is itself reported (stale allows rot fast).
    pub used: std::cell::Cell<bool>,
}

/// One code token plus the structural facts rules need.
#[derive(Debug, Clone)]
pub struct CodeTok {
    pub tok: Tok,
    /// Innermost enclosing named function, if any.
    pub in_fn: Option<String>,
    /// Index into [`SourceFile::defs`] of that innermost function.
    pub fn_def: Option<usize>,
    /// Inside a `#[cfg(test)] mod` block or a test-only file.
    pub in_cfg_test: bool,
    /// Guarded by an `ENABLED` condition (see module docs).
    pub enabled_gated: bool,
}

/// One named `fn` definition discovered by the structural pass.
#[derive(Debug, Clone)]
pub struct FnDefSite {
    pub name: String,
    /// Line of the name token.
    pub line: u32,
    /// The innermost enclosing `impl Type`/`impl Trait for Type`/`trait
    /// Type` target, if any — how same-named methods are told apart.
    pub impl_ty: Option<String>,
    /// Declared under `#[cfg(test)]` (enclosing mod or direct attribute).
    pub in_cfg_test: bool,
}

/// A lexed-and-analyzed source file.
pub struct SourceFile {
    /// Repo-relative path, `/`-separated.
    pub rel_path: String,
    pub code: Vec<CodeTok>,
    pub allows: Vec<AllowDirective>,
    /// Every named `fn` definition, in source order.
    pub defs: Vec<FnDefSite>,
    /// Modules this file declares out of line under `#[cfg(test)]`
    /// (`#[cfg(test)] mod name;`, or any `mod name;` inside a test module).
    pub cfg_test_mods: Vec<String>,
    /// Lines that hold only a comment (used to extend allow coverage to
    /// the following line).
    comment_only_lines: std::collections::BTreeSet<u32>,
}

impl SourceFile {
    pub fn parse(rel_path: &str, content: &str) -> SourceFile {
        let toks = lex(content);

        let mut allows = Vec::new();
        let mut code_toks: Vec<Tok> = Vec::new();
        let mut code_lines = std::collections::BTreeSet::new();
        let mut comment_lines = std::collections::BTreeSet::new();
        for t in toks {
            match t.kind {
                TokKind::LineComment => {
                    if let Some(d) = parse_allow(&t) {
                        allows.push(d);
                    }
                    comment_lines.insert(t.line);
                }
                TokKind::BlockComment => {
                    comment_lines.insert(t.line);
                }
                _ => {
                    code_lines.insert(t.line);
                    code_toks.push(t);
                }
            }
        }
        let comment_only_lines = comment_lines
            .into_iter()
            .filter(|l| !code_lines.contains(l))
            .collect();

        let (code, defs, cfg_test_mods) = annotate(&code_toks);
        SourceFile {
            rel_path: rel_path.to_string(),
            code,
            allows,
            defs,
            cfg_test_mods,
            comment_only_lines,
        }
    }

    /// Finds an allow directive covering `rule` on `line` — either a
    /// trailing comment on the same line or a comment-only line directly
    /// above — and marks it used.
    pub fn allow_for(&self, rule: &str, line: u32) -> Option<&AllowDirective> {
        let d = self.allows.iter().find(|d| {
            d.rule == rule
                && (d.line == line
                    || (d.line + 1 == line && self.comment_only_lines.contains(&d.line)))
        })?;
        d.used.set(true);
        Some(d)
    }
}

/// Marks every file of a module declared by `#[cfg(test)] mod name;` as
/// test code throughout: `name.rs` or `name/mod.rs` beside the declaring
/// file, and every file under `name/` (its children).
pub fn mark_cfg_test_files(files: &mut [SourceFile]) {
    let modules: Vec<String> = files
        .iter()
        .flat_map(|sf| {
            let (dir, file) = sf.rel_path.rsplit_once('/').unwrap_or(("", &sf.rel_path));
            // Children of `lib.rs`/`main.rs`/`mod.rs` sit beside it; those
            // of `a.rs` sit in `a/`.
            let own_dir = match file {
                "lib.rs" | "main.rs" | "mod.rs" => dir.to_string(),
                _ => format!("{dir}/{}", file.trim_end_matches(".rs")),
            };
            sf.cfg_test_mods
                .iter()
                .map(move |name| format!("{own_dir}/{name}"))
        })
        .collect();
    for sf in files {
        let test_only = modules.iter().any(|m| {
            sf.rel_path
                .strip_prefix(m.as_str())
                .is_some_and(|rest| rest == ".rs" || rest.starts_with('/'))
        });
        if test_only {
            sf.code.iter_mut().for_each(|ct| ct.in_cfg_test = true);
            sf.defs.iter_mut().for_each(|d| d.in_cfg_test = true);
        }
    }
}

fn parse_allow(t: &Tok) -> Option<AllowDirective> {
    let text = t.text.trim();
    let rest = text.strip_prefix("simlint:")?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let mut reason = rest[close + 1..].trim();
    for dash in ["—", "--", "-"] {
        if let Some(r) = reason.strip_prefix(dash) {
            reason = r.trim_start();
            break;
        }
    }
    Some(AllowDirective {
        line: t.line,
        rule,
        reason: reason.to_string(),
        used: std::cell::Cell::new(false),
    })
}

/// What one open brace on the scope stack means.
#[derive(Clone, Default)]
struct Scope {
    /// `Some(name)` when this brace opened a `fn name(…) … {` body.
    fn_name: Option<String>,
    /// Index into the def table when this brace opened a fn body.
    fn_def: Option<usize>,
    /// `Some(Type)` when this brace opened `impl … Type {` or `trait
    /// Type {` — the self type that methods defined inside belong to.
    impl_ty: Option<String>,
    /// This brace is a `#[cfg(test)] mod name {`.
    cfg_test_mod: bool,
    /// The scope header mentioned `ENABLED` without negation — an
    /// `if P::ENABLED { … }` style guard.
    enabled_guard: bool,
    /// The scope header was `if !…ENABLED… {` — candidate early-out.
    neg_enabled_if: bool,
    /// Somewhere earlier in this scope an `if !…ENABLED… { return…; }`
    /// ran, so the remainder of the scope is effectively gated.
    gated_after_early_return: bool,
    /// A `return` token appeared directly in this scope's body.
    saw_return: bool,
}

/// Extracts the self type from an `impl`/`trait` scope header: the final
/// path segment of the type after `for` when present (`impl Router for
/// EarliestStart` → `EarliestStart`), else the first type path after the
/// keyword and its generic parameters (`impl<T: Ord> Queue<T>` → `Queue`).
/// A trait is named by the identifier after `trait`; its supertrait list
/// (`trait Probe: std::fmt::Debug + Clone`) names other types.
fn impl_target(h: &[&Tok]) -> Option<String> {
    let kw = h
        .iter()
        .position(|t| t.is_ident("impl") || t.is_ident("trait"))?;
    if h[kw].is_ident("trait") {
        return h
            .get(kw + 1)
            .filter(|t| t.kind == crate::lexer::TokKind::Ident)
            .map(|t| t.text.clone());
    }
    // Prefer the segment after a top-level `for` (generic bounds like
    // `for<'a>` never precede the self type in an impl header).
    let mut start = kw + 1;
    let mut depth = 0i32;
    for (k, t) in h.iter().enumerate().skip(kw + 1) {
        match t.kind {
            crate::lexer::TokKind::Punct('<') => depth += 1,
            crate::lexer::TokKind::Punct('>') => depth -= 1,
            crate::lexer::TokKind::Ident if depth == 0 && t.text == "for" => start = k + 1,
            _ => {}
        }
    }
    // Walk the type path from `start`: final segment before generics.
    let mut depth = 0i32;
    let mut name: Option<String> = None;
    for t in h.iter().skip(start) {
        match t.kind {
            crate::lexer::TokKind::Punct('<') => depth += 1,
            crate::lexer::TokKind::Punct('>') => depth -= 1,
            crate::lexer::TokKind::Punct(':' | '&') => {}
            crate::lexer::TokKind::Ident if depth == 0 => {
                if matches!(t.text.as_str(), "mut" | "dyn" | "where") {
                    if t.text == "where" {
                        break;
                    }
                    continue;
                }
                name = Some(t.text.clone());
            }
            _ if depth == 0 => break,
            _ => {}
        }
    }
    name
}

/// The single structural pass: brace matching plus statement tracking.
fn annotate(toks: &[Tok]) -> (Vec<CodeTok>, Vec<FnDefSite>, Vec<String>) {
    let mut out: Vec<CodeTok> = Vec::with_capacity(toks.len());
    let mut defs: Vec<FnDefSite> = Vec::new();
    let mut cfg_test_mods: Vec<String> = Vec::new();
    let mut stack: Vec<Scope> = Vec::new();
    // Tokens since the last statement boundary (`;`, `{`, `}`): the
    // "header" that classifies the next `{`, and the current statement
    // for same-statement ENABLED detection.
    let mut header: Vec<usize> = Vec::new();
    let mut stmt_start = 0usize; // index into `out` where the statement began
                                 // `#[cfg(test)]` seen since the last statement boundary or earlier on
                                 // the same item (attributes sit in the same header as their item).
    let mut pending_cfg_test = false;

    let make = |t: &Tok, stack: &[Scope]| CodeTok {
        tok: t.clone(),
        in_fn: stack.iter().rev().find_map(|s| s.fn_name.clone()),
        fn_def: stack.iter().rev().find_map(|s| s.fn_def),
        in_cfg_test: stack.iter().any(|s| s.cfg_test_mod),
        enabled_gated: stack
            .iter()
            .any(|s| s.enabled_guard || s.gated_after_early_return),
    };

    // Marks the current statement gated when it mentions ENABLED.
    let backfill_stmt = |out: &mut [CodeTok], stmt_start: usize| {
        if out[stmt_start..]
            .iter()
            .any(|ct| ct.tok.is_ident("ENABLED"))
        {
            for ct in &mut out[stmt_start..] {
                ct.enabled_gated = true;
            }
        }
    };

    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct('{') => {
                let h: Vec<&Tok> = header.iter().map(|&j| &toks[j]).collect();
                let mut scope = Scope::default();
                for (k, ht) in h.iter().enumerate() {
                    if ht.is_ident("fn") {
                        if let Some(name) = h.get(k + 1) {
                            if name.kind == TokKind::Ident {
                                scope.fn_name = Some(name.text.clone());
                                scope.fn_def = Some(defs.len());
                                // A fn marked `#[cfg(test)]` directly has
                                // the attribute in its own header.
                                let header_cfg_test = h.windows(3).any(|w| {
                                    w[0].is_ident("cfg")
                                        && w[1].is_punct('(')
                                        && w[2].is_ident("test")
                                });
                                defs.push(FnDefSite {
                                    name: name.text.clone(),
                                    line: name.line,
                                    impl_ty: stack.iter().rev().find_map(|s| s.impl_ty.clone()),
                                    in_cfg_test: stack.iter().any(|s| s.cfg_test_mod)
                                        || header_cfg_test,
                                });
                            }
                        }
                    }
                    if (ht.is_ident("impl") || ht.is_ident("trait")) && scope.fn_name.is_none() {
                        scope.impl_ty = impl_target(&h);
                    }
                    if ht.is_ident("mod") && pending_cfg_test {
                        scope.cfg_test_mod = true;
                    }
                }
                let has_enabled = h.iter().any(|ht| ht.is_ident("ENABLED"));
                if has_enabled {
                    // The guard's own header is gated too: in
                    // `if P::ENABLED && probe.audit_on() { … }` the
                    // condition call only runs when ENABLED is true
                    // (short-circuit), and compiles away when it's false.
                    // `out` is index-aligned with `toks`, so the header
                    // indices address the already-emitted tokens.
                    for &j in &header {
                        out[j].enabled_gated = true;
                    }
                    let negated = h
                        .iter()
                        .position(|ht| ht.is_ident("if"))
                        .and_then(|p| h.get(p + 1))
                        .is_some_and(|ht| ht.is_punct('!'));
                    if negated {
                        scope.neg_enabled_if = true;
                    } else {
                        scope.enabled_guard = true;
                    }
                }
                stack.push(scope);
                pending_cfg_test = false;
                header.clear();
                out.push(make(t, &stack));
                stmt_start = out.len();
            }
            TokKind::Punct('}') => {
                backfill_stmt(&mut out, stmt_start);
                if let Some(closed) = stack.pop() {
                    // Early-out pattern: `if !…ENABLED… { … return …; }`
                    // gates everything after it in the enclosing scope.
                    if closed.neg_enabled_if && closed.saw_return {
                        if let Some(parent) = stack.last_mut() {
                            parent.gated_after_early_return = true;
                        }
                    }
                }
                header.clear();
                out.push(make(t, &stack));
                stmt_start = out.len();
            }
            TokKind::Punct(';') => {
                if pending_cfg_test || stack.iter().any(|s| s.cfg_test_mod) {
                    let name = header
                        .iter()
                        .position(|&j| toks[j].is_ident("mod"))
                        .and_then(|k| header.get(k + 1))
                        .map(|&j| &toks[j])
                        .filter(|n| n.kind == TokKind::Ident);
                    if let Some(name) = name {
                        cfg_test_mods.push(name.text.clone());
                    }
                }
                out.push(make(t, &stack));
                backfill_stmt(&mut out, stmt_start);
                pending_cfg_test = false;
                header.clear();
                stmt_start = out.len();
            }
            _ => {
                if t.is_ident("return") {
                    if let Some(s) = stack.last_mut() {
                        s.saw_return = true;
                    }
                }
                if t.is_ident("cfg")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && toks.get(i + 2).is_some_and(|n| n.is_ident("test"))
                {
                    pending_cfg_test = true;
                }
                header.push(i);
                out.push(make(t, &stack));
            }
        }
    }
    backfill_stmt(&mut out, stmt_start);
    (out, defs, cfg_test_mods)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_at<'a>(sf: &'a SourceFile, word: &str) -> &'a CodeTok {
        sf.code
            .iter()
            .find(|ct| ct.tok.is_ident(word))
            .unwrap_or_else(|| panic!("token {word:?} not found"))
    }

    #[test]
    fn fn_attribution_is_innermost() {
        let sf = SourceFile::parse(
            "x.rs",
            "fn outer() { helper(); fn inner() { deep(); } tail(); }",
        );
        assert_eq!(code_at(&sf, "helper").in_fn.as_deref(), Some("outer"));
        assert_eq!(code_at(&sf, "deep").in_fn.as_deref(), Some("inner"));
        assert_eq!(code_at(&sf, "tail").in_fn.as_deref(), Some("outer"));
    }

    #[test]
    fn closures_stay_in_enclosing_fn() {
        let sf = SourceFile::parse("x.rs", "fn hot() { items.for_each(|x| { body(x); }); }");
        assert_eq!(code_at(&sf, "body").in_fn.as_deref(), Some("hot"));
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let sf = SourceFile::parse(
            "x.rs",
            "fn live() { a(); }\n#[cfg(test)]\nmod tests { fn t() { b(); } }",
        );
        assert!(!code_at(&sf, "a").in_cfg_test);
        assert!(code_at(&sf, "b").in_cfg_test);
    }

    #[test]
    fn cfg_test_mod_declared_file_is_test_code() {
        let mut files = vec![
            SourceFile::parse(
                "crates/hpcsim/src/lib.rs",
                "#[cfg(test)]\nmod oracle;\npub mod live;\nfn advance() { step(); }",
            ),
            SourceFile::parse("crates/hpcsim/src/live.rs", "pub fn step() { a(); }"),
            SourceFile::parse(
                "crates/hpcsim/src/oracle.rs",
                "mod suite;\npub fn step() { b(); }",
            ),
            SourceFile::parse("crates/hpcsim/src/oracle/suite.rs", "fn check() { c(); }"),
        ];
        assert_eq!(files[0].cfg_test_mods, ["oracle"]);
        mark_cfg_test_files(&mut files);
        assert!(!code_at(&files[1], "a").in_cfg_test);
        assert!(code_at(&files[2], "b").in_cfg_test);
        assert!(code_at(&files[3], "c").in_cfg_test);
        assert!(files[2].defs.iter().all(|d| d.in_cfg_test));
        // `advance` seeds the hot set, and its bare `step()` call reaches
        // every free `step`; only the release one stays hot.
        let hot = crate::graph::CallGraph::build(&files).hot_set();
        let hot_files: Vec<&str> = hot.entries.iter().map(|e| e.file.as_str()).collect();
        assert!(hot_files.contains(&"crates/hpcsim/src/live.rs"));
        assert!(!hot_files.contains(&"crates/hpcsim/src/oracle.rs"));
    }

    #[test]
    fn enabled_block_guard() {
        let sf = SourceFile::parse(
            "x.rs",
            "fn f(&mut self) { if P::ENABLED { self.probe.on_start(1); } self.probe.on_raw(2); }",
        );
        assert!(code_at(&sf, "on_start").enabled_gated);
        assert!(!code_at(&sf, "on_raw").enabled_gated);
    }

    #[test]
    fn enabled_early_return_gates_remainder() {
        let sf = SourceFile::parse(
            "x.rs",
            "fn f(&mut self) { if !P::ENABLED { return; } self.probe.set_stat(1); }",
        );
        assert!(code_at(&sf, "set_stat").enabled_gated);
    }

    #[test]
    fn neg_enabled_without_return_does_not_gate() {
        let sf = SourceFile::parse(
            "x.rs",
            "fn f(&mut self) { if !P::ENABLED { cheap(); } self.probe.on_x(); }",
        );
        assert!(!code_at(&sf, "on_x").enabled_gated);
    }

    #[test]
    fn same_statement_enabled_gates() {
        let sf = SourceFile::parse(
            "x.rs",
            "fn f() { debug_assert!(P::ENABLED && probe.check()); }",
        );
        assert!(code_at(&sf, "check").enabled_gated);
    }

    #[test]
    fn allow_same_line_and_line_above() {
        let src = "\
fn f() {
    x.clone(); // simlint: allow(hot-alloc) — same line
    // simlint: allow(hot-alloc) — line above
    y.clone();
    z.clone();
}
";
        let sf = SourceFile::parse("x.rs", src);
        assert!(sf.allow_for("hot-alloc", 2).is_some());
        assert!(sf.allow_for("hot-alloc", 4).is_some());
        assert!(sf.allow_for("hot-alloc", 5).is_none());
        assert!(sf.allow_for("unordered-iter", 2).is_none());
    }

    #[test]
    fn allow_reason_parses_dashes() {
        let sf = SourceFile::parse("x.rs", "// simlint: allow(wall-clock) -- the reason\n");
        assert_eq!(sf.allows.len(), 1);
        assert_eq!(sf.allows[0].rule, "wall-clock");
        assert_eq!(sf.allows[0].reason, "the reason");
    }
}
