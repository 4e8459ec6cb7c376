//! macro-fn — no `fn` items defined inside a `macro_rules!` body.
//!
//! The call graph ([`crate::graph`]) cannot follow a macro: the invocation
//! `name!(…)` is not a call edge, and the calls inside a `macro_rules!`
//! body go through metavariables (`<$ty>::now(self)`) that resolve to no
//! definition. A method whose only callers sit in such a body drops out of
//! the hot set, so the hot-path rules stop checking it without any diff;
//! and a `fn` the body defines shows up as a bogus free function of the
//! macro's file. Write such a method once instead (a trait's provided
//! method, a generic helper) rather than generating it per type.
//!
//! Macros inside a `#[cfg(test)]` module are exempt, like every test-only
//! token.

use crate::lexer::TokKind;
use crate::report::Finding;
use crate::source::{CodeTok, SourceFile};

pub const RULE: &str = "macro-fn";

pub fn check(sf: &SourceFile) -> Vec<Finding> {
    let code = &sf.code;
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        // `macro_rules ! name {` (or `(`/`[`): the body is the next
        // balanced group.
        let is_def = code[i].tok.is_ident("macro_rules")
            && code.get(i + 1).is_some_and(|t| t.tok.is_punct('!'))
            && code
                .get(i + 2)
                .is_some_and(|t| t.tok.kind == TokKind::Ident);
        if !is_def {
            i += 1;
            continue;
        }
        let name = &code[i + 2].tok.text;
        let body = i + 3;
        let end = group_end(code, body);
        if !code[i].in_cfg_test {
            for k in body..end {
                let defines_fn = code[k].tok.is_ident("fn")
                    && code
                        .get(k + 1)
                        .is_some_and(|t| t.tok.kind == TokKind::Ident);
                if defines_fn {
                    let f = &code[k + 1].tok;
                    out.push(Finding::new(
                        RULE,
                        &sf.rel_path,
                        f.line,
                        Some(&f.text),
                        format!(
                            "`fn {}` is defined inside `macro_rules! {name}`; the call \
                             graph cannot follow macro bodies, so its calls never reach \
                             the hot set — define it once outside the macro",
                            f.text
                        ),
                    ));
                }
            }
        }
        i = end.max(i + 1);
    }
    out
}

/// Index one past the balanced group opening at `open` (any of `{`, `(`,
/// `[`); `open` itself when it is not an opening bracket.
fn group_end(code: &[CodeTok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, ct) in code.iter().enumerate().skip(open) {
        match ct.tok.kind {
            TokKind::Punct('{' | '(' | '[') => depth += 1,
            TokKind::Punct('}' | ')' | ']') => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ if depth == 0 => return open,
            _ => {}
        }
    }
    code.len()
}
