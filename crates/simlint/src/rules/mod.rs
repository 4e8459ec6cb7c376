//! The rule set. Each rule takes an analyzed [`crate::source::SourceFile`]
//! and returns raw findings (or, for the ratcheted rules, [`RatchetHit`]s);
//! the engine at the [crate root](crate) applies allow directives and
//! the inventory ratchets on top.
//!
//! Which files a rule sees is decided by path in [`crate::check_source`]
//! (and documented per rule) — rules themselves only look at tokens.

pub mod float_order;
pub mod hot_alloc;
pub mod macro_fn;
pub mod panic_path;
pub mod pin_coverage;
pub mod probe_gating;
pub mod sync_audit;
pub mod time_cast;
pub mod unordered_iter;
pub mod wall_clock;

use crate::lexer::TokKind;
use crate::source::CodeTok;

/// One raw hit from a ratcheted rule, before the engine splits it into a
/// hard violation or an (allowed) inventory entry.
pub struct RatchetHit {
    pub line: u32,
    /// Enclosing fn; empty for file-level hits.
    pub function: String,
    /// Inventory identity of the matched pattern.
    pub pattern: &'static str,
    /// The violation message used when the hit is *not* allowed.
    pub message: String,
}

/// True when the code token at `i` starts `.name(` — a method call on
/// some receiver (path-form `Type::name(...)` does not match).
pub(crate) fn is_method_call(code: &[CodeTok], i: usize, name: &str) -> bool {
    i > 0
        && code[i - 1].tok.is_punct('.')
        && code[i].tok.is_ident(name)
        && code.get(i + 1).is_some_and(|t| {
            // Plain call or turbofish: `.collect()` / `.collect::<V>()`.
            t.tok.is_punct('(') || t.tok.is_punct(':')
        })
}

/// True when tokens at `i..` spell the path call `A::b(` (allowing the
/// two-colon separator the lexer emits as two `:` puncts).
pub(crate) fn is_path_call(code: &[CodeTok], i: usize, ty: &str, method: &str) -> bool {
    code[i].tok.is_ident(ty)
        && code.get(i + 1).is_some_and(|t| t.tok.is_punct(':'))
        && code.get(i + 2).is_some_and(|t| t.tok.is_punct(':'))
        && code.get(i + 3).is_some_and(|t| t.tok.is_ident(method))
        && code.get(i + 4).is_some_and(|t| t.tok.is_punct('('))
}

/// Keywords that can appear directly before `[`/`(` without making the
/// bracket an index/call on a value (`let [a, b] = …`, `return (x)`).
pub(crate) const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "in", "return", "break", "continue", "move",
    "as", "let", "mut", "ref", "unsafe", "await", "yield", "use", "pub", "where", "box", "dyn",
    "fn", "impl", "struct", "enum", "trait", "mod", "const", "static", "type",
];

/// Walks left from code index `end` (exclusive) across one postfix
/// expression chain — identifiers, numbers, `.`, `?`, `&`, turbofish
/// `::<…>`, and balanced `(…)` / `[…]` groups — and returns every
/// identifier it crosses (receivers, field names, method names, and the
/// contents of balanced groups). Used by rules that classify an
/// expression by the names appearing in it (float-order receivers,
/// time-cast subjects).
pub(crate) fn chain_idents_before(code: &[CodeTok], end: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut j = end;
    while j > 0 {
        let t = &code[j - 1].tok;
        match t.kind {
            TokKind::Ident => {
                if EXPR_KEYWORDS.contains(&t.text.as_str()) {
                    break;
                }
                idents.push(t.text.clone());
                j -= 1;
            }
            TokKind::Num => j -= 1,
            TokKind::Punct('.' | '?' | '&') => j -= 1,
            // Turbofish tail `::<T>` (scanning backward: `>` … `<` `:` `:`).
            TokKind::Punct('>') => {
                let mut depth = 1i32;
                j -= 1;
                while j > 0 && depth > 0 {
                    match code[j - 1].tok.kind {
                        TokKind::Punct('>') => depth += 1,
                        TokKind::Punct('<') => depth -= 1,
                        TokKind::Ident => idents.push(code[j - 1].tok.text.clone()),
                        _ => {}
                    }
                    j -= 1;
                }
            }
            TokKind::Punct(':') => j -= 1,
            // Balanced group: collect its identifiers too, so
            // `(a.end_time - b) as u32` sees `end_time`.
            TokKind::Punct(close @ (')' | ']')) => {
                let open = if close == ')' { '(' } else { '[' };
                let mut depth = 1i32;
                j -= 1;
                while j > 0 && depth > 0 {
                    let inner = &code[j - 1].tok;
                    if inner.is_punct(close) {
                        depth += 1;
                    } else if inner.is_punct(open) {
                        depth -= 1;
                    } else if inner.kind == TokKind::Ident
                        && !EXPR_KEYWORDS.contains(&inner.text.as_str())
                    {
                        idents.push(inner.text.clone());
                    }
                    j -= 1;
                }
            }
            _ => break,
        }
    }
    idents
}
