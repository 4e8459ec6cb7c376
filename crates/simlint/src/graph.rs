//! The intra-workspace call graph and the derived hot set.
//!
//! PR 8's hot set was a hand-maintained name registry — it went stale the
//! moment a hot function was renamed or split. This pass derives it: fn
//! definitions come from the structural pass ([`crate::source`]), call
//! sites are resolved best-effort by name, and the hot set is the
//! transitive closure from a short list of seed entry points (the event
//! loop, the availability scan, the backfill passes, the planner and the
//! router estimate path).
//!
//! Resolution is deliberately conservative in the *over*-approximating
//! direction — a call that could reach several same-named definitions
//! marks all of them hot (trait-method fan-out), and anything that can't
//! be matched to a workspace definition lands in an explicit unresolved
//! bucket instead of being silently dropped:
//!
//! - `recv.name(…)` — fans out to every method definition named `name`;
//!   when the receiver is literally `self` and the enclosing impl defines
//!   `name`, it resolves to that one definition instead.
//! - `Type::name(…)` — resolves via the (impl type, name) index; `Self::`
//!   uses the enclosing impl type. An upper-case qualifier with no
//!   matching workspace method (e.g. `Vec::new`) is unresolved, *not*
//!   fanned out — ubiquitous std names must never drag unrelated
//!   definitions into the hot set.
//! - `module::name(…)` / bare `name(…)` — resolves to free functions of
//!   that name.
//! - Macros (`name!…`), keywords and `#[cfg(test)]` code are skipped. A
//!   `macro_rules!` body is not followed either: its calls go through
//!   metavariables that resolve to nothing, and a `fn` it defines would
//!   show up as a free function of the macro's file. The `macro-fn` rule
//!   ([`crate::rules::macro_fn`]) therefore reports every `fn` defined in
//!   a non-test `macro_rules!` body.
//!
//! The derived set is committed as `results/hot_set.json` and ratcheted:
//! a rename/split that changes hot coverage is a visible diff that fails
//! CI until re-blessed with `SIMLINT_BLESS=1` — never a silent hole.

use crate::json::{self, n, obj, s, Value};
use crate::report::Finding;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

pub const HOT_SET_REL: &str = "results/hot_set.json";

/// Seed entry points of the hot closure. Names, not paths: these are the
/// functions the profiler says dominate a run — the event loop, the
/// availability-profile scan, the backfill passes, the incremental
/// planner and the router estimate path. `backfill_candidates` and
/// `backfill` are seeded explicitly because they are the public RL
/// action-space API: the heuristic passes start jobs through
/// `start_backfill`, the agent calls both every step. A trailing `*` is a
/// prefix glob.
pub const SEEDS: &[&str] = &[
    "advance",
    "apply_due_events",
    "earliest_fit",
    "easy_pass",
    "easy_pass_with_order",
    "conservative_pass",
    "plan_conservative_starts",
    "route",
    "reroute_pass",
    "apply_platform_event",
    "estimated_start*",
    "backfill_candidates",
    "backfill",
];

fn seed_matches(name: &str) -> bool {
    SEEDS.iter().any(|pat| match pat.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => name == *pat,
    })
}

/// One fn definition in the workspace.
#[derive(Debug, Clone)]
pub struct Def {
    pub file: String,
    pub name: String,
    /// Enclosing `impl`/`trait` target; `None` for free functions.
    pub impl_ty: Option<String>,
    pub line: u32,
    in_cfg_test: bool,
}

/// Keywords that look like calls when followed by `(` — `if (…)`,
/// `return (a, b)`, `match (x, y)` — and must never be call sites.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "in", "return", "break", "continue", "move",
    "as", "let", "mut", "ref", "unsafe", "await", "yield", "use", "pub", "where", "box", "dyn",
    "fn", "impl", "struct", "enum", "trait", "mod", "const", "static", "type", "crate", "super",
    "self", "Self",
];

pub struct CallGraph {
    pub defs: Vec<Def>,
    /// caller def id → callee def ids (resolved).
    edges: Vec<BTreeSet<usize>>,
    /// caller def id → call names that matched no workspace definition.
    unresolved: Vec<BTreeSet<String>>,
}

impl CallGraph {
    /// Builds the graph over a set of analyzed files (one file is fine —
    /// the fixture path — the closure is then intra-file).
    pub fn build(files: &[SourceFile]) -> CallGraph {
        CallGraph::build_refs(&files.iter().collect::<Vec<_>>())
    }

    /// [`CallGraph::build`] over borrowed files (the repo walk keeps the
    /// parsed files alive for the per-file rule pass that follows).
    pub fn build_refs(files: &[&SourceFile]) -> CallGraph {
        // Pass 1: the definition table plus name indices. Test-only
        // definitions exist in the table (ids must line up with
        // `SourceFile::defs`) but are neither call targets nor seeds.
        let mut defs: Vec<Def> = Vec::new();
        let mut base: Vec<usize> = Vec::with_capacity(files.len());
        for sf in files {
            base.push(defs.len());
            for d in &sf.defs {
                defs.push(Def {
                    file: sf.rel_path.clone(),
                    name: d.name.clone(),
                    impl_ty: d.impl_ty.clone(),
                    line: d.line,
                    in_cfg_test: d.in_cfg_test,
                });
            }
        }
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_ty_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, d) in defs.iter().enumerate() {
            if d.in_cfg_test {
                continue;
            }
            match &d.impl_ty {
                Some(ty) => {
                    methods_by_name.entry(&d.name).or_default().push(id);
                    by_ty_name.entry((ty, &d.name)).or_default().push(id);
                }
                None => free_by_name.entry(&d.name).or_default().push(id),
            }
        }

        // Pass 2: call sites.
        let mut edges = vec![BTreeSet::new(); defs.len()];
        let mut unresolved = vec![BTreeSet::new(); defs.len()];
        for (fi, sf) in files.iter().enumerate() {
            let code = &sf.code;
            for (i, ct) in code.iter().enumerate() {
                if ct.in_cfg_test || ct.tok.kind != crate::lexer::TokKind::Ident {
                    continue;
                }
                let Some(caller) = ct.fn_def.map(|local| base[fi] + local) else {
                    continue; // top-level expression, not inside any fn
                };
                let name = ct.tok.text.as_str();
                // A call site is `name(` or turbofish `name::<…>(`.
                let followed_by_call = code.get(i + 1).is_some_and(|t| t.tok.is_punct('('))
                    || (code.get(i + 1).is_some_and(|t| t.tok.is_punct(':'))
                        && code.get(i + 2).is_some_and(|t| t.tok.is_punct(':'))
                        && code.get(i + 3).is_some_and(|t| t.tok.is_punct('<')));
                if !followed_by_call {
                    continue;
                }
                // `name!(…)` is a macro; `fn name(…)` is the definition.
                if code.get(i + 1).is_some_and(|t| t.tok.is_punct('!'))
                    || (i > 0 && code[i - 1].tok.is_ident("fn"))
                {
                    continue;
                }

                let prev_is = |c: char| i > 0 && code[i - 1].tok.is_punct(c);
                let targets: Option<Vec<usize>> = if prev_is('.') {
                    // Method call. `self.name(…)` resolves precisely when
                    // the enclosing impl defines `name`; otherwise fan out.
                    let self_recv = i >= 2 && code[i - 2].tok.is_ident("self");
                    let caller_ty = defs[caller].impl_ty.clone();
                    let precise = if self_recv {
                        caller_ty
                            .as_deref()
                            .and_then(|ty| by_ty_name.get(&(ty, name)).cloned())
                    } else {
                        None
                    };
                    precise.or_else(|| methods_by_name.get(name).cloned())
                } else if prev_is(':') && i >= 2 && code[i - 2].tok.is_punct(':') {
                    // Path call `Q::name(…)`.
                    let qual = (i >= 3)
                        .then(|| &code[i - 3].tok)
                        .filter(|t| t.kind == crate::lexer::TokKind::Ident);
                    match qual {
                        Some(q) => {
                            let qname = if q.text == "Self" {
                                defs[caller].impl_ty.clone().unwrap_or_default()
                            } else {
                                q.text.clone()
                            };
                            if let Some(ids) = by_ty_name.get(&(qname.as_str(), name)) {
                                Some(ids.clone())
                            } else if qname.starts_with(char::is_uppercase) {
                                // `Vec::new`, `SimTime::from` — a type
                                // with no such workspace method. Never
                                // fan out on ubiquitous std names.
                                None
                            } else {
                                // `module::name(…)` — a free fn path.
                                free_by_name.get(name).cloned()
                            }
                        }
                        None => None,
                    }
                } else if !KEYWORDS.contains(&name) && !prev_is('#') {
                    // Bare call — a free function (or a tuple-struct
                    // constructor, which resolves to nothing).
                    free_by_name.get(name).cloned()
                } else {
                    continue;
                };

                match targets {
                    Some(ids) if !ids.is_empty() => {
                        edges[caller].extend(ids);
                    }
                    _ => {
                        unresolved[caller].insert(name.to_string());
                    }
                }
            }
        }

        CallGraph {
            defs,
            edges,
            unresolved,
        }
    }

    /// The transitive closure from the seed entry points, plus the
    /// unresolved-call bucket restricted to hot callers (the calls the
    /// graph could not account for — reviewable, not ratcheted).
    pub fn hot_set(&self) -> HotSet {
        let mut hot_ids: BTreeSet<usize> = BTreeSet::new();
        let mut work: Vec<usize> = Vec::new();
        for (id, d) in self.defs.iter().enumerate() {
            if !d.in_cfg_test && seed_matches(&d.name) {
                hot_ids.insert(id);
                work.push(id);
            }
        }
        while let Some(id) = work.pop() {
            for &callee in &self.edges[id] {
                if hot_ids.insert(callee) {
                    work.push(callee);
                }
            }
        }

        let mut entries = BTreeSet::new();
        let mut hot_names = BTreeSet::new();
        let mut unresolved = BTreeSet::new();
        for &id in &hot_ids {
            let d = &self.defs[id];
            entries.insert(HotEntry {
                file: d.file.clone(),
                function: d.name.clone(),
                impl_ty: d.impl_ty.clone(),
            });
            hot_names.insert((d.file.clone(), d.name.clone()));
            unresolved.extend(self.unresolved[id].iter().cloned());
        }
        HotSet {
            entries,
            hot_names,
            unresolved,
        }
    }
}

/// One hot definition as committed to `results/hot_set.json`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct HotEntry {
    pub file: String,
    pub function: String,
    pub impl_ty: Option<String>,
}

/// The derived hot set.
pub struct HotSet {
    pub entries: BTreeSet<HotEntry>,
    /// `(file, fn name)` lookup for rules — two same-named methods in one
    /// file are not distinguished (conservatively both hot).
    hot_names: BTreeSet<(String, String)>,
    /// Call names from hot functions that matched no workspace def.
    pub unresolved: BTreeSet<String>,
}

impl HotSet {
    pub fn is_hot(&self, file: &str, function: &str) -> bool {
        self.hot_names
            .contains(&(file.to_string(), function.to_string()))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hot function names, deduped across files/impls.
    pub fn names(&self) -> BTreeSet<&str> {
        self.entries.iter().map(|e| e.function.as_str()).collect()
    }
}

/// Compares the derived hot set against the committed one. A missing file
/// with an empty derived set is vacuously clean (mini-repos without
/// kernel entry points); anything else must match exactly.
pub fn check(root: &Path, hot: &HotSet) -> Vec<Finding> {
    let mut out = Vec::new();
    let committed = match std::fs::read_to_string(root.join(HOT_SET_REL)) {
        Ok(text) => match parse_hot_set(&text) {
            Ok(c) => c,
            Err(e) => {
                out.push(Finding::new(
                    "hot-set",
                    HOT_SET_REL,
                    0,
                    None,
                    format!("hot set unreadable ({e}); re-bless with SIMLINT_BLESS=1"),
                ));
                return out;
            }
        },
        Err(_) => {
            if !hot.is_empty() {
                out.push(Finding::new(
                    "hot-set",
                    HOT_SET_REL,
                    0,
                    None,
                    format!(
                        "hot set file missing ({} derived hot function(s)); \
                         create it with SIMLINT_BLESS=1",
                        hot.len()
                    ),
                ));
            }
            return out;
        }
    };

    for e in &hot.entries {
        if !committed.entries.contains(e) {
            out.push(Finding::new(
                "hot-set",
                &e.file,
                0,
                Some(&e.function),
                format!(
                    "`{}` is in the derived hot set but not in {HOT_SET_REL}; \
                     a rename/split changed hot coverage — review and re-bless \
                     with SIMLINT_BLESS=1",
                    qualify(e)
                ),
            ));
        }
    }
    for e in &committed.entries {
        if !hot.entries.contains(e) {
            out.push(Finding::new(
                "hot-set",
                HOT_SET_REL,
                0,
                Some(&e.function),
                format!(
                    "committed hot set lists `{}` but it is no longer derived \
                     ({}) — review and re-bless with SIMLINT_BLESS=1",
                    qualify(e),
                    e.file
                ),
            ));
        }
    }
    if committed.seeds != SEEDS {
        out.push(Finding::new(
            "hot-set",
            HOT_SET_REL,
            0,
            None,
            "seed list in the committed hot set differs from the analyzer's; \
             re-bless with SIMLINT_BLESS=1"
                .to_string(),
        ));
    }
    out
}

fn qualify(e: &HotEntry) -> String {
    match &e.impl_ty {
        Some(ty) => format!("{ty}::{}", e.function),
        None => e.function.clone(),
    }
}

/// Rewrites `results/hot_set.json` from the derived set. Skipped entirely
/// when the derived set is empty and no file exists (vacuous mini-repos).
pub fn bless(root: &Path, hot: &HotSet) -> std::io::Result<()> {
    let path = root.join(HOT_SET_REL);
    if hot.is_empty() && !path.exists() {
        return Ok(());
    }
    let functions: Vec<Value> = hot
        .entries
        .iter()
        .map(|e| {
            obj(vec![
                ("file", s(&e.file)),
                ("function", s(&e.function)),
                ("impl", e.impl_ty.as_deref().map(s).unwrap_or(Value::Null)),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("version", n(1)),
        ("seeds", Value::Arr(SEEDS.iter().map(|p| s(p)).collect())),
        ("functions", Value::Arr(functions)),
        ("count", n(hot.entries.len() as u64)),
    ]);
    std::fs::write(path, json::to_string_pretty(&doc))
}

struct CommittedHotSet {
    seeds: Vec<String>,
    entries: BTreeSet<HotEntry>,
}

fn parse_hot_set(text: &str) -> Result<CommittedHotSet, String> {
    let doc = json::parse(text)?;
    let seeds = doc
        .get("seeds")
        .and_then(Value::as_arr)
        .ok_or("missing `seeds`")?
        .iter()
        .map(|v| v.as_str().map(str::to_string).ok_or("non-string seed"))
        .collect::<Result<Vec<_>, _>>()?;
    let mut entries = BTreeSet::new();
    for e in doc
        .get("functions")
        .and_then(Value::as_arr)
        .ok_or("missing `functions`")?
    {
        entries.insert(HotEntry {
            file: e
                .get("file")
                .and_then(Value::as_str)
                .ok_or("entry missing `file`")?
                .to_string(),
            function: e
                .get("function")
                .and_then(Value::as_str)
                .ok_or("entry missing `function`")?
                .to_string(),
            impl_ty: e.get("impl").and_then(Value::as_str).map(str::to_string),
        });
    }
    Ok(CommittedHotSet { seeds, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_names_of(src: &str) -> BTreeSet<String> {
        let sf = SourceFile::parse("crates/hpcsim/src/x.rs", src);
        let g = CallGraph::build(std::slice::from_ref(&sf));
        g.hot_set()
            .entries
            .iter()
            .map(|e| e.function.clone())
            .collect()
    }

    #[test]
    fn closure_follows_free_calls() {
        let names = hot_names_of(
            "fn advance() { helper(); }\n\
             fn helper() { deep(); }\n\
             fn deep() {}\n\
             fn cold() { deep(); }\n",
        );
        assert!(names.contains("advance"));
        assert!(names.contains("helper"));
        assert!(names.contains("deep"));
        assert!(!names.contains("cold"));
    }

    #[test]
    fn recursion_terminates() {
        let names = hot_names_of("fn advance(n: u32) { if n > 0 { advance(n - 1); } }\n");
        assert_eq!(names.len(), 1);
    }

    #[test]
    fn mutual_recursion_terminates_and_covers_both() {
        let names = hot_names_of(
            "fn advance(n: u32) { pong(n); }\n\
             fn pong(n: u32) { if n > 0 { advance(n - 1); } }\n",
        );
        assert!(names.contains("advance") && names.contains("pong"));
    }

    #[test]
    fn trait_method_calls_fan_out_to_all_impls() {
        let names = hot_names_of(
            "struct A; struct B;\n\
             impl Router for A { fn route(&self) { self.tally(); } }\n\
             impl Router for B { fn route(&self) {} }\n\
             impl A { fn tally(&self) {} }\n\
             fn advance(r: &dyn Router) { r.plan(); }\n\
             impl Router for A { fn plan(&self) {} }\n",
        );
        // `route` is itself a seed (both impls), and `self.tally()`
        // resolves precisely to A::tally via the enclosing impl.
        assert!(names.contains("route"));
        assert!(names.contains("tally"));
        assert!(names.contains("plan"));
    }

    #[test]
    fn shadowed_free_fn_and_method_are_told_apart() {
        // A method call never marks the same-named free fn, and a bare
        // call never marks the method.
        let names = hot_names_of(
            "fn tick() {}\n\
             struct T;\n\
             impl T { fn tick(&self) {} fn shim(&self) {} }\n\
             fn advance(t: &T) { t.tick(); }\n\
             fn apply_due_events() { shim_free(); }\n\
             fn shim_free() { tick(); }\n",
        );
        // advance → method T::tick (hot); apply_due_events → shim_free →
        // free tick (hot). Both names land, but via distinct entries:
        let sf = SourceFile::parse(
            "crates/hpcsim/src/x.rs",
            "fn tick() {}\n\
             struct T;\n\
             impl T { fn tick(&self) {} }\n\
             fn advance(t: &T) { t.tick(); }\n",
        );
        let g = CallGraph::build(std::slice::from_ref(&sf));
        let hot = g.hot_set();
        let method_hot = hot
            .entries
            .iter()
            .any(|e| e.function == "tick" && e.impl_ty.as_deref() == Some("T"));
        let free_hot = hot
            .entries
            .iter()
            .any(|e| e.function == "tick" && e.impl_ty.is_none());
        assert!(method_hot, "{:?}", hot.entries);
        assert!(!free_hot, "method call must not mark the free fn");
        assert!(names.contains("shim_free"));
    }

    #[test]
    fn std_path_calls_do_not_fan_out() {
        let names = hot_names_of(
            "struct S; impl S { fn new() -> S { S } }\n\
             fn advance() { let v = Vec::new(); let _ = v; }\n",
        );
        // `Vec::new` must not drag `S::new` into the hot set.
        assert!(!names.contains("new"), "{names:?}");
    }

    #[test]
    fn self_path_calls_resolve_to_enclosing_impl() {
        let names = hot_names_of(
            "struct S;\n\
             impl S { fn advance(&self) { Self::stage(); } fn stage() {} }\n\
             struct Other; impl Other { fn stage() {} }\n",
        );
        let sf = SourceFile::parse(
            "crates/hpcsim/src/x.rs",
            "struct S;\n\
             impl S { fn advance(&self) { Self::stage(); } fn stage() {} }\n\
             struct Other; impl Other { fn stage() {} }\n",
        );
        let g = CallGraph::build(std::slice::from_ref(&sf));
        let hot = g.hot_set();
        assert!(names.contains("stage"));
        assert!(
            !hot.entries
                .iter()
                .any(|e| e.impl_ty.as_deref() == Some("Other")),
            "Self:: must resolve to the enclosing impl only: {:?}",
            hot.entries
        );
    }

    #[test]
    fn trait_methods_belong_to_the_trait_not_its_supertraits() {
        let sf = SourceFile::parse(
            "crates/hpcsim/src/x.rs",
            "pub trait Probe: std::fmt::Debug + Clone { fn count(&mut self) {} }\n\
             fn advance<P: Probe>(p: &mut P) { Probe::count(p); }\n",
        );
        let g = CallGraph::build(std::slice::from_ref(&sf));
        let hot = g.hot_set();
        // The default method is labelled `Probe`, not `Debug`, and the
        // path call resolves to it rather than landing in the bucket.
        assert!(
            hot.entries
                .iter()
                .any(|e| e.function == "count" && e.impl_ty.as_deref() == Some("Probe")),
            "{:?}",
            hot.entries
        );
        assert!(!hot.unresolved.contains("count"), "{:?}", hot.unresolved);
    }

    #[test]
    fn macros_and_cfg_test_are_skipped() {
        let names = hot_names_of(
            "fn advance() { assert!(ok()); }\n\
             fn assert() {}\n\
             #[cfg(test)]\n\
             mod tests { fn advance() { secret(); } }\n\
             fn secret() {}\n",
        );
        assert!(!names.contains("assert"), "macro bang must be skipped");
        assert!(!names.contains("ok")); // no def named ok
        assert!(!names.contains("secret"), "cfg(test) callers don't count");
    }

    #[test]
    fn fns_defined_in_macro_bodies_are_reported() {
        // The blind spot the `macro-fn` rule closes: the forwarder's calls
        // resolve to nothing, so `Engine::tick` never turns hot, and the
        // macro's own `fn advance` is a bogus free-function seed.
        let src = "struct Engine;\n\
                   impl Engine { fn tick(&self) {} }\n\
                   macro_rules! forward { ($ty:ty) => { fn advance(&self) { <$ty>::tick(self) } } }\n\
                   #[cfg(test)]\n\
                   mod tests { macro_rules! local { () => { fn nested() {} } } }\n";
        let sf = SourceFile::parse("crates/hpcsim/src/x.rs", src);
        let hot = CallGraph::build(std::slice::from_ref(&sf)).hot_set();
        assert!(!hot.names().contains("tick"), "{:?}", hot.entries);
        assert!(hot
            .entries
            .iter()
            .any(|e| e.function == "advance" && e.impl_ty.is_none()));
        let out = crate::check_source("crates/hpcsim/src/x.rs", src);
        let hits: Vec<_> = out
            .findings
            .iter()
            .filter(|f| f.rule == "macro-fn")
            .collect();
        assert_eq!(hits.len(), 1, "{:?}", out.findings);
        assert_eq!(hits[0].function.as_deref(), Some("advance"));
        assert_eq!(hits[0].line, 3);
        // The same file without the macro is clean under the rule.
        let fixed =
            "struct Engine;\nimpl Engine { fn tick(&self) {} fn advance(&self) { self.tick() } }\n";
        let out = crate::check_source("crates/hpcsim/src/x.rs", fixed);
        assert!(out.findings.iter().all(|f| f.rule != "macro-fn"));
    }

    #[test]
    fn unresolved_calls_land_in_the_bucket() {
        let sf = SourceFile::parse(
            "crates/hpcsim/src/x.rs",
            "fn advance(xs: &[u32]) { let _ = xs.binary_search(&1); mystery(); }\n",
        );
        let g = CallGraph::build(std::slice::from_ref(&sf));
        let hot = g.hot_set();
        assert!(hot.unresolved.contains("binary_search"));
        assert!(hot.unresolved.contains("mystery"));
    }

    #[test]
    fn seed_glob_matches_prefix() {
        let names = hot_names_of("fn estimated_start_scratch() {}\nfn estimate() {}\n");
        assert!(names.contains("estimated_start_scratch"));
        assert!(!names.contains("estimate"));
    }
}
