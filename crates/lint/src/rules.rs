//! The rule catalogue: Nova's concurrency invariants as token-level
//! checks over a scanned [`SourceFile`].
//!
//! | rule               | what fires                                            | waiver |
//! |--------------------|-------------------------------------------------------|--------|
//! | `unsafe_safety`    | `unsafe` without a covering `// SAFETY:` comment      | write the comment |
//! | `unsafe_allowlist` | `unsafe` outside the audited-file allowlist           | extend the allowlist (a PR-visible act) |
//! | `hot_lock`         | lock acquisition (`.lock()`, Condvar waits) or a lock type named inside a hot-path fn body | `// lint: allow(lock, reason)` |
//! | `ordering_relaxed` | `Ordering::{Relaxed,Acquire,Release,AcqRel}` without a covering `// ORDERING:` comment | write the comment |
//! | `ordering_seqcst`  | `Ordering::SeqCst` anywhere — probable over-synchronization | `// lint: allow(seqcst, reason)` |
//! | `no_alloc`         | allocation in a fn tagged `// lint: no_alloc`         | `// lint: allow(alloc, reason)` |
//! | `enum_wildcard`    | `_ =>` arm in a match over a protocol enum            | `// lint: allow(wildcard, reason)` |
//! | `hot_panic`        | `unwrap`/`expect`/`panic!` family in a hot-path fn    | `// lint: allow(panic, reason)` |
//!
//! Hot-path regions come from [`RuleConfig`]: a file either has a
//! named list of hot functions or is hot wholesale (the data plane
//! files, where even "control plane" sections must justify their
//! locks explicitly). Any fn anywhere can additionally opt in with
//! `// lint: hot_path`. Test code (`#[test]` / `#[cfg(test)]`) is
//! exempt from every rule except the unsafe audit.

use crate::lexer::TokenKind;
use crate::scanner::{AnnotationKind, FnItem, SourceFile};

/// How much of a file counts as hot path.
#[derive(Debug, Clone)]
pub enum Region {
    /// Every fn in the file (minus tests).
    WholeFile,
    /// Only the named fns.
    Fns(Vec<String>),
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    /// Trimmed source text of the offending line.
    pub text: String,
    pub message: String,
}

impl Finding {
    /// Stable identity for the suppression baseline: rule + file +
    /// line *text* (not line number, so unrelated edits above a
    /// baselined site do not resurrect it).
    pub fn fingerprint(&self) -> String {
        format!("{}|{}|{}", self.rule, self.file, self.text)
    }
}

/// Which files are hot, which may contain `unsafe`, which enums are
/// wire protocols. [`RuleConfig::nova`] is the workspace's real
/// policy; tests build ad-hoc configs to point rules at fixtures.
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    /// `(path suffix, region)` — a file matches by `ends_with`.
    pub hot_regions: Vec<(String, Region)>,
    /// Path suffixes of the only files allowed to contain `unsafe`.
    pub unsafe_allowlist: Vec<String>,
    /// Enum type names whose matches must stay wildcard-free.
    pub protocol_enums: Vec<String>,
}

impl RuleConfig {
    /// Nova's checked invariants, as shipped.
    pub fn nova() -> RuleConfig {
        let fns = |names: &[&str]| Region::Fns(names.iter().map(|s| s.to_string()).collect());
        RuleConfig {
            hot_regions: vec![
                // The shared join state machine's probe path.
                (
                    "crates/exec/src/join.rs".into(),
                    fns(&["on_tuple", "on_batch", "end_batch"]),
                ),
                // The arena-backed window state: insert, probe, GC.
                (
                    "crates/runtime/src/window.rs".into(),
                    fns(&[
                        "insert_and_probe_with",
                        "push_tuple",
                        "visit_chain",
                        "slot_of",
                        "gc",
                        "recycle_chain",
                        "window_of",
                    ]),
                ),
                // The data plane and the telemetry instruments carry
                // every tuple: hot wholesale. Their genuine control
                // plane sections (channel construction, registry
                // bookkeeping, snapshot assembly) must say so with
                // `allow(lock, …)` — that asymmetry is the point.
                ("crates/exec/src/channel.rs".into(), Region::WholeFile),
                ("crates/exec/src/metrics.rs".into(), Region::WholeFile),
            ],
            unsafe_allowlist: vec!["crates/exec/src/affinity.rs".into()],
            protocol_enums: vec!["JoinMsg".into(), "SinkMsg".into(), "SourceCtrl".into()],
        }
    }

    fn region_for<'a>(&'a self, rel_path: &str) -> Option<&'a Region> {
        self.hot_regions
            .iter()
            .find(|(suffix, _)| rel_path.ends_with(suffix.as_str()))
            .map(|(_, r)| r)
    }

    fn unsafe_allowed(&self, rel_path: &str) -> bool {
        self.unsafe_allowlist
            .iter()
            .any(|s| rel_path.ends_with(s.as_str()))
    }
}

/// Run every rule over one scanned file.
pub fn check_file(file: &SourceFile, cfg: &RuleConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_unsafe(file, cfg, &mut out);
    rule_ordering(file, &mut out);
    rule_enum_wildcard(file, cfg, &mut out);
    rule_no_alloc(file, &mut out);
    for f in hot_fns(file, cfg) {
        rule_hot_lock(file, f, &mut out);
        rule_hot_panic(file, f, &mut out);
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// The fn items the lock/panic rules scan: region-selected fns plus
/// anything tagged `// lint: hot_path`, tests excluded.
fn hot_fns<'a>(file: &'a SourceFile, cfg: &RuleConfig) -> Vec<&'a FnItem> {
    let region = cfg.region_for(&file.rel_path);
    file.fns
        .iter()
        .filter(|f| !f.in_test)
        .filter(|f| {
            f.hot_path
                || match region {
                    Some(Region::WholeFile) => true,
                    Some(Region::Fns(names)) => names.iter().any(|n| n == &f.name),
                    None => false,
                }
        })
        .collect()
}

/// Rules 1a/1b: every `unsafe` needs a `// SAFETY:` comment, and only
/// allowlisted files may contain `unsafe` at all. This is the one rule
/// that also applies to test code — an unsound test is still unsound.
fn rule_unsafe(file: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>) {
    for t in &file.tokens {
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        if !file.covered_by(t.line, &AnnotationKind::Safety) {
            out.push(Finding {
                rule: "unsafe_safety",
                file: file.rel_path.clone(),
                line: t.line,
                text: file.line_text(t.line).to_string(),
                message: "`unsafe` without a covering `// SAFETY:` comment".into(),
            });
        }
        if !cfg.unsafe_allowed(&file.rel_path) {
            out.push(Finding {
                rule: "unsafe_allowlist",
                file: file.rel_path.clone(),
                line: t.line,
                text: file.line_text(t.line).to_string(),
                message: "`unsafe` outside the audited-file allowlist".into(),
            });
        }
    }
}

/// Rule 3: atomic memory orderings. `Relaxed`/`Acquire`/`Release`/
/// `AcqRel` must carry an `// ORDERING:` justification; `SeqCst` is
/// flagged as probable over-synchronization. Matching the full
/// `Ordering :: Variant` path keeps `std::cmp::Ordering::Greater`
/// (and any other `Ordering` enum) from ever firing.
fn rule_ordering(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len().saturating_sub(2) {
        let path = toks[i].kind == TokenKind::Ident
            && toks[i].text == "Ordering"
            && toks[i + 1].text == "::"
            && toks[i + 2].kind == TokenKind::Ident;
        if !path {
            continue;
        }
        let variant = toks[i + 2].text.as_str();
        let line = toks[i + 2].line;
        if file.in_test(line) {
            continue;
        }
        match variant {
            "SeqCst" if !file.allowed(line, "seqcst") => {
                out.push(Finding {
                    rule: "ordering_seqcst",
                    file: file.rel_path.clone(),
                    line,
                    text: file.line_text(line).to_string(),
                    message: "`Ordering::SeqCst` is probably over-synchronized — \
                              downgrade, or waive with `// lint: allow(seqcst, reason)`"
                        .into(),
                });
            }
            "Relaxed" | "Acquire" | "Release" | "AcqRel"
                if !file.covered_by(line, &AnnotationKind::Ordering) =>
            {
                out.push(Finding {
                    rule: "ordering_relaxed",
                    file: file.rel_path.clone(),
                    line,
                    text: file.line_text(line).to_string(),
                    message: format!(
                        "`Ordering::{variant}` without a covering `// ORDERING:` justification"
                    ),
                });
            }
            _ => {}
        }
    }
}

/// Rule 5: no `_ =>` arm in a match over a protocol enum — adding a
/// wire-protocol variant must fail the build at every match site. A
/// match "is over a protocol enum" when the enum's name appears in the
/// scrutinee or in any arm pattern.
fn rule_enum_wildcard(file: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>) {
    for m in &file.matches {
        if file.in_test(m.line) {
            continue;
        }
        let mentions_protocol = m
            .head
            .iter()
            .chain(m.arms.iter().flat_map(|a| a.pattern.iter()))
            .filter(|t| t.kind == TokenKind::Ident)
            .any(|t| cfg.protocol_enums.iter().any(|e| e == &t.text));
        if !mentions_protocol {
            continue;
        }
        for arm in m.arms.iter().filter(|a| a.wildcard) {
            if file.allowed(arm.line, "wildcard") {
                continue;
            }
            out.push(Finding {
                rule: "enum_wildcard",
                file: file.rel_path.clone(),
                line: arm.line,
                text: file.line_text(arm.line).to_string(),
                message: "wildcard `_ =>` arm in a protocol-enum match — \
                          spell the variants out so new ones fail the build"
                    .into(),
            });
        }
    }
}

/// The body tokens of `f`, empty for bodyless trait-method decls.
fn body_tokens<'a>(file: &'a SourceFile, f: &FnItem) -> &'a [crate::lexer::Token] {
    let (b0, b1) = f.body_tokens;
    if b0 >= file.tokens.len() || b1 < b0 {
        return &[];
    }
    &file.tokens[b0..=b1.min(file.tokens.len() - 1)]
}

/// Rule 4: fns tagged `// lint: no_alloc` must not allocate. Checked
/// against a token denylist — `Vec::new`, `Box::new`, `String::new`/
/// `String::from`, `vec!`/`format!`, and the allocating method calls
/// `.clone()`/`.collect()`/`.to_string()`/`.to_owned()`/`.to_vec()`.
/// `Vec::push` and `with_capacity` are deliberately permitted: the
/// arena idiom is "amortize to zero", not "never grow".
fn rule_no_alloc(file: &SourceFile, out: &mut Vec<Finding>) {
    const ALLOC_METHODS: &[&str] = &["clone", "collect", "to_string", "to_owned", "to_vec"];
    for f in file.fns.iter().filter(|f| f.no_alloc && !f.in_test) {
        let toks = body_tokens(file, f);
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let next = toks.get(i + 1).map(|t| t.text.as_str()).unwrap_or("");
            let next2 = toks.get(i + 2).map(|t| t.text.as_str()).unwrap_or("");
            let prev = i
                .checked_sub(1)
                .map(|p| toks[p].text.as_str())
                .unwrap_or("");
            let hit = match t.text.as_str() {
                "Vec" | "Box" => next == "::" && next2 == "new",
                "String" => next == "::" && (next2 == "new" || next2 == "from"),
                "vec" | "format" => next == "!",
                m if ALLOC_METHODS.contains(&m) => prev == "." && next == "(",
                _ => false,
            };
            if hit && !file.allowed(t.line, "alloc") {
                out.push(Finding {
                    rule: "no_alloc",
                    file: file.rel_path.clone(),
                    line: t.line,
                    text: file.line_text(t.line).to_string(),
                    message: format!(
                        "allocation (`{}`) in fn `{}` tagged `// lint: no_alloc`",
                        t.text, f.name
                    ),
                });
            }
        }
    }
}

/// Rule 2: no lock acquisition in a hot-path fn. Fires on `.lock()`,
/// the Condvar wait family, and on naming a lock type (`Mutex`,
/// `RwLock`, `Condvar`) inside the body — constructing a lock on the
/// hot path is as much a smell as taking one.
fn rule_hot_lock(file: &SourceFile, f: &FnItem, out: &mut Vec<Finding>) {
    const ACQUIRE: &[&str] = &[
        "lock",
        "wait",
        "wait_timeout",
        "wait_while",
        "wait_timeout_while",
    ];
    const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar"];
    let toks = body_tokens(file, f);
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev = i
            .checked_sub(1)
            .map(|p| toks[p].text.as_str())
            .unwrap_or("");
        let next = toks.get(i + 1).map(|t| t.text.as_str()).unwrap_or("");
        let call = ACQUIRE.contains(&t.text.as_str()) && prev == "." && next == "(";
        let ty = LOCK_TYPES.contains(&t.text.as_str());
        if (call || ty) && !file.allowed(t.line, "lock") {
            out.push(Finding {
                rule: "hot_lock",
                file: file.rel_path.clone(),
                line: t.line,
                text: file.line_text(t.line).to_string(),
                message: format!(
                    "lock use (`{}`) in hot-path fn `{}` — move it off the hot path \
                     or mark the control-plane section `// lint: allow(lock, reason)`",
                    t.text, f.name
                ),
            });
        }
    }
}

/// Rule 6: no `unwrap`/`expect`/`panic!` family in a hot-path fn.
/// `debug_assert!` is exempt (release builds erase it); plain
/// `assert!` is left to clippy — this rule is about the unconditional
/// aborts that turn a transient condition into a dead shard.
fn rule_hot_panic(file: &SourceFile, f: &FnItem, out: &mut Vec<Finding>) {
    const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let toks = body_tokens(file, f);
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev = i
            .checked_sub(1)
            .map(|p| toks[p].text.as_str())
            .unwrap_or("");
        let next = toks.get(i + 1).map(|t| t.text.as_str()).unwrap_or("");
        let method = (t.text == "unwrap" || t.text == "expect") && prev == "." && next == "(";
        let mac = PANIC_MACROS.contains(&t.text.as_str()) && next == "!";
        if (method || mac) && !file.allowed(t.line, "panic") {
            out.push(Finding {
                rule: "hot_panic",
                file: file.rel_path.clone(),
                line: t.line,
                text: file.line_text(t.line).to_string(),
                message: format!(
                    "`{}` in hot-path fn `{}` — handle the case, \
                     or mark it `// lint: allow(panic, reason)`",
                    t.text, f.name
                ),
            });
        }
    }
}
