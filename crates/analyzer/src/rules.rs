//! The core workspace analyses (MRL-A001..A004, plus the MRL-A010
//! justification audit) and the shared finding machinery.
//!
//! Each rule emits [`Finding`]s with the same line-number-independent
//! FNV-1a fingerprint scheme the lexer linter uses, so findings survive
//! unrelated edits and the committed baseline only churns when a finding
//! genuinely appears or disappears.
//!
//! Suppression is by justification tag, written in a comment on the
//! offending line, in a contiguous comment block immediately above it,
//! or in the comment block above the enclosing function's item (where it
//! covers every site of that rule in the function):
//!
//! * `// panic-free: <why>` — MRL-A001 sink audited as unreachable;
//! * `// arith: <why>` — MRL-A002 arithmetic audited as non-overflowing;
//! * `// alloc: <why>` — MRL-A003 allocation accepted on the hot path
//!   (amortised, bounded, or setup-only);
//! * `// nondet: <why>` — MRL-A008 nondeterminism source reviewed as
//!   result-invariant;
//! * `// safety: <why>` — MRL-A009 unsafe contract (conventional
//!   `// SAFETY:` blocks count: tag matching is case-insensitive).
//!
//! MRL-A010 audits the `// panic-free:` vocabulary itself (lying or
//! stale tags) and therefore has no suppression tag of its own.

use std::collections::BTreeMap;

use crate::graph::CallGraph;
use crate::lexer::Lexed;
use crate::summary::Summaries;
use crate::workspace::Workspace;

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub snippet: String,
    pub fingerprint: u64,
    pub message: String,
}

/// 64-bit FNV-1a — same scheme as the lexer linter, so both baselines
/// share one fingerprint vocabulary.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Crates whose hot paths MRL-A001/A003/A008 trace from.
pub(crate) const HOT_CRATES: &[&str] = &["core", "framework", "sampling", "parallel"];

/// Crates where reached sinks are *reported*. Reachability traverses the
/// whole workspace, but method-call resolution is name-based (see
/// DESIGN.md §3.11) and happily jumps from `core::ExtremeValue::query`
/// into `baselines::GmpHistogram::quantile` because both are named
/// `quantile`. The reference/offline crates (`baselines`, `datagen`,
/// `exact`, `analysis`, `bench`, `cli`) make no hot-path guarantees, so
/// sinks there are noise, not findings.
pub(crate) const REPORT_CRATES: &[&str] =
    &["core", "framework", "sampling", "parallel", "io", "obs"];

/// Crates in scope for the accounting-arithmetic rule.
const ARITH_CRATES: &[&str] = &["core", "framework"];

/// Entry points whose transitive callees must be panic-free (MRL-A001).
pub(crate) const PANIC_ROOTS: &[&str] = &[
    "insert",
    "insert_batch",
    "extend",
    "offer",
    "offer_slice",
    "accept",
    "accept_many",
    "select_weighted",
    "query",
    "query_many",
    "finish",
    "collapse_once",
    "collapse_all_full",
    "perform_collapse",
    "complete_fill",
    "take_filler",
    "begin_fill",
];

/// Result-affecting entry points for the nondeterminism pass (MRL-A008):
/// everything the panic rule roots at, plus the merge/shipment/snapshot
/// surface and the sharded-pipeline lifecycle (worker spawn included —
/// the per-shard ingest loop lives in the constructor's closure).
pub(crate) const NONDET_ROOTS: &[&str] = &[
    "insert",
    "insert_batch",
    "extend",
    "offer",
    "offer_slice",
    "accept",
    "accept_many",
    "select_weighted",
    "query",
    "query_many",
    "rank_of",
    "finish",
    "collapse_once",
    "collapse_all_full",
    "perform_collapse",
    "complete_fill",
    "take_filler",
    "begin_fill",
    "into_shipment",
    "add_buffer",
    "from_shipments",
    "merge_sketches",
    "ship_upward",
    "merge_hierarchical",
    "snapshot",
    "restore",
    "parallel_quantiles",
    "new_with_obs",
    "from_config_with_obs",
];

/// Per-element ingest entry points (MRL-A003) — a strict subset of the
/// panic roots: query/collapse paths may allocate, the per-element path
/// must not.
const INGEST_ROOTS: &[&str] = &[
    "insert",
    "insert_batch",
    "extend",
    "offer",
    "offer_slice",
    "accept",
    "accept_many",
];

/// Identifiers treated as exact-accounting values (weights, counts,
/// stream totals) for MRL-A002. Matching any of these in either operand
/// chain of an unchecked `+ - * <<` puts the site in scope.
pub(crate) const ACCOUNTING_IDENTS: &[&str] = &[
    "weight",
    "w_sum",
    "w_max",
    "mass",
    "total_n",
    "total_weight",
    "elements",
    "count",
    "counts",
    "seen",
    "pending",
    "leaves",
    "collapse_weight_sum",
    "expected_n",
];

/// Justification-tag prefixes, per rule.
fn tag_for(rule: &'static str) -> &'static str {
    match rule {
        "MRL-A001" => "panic-free:",
        "MRL-A002" | "MRL-A007" => "arith:",
        "MRL-A003" => "alloc:",
        "MRL-A005" | "MRL-A006" => "protocol:",
        "MRL-A008" => "nondet:",
        "MRL-A009" => "safety:",
        _ => "\u{0}", // A004/A010 have no tag vocabulary
    }
}

/// Case-insensitive tag containment, so conventional `// SAFETY:` blocks
/// satisfy the lowercase `safety:` vocabulary.
fn has_tag(comment: &str, tag: &str) -> bool {
    comment.to_ascii_lowercase().contains(tag)
}

/// Does a comment at `line`, or in the contiguous pure-comment block
/// immediately above it, contain `tag`?
fn tagged_at(lexed: &Lexed, line: u32, tag: &str) -> bool {
    if lexed.comments.get(&line).is_some_and(|c| has_tag(c, tag)) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        match lexed.comments.get(&l) {
            Some(c) if !lexed.code_lines.contains(&l) => {
                if has_tag(c, tag) {
                    return true;
                }
            }
            _ => return false,
        }
    }
    false
}

/// All comment lines whose tag would cover a site at `line` inside a
/// function whose item starts at `item_line` — the inverse of
/// [`tagged_at`], used by the MRL-A010 stale-tag audit to credit tags
/// with the findings they suppress.
fn covering_tag_lines(lexed: &Lexed, line: u32, item_line: u32, tag: &str) -> Vec<u32> {
    let mut out = Vec::new();
    for anchor in [line, item_line] {
        if anchor == 0 {
            continue;
        }
        if lexed.comments.get(&anchor).is_some_and(|c| has_tag(c, tag)) {
            out.push(anchor);
        }
        let mut l = anchor;
        while l > 1 {
            l -= 1;
            match lexed.comments.get(&l) {
                Some(c) if !lexed.code_lines.contains(&l) => {
                    if has_tag(c, tag) {
                        out.push(l);
                    }
                }
                _ => break,
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Statement-level or function-level justification for a site at `line`
/// inside a function whose item (attributes included) starts at
/// `item_line`.
pub(crate) fn justified(lexed: &Lexed, line: u32, item_line: u32, rule: &'static str) -> bool {
    let tag = tag_for(rule);
    tagged_at(lexed, line, tag) || (item_line > 0 && tagged_at(lexed, item_line, tag))
}

/// Tokens of `line` joined with single spaces — the fingerprint snippet.
/// Comment-free and whitespace-normalised, so reformatting a line does
/// not move its fingerprint.
pub(crate) fn snippet_of(lexed: &Lexed, line: u32) -> String {
    let mut out = String::new();
    for t in &lexed.tokens {
        if t.line == line {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&t.text);
        }
    }
    out
}

/// Assign occurrence-disambiguated fingerprints: the N-th finding with
/// identical (rule, path, snippet) gets occurrence N, so two findings on
/// textually identical lines stay distinct yet stable.
fn fingerprint_all(findings: &mut [Finding]) {
    let mut seen: BTreeMap<(String, String, String), u32> = BTreeMap::new();
    for f in findings.iter_mut() {
        let key = (f.rule.to_string(), f.path.clone(), f.snippet.clone());
        let occ = seen.entry(key).or_insert(0);
        let payload = format!("{}\u{0}{}\u{0}{}\u{0}{}", f.rule, f.path, f.snippet, occ);
        f.fingerprint = fnv1a64(payload.as_bytes());
        *occ += 1;
    }
}

pub(crate) fn lexed_of<'a>(ws: &'a Workspace, path: &str) -> &'a Lexed {
    &ws.file(path)
        .expect("graph paths come from the workspace")
        .lexed
}

/// MRL-A001: no panic source may be reachable from a hot-path root.
///
/// Since the interprocedural summary engine landed, the per-function
/// sink set is CFG-filtered: a sink on a statement no path from the
/// function entry reaches (dead code) is discharged before reporting.
fn panic_reachability(
    ws: &Workspace,
    graph: &CallGraph,
    summaries: &Summaries,
    out: &mut Vec<Finding>,
) {
    let roots = graph.find(|f| {
        !f.info.is_test
            && HOT_CRATES.contains(&f.krate.as_str())
            && PANIC_ROOTS.contains(&f.info.name.as_str())
    });
    let reach = graph.reach(&roots);
    for (&i, trace) in &reach {
        let f = &graph.fns[i];
        if f.info.is_test || !REPORT_CRATES.contains(&f.krate.as_str()) {
            continue;
        }
        let lexed = lexed_of(ws, &f.path);
        for sink in &summaries.fns[i].live_sinks {
            if justified(lexed, sink.line, f.info.item_line, "MRL-A001") {
                continue;
            }
            out.push(Finding {
                rule: "MRL-A001",
                path: f.path.clone(),
                line: sink.line,
                snippet: snippet_of(lexed, sink.line),
                fingerprint: 0,
                message: format!(
                    "{} reachable from hot path: {}",
                    sink.kind.describe(),
                    graph.render_trace(trace)
                ),
            });
        }
    }
}

/// MRL-A010: summary-based audit of the `// panic-free:` vocabulary.
///
/// Two checks over the may/must summaries:
///
/// 1. **Lying tag** — a `// panic-free:` tag covering a panic-family
///    macro whose statement executes on *every* path through a function
///    that a hot root reaches. The tag claims the site is unreachable;
///    the must-analysis proves it always runs.
/// 2. **Stale tag** — a `// panic-free:` tag that suppresses zero
///    would-be MRL-A001 findings under the sharper analysis (the
///    function is unreached, the sink is CFG-dead, or there is no sink
///    under the tag at all). Stale tags are audit debt: delete them or
///    demote them to plain comments.
fn panic_audit(ws: &Workspace, graph: &CallGraph, summaries: &Summaries, out: &mut Vec<Finding>) {
    let tag = tag_for("MRL-A001");
    let roots = graph.find(|f| {
        !f.info.is_test
            && HOT_CRATES.contains(&f.krate.as_str())
            && PANIC_ROOTS.contains(&f.info.name.as_str())
    });
    let reach = graph.reach(&roots);

    // Check 1 + credit collection for check 2: walk every reached,
    // reported function's live sinks and record which tag lines cover
    // them (suppressed or not — a covering tag is a *used* tag).
    let mut used: BTreeMap<String, std::collections::BTreeSet<u32>> = BTreeMap::new();
    for (&i, trace) in &reach {
        let f = &graph.fns[i];
        if f.info.is_test || !REPORT_CRATES.contains(&f.krate.as_str()) {
            continue;
        }
        let lexed = lexed_of(ws, &f.path);
        for sink in &summaries.fns[i].live_sinks {
            let covering = covering_tag_lines(lexed, sink.line, f.info.item_line, tag);
            used.entry(f.path.clone())
                .or_default()
                .extend(covering.iter().copied());
            if !covering.is_empty() && summaries.fns[i].must_panic_lines.contains(&sink.line) {
                out.push(Finding {
                    rule: "MRL-A010",
                    path: f.path.clone(),
                    line: sink.line,
                    snippet: snippet_of(lexed, sink.line),
                    fingerprint: 0,
                    message: format!(
                        "`// panic-free:` tag contradicted: this panic-family macro \
                         executes on every path through {} and the function is \
                         reachable from a hot root ({}) — fix the panic, don't tag it",
                        f.label(),
                        graph.render_trace(trace)
                    ),
                });
            }
        }
    }

    // Check 2: every `panic-free:` tag line in a report crate that no
    // live, reachable sink credits is stale. Tags inside test spans are
    // exempt (test sinks are never reported, so their tags are
    // documentation, not suppression).
    for krate in &ws.crates {
        if !REPORT_CRATES.contains(&krate.dir.as_str()) {
            continue;
        }
        for file in &krate.files {
            let test_spans: Vec<(u32, u32)> = file
                .fns
                .iter()
                .filter(|f| f.is_test && f.body.0 < f.body.1)
                .map(|f| {
                    let last = file.lexed.tokens[f.body.1 - 1].line;
                    (f.item_line.min(f.line), last)
                })
                .collect();
            let used_here = used.get(&file.path);
            for (&line, comment) in &file.lexed.comments {
                if !has_tag(comment, tag) {
                    continue;
                }
                if test_spans.iter().any(|&(lo, hi)| line >= lo && line <= hi) {
                    continue;
                }
                if used_here.is_some_and(|u| u.contains(&line)) {
                    continue;
                }
                out.push(Finding {
                    rule: "MRL-A010",
                    path: file.path.clone(),
                    line,
                    snippet: comment.trim().to_string(),
                    fingerprint: 0,
                    message: format!(
                        "stale `// panic-free:` tag: it suppresses no reachable panic \
                         sink under the interprocedural summaries (crate `{}`) — delete \
                         it or demote it to a plain comment",
                        krate.dir
                    ),
                });
            }
        }
    }
}

/// MRL-A002: unchecked arithmetic on accounting values in core/framework.
fn arithmetic_safety(ws: &Workspace, graph: &CallGraph, out: &mut Vec<Finding>) {
    for f in &graph.fns {
        if f.info.is_test || !ARITH_CRATES.contains(&f.krate.as_str()) {
            continue;
        }
        let lexed = lexed_of(ws, &f.path);
        for a in &f.facts.arith {
            if a.float {
                continue;
            }
            let Some(hit) = a
                .idents
                .iter()
                .find(|id| ACCOUNTING_IDENTS.contains(&id.as_str()))
            else {
                continue;
            };
            if justified(lexed, a.line, f.info.item_line, "MRL-A002") {
                continue;
            }
            out.push(Finding {
                rule: "MRL-A002",
                path: f.path.clone(),
                line: a.line,
                snippet: snippet_of(lexed, a.line),
                fingerprint: 0,
                message: format!(
                    "unchecked `{}` on accounting value `{}` in {} — use checked_/saturating_/widening arithmetic or justify with `// arith:`",
                    a.op,
                    hit,
                    f.label()
                ),
            });
        }
    }
}

/// MRL-A003: allocation in functions reachable from per-element ingest.
fn hot_path_allocation(ws: &Workspace, graph: &CallGraph, out: &mut Vec<Finding>) {
    let roots = graph.find(|f| {
        !f.info.is_test
            && HOT_CRATES.contains(&f.krate.as_str())
            && INGEST_ROOTS.contains(&f.info.name.as_str())
    });
    let reach = graph.reach(&roots);
    for (&i, trace) in &reach {
        let f = &graph.fns[i];
        if f.info.is_test || !REPORT_CRATES.contains(&f.krate.as_str()) {
            continue;
        }
        let lexed = lexed_of(ws, &f.path);
        for alloc in &f.facts.allocs {
            if justified(lexed, alloc.line, f.info.item_line, "MRL-A003") {
                continue;
            }
            out.push(Finding {
                rule: "MRL-A003",
                path: f.path.clone(),
                line: alloc.line,
                snippet: snippet_of(lexed, alloc.line),
                fingerprint: 0,
                message: format!(
                    "`{}` allocates on the per-element ingest path: {}",
                    alloc.what,
                    graph.render_trace(trace)
                ),
            });
        }
    }
}

/// MRL-A004: cfg(feature = "…") strings ↔ Cargo.toml [features] table.
fn feature_consistency(ws: &Workspace, out: &mut Vec<Finding>) {
    for krate in &ws.crates {
        let mut referenced: BTreeMap<&str, (&str, u32)> = BTreeMap::new();
        for file in &krate.files {
            for (feat, line) in &file.features {
                referenced.entry(feat).or_insert((&file.path, *line));
            }
        }
        for (feat, &(path, line)) in &referenced {
            if !krate.manifest.features.contains_key(*feat) {
                let lexed = lexed_of(ws, path);
                out.push(Finding {
                    rule: "MRL-A004",
                    path: path.to_string(),
                    line,
                    snippet: snippet_of(lexed, line),
                    fingerprint: 0,
                    message: format!(
                        "cfg references feature \"{feat}\" which `{}` does not declare in [features]",
                        krate.manifest.name
                    ),
                });
            }
        }
        for (feat, decl) in &krate.manifest.features {
            if decl.forwards || referenced.contains_key(feat.as_str()) {
                continue;
            }
            out.push(Finding {
                rule: "MRL-A004",
                path: krate.manifest_path.clone(),
                line: decl.line,
                snippet: format!("feature {feat}"),
                fingerprint: 0,
                message: format!(
                    "feature \"{feat}\" declared by `{}` is empty and never referenced by a cfg in the crate",
                    krate.manifest.name
                ),
            });
        }
    }
}

/// Run all ten analyses over a loaded workspace.
pub fn analyze(ws: &Workspace) -> Vec<Finding> {
    let graph = ws.graph();
    let summaries = crate::summary::compute(
        &graph,
        |path| lexed_of(ws, path),
        |lexed, line, item_line| justified(lexed, line, item_line, "MRL-A008"),
    );
    let mut findings = Vec::new();
    panic_reachability(ws, &graph, &summaries, &mut findings);
    arithmetic_safety(ws, &graph, &mut findings);
    hot_path_allocation(ws, &graph, &mut findings);
    feature_consistency(ws, &mut findings);
    crate::atomics::check(ws, &mut findings);
    crate::channels::check(ws, &mut findings);
    crate::dataflow::check(ws, &mut findings);
    crate::nondet::check(ws, &graph, &summaries, &mut findings);
    crate::unsafety::check(ws, &graph, &summaries, &mut findings);
    panic_audit(ws, &graph, &summaries, &mut findings);
    findings.sort_by(|a, b| {
        (a.rule, &a.path, a.line, &a.message).cmp(&(b.rule, &b.path, b.line, &b.message))
    });
    fingerprint_all(&mut findings);
    findings
}
