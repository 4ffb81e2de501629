//! MRL-A009 — unsafe-containment pass.
//!
//! The workspace is `unsafe`-averse by design: the only sanctioned site
//! is the rdtsc intrinsic in `mrl-obs::timer` (a no-precondition
//! instruction read). This pass enforces two obligations on every
//! `unsafe` block or `unsafe fn` in non-test code, workspace-wide:
//!
//! 1. **Contract tag** — the site must carry a `// safety:` comment
//!    (case-insensitive, so conventional `// SAFETY:` blocks count)
//!    stating the discharged obligations, on the site line, the comment
//!    block above it, or the enclosing item.
//! 2. **Allowlist confinement** — the containing file must be on
//!    `UNSAFE_ALLOWLIST`. Everything else is a finding, annotated with
//!    the interprocedural context the summaries give us: the direct
//!    workspace callers and whether a hot-path root reaches the site.
//!
//! There is deliberately no tag that waives the allowlist: growing it is
//! a reviewed edit to this file, not a comment.

use crate::graph::CallGraph;
use crate::rules::{justified, lexed_of, snippet_of, Finding, HOT_CRATES, PANIC_ROOTS};
use crate::summary::Summaries;
use crate::workspace::Workspace;

/// Files allowed to contain `unsafe` code.
const UNSAFE_ALLOWLIST: &[&str] = &["crates/obs/src/timer.rs"];

pub(crate) fn check(
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
    let hot_reach = graph.reach(&roots);
    for (i, f) in graph.fns.iter().enumerate() {
        if f.info.is_test {
            continue;
        }
        let s = &summaries.fns[i];
        let mut sites: Vec<(u32, &str)> = s
            .unsafe_sites
            .iter()
            .map(|u| (u.line, "unsafe block"))
            .collect();
        if s.unsafe_fn {
            sites.push((f.info.line, "unsafe fn"));
        }
        if sites.is_empty() {
            continue;
        }
        let lexed = lexed_of(ws, &f.path);
        let allowed = UNSAFE_ALLOWLIST.iter().any(|p| f.path.ends_with(p));
        let callers = {
            let mut names: Vec<String> = Summaries::callers_of(graph, i)
                .into_iter()
                .map(|c| graph.fns[c].label())
                .collect();
            names.sort();
            names.dedup();
            if names.is_empty() {
                "no workspace callers".to_string()
            } else {
                format!("called by {}", names.join(", "))
            }
        };
        let hot = if hot_reach.contains_key(&i) {
            "reachable from a hot-path root"
        } else {
            "not reachable from a hot-path root"
        };
        for (line, what) in sites {
            if !justified(lexed, line, f.info.item_line, "MRL-A009") {
                out.push(Finding {
                    rule: "MRL-A009",
                    path: f.path.clone(),
                    line,
                    snippet: snippet_of(lexed, line),
                    fingerprint: 0,
                    message: format!(
                        "{what} in {} has no `// safety:` contract tag stating the \
                         discharged obligations",
                        f.label()
                    ),
                });
            }
            if !allowed {
                out.push(Finding {
                    rule: "MRL-A009",
                    path: f.path.clone(),
                    line,
                    snippet: snippet_of(lexed, line),
                    fingerprint: 0,
                    message: format!(
                        "{what} in {} is outside the unsafe allowlist ({}) — {callers}; {hot}",
                        f.label(),
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                });
            }
        }
    }
}
