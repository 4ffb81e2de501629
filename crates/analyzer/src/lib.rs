//! Parser-based static analysis for the MRL workspace.
//!
//! This crate grows the lexer-only hygiene linter in `xtask` into a real
//! analysis engine. It carries **zero dependencies** — the Rust parser
//! is hand-rolled recursive descent over the token stream produced by
//! [`lexer`], enough of the item grammar to recover every function body,
//! its enclosing impl type, module path, and test-ness. On top of that
//! sit a workspace module map, a function-level call graph, per-function
//! control-flow graphs ([`cfg`](mod@cfg)), an interprocedural summary engine
//! ([`summary`]: SCC condensation + bottom-up fixpoint), and ten
//! analyses:
//!
//! | rule | analysis |
//! |------|----------|
//! | MRL-A001 | panic-reachability: no `panic!`/`unwrap`/`expect`/unchecked indexing transitively reachable from hot-path entry points |
//! | MRL-A002 | arithmetic-safety: `+ - * <<` on exact-accounting values must be checked/saturating/widening or justified |
//! | MRL-A003 | allocation-in-hot-path: no `Vec::new`/`push`/`collect`/… reachable from the per-element ingest path |
//! | MRL-A004 | feature-gate consistency: `cfg(feature = "…")` strings ↔ the crate's `[features]` table, both directions |
//! | MRL-A005 | atomics-protocol: `Relaxed` publishes that skip a `Release` on some path, CAS failure orderings stronger than success, seqlock readers without re-read validation |
//! | MRL-A006 | channel-topology: bounded send/recv cycles, receivers dropped while senders remain, blocking bounded sends inside recv-blocked loops |
//! | MRL-A007 | accounting-dataflow: weight/mass/total_n values read on seal/collapse/shipment paths must reach a credit on every path |
//! | MRL-A008 | nondeterminism-taint: unseeded RNGs, hash-order iteration, time/TSC reads, and `recv` completion order must not reach result-affecting paths |
//! | MRL-A009 | unsafe-containment: every `unsafe` site needs a `// safety:` contract and must live on the file allowlist |
//! | MRL-A010 | panic-justification audit: `// panic-free:` tags contradicted by must-panic summaries, or stale under the sharper CFG-aware reachability |
//!
//! Findings carry the same FNV-1a, line-number-independent fingerprints
//! as the lexer linter and ratchet against a committed baseline
//! (`crates/xtask/analyze-baseline.txt`). Suppression is by
//! justification tag: `// panic-free:`, `// arith:`, `// alloc:`,
//! `// protocol:` (A005/A006), `// nondet:` (A008), `// safety:`
//! (A009).
//!
//! The entry point is [`workspace::Workspace::load`] followed by
//! [`rules::analyze`]; `cargo xtask analyze` drives both.

pub mod atomics;
pub mod cfg;
pub mod channels;
pub mod dataflow;
pub mod facts;
pub mod graph;
pub mod json;
pub mod lexer;
pub mod manifest;
pub mod nondet;
pub mod parser;
pub mod rules;
pub mod summary;
pub mod unsafety;
pub mod workspace;

pub use rules::{analyze, Finding};
pub use workspace::Workspace;
