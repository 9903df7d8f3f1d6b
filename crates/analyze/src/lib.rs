//! `clic-analyze`: a dependency-free static-analysis pass over the CLIC
//! workspace.
//!
//! The simulation's headline guarantee is determinism: every figure in
//! `figures_full.txt` is a pure function of configuration and seed. That
//! guarantee is easy to break silently — one `Instant::now()` in a
//! timeout path, one `HashMap` iteration feeding an event queue — so this
//! crate enforces it *statically*, as a CI gate, instead of hoping the
//! golden tests catch the drift.
//!
//! The analyzer is deliberately self-contained: a hand-rolled lexer
//! ([`lexer`]), not `syn`, because the workspace builds offline and the
//! linter must never acquire dependencies the build forbids elsewhere
//! ([`rules::check_manifest`] enforces exactly that).
//!
//! Pipeline: [`workspace::discover`] enumerates library sources and
//! manifests → [`rules::analyze`] applies the per-crate policy table per
//! file, then [`items::parse_items`] splits every file into function
//! items, [`graph`] resolves their calls conservatively into a
//! workspace call graph (filtered by the crate-dependency DAG), and
//! [`flow`] walks it for the reachability families (determinism taint,
//! panic reach) — each finding carrying its full
//! root→sink call chain — before everything settles against the allow
//! annotations and renders via [`diag::render_human`] /
//! [`diag::render_json`]. `--graph` exports the call graph as DOT.
//!
//! Audited exceptions: `// lint:allow(<rule>, reason="...")` ([`allow`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// CI runs this crate under `-W clippy::pedantic`. Two pedantic classes
// are opted out wholesale: `must_use_candidate` (pure-function noise on
// an internal tool) and `missing_errors_doc` (every fallible API here
// returns io::Error or a self-describing String).
#![allow(clippy::must_use_candidate, clippy::missing_errors_doc)]

pub mod allow;
pub mod diag;
pub mod flow;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod workspace;

pub use diag::Diag;
pub use rules::{analyze, Report, RULES};
