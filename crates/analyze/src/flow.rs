//! Call-graph rule families: determinism taint and panic reachability.
//!
//! These rules answer questions a per-site lexical lint cannot: not "does
//! this line read the wall clock" but "can a simulation entry point
//! *reach* code that does". They run over the [`crate::graph`] call graph
//! and report each finding with the full root→sink call chain, so a
//! violation is actionable without re-running the analysis.
//!
//! * `determinism-taint` — a public item of a simulation crate reaches a
//!   taint source (wall clock, host RNG, `RandomState`, thread identity,
//!   environment read) in a crate the per-site determinism rules do not
//!   cover. Inside `SIM_CRATES` the sources are already per-site
//!   violations; this rule closes the cross-crate gap.
//! * `panic-reach` — a public API of the `no-unwrap` crates
//!   (core/ethernet/sim) transitively reaches an `unwrap`/`expect`/
//!   `panic!`/`unreachable!` site in a crate the per-site `no-unwrap`
//!   rule does not cover. Slice-indexing sites are an opt-in sink class
//!   ([`FlowPolicy::check_index`]), off by default: rustc-checked index
//!   discipline plus the golden tests make blanket indexing reports more
//!   noise than signal, but the machinery is exercised in tests and can
//!   be turned on for an audit pass.

use crate::graph::{path_to, reach, Graph};
use crate::rules::{policy, NO_UNWRAP_CRATES, SIM_CRATES};
use std::collections::BTreeSet;

/// Options for the graph rule pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlowPolicy {
    /// Count slice/array indexing sites as `panic-reach` sinks. Off in the
    /// workspace gate (see module docs); exercised by tests.
    pub check_index: bool,
}

/// One graph-rule finding, not yet filtered against `lint:allow`
/// annotations (that happens centrally in [`crate::rules`], so an
/// annotation in the anchoring file can suppress it).
#[derive(Debug)]
pub struct Finding {
    /// Rule identifier.
    pub rule: &'static str,
    /// Workspace-relative file the finding anchors to.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
    /// Root→sink call chain.
    pub path: Vec<String>,
}

/// Crates whose panic sites are never `panic-reach` sinks: the shims
/// deliberately mirror the panic behaviour of the upstream crates they
/// stand in for (`Bytes::slice` panics out of range exactly like the real
/// `bytes`), and the analyzer is a host tool outside the simulation.
const PANIC_EXEMPT_CRATES: &[&str] = &["shim-bytes", "shim-proptest", "analyze"];

/// Run every graph rule; findings are sorted by (file, line, rule).
pub fn run(g: &Graph, pol: FlowPolicy) -> Vec<Finding> {
    let mut out = Vec::new();
    determinism_taint(g, &mut out);
    panic_reach(g, pol, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Non-test items that are unrestricted-`pub` in one of `crates`.
fn pub_roots(g: &Graph, crates: &[&str]) -> Vec<usize> {
    g.items
        .iter()
        .enumerate()
        .filter(|(_, it)| !it.is_test && it.is_pub && crates.contains(&it.crate_name.as_str()))
        .map(|(id, _)| id)
        .collect()
}

/// `determinism-taint`: simulation public API → taint source outside the
/// per-site determinism perimeter.
fn determinism_taint(g: &Graph, out: &mut Vec<Finding>) {
    let roots = pub_roots(g, SIM_CRATES);
    let parent = reach(g, &roots);
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for (id, it) in g.items.iter().enumerate() {
        if it.is_test || parent[id].is_none() || policy(&it.crate_name).determinism {
            continue;
        }
        for s in &it.sources {
            if !seen.insert((it.file.clone(), s.line, s.what.clone())) {
                continue;
            }
            let path = path_to(g, &parent, id);
            out.push(Finding {
                rule: "determinism-taint",
                file: it.file.clone(),
                line: s.line,
                message: format!(
                    "`{}` ({}) is reachable from simulation API `{}`",
                    s.what,
                    s.kind.label(),
                    path.first().map_or("?", String::as_str)
                ),
                suggestion: "break the call path or inject the value through Sim/config; \
                             audited escape: lint:allow(determinism-taint, reason=\"...\")"
                    .to_string(),
                path,
            });
        }
    }
}

/// `panic-reach`: core/ethernet/sim public API → panic site outside the
/// per-site `no-unwrap` perimeter.
fn panic_reach(g: &Graph, pol: FlowPolicy, out: &mut Vec<Finding>) {
    let roots = pub_roots(g, NO_UNWRAP_CRATES);
    let parent = reach(g, &roots);
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for (id, it) in g.items.iter().enumerate() {
        if it.is_test
            || parent[id].is_none()
            || policy(&it.crate_name).no_unwrap
            || PANIC_EXEMPT_CRATES.contains(&it.crate_name.as_str())
        {
            continue;
        }
        for p in &it.panics {
            if p.is_index && !pol.check_index {
                continue;
            }
            if !seen.insert((it.file.clone(), p.line, p.what.clone())) {
                continue;
            }
            let path = path_to(g, &parent, id);
            out.push(Finding {
                rule: "panic-reach",
                file: it.file.clone(),
                line: p.line,
                message: format!(
                    "`{}` is reachable from public API `{}`",
                    p.what,
                    path.first().map_or("?", String::as_str)
                ),
                suggestion: "return a typed error along the chain or prove the invariant and \
                             annotate with lint:allow(panic-reach, reason=\"...\")"
                    .to_string(),
                path,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build;
    use crate::workspace::{Manifest, SourceFile, Workspace};

    fn ws(files: Vec<(&str, &str, &str)>) -> Workspace {
        Workspace {
            root: std::path::PathBuf::new(),
            files: files
                .into_iter()
                .map(|(rel, krate, text)| SourceFile {
                    rel: rel.to_string(),
                    crate_name: krate.to_string(),
                    is_lib_root: false,
                    is_test_source: false,
                    text: text.to_string(),
                })
                .collect(),
            manifests: vec![Manifest {
                rel: "Cargo.toml".to_string(),
                text: "[workspace.dependencies]\n".to_string(),
            }],
        }
    }

    #[test]
    fn taint_crosses_the_crate_boundary_with_a_path() {
        let g = build(&ws(vec![
            (
                "crates/sim/src/engine.rs",
                "sim",
                "pub fn arm_timeout(sim: &mut Sim) { host_elapsed_ms(); }\n",
            ),
            (
                "crates/shim-bytes/src/lib.rs",
                "shim-bytes",
                "pub fn host_elapsed_ms() -> u64 { std::time::Instant::now(); 0 }\n",
            ),
        ]));
        let f = run(&g, FlowPolicy::default());
        let taint: Vec<_> = f.iter().filter(|x| x.rule == "determinism-taint").collect();
        assert_eq!(taint.len(), 1, "{f:?}");
        assert_eq!(taint[0].file, "crates/shim-bytes/src/lib.rs");
        assert_eq!(
            taint[0].path,
            vec!["sim::arm_timeout", "shim-bytes::host_elapsed_ms"]
        );
        assert!(taint[0].message.contains("wall-clock"));
    }

    #[test]
    fn panic_reach_reports_the_chain_and_respects_the_index_gate() {
        let files = vec![
            (
                "crates/core/src/proto.rs",
                "core",
                "pub fn post(k: &Kernel) { k.deliver(1); }\n",
            ),
            (
                "crates/os/src/kernel.rs",
                "os",
                "impl Kernel { pub fn deliver(&self, pid: u32) { \
                 self.slots.get(pid).expect(\"bound\"); self.table[pid as usize]; } }\n",
            ),
        ];
        let g = build(&ws(files));
        let quiet = run(&g, FlowPolicy::default());
        let hits: Vec<_> = quiet.iter().filter(|x| x.rule == "panic-reach").collect();
        assert_eq!(hits.len(), 1, "{quiet:?}");
        assert!(hits[0].message.contains(".expect()"));
        assert_eq!(hits[0].path[0], "core::post");
        assert_eq!(*hits[0].path.last().unwrap(), "os::Kernel::deliver");

        let loud = run(&g, FlowPolicy { check_index: true });
        assert_eq!(
            loud.iter().filter(|x| x.rule == "panic-reach").count(),
            2,
            "indexing sink appears under check_index"
        );
    }
}
