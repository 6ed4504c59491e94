//! The vocabulary of the search's trace spans. Every node the engine
//! *checks* opens a `check` span (args `node`, `via`, `anonymous`) and every
//! node it *marks* through the generalization property opens a zero-length
//! `mark` span (args `node`, `implied_by`), both under their `iteration`
//! span — the paper's Example 3.1 narrative, readable from any `--trace`
//! run (DESIGN.md §7).

use incognito_hierarchy::LevelNo;

/// How a node's frequency set was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckSource {
    /// Scanned the base table.
    TableScan,
    /// Rolled up from a direct specialization's frequency set.
    Rollup,
    /// Rolled up from the family's super-root frequency set (§3.3.1).
    SuperRoot,
    /// Rolled up from a pre-computed zero-generalization frequency set
    /// (Cube Incognito, §3.3.2).
    Cube,
}

impl CheckSource {
    /// Stable lowercase label: the `check` span's `via` arg.
    pub fn as_str(self) -> &'static str {
        match self {
            CheckSource::TableScan => "scan",
            CheckSource::Rollup => "rollup",
            CheckSource::SuperRoot => "superroot",
            CheckSource::Cube => "cube",
        }
    }
}

/// Render a node's `(attribute, level)` parts as the compact `a<i>L<l>`
/// notation of the `check` and `mark` span args, e.g. `a1L0,a2L2`.
pub fn spec_label(spec: &[(usize, LevelNo)]) -> String {
    let mut s = String::new();
    for (i, &(a, l)) in spec.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("a{a}L{l}"));
    }
    s
}
