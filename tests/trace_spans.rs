//! The trace tree is the one record of what a search did. Running an
//! engine with tracing enabled must produce a span forest nesting
//! search → iteration → node-check → table scan/rollup, with one `mark`
//! span per node marked through the generalization property — at every
//! thread count, where a wave's checks sit one level down inside the
//! `exec.task` spans that ran them. The spans must agree with
//! `SearchStats` iteration by iteration, tell the paper's Figure 5(a)
//! story, and the SQL path must emit the same chain over its relational
//! queries.
//!
//! Trace collection is process-global, so this file holds exactly one
//! test function.

use std::collections::BTreeSet;

use incognito::algo::cube::cube_incognito;
use incognito::algo::{incognito as run_incognito, AlgoError, AnonymizationResult, Config};
use incognito::data::patients;
use incognito::obs::trace::{self, TraceNode, TraceRecord};
use incognito::obs::Json;
use incognito::table::Table;

/// Run `f` with tracing on; return its result and the spans it emitted.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<TraceRecord>) {
    trace::clear();
    trace::set_enabled(true);
    let out = f();
    trace::set_enabled(false);
    (out, trace::drain())
}

fn int(r: &TraceRecord, key: &str) -> usize {
    r.arg(key).and_then(Json::as_int).unwrap_or_else(|| panic!("{} lacks {key}", r.name)) as usize
}

fn text(r: &TraceRecord, key: &str) -> String {
    r.arg(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{} lacks {key}", r.name)).to_owned()
}

/// One `iteration` span and the decisions recorded under it.
#[derive(Debug)]
struct IterationSpans {
    /// `arity`, `candidates`, `edges`, `checked`, `marked`, `survivors`.
    args: [usize; 6],
    /// `(node, via, anonymous)` of every check, in open order.
    checks: Vec<(String, String, bool)>,
    /// `(node, implied_by)` of every mark, in open order.
    marks: Vec<(String, String)>,
}

/// Fold the trace into its iterations. Checks are read directly under an
/// iteration or through one `exec.task` layer; marks only directly under
/// it. Every check and mark span of the trace must be reached that way.
fn iterations(records: &[TraceRecord]) -> Vec<IterationSpans> {
    let mut out = Vec::new();
    let forest = trace::build_tree(records);
    let mut stack: Vec<&TraceNode> = forest.iter().rev().collect();
    while let Some(node) = stack.pop() {
        stack.extend(node.children.iter().rev());
        let it = &records[node.index];
        if it.name != "iteration" {
            continue;
        }
        let mut spans = IterationSpans {
            args: ["arity", "candidates", "edges", "checked", "marked", "survivors"]
                .map(|k| int(it, k)),
            checks: Vec::new(),
            marks: Vec::new(),
        };
        for child in &node.children {
            let c = &records[child.index];
            let checks: Vec<&TraceRecord> = match c.name.as_str() {
                "check" => vec![c],
                "exec.task" => child
                    .children
                    .iter()
                    .map(|g| &records[g.index])
                    .filter(|g| g.name == "check")
                    .collect(),
                "mark" => {
                    spans.marks.push((text(c, "node"), text(c, "implied_by")));
                    continue;
                }
                _ => continue,
            };
            for c in checks {
                let anonymous = c.arg("anonymous").and_then(Json::as_bool).expect("verdict");
                spans.checks.push((text(c, "node"), text(c, "via"), anonymous));
            }
        }
        out.push(spans);
    }
    let count = |name: &str| records.iter().filter(|r| r.name == name).count();
    let checks: usize = out.iter().map(|i| i.checks.len()).sum();
    let marks: usize = out.iter().map(|i| i.marks.len()).sum();
    assert_eq!(checks, count("check"), "check nests under iteration (through exec.task)");
    assert_eq!(marks, count("mark"), "mark nests directly under iteration");
    out
}

/// Assert the spans of one run agree with its `SearchStats`, iteration by
/// iteration, and return them.
fn assert_matches_stats(
    label: &str,
    result: &AnonymizationResult,
    records: &[TraceRecord],
) -> Vec<IterationSpans> {
    let spans = iterations(records);
    let stats = &result.stats().iterations;
    assert_eq!(spans.len(), stats.len(), "{label}: iteration count");
    for (sp, st) in spans.iter().zip(stats) {
        let want =
            [st.arity, st.candidates, st.edges, st.nodes_checked, st.nodes_marked, st.survivors];
        assert_eq!(sp.args, want, "{label}: iteration args at arity {}", st.arity);
        assert_eq!(sp.checks.len(), st.nodes_checked, "{label}: check spans at arity {}", st.arity);
        assert_eq!(sp.marks.len(), st.nodes_marked, "{label}: mark spans at arity {}", st.arity);
    }
    spans
}

type Engine = fn(&Table, &[usize], &Config) -> Result<AnonymizationResult, AlgoError>;

/// The per-iteration check and mark sets, order-free.
type DecisionSets = Vec<(BTreeSet<(String, String, bool)>, BTreeSet<(String, String)>)>;

fn decision_sets(spans: &[IterationSpans]) -> DecisionSets {
    spans
        .iter()
        .map(|i| (i.checks.iter().cloned().collect(), i.marks.iter().cloned().collect()))
        .collect()
}

#[test]
fn incognito_run_emits_nested_iteration_check_scan_spans() {
    let table = patients();
    let (result, records) = traced(|| run_incognito(&table, &[0, 1, 2], &Config::new(2)));
    let result = result.expect("valid workload");
    assert!(!result.generalizations().is_empty());
    assert!(!records.is_empty(), "tracing was enabled, spans must exist");

    let find = |seq: u64| records.iter().find(|r| r.seq == seq).unwrap();

    // The search root carries the workload identity.
    let search = records.iter().find(|r| r.name == "search").expect("search span");
    assert_eq!(search.parent, None);
    assert_eq!(search.arg("algo").and_then(Json::as_str), Some("basic"));
    assert_eq!(search.arg("k").and_then(Json::as_int), Some(2));

    // Every iteration hangs off the search; the patients workload has
    // three subset-size iterations.
    let iteration_records: Vec<_> = records.iter().filter(|r| r.name == "iteration").collect();
    assert_eq!(iteration_records.len(), 3, "qi arity 3 means iterations 1..=3");
    for it in &iteration_records {
        assert_eq!(it.parent, Some(search.seq), "iteration nests under search");
    }

    // Every check nests under an iteration (through exec.task at any
    // thread count), and at least one table scan and one rollup nest
    // under checks — the full chain.
    assert_matches_stats("default threads", &result, &records);
    let mut scans_under_checks = 0;
    let mut rollups_under_checks = 0;
    for r in &records {
        if r.name != "table.scan" && r.name != "table.rollup" {
            continue;
        }
        if let Some(p) = r.parent {
            if find(p).name == "check" {
                if r.name == "table.scan" {
                    scans_under_checks += 1;
                } else {
                    rollups_under_checks += 1;
                }
            }
        }
    }
    assert!(scans_under_checks > 0, "table.scan spans nest under checks");
    assert!(rollups_under_checks > 0, "table.rollup spans nest under checks");

    // Candidate generation runs at the end of each iteration, under it.
    let gen = records.iter().find(|r| r.name == "candidate.generate").expect("lattice spans");
    assert_eq!(find(gen.parent.unwrap()).name, "iteration");

    // The emitted Chrome JSON is well-formed and keeps the chain intact.
    let doc = trace::to_chrome_json(&records);
    assert!(Json::parse(&doc.to_pretty_string()).is_ok());
    let back = trace::from_chrome_json(&doc).unwrap();
    assert_eq!(back.len(), records.len());

    // The explain renderer folds the same records into one row per
    // iteration with the totals the engine reported.
    let plan = incognito::report::explain_trace(&records);
    assert!(plan.contains("basic"), "{plan}");
    assert!(plan.lines().filter(|l| l.trim_start().starts_with(char::is_numeric)).count() >= 3);
    assert!(plan.contains("span profile"), "{plan}");

    // Spans vs stats, per engine, at threads 1 and 2: the iteration args,
    // the check and mark span counts, and — at threads 2 — the same check
    // and mark sets per iteration as the serial run.
    let engines: [(&str, Engine, Config); 3] = [
        ("basic", run_incognito, Config::new(2)),
        ("superroots", run_incognito, Config::new(2).with_superroots(true)),
        ("cube", cube_incognito, Config::new(2)),
    ];
    for (label, engine, cfg) in engines {
        let mut serial: Option<DecisionSets> = None;
        for threads in [1, 2] {
            let label = format!("{label} @ {threads} threads");
            let cfg = cfg.clone().with_threads(threads);
            let (result, records) = traced(|| engine(&table, &[0, 1, 2], &cfg));
            let result = result.expect("valid workload");
            let spans = assert_matches_stats(&label, &result, &records);
            assert!(spans.iter().any(|i| !i.marks.is_empty()), "{label}: some node is marked");
            let sets = decision_sets(&spans);
            match &serial {
                None => serial = Some(sets),
                Some(want) => assert_eq!(&sets, want, "{label}: checks and marks match threads 1"),
            }
            if threads == 2 {
                // explain_trace counts every check, through exec.task too.
                let plan = incognito::report::explain_trace(&records);
                let checked: usize = plan
                    .lines()
                    .filter(|l| l.starts_with(char::is_numeric))
                    .map(|l| {
                        let cells: Vec<&str> = l.split_whitespace().collect();
                        cells[3..7].iter().map(|c| c.parse::<usize>().unwrap()).sum::<usize>()
                    })
                    .sum();
                assert_eq!(checked, result.stats().nodes_checked(), "{label}: explain\n{plan}");
            }
        }
    }

    // Figure 5(a), the ⟨Sex, Zipcode⟩ iteration of Example 3.1: ⟨S0,Z0⟩
    // fails on a table scan; its generalizations ⟨S1,Z0⟩ and ⟨S0,Z1⟩ are
    // checked via rollup; ⟨S1,Z0⟩ passes (marking ⟨S1,Z1⟩ and ⟨S1,Z2⟩);
    // ⟨S0,Z1⟩ fails; ⟨S0,Z2⟩ passes. Exactly 4 checks and 2 marks.
    for threads in [1, 2] {
        let cfg = Config::new(2).with_threads(threads);
        let (result, records) = traced(|| run_incognito(&table, &[1, 2], &cfg));
        let spans = assert_matches_stats("figure 5(a)", &result.expect("valid workload"), &records);
        let iter2 = spans.iter().find(|i| i.args[0] == 2).expect("iteration 2");
        let checks = &iter2.checks;
        assert_eq!(checks.len(), 4, "threads {threads}");
        assert_eq!(checks[0], ("a1L0,a2L0".to_owned(), "scan".to_owned(), false));
        // All later checks in the iteration derive from rollup.
        assert!(checks[1..].iter().all(|c| c.1 == "rollup"), "{checks:?}");
        let verdict = |node: &str| checks.iter().find(|c| c.0 == node).expect(node).2;
        assert!(verdict("a1L1,a2L0"));
        assert!(!verdict("a1L0,a2L1"));
        assert!(verdict("a1L0,a2L2"));
        let marks: BTreeSet<(&str, &str)> =
            iter2.marks.iter().map(|(n, by)| (n.as_str(), by.as_str())).collect();
        assert_eq!(marks, BTreeSet::from([("a1L1,a2L1", "a1L1,a2L0"), ("a1L1,a2L2", "a1L1,a2L0")]));
    }

    // The SQL path runs the same engine: the shared search → iteration →
    // check chain, its queries nested under checks, and a search span
    // labelled `sql` so explain output names the substrate.
    let (result, records) =
        traced(|| incognito::algo::incognito_sql(&table, &[0, 1, 2], &Config::new(2)));
    assert_matches_stats("sql", &result.expect("valid workload"), &records);
    let find = |seq: u64| records.iter().find(|r| r.seq == seq).unwrap();
    let search = records.iter().find(|r| r.name == "search").expect("search span");
    assert_eq!(search.arg("algo").and_then(Json::as_str), Some("sql"));
    assert_eq!(records.iter().filter(|r| r.name == "iteration").count(), 3);
    for query in ["sql.scan", "sql.rollup"] {
        let r = records.iter().find(|r| r.name == query).expect("relational query spans");
        assert_eq!(find(r.parent.unwrap()).name, "check", "{query} nests under check");
    }
    let plan = incognito::report::explain_trace(&records);
    assert!(plan.contains("— sql (k=2) —"), "{plan}");
    assert!(plan.lines().filter(|l| l.trim_start().starts_with(char::is_numeric)).count() >= 3);
}
