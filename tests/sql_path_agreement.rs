//! The SQL path (the search engine over the star schema and the relational
//! engine, the way the paper actually ran Incognito) must agree with the
//! native columnar substrate on the whole result: the generalization set,
//! every per-iteration counter, and where each frequency set came from.
//! Both paths run the same search engine, so any difference is a
//! substrate bug.

use incognito::algo::{
    incognito as run_incognito, incognito_sql, AlgoError, AnonymizationResult, Config,
};
use incognito::data::{adults, patients, AdultsConfig};
use incognito::table::Table;

/// Serial and two-worker runs, plus the process default
/// (`INCOGNITO_THREADS`) when it differs.
fn thread_counts() -> Vec<usize> {
    let mut threads = vec![1, 2, Config::default_threads()];
    threads.sort_unstable();
    threads.dedup();
    threads
}

/// Per-iteration `(arity, candidates, edges, nodes_checked, nodes_marked,
/// survivors)`.
fn iteration_counters(r: &AnonymizationResult) -> Vec<[usize; 6]> {
    r.stats()
        .iterations
        .iter()
        .map(|i| [i.arity, i.candidates, i.edges, i.nodes_checked, i.nodes_marked, i.survivors])
        .collect()
}

fn assert_agree(table: &Table, qi: &[usize], cfg: &Config) {
    for threads in thread_counts() {
        let cfg = cfg.clone().with_threads(threads);
        let (k, suppress) = (cfg.k, cfg.max_suppress);
        let label = format!("qi={qi:?} k={k} suppress={suppress} threads={threads}");
        let sql = incognito_sql(table, qi, &cfg).unwrap();
        let native = run_incognito(table, qi, &cfg).unwrap();
        assert_eq!(sql.generalizations(), native.generalizations(), "{label}");
        assert_eq!(iteration_counters(&sql), iteration_counters(&native), "{label}");
        let (s, n) = (sql.stats(), native.stats());
        assert_eq!(s.freq_from_scan, n.freq_from_scan, "{label}");
        assert_eq!(s.freq_from_rollup, n.freq_from_rollup, "{label}");
        assert_eq!(s.table_scans, n.table_scans, "{label}");
    }
}

#[test]
fn sql_and_native_agree_on_patients() {
    let table = patients();
    for k in [1u64, 2, 3, 6] {
        assert_agree(&table, &[0, 1, 2], &Config::new(k));
    }
}

#[test]
fn sql_and_native_agree_on_synthetic_adults() {
    let table = adults(&AdultsConfig { rows: 3_000, seed: 77 });
    for (qi, k) in [
        (vec![0usize, 1], 5u64),
        (vec![1, 2, 3], 10),
        (vec![0, 3, 4], 25),
    ] {
        assert_agree(&table, &qi, &Config::new(k));
    }
}

#[test]
fn sql_path_with_suppression_agrees() {
    let table = adults(&AdultsConfig { rows: 2_000, seed: 78 });
    assert_agree(&table, &[0, 1], &Config::new(20).with_suppression(50));
}

#[test]
fn sql_path_validates_workload() {
    let table = patients();
    let err = |qi: &[usize], k: u64| incognito_sql(&table, qi, &Config::new(k)).unwrap_err();
    assert_eq!(err(&[], 2), AlgoError::EmptyQuasiIdentifier);
    assert_eq!(err(&[0, 0], 2), AlgoError::DuplicateQiAttribute(0));
    assert_eq!(err(&[0], 0), AlgoError::InvalidK(0));
    assert!(matches!(err(&[99], 2), AlgoError::Table(_)));
}
