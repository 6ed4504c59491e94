//! The paper's implementation strategy, visible: build the Figure 4 star
//! schema over the Patients table, run the §1.1 `GROUP BY COUNT(*)` check
//! and a §3 `SUM(count)` rollup as actual relational queries, then run the
//! Incognito search with those queries as its frequency-set substrate and
//! confirm it matches the native columnar substrate.
//!
//! Run with: `cargo run --release --example star_schema_sql`

use incognito::algo::{incognito as run_incognito, incognito_sql, Config};
use incognito::data::patients;
use incognito::rel::freq::{frequency_set_sql, is_k_anonymous_sql, rollup_sql};
use incognito::rel::StarSchema;

fn main() {
    let table = patients();
    let qi = [0usize, 1, 2];
    let star = StarSchema::build(&table, &qi).expect("valid schema");

    println!("Fact relation (first rows):");
    let fact = star.fact();
    print!("{}", fact.sorted());

    println!("\nZipcode dimension (Figure 4's Zipcode generalization dimension):");
    print!("{}", star.dim(2).expect("zip in QI"));

    // §1.1's example: SELECT COUNT(*) FROM Patients GROUP BY Sex, Zipcode.
    println!("\nSELECT COUNT(*) ... GROUP BY Sex, Zipcode:");
    let f = frequency_set_sql(&star, &[(1, 0), (2, 0)]).expect("valid query");
    print!("{}", f.sorted());
    println!(
        "2-anonymous? {} (groups of size one exist — the joining attack works)",
        is_k_anonymous_sql(&f, 2, 0).expect("count column")
    );

    // Rollup Property: derive ⟨Sex, Z1⟩ from the ground frequency set by a
    // SUM(count) query through the Zipcode dimension.
    println!("\nSUM(count) rollup to ⟨Sex, Z1⟩:");
    let rolled = rollup_sql(&star, &f, &[(1, 0), (2, 0)], &[0, 1]).expect("valid rollup");
    print!("{}", rolled.sorted());

    // The full search, with every frequency set answered by SQL.
    println!("\nRunning Incognito through the relational engine (k = 2)...");
    let sql = incognito_sql(&table, &qi, &Config::new(2)).expect("valid workload");
    let stats = sql.stats();
    println!(
        "  {} generalizations, {} nodes checked ({} scan queries, {} rollup queries)",
        sql.len(),
        stats.nodes_checked(),
        stats.freq_from_scan,
        stats.freq_from_rollup
    );
    let native = run_incognito(&table, &qi, &Config::new(2)).expect("valid workload");
    assert_eq!(sql.generalizations(), native.generalizations());
    println!("  SQL path and native columnar engine agree on all {} results.", native.len());
    for g in sql.generalizations() {
        println!("    ⟨B{}, S{}, Z{}⟩", g.levels[0], g.levels[1], g.levels[2]);
    }
}
