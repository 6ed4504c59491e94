//! Building the star schema and querying it must not leak: every column
//! name is owned by its relation and freed with it.
//!
//! `obs::mem::live_bytes` is process-global, so this file holds exactly
//! one test function.

use incognito::data::{adults, AdultsConfig};
use incognito::obs::mem;
use incognito::rel::freq::{frequency_set_sql, rollup_sql};
use incognito::rel::StarSchema;

const BUILDS: usize = 10_000;
const SLACK_BYTES: u64 = 64 << 10;

#[test]
fn repeated_star_schema_builds_and_queries_do_not_grow_live_bytes() {
    let table = adults(&AdultsConfig { rows: 10, seed: 1 });
    // Gender, Race, Marital Status: small domains keep a build cheap.
    let qi = [1usize, 2, 3];
    let build_and_query = || {
        let star = StarSchema::build(&table, &qi).unwrap();
        let ground = frequency_set_sql(&star, &[(1, 0), (3, 0)]).unwrap();
        rollup_sql(&star, &ground, &[(1, 0), (3, 0)], &[1, 1]).unwrap();
    };
    // One warm-up round, so lazily initialized state is not counted.
    build_and_query();
    let before = mem::live_bytes();
    for _ in 0..BUILDS {
        build_and_query();
    }
    let grown = mem::live_bytes().saturating_sub(before);
    assert!(
        grown <= SLACK_BYTES,
        "live bytes grew by {grown} over {BUILDS} star-schema builds (limit {SLACK_BYTES})"
    );
}
