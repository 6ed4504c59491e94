//! Umbrella crate for the Incognito reproduction.
//!
//! Re-exports the component crates under stable module names so examples,
//! integration tests, and downstream users can depend on a single crate:
//!
//! * [`hierarchy`] — domain generalization hierarchies and builders;
//! * [`table`] — the columnar table substrate, frequency sets, rollup;
//! * [`lattice`] — generalization lattices and a-priori candidate graphs;
//! * [`algo`] — the Incognito algorithm suite and baselines;
//! * [`models`] — the Section 5 taxonomy of recoding models;
//! * [`data`] — dataset generators (Patients, Adults, Lands End) and CSV IO;
//! * [`rel`] — the mini relational engine and the Figure 4 star schema
//!   (the paper ran on SQL/DB2); `algo::incognito_sql` searches over it;
//! * [`exec`] — the work-stealing executor behind `Config::with_threads`;
//! * [`obs`] — observability: metrics, spans, run reports, seeded PRNG;
//! * [`report`] — `BENCH_*.json` diffing, the perf-regression gate, and
//!   trace explain plans (the `incognito-report` binary's library).

#![forbid(unsafe_code)]

pub mod report;

pub use incognito_core as algo;
pub use incognito_data as data;
pub use incognito_exec as exec;
pub use incognito_hierarchy as hierarchy;
pub use incognito_lattice as lattice;
pub use incognito_models as models;
pub use incognito_obs as obs;
pub use incognito_rel as rel;
pub use incognito_table as table;
