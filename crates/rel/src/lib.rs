//! A miniature relational engine and the paper's star schema.
//!
//! The paper implemented Incognito in Java on top of IBM DB2: frequency
//! sets were `SELECT COUNT(*) … GROUP BY` queries over a star schema
//! (Figure 4), and rollups were `SUM(count)` queries joining a frequency
//! table with a dimension table. This crate provides just enough of a
//! relational algebra to express those queries verbatim ([`freq`]) over
//! the materialized [`StarSchema`]. The core engine's `incognito_sql`
//! runs the shared search with these queries as its frequency-set
//! substrate, so the test suite can confirm the relational and the native
//! columnar substrates compute identical answers.
//!
//! Deliberately simple: eager evaluation, two column types
//! ([`ColumnData::Int`] and [`ColumnData::Text`]), hash joins and hash
//! aggregation, multiset semantics throughout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod freq;
mod ops;
mod relation;
mod star;

pub use error::RelError;
pub use ops::{Aggregate, JoinKey};
pub use relation::{ColumnData, Relation, Value};
pub use star::StarSchema;
