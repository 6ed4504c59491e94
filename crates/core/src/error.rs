use std::fmt;

use incognito_rel::RelError;
use incognito_table::{ExternalError, TableError};

/// Errors raised by the anonymization algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgoError {
    /// The quasi-identifier was empty.
    EmptyQuasiIdentifier,
    /// A quasi-identifier attribute index was repeated.
    DuplicateQiAttribute(usize),
    /// k must be at least 1.
    InvalidK(u64),
    /// An underlying table/frequency-set operation failed.
    Table(TableError),
    /// The out-of-core spill path failed (IO error or corrupt spill file).
    /// Carries the rendered [`ExternalError`] — `AlgoError` is `Clone + Eq`
    /// for result comparison, which `std::io::Error` cannot satisfy
    /// structurally.
    Spill(String),
    /// A relational query of the SQL path failed (a malformed query — a
    /// bug, surfaced rather than hidden).
    Rel(RelError),
    /// No k-anonymous generalization exists even at the top of the lattice
    /// (only possible with a suppression threshold smaller than the number
    /// of tuples below k at full generalization).
    NoSolution,
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::EmptyQuasiIdentifier => write!(f, "quasi-identifier is empty"),
            AlgoError::DuplicateQiAttribute(a) => {
                write!(f, "attribute {a} appears twice in the quasi-identifier")
            }
            AlgoError::InvalidK(k) => write!(f, "k must be >= 1, got {k}"),
            AlgoError::Table(e) => write!(f, "table error: {e}"),
            AlgoError::Spill(msg) => write!(f, "spill error: {msg}"),
            AlgoError::Rel(e) => write!(f, "relational engine: {e}"),
            AlgoError::NoSolution => {
                write!(f, "no k-anonymous full-domain generalization exists under this budget")
            }
        }
    }
}

impl std::error::Error for AlgoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlgoError::Table(e) => Some(e),
            AlgoError::Rel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TableError> for AlgoError {
    fn from(e: TableError) -> Self {
        AlgoError::Table(e)
    }
}

impl From<RelError> for AlgoError {
    fn from(e: RelError) -> Self {
        AlgoError::Rel(e)
    }
}

impl From<ExternalError> for AlgoError {
    fn from(e: ExternalError) -> Self {
        match e {
            // Keep structured table errors structured; only the IO-flavored
            // cases degrade to the rendered form.
            ExternalError::Table(t) => AlgoError::Table(t),
            other => AlgoError::Spill(other.to_string()),
        }
    }
}

/// Validate a quasi-identifier and configuration against a schema. Returns
/// the QI sorted ascending (the canonical dimension order used throughout).
pub(crate) fn validate_qi(
    schema: &incognito_table::Schema,
    qi: &[usize],
    k: u64,
) -> Result<Vec<usize>, AlgoError> {
    if qi.is_empty() {
        return Err(AlgoError::EmptyQuasiIdentifier);
    }
    if k == 0 {
        return Err(AlgoError::InvalidK(k));
    }
    let mut sorted = qi.to_vec();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            return Err(AlgoError::DuplicateQiAttribute(w[0]));
        }
    }
    if let Some(&bad) = sorted.iter().find(|&&a| a >= schema.arity()) {
        return Err(AlgoError::Table(TableError::AttributeOutOfRange {
            index: bad,
            arity: schema.arity(),
        }));
    }
    Ok(sorted)
}
