use std::fmt;

/// Errors from relational-algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// A referenced column name does not exist in the relation.
    UnknownColumn(String),
    /// Two columns in one relation share a name.
    DuplicateColumn(String),
    /// Column vectors of unequal length were supplied.
    RaggedColumns {
        /// Expected length.
        expected: usize,
        /// Actual length of the offending column.
        actual: usize,
    },
    /// A join/aggregate mixed Int and Text columns.
    TypeMismatch {
        /// The operation that failed.
        op: &'static str,
        /// Offending column name.
        column: String,
    },
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            RelError::DuplicateColumn(c) => write!(f, "duplicate column {c:?}"),
            RelError::RaggedColumns { expected, actual } => {
                write!(f, "column length {actual} differs from {expected}")
            }
            RelError::TypeMismatch { op, column } => {
                write!(f, "type mismatch in {op} on column {column:?}")
            }
        }
    }
}

impl std::error::Error for RelError {}
