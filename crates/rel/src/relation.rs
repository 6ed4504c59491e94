use std::fmt;

use incognito_table::fxhash::FxHashMap;

use crate::RelError;

/// A single cell value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit integer (ids, counts, levels).
    Int(i64),
    /// Text (labels, dimension names).
    Text(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(t) => write!(f, "{t}"),
        }
    }
}

/// Columnar storage for one attribute of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnData {
    /// Integer column.
    Int(Vec<i64>),
    /// Text column.
    Text(Vec<String>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Text(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`.
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Text(v) => Value::Text(v[row].clone()),
        }
    }

    pub(crate) fn empty_like(&self) -> ColumnData {
        match self {
            ColumnData::Int(_) => ColumnData::Int(Vec::new()),
            ColumnData::Text(_) => ColumnData::Text(Vec::new()),
        }
    }

    pub(crate) fn push_from(&mut self, src: &ColumnData, row: usize) {
        match (self, src) {
            (ColumnData::Int(dst), ColumnData::Int(s)) => dst.push(s[row]),
            (ColumnData::Text(dst), ColumnData::Text(s)) => dst.push(s[row].clone()),
            _ => unreachable!("columns are created type-consistent"),
        }
    }
}

/// A named-column relation with multiset semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    names: Vec<String>,
    columns: Vec<ColumnData>,
}

impl Relation {
    /// Build a relation from `(name, column)` pairs. Names must be unique
    /// and columns equally long.
    pub fn new<N: Into<String>>(columns: Vec<(N, ColumnData)>) -> Result<Relation, RelError> {
        let mut names: Vec<String> = Vec::with_capacity(columns.len());
        let mut data = Vec::with_capacity(columns.len());
        let mut len: Option<usize> = None;
        for (name, col) in columns {
            let name = name.into();
            if names.contains(&name) {
                return Err(RelError::DuplicateColumn(name));
            }
            match len {
                None => len = Some(col.len()),
                Some(l) if l != col.len() => {
                    return Err(RelError::RaggedColumns { expected: l, actual: col.len() })
                }
                _ => {}
            }
            names.push(name);
            data.push(col);
        }
        Ok(Relation { names, columns: data })
    }

    /// An empty relation with the same schema as `self`.
    pub fn empty_like(&self) -> Relation {
        Relation {
            names: self.names.clone(),
            columns: self.columns.iter().map(ColumnData::empty_like).collect(),
        }
    }

    /// Column names, in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.names.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, ColumnData::len)
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap bytes held by the column data (text cells count
    /// their `String` header plus capacity).
    pub fn heap_bytes(&self) -> u64 {
        let cells: usize = self
            .columns
            .iter()
            .map(|c| match c {
                ColumnData::Int(v) => v.capacity() * std::mem::size_of::<i64>(),
                ColumnData::Text(v) => v
                    .iter()
                    .map(|t| std::mem::size_of::<String>() + t.capacity())
                    .sum(),
            })
            .sum();
        cells as u64
    }

    /// Index of column `name`.
    pub fn column_index(&self, name: &str) -> Result<usize, RelError> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| RelError::UnknownColumn(name.to_string()))
    }

    /// The column named `name`.
    pub fn column(&self, name: &str) -> Result<&ColumnData, RelError> {
        Ok(&self.columns[self.column_index(name)?])
    }

    /// The column at position `idx`.
    pub fn column_at(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// The cell at (`row`, `name`).
    pub fn value(&self, row: usize, name: &str) -> Result<Value, RelError> {
        Ok(self.column(name)?.value(row))
    }

    /// One whole row as values (for tests and display).
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Deduplicate rows (SQL `SELECT DISTINCT *`).
    pub fn distinct(&self) -> Relation {
        let mut seen: FxHashMap<Vec<Value>, ()> = FxHashMap::default();
        let mut out = self.empty_like();
        for row in 0..self.len() {
            if seen.insert(self.row(row), ()).is_none() {
                out.push_row_from(self, row);
            }
        }
        out
    }

    /// Sort rows lexicographically by all columns (for deterministic
    /// output; SQL `ORDER BY *`).
    pub fn sorted(&self) -> Relation {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&a| self.row(a));
        let mut out = self.empty_like();
        for row in order {
            out.push_row_from(self, row);
        }
        out
    }

    fn push_row_from(&mut self, src: &Relation, row: usize) {
        for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
            dst.push_from(s, row);
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.names.join(" | "))?;
        for row in 0..self.len() {
            let cells: Vec<String> = self.row(row).iter().map(Value::to_string).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(v: &[i64]) -> ColumnData {
        ColumnData::Int(v.to_vec())
    }

    fn texts(v: &[&str]) -> ColumnData {
        ColumnData::Text(v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn construction_and_accessors() {
        let r = Relation::new(vec![("id", ints(&[1, 2])), ("name", texts(&["a", "b"]))]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.value(1, "name").unwrap(), Value::Text("b".into()));
        assert!(r.column("nope").is_err());
        assert!(Relation::new(vec![("x", ints(&[1])), ("x", ints(&[2]))]).is_err());
        assert!(Relation::new(vec![("x", ints(&[1])), ("y", ints(&[1, 2]))]).is_err());
    }

    #[test]
    fn distinct_and_sorted() {
        let r = Relation::new(vec![("x", ints(&[3, 1, 3, 2]))]).unwrap();
        let d = r.distinct();
        assert_eq!(d.len(), 3);
        let s = d.sorted();
        assert_eq!(
            (0..3).map(|i| s.value(i, "x").unwrap()).collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

}
