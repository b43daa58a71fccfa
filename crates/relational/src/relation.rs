//! Relations: a schema plus a collection of tuples.
//!
//! The paper works with set semantics ("a relation over schema R[A1..Ak] is a
//! set of tuples", §2).  For efficiency the in-memory representation keeps
//! its rows in one shared, copy-on-write vector: cloning a relation (and so a
//! whole `Database`) shares the rows and costs O(1), and the first mutation
//! through either copy (`push`, `insert`, `retain`, `dedup`, `rows_mut`)
//! copies them, so clones keep value semantics.  Callers choose between
//! `insert` (set semantics, deduplicating) and `push` (bag semantics, used
//! while building large relations whose construction already guarantees
//! uniqueness, e.g. the census generator).

use crate::error::{RelationalError, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A relation instance: schema + tuples.
///
/// Clones share the rows until one of them writes (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    rows: Arc<Vec<Tuple>>,
}

impl Relation {
    /// Create an empty relation over the given schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            rows: Arc::default(),
        }
    }

    /// Create a relation and bulk-load rows (bag semantics, arity-checked).
    ///
    /// One validation pass by reference, then the vector is moved in whole —
    /// no per-row push or reallocation, so this is the cheap materialization
    /// boundary for the columnar executor and the generators.
    pub fn with_rows(schema: Schema, rows: Vec<Tuple>) -> Result<Self> {
        if let Some(t) = rows.iter().find(|t| t.arity() != schema.arity()) {
            return Err(RelationalError::ArityMismatch {
                relation: schema.relation().to_string(),
                expected: schema.arity(),
                actual: t.arity(),
            });
        }
        Ok(Relation {
            schema,
            rows: Arc::new(rows),
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable access to the schema (used by renaming).
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Number of stored rows, `|R|`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The stored rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Mutable access to the stored rows; copies them first if they are
    /// shared with a clone.
    pub fn rows_mut(&mut self) -> &mut Vec<Tuple> {
        Arc::make_mut(&mut self.rows)
    }

    /// Consume the relation, returning its rows; copies them only if they
    /// are shared with a clone.
    pub fn into_rows(self) -> Vec<Tuple> {
        Arc::try_unwrap(self.rows).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Append a row without duplicate elimination (bag semantics).
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: self.schema.relation().to_string(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        self.rows_mut().push(tuple);
        Ok(())
    }

    /// Insert a row with set semantics; returns `true` if it was new.
    ///
    /// This is O(|R|); use it for the small component-style relations of the
    /// world-set layer, not for bulk loads.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        if self.rows.contains(&tuple) {
            return Ok(false);
        }
        self.push(tuple)?;
        Ok(true)
    }

    /// Convenience: push a row built from `Into<Value>` items.
    pub fn push_values<I, V>(&mut self, values: I) -> Result<()>
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.push(Tuple::from_iter(values))
    }

    /// Whether the relation contains the tuple.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.rows.contains(tuple)
    }

    /// Remove duplicate rows, turning a bag into a set (order not preserved).
    pub fn dedup(&mut self) {
        let set: BTreeSet<Tuple> = std::mem::take(self.rows_mut()).into_iter().collect();
        self.rows = Arc::new(set.into_iter().collect());
    }

    /// A canonical, order-insensitive view of the rows (used to compare query
    /// results under set semantics in tests and oracles).
    pub fn row_set(&self) -> BTreeSet<Tuple> {
        self.rows.iter().cloned().collect()
    }

    /// Set-semantics equality: same schema attributes and same set of rows.
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.schema.attrs() == other.schema.attrs() && self.row_set() == other.row_set()
    }

    /// The column values (with duplicates) of one attribute.
    pub fn column(&self, attr: &str) -> Result<Vec<Value>> {
        let pos = self.schema.position_of(attr)?;
        Ok(self.rows.iter().map(|t| t[pos].clone()).collect())
    }

    /// The distinct values of one attribute.
    pub fn distinct_column(&self, attr: &str) -> Result<BTreeSet<Value>> {
        let pos = self.schema.position_of(attr)?;
        Ok(self.rows.iter().map(|t| t[pos].clone()).collect())
    }

    /// Keep only rows satisfying the predicate closure.
    pub fn retain<F: FnMut(&Tuple) -> bool>(&mut self, f: F) {
        self.rows_mut().retain(f);
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for row in self.rows.iter() {
            writeln!(f, "  {row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn rel() -> Relation {
        let schema = Schema::new("R", &["A", "B"]).unwrap();
        let mut r = Relation::new(schema);
        r.push_values([1i64, 10]).unwrap();
        r.push_values([2i64, 20]).unwrap();
        r
    }

    #[test]
    fn push_checks_arity() {
        let mut r = rel();
        assert!(r.push(Tuple::from_iter([1i64])).is_err());
        assert!(r.push(Tuple::from_iter([1i64, 2, 3])).is_err());
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = rel();
        assert!(!r.insert(Tuple::from_iter([1i64, 10])).unwrap());
        assert!(r.insert(Tuple::from_iter([3i64, 30])).unwrap());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn dedup_and_set_equality() {
        let mut a = rel();
        a.push_values([1i64, 10]).unwrap();
        assert_eq!(a.len(), 3);
        a.dedup();
        assert_eq!(a.len(), 2);
        let mut b = rel();
        b.rows_mut().reverse();
        assert!(a.set_eq(&b));
        assert_ne!(a.rows(), b.rows());
        assert!(a.contains(&Tuple::from_iter([2i64, 20])));
    }

    #[test]
    fn column_extraction() {
        let r = rel();
        assert_eq!(r.column("A").unwrap(), vec![Value::int(1), Value::int(2)]);
        assert_eq!(r.distinct_column("B").unwrap().len(), 2);
        assert!(r.column("Z").is_err());
    }

    #[test]
    fn with_rows_and_retain() {
        let schema = Schema::new("S", &["X"]).unwrap();
        let mut r = Relation::with_rows(
            schema,
            vec![Tuple::from_iter([1i64]), Tuple::from_iter([2i64])],
        )
        .unwrap();
        r.retain(|t| t[0] == Value::int(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.into_rows().len(), 1);
    }

    #[test]
    fn clones_share_rows_until_written() {
        let a = rel();
        let b = a.clone();
        assert_eq!(a.rows().as_ptr(), b.rows().as_ptr());
        assert_eq!(a.clone().into_rows(), a.rows());
    }

    #[test]
    fn copy_on_write_keeps_value_semantics() {
        let mutations: [fn(&mut Relation); 5] = [
            |r| r.push_values([3i64, 30]).unwrap(),
            |r| assert!(r.insert(Tuple::from_iter([3i64, 30])).unwrap()),
            |r| r.retain(|t| t[0] == Value::int(1)),
            |r| r.dedup(),
            |r| r.rows_mut()[0] = Tuple::from_iter([9i64, 90]),
        ];
        // A bag with a duplicate, so that every mutation changes the rows.
        let base = || {
            let mut r = rel();
            r.push_values([1i64, 10]).unwrap();
            r
        };
        for mutate in mutations {
            // Writing through the clone leaves the original unchanged ...
            let original = base();
            let mut clone = original.clone();
            mutate(&mut clone);
            assert_eq!(original, base());
            assert_ne!(clone, base());
            assert_ne!(original.rows().as_ptr(), clone.rows().as_ptr());

            // ... and writing through the original leaves the clone unchanged.
            let mut original = base();
            let clone = original.clone();
            mutate(&mut original);
            assert_eq!(clone, base());
            assert_ne!(original, base());
        }
    }

    #[test]
    fn display_includes_rows() {
        let s = rel().to_string();
        assert!(s.contains("R[A, B]"));
        assert!(s.contains("(1, 10)"));
    }
}
