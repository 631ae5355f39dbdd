//! Columnar relations.

use std::sync::Arc;

use crate::column::Column;
use crate::error::DbError;
use crate::schema::Schema;

/// A columnar relation: a [`Schema`] plus one [`Column`] per attribute.
///
/// The columns sit behind one [`Arc`], so `clone()` is a pointer copy:
/// handing clones of one relation to several engines (which load it and
/// drop it) or to replay oracles costs no copy of the rows. The first
/// [`Relation::push_row`] /
/// [`Relation::set_value`] through a shared handle copies the columns
/// for that handle alone (copy-on-write at relation granularity, one
/// `Arc::make_mut` per call); every other handle keeps what it had.
///
/// ```
/// use bbpim_db::relation::Relation;
/// use bbpim_db::schema::{Attribute, Schema};
///
/// let schema = Schema::new("t", vec![Attribute::numeric("x", 8), Attribute::numeric("y", 4)])?;
/// let mut rel = Relation::new(schema);
/// rel.push_row(&[7, 3])?;
/// assert_eq!(rel.len(), 1);
/// assert_eq!(rel.value(0, rel.schema().index_of("y")?), 3);
/// # Ok::<(), bbpim_db::DbError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    columns: Arc<Vec<Column>>,
}

impl Relation {
    /// Empty relation for a schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema.attrs().iter().map(|a| Column::new(a.bits)).collect();
        Relation { schema, columns: Arc::new(columns) }
    }

    /// Empty relation with row capacity reserved.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let mut rel = Relation::new(schema);
        for col in Arc::make_mut(&mut rel.columns) {
            col.reserve(rows);
        }
        rel
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map(Column::len).unwrap_or(0)
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a row given values in schema order.
    ///
    /// # Errors
    ///
    /// [`Schema::check_row`]'s. The row is either fully appended or not
    /// at all.
    pub fn push_row(&mut self, values: &[u64]) -> Result<(), DbError> {
        // The one check; after it no column can refuse its value, so a
        // failure cannot leave ragged columns.
        self.schema.check_row(values)?;
        for (col, &v) in Arc::make_mut(&mut self.columns).iter_mut().zip(values) {
            col.push_checked(v);
        }
        Ok(())
    }

    /// Value at `(row, attr_index)`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of bounds.
    #[inline]
    pub fn value(&self, row: usize, attr_index: usize) -> u64 {
        self.columns[attr_index].get(row)
    }

    /// Value at `row` of the attribute called `name`.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchAttribute`] when the name is unknown.
    pub fn value_by_name(&self, row: usize, name: &str) -> Result<u64, DbError> {
        Ok(self.value(row, self.schema.index_of(name)?))
    }

    /// Overwrite one value (UPDATE maintenance).
    ///
    /// # Errors
    ///
    /// [`DbError::ValueOutOfRange`] (with the attribute named) when the
    /// value exceeds the attribute width.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of bounds.
    pub fn set_value(&mut self, row: usize, attr_index: usize, value: u64) -> Result<(), DbError> {
        self.schema.attrs()[attr_index].check(value)?;
        Arc::make_mut(&mut self.columns)[attr_index].set(row, value)
    }

    /// Borrow a column by attribute index.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    pub fn column(&self, attr_index: usize) -> &Column {
        &self.columns[attr_index]
    }

    /// Borrow a column by attribute name.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchAttribute`] when the name is unknown.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, DbError> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Materialise one row in schema order.
    pub fn row(&self, row: usize) -> Vec<u64> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Horizontally partition the relation into `n` relations by a
    /// per-row assignment function (`assign(row) -> shard`, called once
    /// per row in row order), preserving relative row order within each
    /// part. Each part keeps the full schema, so every shard can answer
    /// the same logical queries over its slice of the records.
    ///
    /// The values come out of a valid relation and go into columns of
    /// the same widths, so nothing is re-validated: each part's columns
    /// are allocated at their exact length and filled a source column
    /// at a time.
    ///
    /// # Errors
    ///
    /// [`DbError::InvalidQuery`] when `n` is zero or `assign` returns an
    /// out-of-range shard.
    pub fn partition_by<F>(&self, n: usize, mut assign: F) -> Result<Vec<Relation>, DbError>
    where
        F: FnMut(usize) -> usize,
    {
        if n == 0 {
            return Err(DbError::InvalidQuery("cannot partition into 0 parts".into()));
        }
        let mut shard_of = Vec::with_capacity(self.len());
        let mut rows_in = vec![0usize; n];
        for row in 0..self.len() {
            let shard = assign(row);
            if shard >= n {
                return Err(DbError::InvalidQuery(format!(
                    "row {row} assigned to shard {shard}, but only {n} shards exist"
                )));
            }
            rows_in[shard] += 1;
            shard_of.push(shard);
        }
        let arity = self.schema.arity();
        let mut columns: Vec<Vec<Column>> = (0..n).map(|_| Vec::with_capacity(arity)).collect();
        for source in self.columns.iter() {
            let mut split: Vec<Column> = rows_in
                .iter()
                .map(|&rows| {
                    let mut col = Column::new(source.bits());
                    col.reserve(rows);
                    col
                })
                .collect();
            source.read(0..source.len(), |row, v| split[shard_of[row]].push_checked(v));
            for (part, col) in columns.iter_mut().zip(split) {
                part.push(col);
            }
        }
        Ok(columns
            .into_iter()
            .map(|cols| Relation { schema: self.schema.clone(), columns: Arc::new(cols) })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::Dictionary;
    use crate::schema::Attribute;

    fn rel() -> Relation {
        let d = Dictionary::from_sorted(vec!["lo".into(), "hi".into()]).unwrap();
        let schema =
            Schema::new("t", vec![Attribute::numeric("n", 8), Attribute::dict("s", d)]).unwrap();
        Relation::new(schema)
    }

    #[test]
    fn push_and_read_back() {
        let mut r = rel();
        r.push_row(&[42, 1]).unwrap();
        r.push_row(&[7, 0]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0), vec![42, 1]);
        assert_eq!(r.value_by_name(1, "n").unwrap(), 7);
    }

    #[test]
    fn arity_checked() {
        let mut r = rel();
        assert!(matches!(r.push_row(&[1]), Err(DbError::ArityMismatch { .. })));
    }

    #[test]
    fn width_violation_names_attribute_and_keeps_columns_aligned() {
        let mut r = rel();
        let err = r.push_row(&[256, 0]).unwrap_err();
        match err {
            DbError::ValueOutOfRange { attr, .. } => assert_eq!(attr, "n"),
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(r.len(), 0);
    }

    /// Clones are pointer copies until one of them writes; the write
    /// copies the columns for that handle alone.
    #[test]
    fn clones_share_storage_until_one_is_written() {
        let mut r = rel();
        for i in 0..10u64 {
            r.push_row(&[i, i % 2]).unwrap();
        }
        let (mut a, mut b, c) = (r.clone(), r.clone(), r.clone());
        for handle in [&a, &b, &c] {
            assert!(Arc::ptr_eq(&handle.columns, &r.columns), "a clone is a pointer copy");
        }
        // a rejected write validates before it copies
        assert!(a.push_row(&[256, 0]).is_err());
        assert!(Arc::ptr_eq(&a.columns, &r.columns));

        a.set_value(3, 0, 200).unwrap();
        b.push_row(&[99, 1]).unwrap();
        assert!(!Arc::ptr_eq(&a.columns, &r.columns) && !Arc::ptr_eq(&b.columns, &r.columns));
        assert!(Arc::ptr_eq(&c.columns, &r.columns), "the untouched clone still shares");
        assert_eq!((a.value(3, 0), a.len()), (200, 10));
        assert_eq!((b.row(10), b.value(3, 0)), (vec![99, 1], 3));
        assert_eq!(c, r);
        assert_eq!((r.value(3, 0), r.len()), (3, 10), "the original saw neither write");

        // a sole owner writes in place: no second copy
        let held = Arc::as_ptr(&a.columns);
        a.set_value(4, 0, 201).unwrap();
        a.push_row(&[1, 1]).unwrap();
        assert_eq!(Arc::as_ptr(&a.columns), held);
    }

    #[test]
    fn partition_by_round_robin_preserves_rows() {
        let mut r = rel();
        for i in 0..10u64 {
            r.push_row(&[i, i % 2]).unwrap();
        }
        let parts = r.partition_by(3, |row| row % 3).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(Relation::len).sum::<usize>(), 10);
        // shard 0 got rows 0,3,6,9 in order
        assert_eq!(parts[0].row(0), vec![0, 0]);
        assert_eq!(parts[0].row(3), vec![9, 1]);
        for p in &parts {
            assert_eq!(p.schema(), r.schema());
        }
    }

    #[test]
    fn partition_by_rejects_bad_arguments() {
        let mut r = rel();
        r.push_row(&[1, 0]).unwrap();
        assert!(matches!(r.partition_by(0, |_| 0), Err(DbError::InvalidQuery(_))));
        assert!(matches!(r.partition_by(2, |_| 5), Err(DbError::InvalidQuery(_))));
    }

    #[test]
    fn partition_by_allows_empty_parts() {
        let mut r = rel();
        r.push_row(&[1, 0]).unwrap();
        let parts = r.partition_by(4, |_| 2).unwrap();
        assert_eq!(parts[2].len(), 1);
        assert!([0, 1, 3].iter().all(|&i| parts[i].is_empty()));
    }
}
