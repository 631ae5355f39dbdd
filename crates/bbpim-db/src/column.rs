//! Width-checked columnar storage.

use crate::error::DbError;

/// A column of unsigned integers, each fitting `bits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    bits: usize,
    data: Vec<u64>,
}

impl Column {
    /// Empty column of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 64.
    pub fn new(bits: usize) -> Self {
        assert!((1..=64).contains(&bits), "column width must be 1..=64");
        Column { bits, data: Vec::new() }
    }

    /// Empty column with reserved capacity.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 64.
    pub fn with_capacity(bits: usize, capacity: usize) -> Self {
        let mut c = Column::new(bits);
        c.data.reserve(capacity);
        c
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append a value.
    ///
    /// # Errors
    ///
    /// [`DbError::ValueOutOfRange`] when the value exceeds the width.
    pub fn push(&mut self, value: u64) -> Result<(), DbError> {
        if self.bits < 64 && value >> self.bits != 0 {
            return Err(DbError::ValueOutOfRange { attr: String::new(), value, bits: self.bits });
        }
        self.data.push(value);
        Ok(())
    }

    /// Value at `row`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of bounds.
    pub fn get(&self, row: usize) -> u64 {
        self.data[row]
    }

    /// Overwrite the value at `row`.
    ///
    /// # Errors
    ///
    /// [`DbError::ValueOutOfRange`] when the value exceeds the width.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of bounds.
    pub fn set(&mut self, row: usize, value: u64) -> Result<(), DbError> {
        if self.bits < 64 && value >> self.bits != 0 {
            return Err(DbError::ValueOutOfRange { attr: String::new(), value, bits: self.bits });
        }
        self.data[row] = value;
        Ok(())
    }

    /// The raw values.
    pub fn values(&self) -> &[u64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut c = Column::new(8);
        c.push(200).unwrap();
        c.push(0).unwrap();
        assert_eq!(c.get(0), 200);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn width_enforced() {
        let mut c = Column::new(4);
        assert!(c.push(16).is_err());
        assert!(c.push(15).is_ok());
    }

    #[test]
    fn full_width_accepts_max() {
        let mut c = Column::new(64);
        c.push(u64::MAX).unwrap();
        assert_eq!(c.get(0), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_width_rejected() {
        let _ = Column::new(0);
    }
}
