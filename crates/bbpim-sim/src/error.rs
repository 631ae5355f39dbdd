//! Error type for the PIM simulator.

use std::error::Error;
use std::fmt;

/// Errors produced by the PIM simulator.
///
/// Every fallible public function in this crate returns `Result<_, SimError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A column index was outside the crossbar geometry, or outside the
    /// 64 columns a record field of one value can span.
    ColumnOutOfRange {
        /// Offending column index.
        col: usize,
        /// Columns in reach: the crossbar's, or the end of a field's 64.
        cols: usize,
    },
    /// A row index was outside the crossbar geometry.
    RowOutOfRange {
        /// Offending row index.
        row: usize,
        /// Number of rows in the crossbar.
        rows: usize,
    },
    /// A microprogram referenced a column outside its declared frame.
    InvalidProgram(String),
    /// The module has no free pages left.
    OutOfCapacity {
        /// Pages requested.
        requested: usize,
        /// Pages still available.
        available: usize,
    },
    /// A page id did not refer to an allocated page.
    NoSuchPage(usize),
    /// A crossbar index was outside the page.
    CrossbarOutOfRange {
        /// Offending crossbar index.
        crossbar: usize,
        /// Crossbars per page.
        per_page: usize,
    },
    /// An aggregation request was malformed (empty source, bad widths…).
    InvalidAggregation(String),
    /// A configuration value was inconsistent (e.g. rows not a multiple of 64).
    InvalidConfig(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ColumnOutOfRange { col, cols } => {
                write!(f, "column {col} out of range (columns end at {cols})")
            }
            SimError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range (crossbar has {rows} rows)")
            }
            SimError::InvalidProgram(msg) => write!(f, "invalid microprogram: {msg}"),
            SimError::OutOfCapacity { requested, available } => write!(
                f,
                "module out of capacity: requested {requested} pages, {available} available"
            ),
            SimError::NoSuchPage(id) => write!(f, "no such page: {id}"),
            SimError::CrossbarOutOfRange { crossbar, per_page } => {
                write!(f, "crossbar {crossbar} out of range (page has {per_page})")
            }
            SimError::InvalidAggregation(msg) => write!(f, "invalid aggregation: {msg}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = SimError::ColumnOutOfRange { col: 600, cols: 512 };
        let s = e.to_string();
        assert!(s.contains("column 600"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }

    #[test]
    fn implements_std_error() {
        let e: Box<dyn Error> = Box::new(SimError::NoSuchPage(3));
        assert!(e.to_string().contains("page"));
    }
}
