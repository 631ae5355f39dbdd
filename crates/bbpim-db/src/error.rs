//! Error type for the relational substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the relational layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// An attribute name was not found in a schema.
    NoSuchAttribute {
        /// The missing name.
        name: String,
        /// The schema searched.
        schema: String,
    },
    /// A value exceeded its attribute's declared bit width.
    ValueOutOfRange {
        /// Attribute name.
        attr: String,
        /// Offending value.
        value: u64,
        /// Declared width in bits.
        bits: usize,
    },
    /// A schema declared an attribute width outside `1..=64`.
    InvalidWidth {
        /// Attribute name.
        attr: String,
        /// Declared width in bits.
        bits: usize,
    },
    /// A schema declared two attributes of one name (the second could
    /// never be reached by name).
    DuplicateAttribute {
        /// The repeated name.
        name: String,
        /// The schema declaring it.
        schema: String,
    },
    /// A row had the wrong number of values for the schema.
    ArityMismatch {
        /// Values supplied.
        got: usize,
        /// Attributes expected.
        expected: usize,
    },
    /// A string was not present in an attribute's dictionary.
    NotInDictionary {
        /// Attribute name.
        attr: String,
        /// The unknown string.
        value: String,
    },
    /// A dictionary decode was requested for a plain numeric attribute,
    /// or vice versa.
    KindMismatch {
        /// Attribute name.
        attr: String,
        /// Human explanation.
        detail: String,
    },
    /// A key lookup failed while pre-joining (dangling foreign key).
    DanglingKey {
        /// Dimension relation name.
        relation: String,
        /// The key value that had no match.
        key: u64,
    },
    /// A query referenced something invalid (bad constant, empty IN…).
    InvalidQuery(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchAttribute { name, schema } => {
                write!(f, "no attribute `{name}` in schema `{schema}`")
            }
            DbError::ValueOutOfRange { attr, value, bits } => {
                write!(f, "value {value} does not fit `{attr}` ({bits} bits)")
            }
            DbError::InvalidWidth { attr, bits } => {
                write!(f, "attribute `{attr}` is {bits} bits wide, widths are 1..=64")
            }
            DbError::DuplicateAttribute { name, schema } => {
                write!(f, "schema `{schema}` declares attribute `{name}` twice")
            }
            DbError::ArityMismatch { got, expected } => {
                write!(f, "row has {got} values, schema expects {expected}")
            }
            DbError::NotInDictionary { attr, value } => {
                write!(f, "string `{value}` not in dictionary of `{attr}`")
            }
            DbError::KindMismatch { attr, detail } => write!(f, "attribute `{attr}`: {detail}"),
            DbError::DanglingKey { relation, key } => {
                write!(f, "foreign key {key} has no match in `{relation}`")
            }
            DbError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
        }
    }
}

impl Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_attribute() {
        let e = DbError::NoSuchAttribute { name: "lo_qty".into(), schema: "lineorder".into() };
        assert!(e.to_string().contains("lo_qty"));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn check<T: Error + Send + Sync + 'static>() {}
        check::<DbError>();
    }
}
