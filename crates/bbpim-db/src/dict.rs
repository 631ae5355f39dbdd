//! Order-preserving string dictionaries.
//!
//! String attributes are stored as small integers. Dictionaries are
//! built from a *sorted* (or otherwise deliberately ordered) value list
//! so that integer comparisons implement lexicographic predicates — the
//! property SSB's `p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228'` relies
//! on.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::DbError;

/// An immutable, order-preserving string dictionary.
///
/// ```
/// use bbpim_db::dict::Dictionary;
/// let d = Dictionary::from_sorted(vec!["APAC".into(), "EMEA".into()]).unwrap();
/// assert_eq!(d.encode("EMEA"), Some(1));
/// assert_eq!(d.decode(0), Some("APAC"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dictionary {
    values: Vec<String>,
    index: HashMap<String, u64>,
}

impl Dictionary {
    /// Build from values that are already in the intended code order.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::InvalidQuery`] if the list contains duplicates
    /// (codes must be unambiguous).
    pub fn from_sorted(values: Vec<String>) -> Result<Arc<Self>, DbError> {
        let mut index = HashMap::with_capacity(values.len());
        for (i, v) in values.iter().enumerate() {
            if index.insert(v.clone(), i as u64).is_some() {
                return Err(DbError::InvalidQuery(format!("duplicate dictionary entry `{v}`")));
            }
        }
        Ok(Arc::new(Dictionary { values, index }))
    }

    /// Code of a string, if present.
    pub fn encode(&self, value: &str) -> Option<u64> {
        self.index.get(value).copied()
    }

    /// String of a code, if in range.
    pub fn decode(&self, code: u64) -> Option<&str> {
        self.values.get(code as usize).map(String::as_str)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Bits needed to store any code.
    pub fn code_bits(&self) -> usize {
        bits_for(self.values.len().saturating_sub(1) as u64)
    }

    /// Iterate `(code, value)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &str)> {
        self.values.iter().enumerate().map(|(i, v)| (i as u64, v.as_str()))
    }
}

/// Bits needed to represent `max_value` (at least 1).
pub fn bits_for(max_value: u64) -> usize {
    (64 - max_value.leading_zeros() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let d = Dictionary::from_sorted(vec!["a".into(), "b".into(), "c".into()]).unwrap();
        for (code, value) in d.iter() {
            assert_eq!(d.encode(value), Some(code));
        }
        assert_eq!(d.decode(3), None);
        assert_eq!(d.encode("zzz"), None);
    }

    #[test]
    fn sorted_input_preserves_order() {
        let mut names: Vec<String> = (1..=40).map(|i| format!("MFGR#22{i:02}")).collect();
        names.sort();
        let d = Dictionary::from_sorted(names.clone()).unwrap();
        let lo = d.encode("MFGR#2221").unwrap();
        let hi = d.encode("MFGR#2228").unwrap();
        // lexicographic range == code range
        for (code, value) in d.iter() {
            let in_lex = ("MFGR#2221"..="MFGR#2228").contains(&value);
            assert_eq!((lo..=hi).contains(&code), in_lex, "{value}");
        }
    }

    #[test]
    fn duplicates_rejected() {
        assert!(Dictionary::from_sorted(vec!["x".into(), "x".into()]).is_err());
    }

    #[test]
    fn code_bits_minimal() {
        let d = Dictionary::from_sorted((0..5).map(|i| i.to_string()).collect()).unwrap();
        assert_eq!(d.code_bits(), 3);
        let d1 = Dictionary::from_sorted(vec!["only".into()]).unwrap();
        assert_eq!(d1.code_bits(), 1);
    }

    #[test]
    fn bits_for_edges() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
    }
}
