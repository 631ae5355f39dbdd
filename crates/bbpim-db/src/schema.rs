//! Schemas: named, bit-width-minimal attributes.

use std::sync::Arc;

use crate::dict::Dictionary;
use crate::error::DbError;
use crate::plan::Const;

/// How an attribute's integer codes should be interpreted.
#[derive(Debug, Clone)]
pub enum AttrKind {
    /// A plain unsigned integer.
    Numeric,
    /// Codes into an order-preserving string dictionary.
    Dict(Option<Arc<Dictionary>>),
}

impl PartialEq for AttrKind {
    fn eq(&self, other: &Self) -> bool {
        matches!(
            (self, other),
            (AttrKind::Numeric, AttrKind::Numeric) | (AttrKind::Dict(_), AttrKind::Dict(_))
        )
    }
}

/// One attribute: a name, a width in bits, and an interpretation.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute name (prefixed by relation: `lo_quantity`, `d_year`…).
    pub name: String,
    /// Storage width in bits (1..=64).
    pub bits: usize,
    /// Interpretation of the stored codes.
    pub kind: AttrKind,
}

impl Attribute {
    /// A numeric attribute.
    pub fn numeric(name: impl Into<String>, bits: usize) -> Self {
        Attribute { name: name.into(), bits, kind: AttrKind::Numeric }
    }

    /// A dictionary-encoded attribute; width follows the dictionary.
    pub fn dict(name: impl Into<String>, dict: Arc<Dictionary>) -> Self {
        let bits = dict.code_bits();
        Attribute { name: name.into(), bits, kind: AttrKind::Dict(Some(dict)) }
    }

    /// The dictionary, when this attribute has one.
    pub fn dictionary(&self) -> Option<&Arc<Dictionary>> {
        match &self.kind {
            AttrKind::Dict(d) => d.as_ref(),
            AttrKind::Numeric => None,
        }
    }

    /// Whether `value` fits this attribute's width.
    ///
    /// # Errors
    ///
    /// [`DbError::ValueOutOfRange`], naming the attribute, when it does
    /// not.
    pub fn check(&self, value: u64) -> Result<(), DbError> {
        if self.bits < 64 && value >> self.bits != 0 {
            return Err(DbError::ValueOutOfRange {
                attr: self.name.clone(),
                value,
                bits: self.bits,
            });
        }
        Ok(())
    }

    /// Encode a constant as this attribute's code: a number is its own
    /// code, a string goes through the dictionary. The width is not
    /// checked — a predicate constant may exceed it (`lo_quantity <
    /// 1000`, answered on every engine: the atom's value runs clip to
    /// the attribute's domain, [`crate::plan::ResolvedAtom::runs`]); a
    /// stored value must also pass [`Attribute::check`].
    ///
    /// # Errors
    ///
    /// [`DbError::KindMismatch`] for a string on a numeric attribute,
    /// [`DbError::NotInDictionary`] for an unknown string.
    pub fn encode(&self, value: &Const) -> Result<u64, DbError> {
        let s = match value {
            Const::Num(v) => return Ok(*v),
            Const::Str(s) => s,
        };
        let dict = self.dictionary().ok_or_else(|| DbError::KindMismatch {
            attr: self.name.clone(),
            detail: "string constant on a numeric attribute".into(),
        })?;
        dict.encode(s)
            .ok_or_else(|| DbError::NotInDictionary { attr: self.name.clone(), value: s.clone() })
    }
}

/// An ordered set of attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Relation name.
    pub name: String,
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Build a schema. This is the one door a width passes through:
    /// behind it every attribute is `1..=64` bits wide (the width picks
    /// the storage lane of its [`crate::column::Column`]) and reachable
    /// by its name.
    ///
    /// # Errors
    ///
    /// [`DbError::InvalidWidth`] for an attribute width of 0 or above
    /// 64; [`DbError::DuplicateAttribute`] when two attributes share a
    /// name.
    pub fn new(name: impl Into<String>, attrs: Vec<Attribute>) -> Result<Self, DbError> {
        let name = name.into();
        for (i, a) in attrs.iter().enumerate() {
            if !(1..=64).contains(&a.bits) {
                return Err(DbError::InvalidWidth { attr: a.name.clone(), bits: a.bits });
            }
            if attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(DbError::DuplicateAttribute { name: a.name.clone(), schema: name });
            }
        }
        Ok(Schema { name, attrs })
    }

    /// The attributes in declaration order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Index of an attribute by name.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchAttribute`] when absent.
    pub fn index_of(&self, name: &str) -> Result<usize, DbError> {
        self.attrs.iter().position(|a| a.name == name).ok_or_else(|| DbError::NoSuchAttribute {
            name: name.into(),
            schema: self.name.clone(),
        })
    }

    /// Attribute by name.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchAttribute`] when absent.
    pub fn attr(&self, name: &str) -> Result<&Attribute, DbError> {
        Ok(&self.attrs[self.index_of(name)?])
    }

    /// Total record width in bits.
    pub fn record_bits(&self) -> usize {
        self.attrs.iter().map(|a| a.bits).sum()
    }

    /// Whether `values` is a row of this schema: one encoded value per
    /// attribute, each within its attribute's width.
    ///
    /// # Errors
    ///
    /// [`DbError::ArityMismatch`] on wrong arity;
    /// [`DbError::ValueOutOfRange`] (with the attribute name filled in)
    /// when a value exceeds its width.
    pub fn check_row(&self, values: &[u64]) -> Result<(), DbError> {
        if values.len() != self.arity() {
            return Err(DbError::ArityMismatch { got: values.len(), expected: self.arity() });
        }
        self.attrs.iter().zip(values).try_for_each(|(attr, &v)| attr.check(v))
    }
}

/// Whether `name` stays host-side under every PIM layout: no query reads a `*_phone`.
pub fn host_only(name: &str) -> bool {
    name.ends_with("_phone")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                Attribute::numeric("a", 8),
                Attribute::dict(
                    "b",
                    Dictionary::from_sorted(vec!["x".into(), "y".into(), "z".into()]).unwrap(),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn width_outside_1_to_64_is_a_typed_error() {
        for bits in [0usize, 65, usize::MAX] {
            let attrs = vec![Attribute::numeric("ok", 8), Attribute::numeric("x", bits)];
            assert_eq!(
                Schema::new("t", attrs).unwrap_err(),
                DbError::InvalidWidth { attr: "x".into(), bits }
            );
        }
        for bits in [1usize, 64] {
            assert!(Schema::new("t", vec![Attribute::numeric("x", bits)]).is_ok());
        }
    }

    #[test]
    fn duplicate_attribute_name_is_a_typed_error() {
        let attrs = vec![
            Attribute::numeric("x", 8),
            Attribute::numeric("y", 8),
            Attribute::numeric("x", 4),
        ];
        assert_eq!(
            Schema::new("t", attrs).unwrap_err(),
            DbError::DuplicateAttribute { name: "x".into(), schema: "t".into() }
        );
    }

    #[test]
    fn lookup_by_name() {
        let s = schema();
        assert_eq!(s.index_of("a").unwrap(), 0);
        assert_eq!(s.attr("b").unwrap().bits, 2);
        assert!(matches!(s.index_of("zzz"), Err(DbError::NoSuchAttribute { .. })));
    }

    #[test]
    fn record_bits_sums_widths() {
        assert_eq!(schema().record_bits(), 10);
    }

    #[test]
    fn encode_str_through_dictionary() {
        let s = schema();
        assert_eq!(s.attr("b").unwrap().encode(&"y".into()).unwrap(), 1);
        assert!(matches!(
            s.attr("b").unwrap().encode(&"nope".into()),
            Err(DbError::NotInDictionary { .. })
        ));
        assert!(matches!(
            s.attr("a").unwrap().encode(&"y".into()),
            Err(DbError::KindMismatch { .. })
        ));
    }

    #[test]
    fn encode_num_is_its_own_code_unchecked() {
        let a = schema().attr("a").unwrap().clone();
        assert_eq!(a.encode(&5u64.into()).unwrap(), 5);
        // a predicate constant may exceed the width; storing it may not
        let wide = 1u64 << a.bits;
        assert_eq!(a.encode(&wide.into()).unwrap(), wide);
        assert!(a.check(wide).is_err());
    }

    #[test]
    fn dict_attr_width_follows_dictionary() {
        let d = Dictionary::from_sorted((0..100).map(|i| format!("v{i:03}")).collect()).unwrap();
        let a = Attribute::dict("big", d);
        assert_eq!(a.bits, 7);
    }
}
