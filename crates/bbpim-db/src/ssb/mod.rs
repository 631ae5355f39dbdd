//! The Star Schema Benchmark: schemas, generator, pre-join, queries.
//!
//! [`SsbDb::generate`] produces the four dimensions and the LINEORDER
//! fact relation at a configurable scale factor, uniformly or with the
//! Zipf skew of Rabl et al. (the variant the paper evaluates);
//! [`SsbDb::prejoin`] denormalises them into the wide relation the PIM
//! engine stores; [`queries`] provides the 13 SSB queries as logical
//! plans.

pub mod calendar;
pub mod dims;
pub mod lineorder;
pub mod names;
pub mod prejoin;
pub mod queries;
pub mod skew;
pub mod star;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::relation::Relation;

/// Generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SsbParams {
    /// Scale factor: SF = 1 ≈ 6 M lineorders (the paper uses SF = 10;
    /// any positive value works, fractional included).
    pub sf: f64,
    /// RNG seed — generation is fully deterministic per seed.
    pub seed: u64,
    /// Zipf θ for the skewed variant (None = uniform SSB).
    pub skew_theta: Option<f64>,
}

impl SsbParams {
    /// Uniform SSB at a scale factor.
    pub fn uniform(sf: f64) -> Self {
        SsbParams { sf, seed: 0xB1_7B17, skew_theta: None }
    }

    /// Skewed SSB (Rabl et al.) at a scale factor, θ = 0.8 — the paper's
    /// "non-uniform data" setting.
    pub fn skewed(sf: f64) -> Self {
        SsbParams { sf, seed: 0xB1_7B17, skew_theta: Some(0.8) }
    }

    /// A ~6 K-lineorder instance for unit tests.
    pub fn tiny_for_tests() -> Self {
        SsbParams { sf: 0.001, seed: 7, skew_theta: None }
    }

    /// Orders to generate.
    pub fn orders(&self) -> usize {
        ((1_500_000.0 * self.sf).round() as usize).max(8)
    }

    /// Customers to generate.
    pub fn customers(&self) -> usize {
        ((30_000.0 * self.sf).round() as usize).max(16)
    }

    /// Suppliers to generate.
    pub fn suppliers(&self) -> usize {
        ((2_000.0 * self.sf).round() as usize).max(8)
    }

    /// Parts to generate (SSB: 200,000 × (1 + ⌊log₂ SF⌋) for SF ≥ 1;
    /// scaled linearly below 1).
    pub fn parts(&self) -> usize {
        if self.sf >= 1.0 {
            200_000 * (1 + self.sf.log2().floor() as usize)
        } else {
            ((200_000.0 * self.sf).round() as usize).max(64)
        }
    }
}

/// A generated SSB database.
#[derive(Debug, Clone)]
pub struct SsbDb {
    /// Parameters used.
    pub params: SsbParams,
    /// CUSTOMER dimension.
    pub customer: Relation,
    /// SUPPLIER dimension.
    pub supplier: Relation,
    /// PART dimension.
    pub part: Relation,
    /// DATE dimension.
    pub date: Relation,
    /// LINEORDER fact relation.
    pub lineorder: Relation,
}

impl SsbDb {
    /// Generate a database.
    ///
    /// # Panics
    ///
    /// Panics only on internal generator bugs (width violations are
    /// impossible by construction for valid parameters).
    pub fn generate(params: &SsbParams) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let customer = dims::customer(params.customers(), &mut rng).expect("customer generation");
        let supplier = dims::supplier(params.suppliers(), &mut rng).expect("supplier generation");
        let part = dims::part(params.parts(), &mut rng).expect("part generation");
        let date = dims::date().expect("date generation");
        let spec = lineorder::LineorderSpec {
            orders: params.orders(),
            customers: params.customers(),
            suppliers: params.suppliers(),
            parts: params.parts(),
            skew_theta: params.skew_theta,
        };
        let lineorder = lineorder::generate(&spec, &mut rng).expect("lineorder generation");
        SsbDb { params: params.clone(), customer, supplier, part, date, lineorder }
    }

    /// One dimension relation by catalog index, in
    /// [`star::DIMENSIONS`] order.
    ///
    /// # Panics
    ///
    /// Panics when `d >= 4`.
    pub fn dim(&self, d: usize) -> &Relation {
        [&self.customer, &self.supplier, &self.part, &self.date][d]
    }

    /// Pre-join the fact relation with all four dimensions (Section III),
    /// in [`star::DIMENSIONS`] order.
    ///
    /// # Panics
    ///
    /// Panics on dangling keys, which the generator cannot produce.
    pub fn prejoin(&self) -> Relation {
        let dims = std::array::from_fn::<_, 4, _>(|d| (self.dim(d), &star::DIMENSIONS[d]));
        prejoin::prejoin(&self.lineorder, &dims).expect("pre-join over generated data")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_db_generates_consistently() {
        let a = SsbDb::generate(&SsbParams::tiny_for_tests());
        let b = SsbDb::generate(&SsbParams::tiny_for_tests());
        assert_eq!(a.lineorder.len(), b.lineorder.len());
        assert_eq!(a.lineorder.row(42), b.lineorder.row(42));
        assert!(a.lineorder.len() > 4_000);
    }

    #[test]
    fn cardinalities_scale() {
        let p = SsbParams::uniform(0.01);
        assert_eq!(p.customers(), 300);
        assert_eq!(p.suppliers(), 20);
        assert_eq!(p.orders(), 15_000);
        let p1 = SsbParams::uniform(1.0);
        assert_eq!(p1.parts(), 200_000);
        let p4 = SsbParams::uniform(4.0);
        assert_eq!(p4.parts(), 600_000);
    }

    #[test]
    fn skewed_params_set_theta() {
        assert!(SsbParams::skewed(0.1).skew_theta.is_some());
        assert!(SsbParams::uniform(0.1).skew_theta.is_none());
    }
}
