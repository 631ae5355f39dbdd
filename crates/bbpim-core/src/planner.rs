//! The physical planner: which pages must a query touch?
//!
//! The engine used to run every bulk-bitwise program over *all* pages
//! holding the relation. This module plans a [`PageSet`] instead: the
//! query's [`FilterBounds`] are tested against every page's
//! [`bbpim_db::zonemap::ZoneMap`] (built at load time, widened by
//! UPDATEs), and pages whose
//! value ranges cannot satisfy the conjunction are *pruned* — no
//! request descriptor is posted, no crossbar switches, no result line is
//! read. Pruning is a proof of absence, so pruned pages behave exactly
//! as if their mask column were all-false: downstream filter,
//! aggregation, GROUP BY and UPDATE stages simply never visit them.
//!
//! Page indices are shared across vertical partitions (record *i* sits
//! at the same page offset in every partition), so one `PageSet` plans
//! all partitions of a query.
//!
//! The planner plans pages; it does not price them. What posting a
//! plan costs on the host channel — per-page doorbells or batched
//! run-list descriptors — is the module's to say
//! ([`bbpim_sim::module::PimModule::dispatch_phase`]), from the plan's
//! [`PageSet::len`] and [`PageSet::run_count`].

use bbpim_db::plan::FilterBounds;
use bbpim_sim::module::PageId;

use crate::loader::LoadedRelation;

/// The planned subset of page indices (per partition) a query touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageSet {
    /// Candidate page indices, ascending and deduplicated.
    indices: Vec<usize>,
}

impl PageSet {
    /// The exhaustive plan: every one of `total` pages is a candidate.
    pub fn all(total: usize) -> Self {
        PageSet { indices: (0..total).collect() }
    }

    /// A plan from explicit page indices (sorted and deduplicated).
    ///
    /// # Panics
    ///
    /// Panics when an index is out of `0..total`.
    pub fn from_indices(mut indices: Vec<usize>, total: usize) -> Self {
        indices.sort_unstable();
        indices.dedup();
        assert!(indices.last().is_none_or(|&i| i < total), "page index out of range");
        PageSet { indices }
    }

    /// Candidate page count.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when every page was pruned.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The candidate page indices, ascending.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The first candidate page index, if any.
    pub fn first(&self) -> Option<usize> {
        self.indices.first().copied()
    }

    /// The candidate pages of one partition, as simulator page ids.
    pub fn ids(&self, loaded: &LoadedRelation, partition: usize) -> Vec<PageId> {
        let pages = loaded.pages(partition);
        self.indices.iter().map(|&i| pages[i]).collect()
    }

    /// Iterate `(page_index, page_id)` over one partition's candidates.
    pub fn entries<'a>(
        &'a self,
        loaded: &'a LoadedRelation,
        partition: usize,
    ) -> impl Iterator<Item = (usize, PageId)> + 'a {
        let pages = loaded.pages(partition);
        self.indices.iter().map(move |&i| (i, pages[i]))
    }

    /// Number of maximal runs of consecutive candidate page indices —
    /// the length of the run-list a batched dispatch descriptor
    /// carries ([`bbpim_sim::module::PimModule::dispatch_phase`]).
    pub fn run_count(&self) -> usize {
        let breaks = self.indices.windows(2).filter(|w| w[0] + 1 != w[1]).count();
        breaks + usize::from(!self.indices.is_empty())
    }
}

/// Plan the candidate pages of a conjunction: pages whose zone map could
/// satisfy `bounds`. An unsatisfiable conjunction plans the empty set.
pub fn plan_pages(bounds: &FilterBounds, loaded: &LoadedRelation) -> PageSet {
    let total = loaded.page_count();
    if !bounds.satisfiable() {
        return PageSet::from_indices(Vec::new(), total);
    }
    let indices = (0..total).filter(|&i| bounds.can_match(loaded.page_zone(i))).collect::<Vec<_>>();
    PageSet::from_indices(indices, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RecordLayout;
    use crate::loader::load_relation;
    use crate::modes::EngineMode;
    use bbpim_db::plan::{Atom, Query};
    use bbpim_db::schema::{Attribute, Schema};
    use bbpim_db::Relation;
    use bbpim_sim::module::PimModule;
    use bbpim_sim::SimConfig;

    /// A relation sorted by `lo_v` so page zones are tight and disjoint.
    fn sorted_setup() -> (PimModule, Relation, LoadedRelation) {
        let cfg = SimConfig::small_for_tests();
        let schema =
            Schema::new("t", vec![Attribute::numeric("lo_v", 10), Attribute::numeric("d_g", 4)])
                .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..1000u64 {
            rel.push_row(&[i, i % 10]).unwrap();
        }
        let layout = RecordLayout::build(rel.schema(), &cfg, EngineMode::OneXb, &[]).unwrap();
        let mut module = PimModule::new(cfg).unwrap();
        let loaded = load_relation(&mut module, &rel, &layout).unwrap();
        (module, rel, loaded)
    }

    fn bounds(rel: &Relation, filter: Vec<Atom>) -> FilterBounds {
        let q = Query::single(
            "t",
            filter,
            vec![],
            bbpim_db::plan::AggFunc::Sum,
            bbpim_db::plan::AggExpr::attr("lo_v"),
        );
        FilterBounds::from_dnf(&q.resolve_filter(rel.schema()).unwrap())
    }

    #[test]
    fn run_count_counts_maximal_runs_of_consecutive_pages() {
        let runs = |indices: Vec<usize>| PageSet::from_indices(indices, 10).run_count();
        assert_eq!(runs(vec![]), 0);
        assert_eq!(runs(vec![4]), 1);
        assert_eq!(runs(vec![0, 1, 2, 5, 7, 8]), 3);
        assert_eq!(runs(vec![1, 3, 5, 7]), 4);
        assert_eq!(PageSet::all(10).run_count(), 1);
    }

    #[test]
    fn eq_on_sorted_attribute_plans_one_page() {
        let (_m, rel, loaded) = sorted_setup();
        // 256 records/page in the small config → value 300 is on page 1
        let b = bounds(&rel, vec![Atom::Eq { attr: "lo_v".into(), value: 300u64.into() }]);
        let plan = plan_pages(&b, &loaded);
        assert_eq!(plan.indices(), &[1]);
    }

    #[test]
    fn range_filter_plans_the_covering_pages() {
        let (_m, rel, loaded) = sorted_setup();
        let b = bounds(
            &rel,
            vec![Atom::Between { attr: "lo_v".into(), lo: 200u64.into(), hi: 600u64.into() }],
        );
        let plan = plan_pages(&b, &loaded);
        assert_eq!(plan.indices(), &[0, 1, 2]);
    }

    #[test]
    fn unconstrained_attribute_plans_everything() {
        let (_m, rel, loaded) = sorted_setup();
        // every page holds all d_g values 0..10
        let b = bounds(&rel, vec![Atom::Eq { attr: "d_g".into(), value: 3u64.into() }]);
        let every_page = PageSet::all(loaded.page_count());
        assert_eq!(plan_pages(&b, &loaded), every_page);
        let b = bounds(&rel, vec![]);
        assert_eq!(plan_pages(&b, &loaded), every_page);
    }

    #[test]
    fn unsatisfiable_filter_plans_nothing() {
        let (_m, rel, loaded) = sorted_setup();
        let b = bounds(&rel, vec![Atom::Lt { attr: "lo_v".into(), value: 0u64.into() }]);
        let plan = plan_pages(&b, &loaded);
        assert!(plan.is_empty());
    }

    #[test]
    fn page_set_surface() {
        let set = PageSet::from_indices(vec![3, 1, 3], 5);
        assert_eq!(set.indices(), &[1, 3]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.first(), Some(1));
        assert_eq!(PageSet::all(4).indices(), &[0, 1, 2, 3]);
        assert!(PageSet::from_indices(vec![], 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_set_rejects_out_of_range() {
        let _ = PageSet::from_indices(vec![5], 5);
    }
}
