//! The one unit-test fixture: a small [`PimTable`] and the same
//! [`Scan`] calls the engine makes.

use bbpim_db::plan::Pred;
use bbpim_db::schema::{Attribute, Schema};
use bbpim_db::Relation;
use bbpim_sim::SimConfig;

use crate::layout::RecordLayout;
use crate::modes::EngineMode;
use crate::planner::PageSet;
use crate::scan::Scan;
use crate::table::PimTable;

/// A table of numeric attributes `(name, bits)` holding `rows`, in
/// `mode`'s layout on the small test geometry (`lo_*` attributes are
/// the fact side under two-xb), beside the relation it was loaded from
/// (the oracle a mutating test replays its mutations on).
pub(crate) fn table(
    mode: EngineMode,
    attrs: &[(&str, usize)],
    rows: impl IntoIterator<Item = Vec<u64>>,
) -> (PimTable, Relation) {
    let cfg = SimConfig::small_for_tests();
    let attrs = attrs.iter().map(|(name, bits)| Attribute::numeric(*name, *bits)).collect();
    let mut rel = Relation::new(Schema::new("t", attrs).expect("fixture schemas are valid"));
    for row in rows {
        rel.push_row(&row).unwrap();
    }
    let layout = RecordLayout::build(rel.schema(), &cfg, mode, &[]).unwrap();
    (PimTable::load(cfg, &rel, mode, layout).unwrap(), rel)
}

/// Open a scan over every page.
pub(crate) fn scan(table: &mut PimTable) -> Scan<'_> {
    table.begin(PageSet::all(table.page_count()), None)
}

/// The row-at-a-time oracle's per-record mask of `pred`.
pub(crate) fn oracle_mask(rel: &Relation, pred: &Pred) -> Vec<bool> {
    (0..rel.len()).map(|row| pred.matches_row(rel, row).unwrap()).collect()
}

/// Run `filter` on an open scan; returns the selected-record count.
pub(crate) fn filter(scan: &mut Scan<'_>, filter: &Pred) -> u64 {
    let dnf = filter.resolve_dnf(scan.table().schema()).unwrap();
    scan.filter(&dnf).unwrap()
}

/// Open a scan over every page and run `pred` on it.
pub(crate) fn filtered<'t>(table: &'t mut PimTable, pred: &Pred) -> Scan<'t> {
    let mut scan = scan(table);
    filter(&mut scan, pred);
    scan
}
