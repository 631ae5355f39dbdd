//! The paper's headline numbers, computed once: geo-means of per-query
//! ratios (Section VI) of one-xb against PIMDB, two-xb and the MonetDB
//! baselines. A query the planner answers alone costs nothing in any
//! mode; its 0/0 ratio is skipped and counted.

use std::fmt;

use crate::result::QueryReport;
use bbpim_sim::endurance::ENDURANCE_YEARS;

/// The queries the paper's energy and lifetime ratios average over:
/// those on which PIMDB and one-xb both aggregate in PIM at its scale.
pub const PIM_AGG_QUERIES: [&str; 4] = ["Q1.1", "Q1.2", "Q1.3", "Q3.4"];

/// A geo-mean of per-query ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoMean {
    /// Over the finite, positive ratios; `None` when there is none.
    pub value: Option<f64>,
    /// Ratios averaged.
    pub rows: usize,
    /// Ratios skipped: zero, negative, NaN or infinite.
    pub skipped: usize,
}

/// The geo-mean of `ratios`, skipping and counting what it cannot average.
pub fn geomean(ratios: impl IntoIterator<Item = f64>) -> GeoMean {
    let (mut log_sum, mut rows, mut skipped) = (0.0, 0, 0);
    for ratio in ratios {
        if ratio.is_finite() && ratio > 0.0 {
            (log_sum, rows) = (log_sum + ratio.ln(), rows + 1);
        } else {
            skipped += 1;
        }
    }
    GeoMean { value: (rows > 0).then(|| (log_sum / rows as f64).exp()), rows, skipped }
}

/// The geo-mean speed-up of `base` over `other`, query by query.
pub fn speedup(base_ns: &[f64], other_ns: &[f64]) -> GeoMean {
    geomean(base_ns.iter().zip(other_ns).map(|(base, other)| other / base))
}

impl fmt::Display for GeoMean {
    /// `7.46x`, `7.46x*` when rows were skipped, or `n/a`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.value, self.skipped) {
            (None, _) => f.pad("n/a"),
            (Some(m), 0) => f.pad(&format!("{m:.2}x")),
            (Some(m), _) => f.pad(&format!("{m:.2}x*")),
        }
    }
}

/// A geo-mean over a subset of the queries, with their ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Subset {
    /// The queries in the subset, in run order.
    pub ids: Vec<String>,
    /// The geo-mean of their ratios.
    pub ratio: GeoMean,
}

/// One ratio on the paper's fixed query set and on this run's.
#[derive(Debug, Clone, PartialEq)]
pub struct Subsets {
    /// [`PIM_AGG_QUERIES`], those the run has: the headline.
    pub fixed: Subset,
    /// Those on which both modes chose k > 0: it follows the decisions.
    pub decided: Subset,
}

/// One-xb against two-xb and PIMDB.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// PIMDB over one-xb time, every query (paper: 1.83×).
    pub speedup_vs_pimdb: GeoMean,
    /// two-xb over one-xb time, every query (paper: 3.39×).
    pub speedup_vs_two_xb: GeoMean,
    /// PIMDB over one-xb energy (paper: 4.31×).
    pub energy_vs_pimdb: Subsets,
    /// PIMDB over one-xb required endurance: the lifetime gain (3.21×).
    pub lifetime_vs_pimdb: Subsets,
}

impl Headline {
    /// The headline over each mode's reports, in one query order.
    pub fn of(one_xb: &[&QueryReport], two_xb: &[&QueryReport], pimdb: &[&QueryReport]) -> Self {
        let subset = |other: &[&QueryReport],
                      metric: fn(&QueryReport) -> f64,
                      keep: &dyn Fn(usize) -> bool| {
            let rows = (0..one_xb.len()).filter(|&i| keep(i));
            let row = |i: usize| (one_xb[i].query_id.clone(), metric(other[i]) / metric(one_xb[i]));
            let (ids, ratios): (Vec<String>, Vec<f64>) = rows.map(row).unzip();
            Subset { ids, ratio: geomean(ratios) }
        };
        let fixed = |i: usize| PIM_AGG_QUERIES.contains(&one_xb[i].query_id.as_str());
        let decided = |i: usize| pimdb[i].pim_agg_subgroups > 0 && one_xb[i].pim_agg_subgroups > 0;
        let subsets = |metric| Subsets {
            fixed: subset(pimdb, metric, &fixed),
            decided: subset(pimdb, metric, &decided),
        };
        let time = |other| subset(other, |r| r.time_ns, &|_| true).ratio;
        Headline {
            speedup_vs_pimdb: time(pimdb),
            speedup_vs_two_xb: time(two_xb),
            energy_vs_pimdb: subsets(|r| r.energy_pj),
            lifetime_vs_pimdb: subsets(|r| r.required_endurance(ENDURANCE_YEARS)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::EngineMode;
    use bbpim_sim::timeline::RunLog;

    /// A report with the fields the headline reads.
    fn report(id: &str, time_ns: f64, energy_pj: f64, writes: u64, k: u64) -> QueryReport {
        QueryReport {
            query_id: id.into(),
            mode: EngineMode::OneXb,
            time_ns,
            energy_pj,
            peak_chip_power_w: 0.0,
            max_row_cell_writes: writes,
            row_cells: 512,
            records: 0,
            pages: 1,
            pages_scanned: 1,
            selected: 0,
            selectivity: 0.0,
            total_subgroups: k,
            subgroups_in_sample: k,
            pim_agg_subgroups: k,
            host_bus_ns: 0.0,
            phases: RunLog::new(),
        }
    }

    fn refs(reports: &[QueryReport]) -> Vec<&QueryReport> {
        reports.iter().collect()
    }

    fn close(a: Option<f64>, b: f64) -> bool {
        a.is_some_and(|a| (a - b).abs() < 1e-12)
    }

    #[test]
    fn the_geomean_skips_and_counts_what_it_cannot_average() {
        let g = geomean([1.0, 4.0, 0.0, f64::NAN, f64::INFINITY, -2.0]);
        assert!(close(g.value, 2.0));
        assert_eq!((g.rows, g.skipped), (2, 4));
        assert_eq!(geomean([f64::NAN]), GeoMean { value: None, rows: 0, skipped: 1 });
        assert_eq!(geomean([]), GeoMean { value: None, rows: 0, skipped: 0 });
        // the same digits as a slice-at-once sum of logs
        let values = [1.3, 2.7, 0.9, 11.0];
        let old = (values.iter().map(|v: &f64| v.ln()).sum::<f64>() / 4.0).exp();
        assert_eq!(geomean(values).value, Some(old));
    }

    #[test]
    fn speedup_is_other_over_base_and_renders_with_its_skip_mark() {
        let s = speedup(&[1.0, 2.0], &[2.0, 8.0]);
        assert!(close(s.value, 8f64.sqrt()));
        assert_eq!(format!("{s}"), "2.83x");
        assert_eq!(format!("{:>8}", speedup(&[1.0, 0.0], &[3.0, 0.0])), "  3.00x*");
        assert_eq!(format!("{:>4}", speedup(&[0.0], &[0.0])), " n/a");
    }

    /// Q1.1 aggregates in PIM in both modes, Q2.1 and Q3.4 only in
    /// one_xb; Q4.1 is answered by the planner alone (zero everywhere);
    /// the run has no Q1.2 or Q1.3.
    fn runs() -> [Vec<QueryReport>; 3] {
        let one = vec![
            report("Q1.1", 1.0, 10.0, 100, 1),
            report("Q2.1", 2.0, 10.0, 100, 5),
            report("Q3.4", 1.0, 10.0, 100, 2),
            report("Q4.1", 0.0, 0.0, 0, 0),
        ];
        let two = vec![
            report("Q1.1", 3.0, 10.0, 100, 1),
            report("Q2.1", 6.0, 10.0, 100, 0),
            report("Q3.4", 3.0, 10.0, 100, 0),
            report("Q4.1", 0.0, 0.0, 0, 0),
        ];
        let pimdb = vec![
            report("Q1.1", 2.0, 40.0, 400, 1),
            report("Q2.1", 2.0, 10.0, 100, 0),
            report("Q3.4", 2.0, 90.0, 900, 0),
            report("Q4.1", 0.0, 0.0, 0, 0),
        ];
        [one, two, pimdb]
    }

    #[test]
    fn the_fixed_set_is_chosen_by_id_and_an_id_the_run_lacks_is_left_out() {
        let [one, two, pimdb] = runs();
        let h = Headline::of(&refs(&one), &refs(&two), &refs(&pimdb));
        let fixed = &h.energy_vs_pimdb.fixed;
        assert_eq!(fixed.ids, ["Q1.1", "Q3.4"], "Q1.2 and Q1.3 did not run");
        assert!(close(fixed.ratio.value, (4.0f64 * 9.0).sqrt()));
        assert_eq!((fixed.ratio.rows, fixed.ratio.skipped), (2, 0));
        // writes and time both scale, so the endurance ratio is the
        // writes ratio over the time ratio
        let lifetime = &h.lifetime_vs_pimdb.fixed;
        assert!(close(lifetime.ratio.value, ((4.0f64 / 2.0) * (9.0 / 2.0)).sqrt()));
    }

    #[test]
    fn zero_time_rows_are_counted_not_averaged() {
        let [one, two, pimdb] = runs();
        let h = Headline::of(&refs(&one), &refs(&two), &refs(&pimdb));
        assert_eq!((h.speedup_vs_pimdb.rows, h.speedup_vs_pimdb.skipped), (3, 1));
        assert!(close(h.speedup_vs_pimdb.value, (2.0f64 * 1.0 * 2.0).cbrt()));
        assert!(close(h.speedup_vs_two_xb.value, 3.0));
        assert_eq!(h.speedup_vs_two_xb.skipped, 1);
        // a fixed-set query the planner answers alone is skipped there too
        let mut planner_q34 = runs();
        for mode in &mut planner_q34 {
            mode[2] = report("Q3.4", 0.0, 0.0, 0, 0);
        }
        let [one, two, pimdb] = planner_q34;
        let fixed = Headline::of(&refs(&one), &refs(&two), &refs(&pimdb)).energy_vs_pimdb.fixed;
        assert_eq!((fixed.ids.len(), fixed.ratio.rows, fixed.ratio.skipped), (2, 1, 1));
    }

    /// The decision-dependent set is exactly the rows where both PIMDB
    /// and one-xb chose k > 0, recomputed here by that rule.
    #[test]
    fn the_decided_set_is_both_modes_k_above_zero() {
        let [one, two, mut pimdb] = runs();
        pimdb[1].pim_agg_subgroups = 3;
        let h = Headline::of(&refs(&one), &refs(&two), &refs(&pimdb));
        let both = |i: usize| pimdb[i].pim_agg_subgroups > 0 && one[i].pim_agg_subgroups > 0;
        let (ids, ratios): (Vec<String>, Vec<f64>) = (0..one.len())
            .filter(|&i| both(i))
            .map(|i| (one[i].query_id.clone(), pimdb[i].energy_pj / one[i].energy_pj))
            .unzip();
        assert_eq!(h.energy_vs_pimdb.decided, Subset { ids, ratio: geomean(ratios) });
        assert_eq!(h.energy_vs_pimdb.decided.ids, ["Q1.1", "Q2.1"]);
        assert_eq!(h.lifetime_vs_pimdb.decided.ids, ["Q1.1", "Q2.1"]);
    }
}
