//! Cross-engine equivalence: every SSB query must produce identical
//! results through the PIM engine (all three modes), the column-store
//! baseline (both plans), and the row-at-a-time oracle.

mod common;

use bbpim::db::ssb::{queries, SsbDb, SsbParams};
use bbpim::db::stats;
use bbpim::engine::modes::EngineMode;
use bbpim::monet::MonetEngine;
use common::{single_engine, ssb};

#[test]
fn all_13_queries_agree_across_all_engines_uniform() {
    let db = ssb();
    let wide = db.prejoin();
    let query_set = queries::standard_queries();

    // Baselines.
    let mnt_join = MonetEngine::prejoined(&wide, 2);
    let mnt_reg = MonetEngine::star(&db, 2);

    for mode in EngineMode::all() {
        let mut engine = single_engine(wide.clone(), mode);
        for q in &query_set {
            let oracle = stats::run_oracle(q, &wide).expect("oracle");
            let pim = engine.run(q).unwrap_or_else(|e| panic!("{} {}: {e}", mode.label(), q.id));
            assert_eq!(pim.groups, oracle, "{} vs oracle on {}", mode.label(), q.id);
            let a = mnt_join.run(q).expect("mnt_join");
            let b = mnt_reg.run(q).expect("mnt_reg");
            assert_eq!(a.groups, oracle, "mnt_join vs oracle on {}", q.id);
            assert_eq!(b.groups, oracle, "mnt_reg vs oracle on {}", q.id);
        }
    }
}

#[test]
fn skewed_data_with_adjusted_queries_agrees() {
    let mut params = SsbParams::skewed(0.002);
    params.seed = 99;
    let db = SsbDb::generate(&params);
    let wide = db.prejoin();
    let query_set = queries::adjusted_queries(&wide).expect("adjustment");

    let mut engine = single_engine(wide.clone(), EngineMode::OneXb);
    let mnt_reg = MonetEngine::star(&db, 2);

    for q in &query_set {
        let oracle = stats::run_oracle(q, &wide).expect("oracle");
        assert_eq!(engine.run(q).expect("pim").groups, oracle, "one_xb on {}", q.id);
        assert_eq!(mnt_reg.run(q).expect("mnt").groups, oracle, "mnt_reg on {}", q.id);
    }
}

#[test]
fn two_xb_transfers_are_invisible_in_results() {
    let db = ssb();
    let wide = db.prejoin();
    let mut one = single_engine(wide.clone(), EngineMode::OneXb);
    let mut two = single_engine(wide.clone(), EngineMode::TwoXb);
    for q in queries::standard_queries() {
        let a = one.run(&q).expect("one_xb");
        let b = two.run(&q).expect("two_xb");
        assert_eq!(a.groups, b.groups, "{}", q.id);
    }
}

#[test]
fn reports_carry_consistent_metadata() {
    let db = ssb();
    let wide = db.prejoin();
    let records = wide.len();
    let mut engine = single_engine(wide, EngineMode::OneXb);
    for q in queries::standard_queries() {
        let out = engine.run(&q).unwrap();
        let r = &out.report;
        assert_eq!(r.query_id, q.id);
        assert_eq!(r.records, records);
        assert!(r.time_ns > 0.0, "{}", q.id);
        assert!(r.energy_pj > 0.0, "{}", q.id);
        assert!(r.selectivity >= 0.0 && r.selectivity <= 1.0);
        assert!((r.selectivity - r.selected as f64 / records as f64).abs() < 1e-12);
        if q.group_by.is_empty() {
            assert!(r.pim_agg_subgroups <= 1);
        } else {
            assert!(r.pim_agg_subgroups <= r.total_subgroups);
            assert!(out.groups.len() as u64 <= r.total_subgroups.max(1));
        }
    }
}
