//! Transfer-policy equivalence: the host-channel byte diet (compressed
//! mask transfers, batched dispatch descriptors, module-side result
//! reduction) moves accounting, never answers.
//!
//! Every one of the 2³ lever combinations, over shards {1, 4} and both
//! physical layouts (one-xb / two-xb), must return answers bit-identical
//! to the MonetDB stand-in oracle — and to every other combination. On
//! top of equivalence, the default (all-on) policy must put strictly
//! fewer bytes on the shared channel than the legacy (all-off) policy
//! for the transfer-heavy two-crossbar layout.

mod common;

use bbpim::cluster::{Cluster, ClusterEngine, Partitioner, Storage, StreamEngine};
use bbpim::db::plan::Query;
use bbpim::db::ssb::queries;
use bbpim::db::Relation;
use bbpim::engine::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim::engine::modes::EngineMode;
use bbpim::join::StarCluster;
use bbpim::monet::MonetEngine;
use bbpim::sim::module::{MaskPath, PimModule};
use bbpim::sim::{SimConfig, XferPolicy};
use common::{host_bytes, ssb, ssb_wide};

const SHARD_COUNTS: [usize; 2] = [1, 4];

/// The 2³ lever combinations, legacy-first.
fn all_policies() -> Vec<XferPolicy> {
    let mut out = Vec::new();
    for compress_masks in [false, true] {
        for batch_dispatch in [false, true] {
            for module_reduce in [false, true] {
                out.push(XferPolicy { compress_masks, batch_dispatch, module_reduce });
            }
        }
    }
    out
}

fn policy_label(p: XferPolicy) -> String {
    format!(
        "compress={} batch={} reduce={}",
        p.compress_masks as u8, p.batch_dispatch as u8, p.module_reduce as u8
    )
}

/// A query subset exercising every lever: Q1.1 (selective, expression
/// aggregate — result reads), Q3.1 (GROUP BY — pim-gb subgroup
/// transfers), and the disjunctive holiday query (multiple dimension
/// disjuncts — one mask transfer each under two-xb).
fn query_set() -> Vec<Query> {
    let keep = ["Q1.1", "Q3.1"];
    let mut qs: Vec<Query> =
        queries::standard_queries().into_iter().filter(|q| keep.contains(&q.id.as_str())).collect();
    qs.push(queries::combined_query("Q1.hol").expect("combined query set has Q1.hol"));
    assert_eq!(qs.len(), 3);
    qs
}

/// The levers a module prices under, read back from its prices: a
/// mask that packs into one wire line moves in fewer phases than raw,
/// a batched plan carries descriptor bytes, and a module-side fold adds
/// a combine phase to the result read.
fn priced_policy(m: &PimModule) -> XferPolicy {
    XferPolicy {
        compress_masks: m.mask_phases(2, || 1, MaskPath::ToHost).len() == 2,
        batch_dispatch: m.dispatch_bytes(1, 1, 1) > 0,
        module_reduce: m.result_phases(1, 1, 1, None).len() == 2,
    }
}

/// `set_xfer_policy` reached every table: each fact shard and each
/// auxiliary table (a star dimension) prices under `policy`.
fn assert_policy_on_every_table<S: Storage>(c: &Cluster<S>, policy: XferPolicy) {
    let shards = (0..c.active_shards()).map(|i| c.shard_table(i).expect("active shard"));
    for table in shards.chain((0..).map_while(|d| c.aux_table(d))) {
        assert_eq!(priced_policy(table.module()), policy, "{table:?}");
    }
}

#[test]
fn all_lever_combinations_match_monet_oracle_prejoined() {
    let wide: Relation = ssb_wide();
    let qs = query_set();
    let monet = MonetEngine::prejoined(&wide, 4);
    let oracles: Vec<_> = qs.iter().map(|q| monet.run(q).expect("monet oracle").groups).collect();
    let cfg = SimConfig::default();

    for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
        let (_, model) =
            run_calibration(&cfg, mode, &CalibrationConfig::tiny_for_tests()).expect("calibration");
        for shards in SHARD_COUNTS {
            // per-query host bytes under the legacy (all-off) policy,
            // for the byte-diet comparison below
            let mut legacy_bytes: Vec<u64> = Vec::new();
            for policy in all_policies() {
                let mut c = ClusterEngine::new(
                    cfg.clone(),
                    wide.clone(),
                    mode,
                    shards,
                    Partitioner::range_by_attr("d_year"),
                )
                .expect("cluster construction");
                c.set_model(model.clone());
                c.set_xfer_policy(policy);
                assert_policy_on_every_table(&c, policy);
                for (qi, (q, oracle)) in qs.iter().zip(&oracles).enumerate() {
                    let tag =
                        format!("{} at {shards} shards, {mode:?}, {}", q.id, policy_label(policy));
                    let out = c.run(q).unwrap_or_else(|e| panic!("{tag}: {e}"));
                    assert_eq!(&out.groups, oracle, "answer drift on {tag}");
                    let bytes = host_bytes(&out.report);
                    if policy == XferPolicy::legacy() {
                        legacy_bytes.push(bytes);
                    } else if policy == XferPolicy::default() && mode == EngineMode::TwoXb {
                        // the diet must bite where the transfers are:
                        // two-xb queries ship per-disjunct masks
                        assert!(
                            bytes < legacy_bytes[qi],
                            "byte diet did not bite on {tag}: {bytes} >= {}",
                            legacy_bytes[qi]
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn all_lever_combinations_match_monet_oracle_star() {
    let db = ssb();
    let qs = query_set();
    let monet = MonetEngine::star(&db, 2);
    let oracles: Vec<_> = qs.iter().map(|q| monet.run(q).expect("monet oracle").groups).collect();

    for policy in all_policies() {
        let mut c = StarCluster::new(
            SimConfig::small_for_tests(),
            &db,
            EngineMode::TwoXb,
            4,
            Partitioner::RoundRobin,
        )
        .expect("star cluster construction");
        c.set_xfer_policy(policy);
        assert_policy_on_every_table(&c, policy);
        for (q, oracle) in qs.iter().zip(&oracles) {
            let out =
                c.run(q).unwrap_or_else(|e| panic!("{} under {}: {e}", q.id, policy_label(policy)));
            assert_eq!(&out.groups, oracle, "{} under {}", q.id, policy_label(policy));
        }
    }
}
