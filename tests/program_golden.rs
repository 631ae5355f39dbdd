//! Cross-commit goldens at *program* level. The equivalence suites
//! check answers and `loop_golden` pins timelines, so a compiler
//! refactor that emitted a different microprogram with the same cycle
//! count would pass both. Every program a module executes is folded
//! into `PimModule::program_digest`; this suite pins that chain after
//! each SSB query and after UPDATEs — every mask, semijoin,
//! conjunction-accumulate, group-mask, arithmetic and MUX program — on
//! the single engine in all three modes and on the 4-shard star. Rows
//! are cumulative: the first row that moves names the step whose
//! program changed. A digest may only change together with a
//! deliberate, explained change to what the engine compiles.

mod common;

use bbpim::cluster::StreamEngine;
use bbpim::db::builder::col;
use bbpim::db::plan::Query;
use bbpim::db::ssb::queries;
use bbpim::engine::groupby::cost_model::{GroupByModel, HostGbModel, PimGbModel};
use bbpim::engine::groupby::fitting::{LinFit, SqrtFit};
use bbpim::engine::modes::EngineMode;
use bbpim::engine::mutation::Mutation;
use bbpim::engine::PimTable;
use bbpim::join::StarCluster;
use common::{assert_pinned, fnv1a, single_engine, ssb, ssb_wide, star_cluster};

/// `(programs executed so far, chained op digest)` after one step.
type Pin = (u64, u64);

/// The 13 SSB queries plus the combined ones (a multi-aggregate SELECT
/// list, an OR filter over dimension attributes, a stats GROUP BY).
fn probe_queries() -> Vec<Query> {
    queries::standard_queries().into_iter().chain(queries::combined_queries()).collect()
}

/// A model under which Eq. (3) sends every subgroup to pim-gb.
fn free_pim_model() -> GroupByModel {
    GroupByModel {
        host: HostGbModel::new([(2, SqrtFit { a: 1e12, b: 1e12, r2: 1.0 })].into()),
        pim: PimGbModel::new([(1, LinFit { slope: 0.0, intercept: 1.0, r2: 1.0 })].into()),
    }
}

/// The probe queries under the fitted model (which at this scale
/// keeps every subgroup on the host), three GROUP BY queries again with
/// every subgroup forced through pim-gb (one group-mask program per
/// key; under two-xb a key-side program, a mask transfer and a combine
/// program), then an OR-filtered two-column UPDATE whose SET list spans
/// the fact and the dimension side, on one pre-joined engine.
fn engine_pins(mode: EngineMode) -> Vec<(String, Pin)> {
    let wide = ssb_wide();
    let update = Mutation::update()
        .filter(col("d_year").eq(1993u64).or(col("lo_discount").lt(2u64)))
        .set("lo_quantity", 7u64)
        .set("c_region", "ASIA")
        .build(wide.schema())
        .expect("update");
    let mut engine = single_engine(wide, mode);
    let mut pins = Vec::new();
    for q in probe_queries() {
        engine.run(&q).expect("query");
        pins.push((q.id.clone(), engine.module().program_digest()));
    }
    engine.set_model(free_pim_model());
    for id in ["Q2.1", "Q3.1", "Q4.1"] {
        let out = engine.run(&queries::standard_query(id).expect("standard query")).expect("query");
        assert!(out.report.pim_agg_subgroups > 0, "{id} must aggregate in PIM");
        pins.push((format!("{id}, all pim-gb"), engine.module().program_digest()));
    }
    engine.mutate(&update).expect("mutation");
    pins.push((update.label(), engine.module().program_digest()));
    pins
}

/// `one_xb` and `pimdb` compile the same programs: they differ in the
/// aggregation backend, which is a circuit or a costed tree, not a
/// microprogram.
const ONE_PARTITION: &[Pin] = &[
    (2, 0xa70b3ad22b22f8b8),   // Q1.1
    (4, 0x868a78ac725ba13c),   // Q1.2
    (6, 0xf9433bdf5281c9d2),   // Q1.3
    (7, 0xa8a07028b45adb1f),   // Q2.1
    (8, 0x9007c7ad8968f1c8),   // Q2.2
    (9, 0x7d75f1cf6430ad6a),   // Q2.3
    (10, 0x00e8bc9a6f0789c9),  // Q3.1
    (11, 0x90b3dd35375e86f0),  // Q3.2
    (12, 0x2eca926f6bdf4b2d),  // Q3.3
    (13, 0x76ae5f4ce8b8189f),  // Q3.4
    (14, 0x950e84e032065305),  // Q4.1
    (15, 0x58d90cc4bf7df680),  // Q4.2
    (16, 0x0ce764a5c0b67ed6),  // Q4.3
    (18, 0x0aac5b5cf845aae3),  // Q1.1-combined
    (20, 0x17933ec5fff233a7),  // Q1.2-combined
    (22, 0xaf552c16655d0969),  // Q1.3-combined
    (24, 0x93b4f6fcb36fa058),  // Q1.hol
    (25, 0xf76ee384a9e8c95d),  // Q2.1-stats
    (40, 0x34c9ba7c348e62f7),  // Q2.1, all pim-gb
    (77, 0x554fc64b570e2b46),  // Q3.1, all pim-gb
    (107, 0x1f1ae7f62b8f731a), // Q4.1, all pim-gb
    (110, 0xab056e40e35c5ba2), // update[lo_quantity,c_region]
];

/// `two_xb`: per disjunct a dimension-side program and a fact-side
/// accumulate step; per pim-gb key three programs.
const TWO_XB: &[Pin] = &[
    (3, 0x1fe717b3464885eb),   // Q1.1
    (6, 0x0c8c2c879b392218),   // Q1.2
    (9, 0xf7c0ff4910dc9d86),   // Q1.3
    (11, 0xbcf49eb76153df3a),  // Q2.1
    (13, 0x7d20bafbcd3fe459),  // Q2.2
    (15, 0xa8bcb3206c84e70c),  // Q2.3
    (17, 0x5b827fd6dfaaaed6),  // Q3.1
    (19, 0x27aae181324dee9d),  // Q3.2
    (21, 0x0cc4540adef8fa6b),  // Q3.3
    (23, 0x119b28f8b9482096),  // Q3.4
    (25, 0x483fed01659b4059),  // Q4.1
    (27, 0xd6399bf5fefe4ec9),  // Q4.2
    (29, 0x5c5396b6d8af9f96),  // Q4.3
    (32, 0x899de3003693ae78),  // Q1.1-combined
    (35, 0xbf53c15d673785f3),  // Q1.2-combined
    (38, 0x0d9c77877a3a6efd),  // Q1.3-combined
    (43, 0x15beae89dbef77b2),  // Q1.hol
    (45, 0x8cf14ea64e19f44e),  // Q2.1-stats
    (75, 0x16172861c3a3d4d5),  // Q2.1, all pim-gb
    (149, 0x00d5e589a4af5395), // Q3.1, all pim-gb
    (208, 0xa5ba0afbef4f1a4a), // Q4.1, all pim-gb
    (213, 0xe397a9c1c6055579), // update[lo_quantity,c_region]
];

/// The star: dimension filters that select nothing at this scale are
/// planner-answered and compile nothing (the rows that repeat).
const STAR: &[Pin] = &[
    (9, 0x870b1aba1ea35f75),   // Q1.1
    (17, 0x60b433ae769f9be6),  // Q1.2
    (23, 0xd864daff71b15171),  // Q1.3
    (29, 0x62108ec062c591a4),  // Q2.1
    (29, 0x62108ec062c591a4),  // Q2.2
    (29, 0x62108ec062c591a4),  // Q2.3
    (36, 0xff368bf606502d28),  // Q3.1
    (36, 0xff368bf606502d28),  // Q3.2
    (36, 0xff368bf606502d28),  // Q3.3
    (36, 0xff368bf606502d28),  // Q3.4
    (43, 0x75c5df1ad234464f),  // Q4.1
    (51, 0x553b478056aabdce),  // Q4.2
    (51, 0x553b478056aabdce),  // Q4.3
    (60, 0x47adc0556e8bbe38),  // Q1.1-combined
    (68, 0xed7075989003d5a7),  // Q1.2-combined
    (74, 0x2e28c5a1df29cf74),  // Q1.3-combined
    (84, 0x89319b9f848a82ed),  // Q1.hol
    (90, 0xffe13110e6abd5f1),  // Q2.1-stats
    (98, 0x08020318ad45ffcc),  // update[lo_discount]
    (100, 0xdffe081a90073cf1), // update[d_year]
];

#[test]
fn pimdb_engine_programs_match_the_pinned_digests() {
    assert_pinned("pimdb programs", &engine_pins(EngineMode::PimDb), ONE_PARTITION);
}

#[test]
fn two_xb_engine_programs_match_the_pinned_digests() {
    assert_pinned("two_xb programs", &engine_pins(EngineMode::TwoXb), TWO_XB);
}

#[test]
fn one_xb_engine_programs_match_the_pinned_digests() {
    assert_pinned("one_xb programs", &engine_pins(EngineMode::OneXb), ONE_PARTITION);
}

/// One pin over all of a star cluster's modules: the four fact shards,
/// then the four dimensions.
fn star_pin(star: &StarCluster) -> Pin {
    let tables = (0..star.active_shards())
        .map(|i| star.shard_table(i))
        .chain((0..4).map(|d| star.aux_table(d)));
    let pins: Vec<Pin> =
        tables.map(|t| t.map(PimTable::module).expect("table").program_digest()).collect();
    let bytes: Vec<u8> =
        pins.iter().flat_map(|&(n, d)| [n, d]).flat_map(u64::to_le_bytes).collect();
    (pins.iter().map(|&(n, _)| n).sum(), fnv1a(&bytes))
}

/// The probe queries on the 4-shard star (dimension mask programs on
/// the dimension modules, semijoin programs on the fact shards), then a
/// fact UPDATE and a dimension UPDATE.
#[test]
fn star_programs_match_the_pinned_digests() {
    let db = ssb();
    let mut star = star_cluster(&db, 4);
    let mut pins = Vec::new();
    for q in probe_queries() {
        star.run(&q).expect("query");
        pins.push((q.id.clone(), star_pin(&star)));
    }
    let updates = [
        Mutation::update()
            .filter(col("lo_discount").eq(3u64).or(col("lo_quantity").gt(40u64)))
            .set("lo_discount", 4u64)
            .build(db.lineorder.schema())
            .expect("fact update"),
        Mutation::update()
            .filter(col("d_year").eq(1994u64))
            .set("d_year", 1993u64)
            .build_unchecked(),
    ];
    for m in &updates {
        star.mutate(m).expect("mutation");
        pins.push((m.label(), star_pin(&star)));
    }
    assert_pinned("star programs", &pins, STAR);
}
