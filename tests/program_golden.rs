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
    (2, 0xec2816baa61efde0),   // Q1.1
    (4, 0x99d7bf1fb33eb604),   // Q1.2
    (6, 0x1581585e25abc61a),   // Q1.3
    (7, 0xd8a945f739329027),   // Q2.1
    (8, 0xa39e7a7de5b5b970),   // Q2.2
    (9, 0x5cd844276f2d24b2),   // Q2.3
    (10, 0x4848154c4478e991),  // Q3.1
    (11, 0x1d814d570660c898),  // Q3.2
    (12, 0x09f6fd9e5b6f9e75),  // Q3.3
    (13, 0x2e1560a2c6b52047),  // Q3.4
    (14, 0xc9402f85b52ebf0d),  // Q4.1
    (15, 0x025f11724f584298),  // Q4.2
    (16, 0x3f132f76c113ba8e),  // Q4.3
    (18, 0xdd529cc5063513bb),  // Q1.1-combined
    (20, 0x130acc79bed2d007),  // Q1.2-combined
    (22, 0x93278f18ac9f89c1),  // Q1.3-combined
    (24, 0x6fba96721834a7c8),  // Q1.hol
    (25, 0xc80b745564de7dcd),  // Q2.1-stats
    (40, 0xebca89eb10a39ae7),  // Q2.1, all pim-gb
    (77, 0xbbaa76f9d2068276),  // Q3.1, all pim-gb
    (107, 0x4c402177cf69529e), // Q4.1, all pim-gb
    (110, 0xeccd26d48d4bddc6), // update[lo_quantity,c_region]
];

/// `two_xb`: per disjunct a dimension-side program and a fact-side
/// accumulate step; per pim-gb key three programs.
const TWO_XB: &[Pin] = &[
    (3, 0x5af0d57d89cdcca1),   // Q1.1
    (6, 0xaa11fc33eb6805fc),   // Q1.2
    (9, 0xb1347b851aca4b5c),   // Q1.3
    (11, 0xea4192927d2ccca0),  // Q2.1
    (13, 0x5c71b2f4a4f9b597),  // Q2.2
    (15, 0x7c7cb3f1208450c2),  // Q2.3
    (17, 0xbe8be6f857438494),  // Q3.1
    (19, 0xff67adfddfcfbedb),  // Q3.2
    (21, 0x902da31bf7224a21),  // Q3.3
    (23, 0xf229b959ca0b879c),  // Q3.4
    (25, 0x29f13916f6393293),  // Q4.1
    (27, 0xe8a62fa3c7d41343),  // Q4.2
    (29, 0x2bce92ef2e0c781c),  // Q4.3
    (32, 0xd592335028c1fdc0),  // Q1.1-combined
    (35, 0xfdcbeae6b61d48b1),  // Q1.2-combined
    (38, 0x793267815b5d66ad),  // Q1.3-combined
    (43, 0x79e0ea413374f324),  // Q1.hol
    (45, 0x81e274fc3fa62098),  // Q2.1-stats
    (75, 0xf4c21ca6365da4c3),  // Q2.1, all pim-gb
    (149, 0x76a2663387c22d1f), // Q3.1, all pim-gb
    (208, 0xa8b7055b1cd2e908), // Q4.1, all pim-gb
    (213, 0x069e0d2bef076a3b), // update[lo_quantity,c_region]
];

/// The star: dimension filters that select nothing at this scale are
/// planner-answered and compile nothing (the rows that repeat).
const STAR: &[Pin] = &[
    (9, 0xa97889ef793fe555),   // Q1.1
    (17, 0x529b5be144631510),  // Q1.2
    (23, 0x941c56b60772aafe),  // Q1.3
    (29, 0xe285b71ea257b86e),  // Q2.1
    (29, 0xe285b71ea257b86e),  // Q2.2
    (29, 0xe285b71ea257b86e),  // Q2.3
    (36, 0xab921ccda1676681),  // Q3.1
    (36, 0xab921ccda1676681),  // Q3.2
    (36, 0xab921ccda1676681),  // Q3.3
    (36, 0xab921ccda1676681),  // Q3.4
    (43, 0x83dabf51ea04e4e8),  // Q4.1
    (51, 0x73f0cdfc6d6a829a),  // Q4.2
    (51, 0x73f0cdfc6d6a829a),  // Q4.3
    (60, 0x541ac64a27a21a41),  // Q1.1-combined
    (68, 0x5f25386e025db15a),  // Q1.2-combined
    (74, 0x8ce0e290c0420d71),  // Q1.3-combined
    (84, 0x5440b4442b996898),  // Q1.hol
    (90, 0xc735f445fdeaf187),  // Q2.1-stats
    (98, 0x747c304365c8e8e9),  // update[lo_discount]
    (100, 0xbe41c38e1b14f86c), // update[d_year]
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
