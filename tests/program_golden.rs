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
    (2, 0xdd159a86415c092c),   // Q1.1
    (4, 0x0172b8cdb6c7064e),   // Q1.2
    (6, 0x2df1f10cbf3bb702),   // Q1.3
    (7, 0xc4675bf82849a5ae),   // Q2.1
    (8, 0xd230ab7ed533a6d8),   // Q2.2
    (9, 0x4ef91dda2bd82488),   // Q2.3
    (10, 0x043ce97b61389f9e),  // Q3.1
    (11, 0x7d8f152d0e29d25c),  // Q3.2
    (12, 0x819663a12d5bddb9),  // Q3.3
    (13, 0x1968d617577deb75),  // Q3.4
    (14, 0x9c10054677329d6b),  // Q4.1
    (15, 0x524e274422ec254c),  // Q4.2
    (16, 0x0c96494b05375e60),  // Q4.3
    (18, 0xfdbf0895858f5741),  // Q1.1-combined
    (20, 0xa6e025b59b2b4403),  // Q1.2-combined
    (22, 0x4a6bf7fb98f268bf),  // Q1.3-combined
    (24, 0x025e66ac8508bfc6),  // Q1.hol
    (25, 0x4935950a87edb052),  // Q2.1-stats
    (40, 0x890b7004cab361a1),  // Q2.1, all pim-gb
    (77, 0x79f3e30b3ee879ec),  // Q3.1, all pim-gb
    (107, 0x835cdc13516a7365), // Q4.1, all pim-gb
    (110, 0x10234c85eb76a0f3), // update[lo_quantity,c_region]
];

/// `two_xb`: per disjunct a dimension-side program and a fact-side
/// accumulate step; per pim-gb key three programs.
const TWO_XB: &[Pin] = &[
    (3, 0x249c383b8db8054c),   // Q1.1
    (6, 0x9957e79cb020702d),   // Q1.2
    (9, 0x4767855288740559),   // Q1.3
    (11, 0x4c8768a56bc8dd95),  // Q2.1
    (13, 0x197cb49e10fa716b),  // Q2.2
    (15, 0xfed58df50df1fcdb),  // Q2.3
    (17, 0xe0aafbaca1dc04f5),  // Q3.1
    (19, 0x3c3013b5fc517f8f),  // Q3.2
    (21, 0x6b4f1aca62b6a7c6),  // Q3.3
    (23, 0xae0e6c6e7df2a80e),  // Q3.4
    (25, 0x635537c6fb628b68),  // Q4.1
    (27, 0x389ceeeef139c1f4),  // Q4.2
    (29, 0xca1ae80cb4d15cf0),  // Q4.3
    (32, 0xe107d7afadfc9e41),  // Q1.1-combined
    (35, 0x87ee7c129fbb2158),  // Q1.2-combined
    (38, 0x27d8f70f1fd56fa4),  // Q1.3-combined
    (43, 0xdf8a71ba1ab6120f),  // Q1.hol
    (45, 0xc13232012f890a03),  // Q2.1-stats
    (75, 0x37109b8deeb33148),  // Q2.1, all pim-gb
    (149, 0x09fa681e45b42b15), // Q3.1, all pim-gb
    (208, 0x2321fdb603fef828), // Q4.1, all pim-gb
    (213, 0x8d2c800c72fe687d), // update[lo_quantity,c_region]
];

/// The star: dimension filters that select nothing at this scale are
/// planner-answered and compile nothing (the rows that repeat).
const STAR: &[Pin] = &[
    (9, 0xa36366fa0d0e2625),   // Q1.1
    (17, 0x9cc02d460f8e44fb),  // Q1.2
    (23, 0xf87a34d0118a8e08),  // Q1.3
    (29, 0x46a930c97f687838),  // Q2.1
    (29, 0x46a930c97f687838),  // Q2.2
    (29, 0x46a930c97f687838),  // Q2.3
    (36, 0x8a90004aa5b7bcfe),  // Q3.1
    (36, 0x8a90004aa5b7bcfe),  // Q3.2
    (36, 0x8a90004aa5b7bcfe),  // Q3.3
    (36, 0x8a90004aa5b7bcfe),  // Q3.4
    (43, 0x5ba1bdbd87a78d9c),  // Q4.1
    (51, 0x85093f2b52c1ab65),  // Q4.2
    (51, 0x85093f2b52c1ab65),  // Q4.3
    (60, 0x55acdd557b9ed3aa),  // Q1.1-combined
    (68, 0xbc5aeb28ebede9ac),  // Q1.2-combined
    (74, 0xb2bf73146d624a53),  // Q1.3-combined
    (84, 0xe0d07bbcf0e8ae8e),  // Q1.hol
    (90, 0xf4100e80781c8249),  // Q2.1-stats
    (98, 0x58a3e16b45ff70df),  // update[lo_discount]
    (100, 0xe69b0b6738269846), // update[d_year]
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
