//! Randomized cross-crate tests: random mini-warehouses and random
//! queries must agree between the PIM engine, the column-store baseline
//! and the oracle; UPDATE through the PIM MUX must equal a host-side
//! rewrite; and over generated schemas, relations, queries and
//! mutation interleavings every table's GROUP-BY domain index must
//! equal the row scan it replaced (`domain_index_equals_the_row_scan`).
//!
//! Formerly written with `proptest`; rewritten as deterministic
//! seed-driven loops because the build environment vendors only a
//! minimal `rand` stand-in. Each case is a pure function of the loop
//! index, so failures reproduce exactly.

use bbpim::cluster::{ClusterEngine, Partitioner, StreamEngine};
use bbpim::db::builder::col;
use bbpim::db::plan::{AggExpr, AggFunc, Atom, Pred, Query, SelectItem};
use bbpim::db::schema::{Attribute, Schema};
use bbpim::db::stats;
use bbpim::db::Relation;
use bbpim::engine::engine::PimQueryEngine;
use bbpim::engine::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim::engine::groupby::cost_model::GroupByModel;
use bbpim::engine::modes::EngineMode;
use bbpim::engine::mutation::Mutation;
use bbpim::engine::PimTable;
use bbpim::monet::MonetEngine;
use bbpim::sim::SimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// A random mini-warehouse: two fact attributes, two dimension
/// attributes, and 64..=600 rows.
fn random_relation(rng: &mut StdRng) -> Relation {
    let rows = rng.gen_range(64usize..=600);
    let schema = Schema::new(
        "w",
        vec![
            Attribute::numeric("lo_a", 8),
            Attribute::numeric("lo_b", 6),
            Attribute::numeric("d_g", 4),
            Attribute::numeric("d_h", 3),
        ],
    )
    .unwrap();
    let mut rel = Relation::with_capacity(schema, rows);
    for _ in 0..rows {
        let row = [
            rng.gen_range(0u64..256),
            rng.gen_range(0u64..64),
            rng.gen_range(0u64..16),
            rng.gen_range(0u64..8),
        ];
        rel.push_row(&row).expect("row within widths");
    }
    rel
}

fn random_atom(rng: &mut StdRng) -> Atom {
    match rng.gen_range(0u64..5) {
        0 => Atom::Lt { attr: "lo_a".into(), value: rng.gen_range(0u64..256).into() },
        1 => Atom::Gt { attr: "lo_b".into(), value: rng.gen_range(0u64..64).into() },
        2 => Atom::Eq { attr: "d_g".into(), value: rng.gen_range(0u64..16).into() },
        3 => {
            let a = rng.gen_range(0u64..8);
            let b = rng.gen_range(0u64..8);
            Atom::Between { attr: "d_h".into(), lo: a.min(b).into(), hi: a.max(b).into() }
        }
        _ => {
            let n = rng.gen_range(1usize..4);
            Atom::In {
                attr: "d_g".into(),
                values: (0..n).map(|_| rng.gen_range(0u64..16).into()).collect(),
            }
        }
    }
}

fn random_query(rng: &mut StdRng, allow_sub: bool) -> Query {
    let agg_expr = loop {
        let e = match rng.gen_range(0u64..3) {
            0 => AggExpr::Attr("lo_a".into()),
            1 => AggExpr::Mul("lo_a".into(), "lo_b".into()),
            _ => AggExpr::Sub("lo_a".into(), "lo_b".into()),
        };
        // Sub can wrap (lo_a < lo_b); both oracle and engine use the
        // same wrapping semantics at the attribute widths, except the
        // in-crossbar subtraction wraps at max(width) while the oracle
        // wraps at u64 — keep inputs non-negative instead.
        if allow_sub || !matches!(e, AggExpr::Sub(..)) {
            break e;
        }
    };
    let agg_func = match rng.gen_range(0u64..5) {
        0 => AggFunc::Sum,
        1 => AggFunc::Min,
        2 => AggFunc::Max,
        3 => AggFunc::Count,
        _ => AggFunc::Avg,
    };
    let group_by = match rng.gen_range(0u64..3) {
        0 => Vec::new(),
        1 => vec!["d_g".to_string()],
        _ => vec!["d_g".to_string(), "d_h".to_string()],
    };
    let filter = (0..rng.gen_range(0usize..3)).map(|_| random_atom(rng)).collect();
    Query::single("prop", filter, group_by, agg_func, agg_expr)
}

#[test]
fn pim_engine_matches_oracle() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA110 + case);
        let rel = random_relation(&mut rng);
        let q = random_query(&mut rng, false);
        let mut engine =
            PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb)
                .unwrap();
        engine.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        let out = engine.run(&q).unwrap();
        let oracle = stats::run_oracle(&q, &rel).unwrap();
        assert_eq!(out.groups, oracle, "case {case}: {q:?}");
    }
}

#[test]
fn monet_matches_oracle() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB220 + case);
        let rel = random_relation(&mut rng);
        let q = random_query(&mut rng, true);
        let engine = MonetEngine::prejoined(&rel, 3);
        let got = engine.run(&q).unwrap();
        let oracle = stats::run_oracle(&q, &rel).unwrap();
        assert_eq!(got.groups, oracle, "case {case}: {q:?}");
    }
}

#[test]
fn update_via_mux_equals_host_rewrite() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC330 + case);
        let rel = random_relation(&mut rng);
        let threshold = rng.gen_range(0u64..256);
        let new_value = rng.gen_range(0u64..16);
        let mut engine =
            PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb)
                .unwrap();
        let m = Mutation::update()
            .filter(col("lo_a").lt(threshold))
            .set("d_g", new_value)
            .build(rel.schema())
            .expect("update");
        let report = engine.mutate(&m).unwrap();

        // host-side reference rewrite
        let mut reference = rel.clone();
        let g = reference.schema().index_of("d_g").unwrap();
        let a = reference.schema().index_of("lo_a").unwrap();
        let mut updated = 0u64;
        for row in 0..reference.len() {
            if reference.value(row, a) < threshold {
                reference.set_value(row, g, new_value).unwrap();
                updated += 1;
            }
        }
        assert_eq!(report.records_updated, updated, "case {case}");
        // the stored bits and the reference agree
        for row in 0..reference.len() {
            let stored = engine.read_attr(row, "d_g").unwrap();
            assert_eq!(stored, reference.value(row, g), "case {case}");
        }
    }
}

#[test]
fn selectivity_is_exact() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD440 + case);
        let rel = random_relation(&mut rng);
        let q = random_query(&mut rng, true);
        let mut engine =
            PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb)
                .unwrap();
        engine.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        let out = engine.run(&q).unwrap();
        let expected = stats::selectivity(&q, &rel).unwrap();
        assert!(
            (out.report.selectivity - expected).abs() < 1e-12,
            "case {case}: {} vs {expected}",
            out.report.selectivity
        );
    }
}

/// The seeds of [`domain_index_equals_the_row_scan`], one generated case
/// each.
const INDEX_SEEDS: std::ops::Range<u64> = 0x1D_0000..0x1D_0000 + 200;

/// One generated attribute: its name and width.
struct GenAttr {
    name: String,
    bits: usize,
}

/// A generated mini-warehouse: a fact prefix `lo` (the measure `lo_m`, a
/// small key `lo_k` and a noise column, so the prefix is past the index
/// threshold and its key takes the image-decode path), a `d` prefix whose
/// tuple is wider than 64 bits in every other case, and an optional `p`
/// prefix. Dimension rows repeat a small pool of tuples, so their
/// prefixes are indexed. GROUP BY keys are the attributes of at most
/// three bits — `lo_k`, `d_a`, `d_c`, `p_a` — so a query's potential
/// subgroups stay few however many tuples an INSERT adds; the wide
/// `d_b` and `p_b` are constrained and counted, not grouped.
struct Warehouse {
    attrs: Vec<GenAttr>,
    /// Per dimension prefix: its attribute indices and tuple pool.
    pools: Vec<(Vec<usize>, Vec<Vec<u64>>)>,
}

fn max_of(bits: usize) -> u64 {
    if bits == 64 {
        u64::MAX
    } else {
        (1 << bits) - 1
    }
}

/// A value of `bits` bits, often an extreme. Wide values keep about one
/// bit in eight (the top one often set): every set bit of an equality
/// constant costs the compiled program a scratch column, and the small
/// test crossbar has a few dozen.
fn value(rng: &mut StdRng, bits: usize) -> u64 {
    let top = 1 << (bits - 1);
    match rng.gen_range(0u32..6) {
        0 => 0,
        1 if bits <= 16 => max_of(bits),
        1 => top | 1,
        _ if bits <= 16 => rng.gen::<u64>() & max_of(bits),
        _ => (rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>() & max_of(bits)) | top,
    }
}

impl Warehouse {
    fn generate(rng: &mut StdRng, wide: bool) -> Self {
        let mut attrs = vec![
            GenAttr { name: "lo_m".into(), bits: 8 },
            GenAttr { name: "lo_k".into(), bits: rng.gen_range(1usize..=3) },
            GenAttr { name: "lo_x".into(), bits: rng.gen_range(1usize..=12) },
        ];
        let d_b = if wide { rng.gen_range(62usize..=64) } else { rng.gen_range(1usize..=40) };
        let d =
            vec![("d_a", rng.gen_range(2usize..=3)), ("d_b", d_b), ("d_c", rng.gen_range(1..=3))];
        let mut prefixes = vec![d];
        if rng.gen::<bool>() {
            prefixes.push(vec![("p_a", rng.gen_range(1usize..=3)), ("p_b", rng.gen_range(1..=16))]);
        }
        let mut pools = Vec::new();
        for prefix in prefixes {
            let at: Vec<usize> = (attrs.len()..attrs.len() + prefix.len()).collect();
            attrs.extend(
                prefix.iter().map(|(name, bits)| GenAttr { name: (*name).into(), bits: *bits }),
            );
            let pool = (0..rng.gen_range(1usize..=12))
                .map(|_| prefix.iter().map(|(_, bits)| value(rng, *bits)).collect())
                .collect();
            pools.push((at, pool));
        }
        Warehouse { attrs, pools }
    }

    fn schema(&self) -> Schema {
        let attrs = self.attrs.iter().map(|a| Attribute::numeric(a.name.as_str(), a.bits));
        Schema::new("gen", attrs.collect()).expect("generated widths are 1..=64")
    }

    /// One row: fresh fact values, dimension tuples from the pools — or,
    /// with `fresh`, new dimension tuples the pools never held.
    fn row(&self, rng: &mut StdRng, fresh: bool) -> Vec<u64> {
        let mut row: Vec<u64> = self.attrs.iter().map(|a| value(rng, a.bits)).collect();
        if !fresh {
            for (at, pool) in &self.pools {
                let tuple = &pool[rng.gen_range(0..pool.len())];
                for (&a, &v) in at.iter().zip(tuple) {
                    row[a] = v;
                }
            }
        }
        row
    }

    fn attr(&self, rng: &mut StdRng) -> &GenAttr {
        &self.attrs[rng.gen_range(0..self.attrs.len())]
    }

    /// An atom on a random attribute, its constants often in the data.
    fn atom(&self, rng: &mut StdRng) -> Pred {
        let a = self.attr(rng);
        let mut v = || value(rng, a.bits);
        let (x, y) = (v(), v());
        match rng.gen_range(0u32..5) {
            0 => col(&a.name).eq(x),
            1 => col(&a.name).lt(x),
            2 => col(&a.name).gt(x),
            3 => col(&a.name).between(x.min(y), x.max(y)),
            _ => col(&a.name).is_in([x, y]),
        }
    }

    /// A DNF of one to three disjuncts of one to three atoms each: over
    /// random attributes, so same-prefix and cross-prefix atoms mix.
    fn filter(&self, rng: &mut StdRng) -> Pred {
        let conj = |rng: &mut StdRng| {
            (0..rng.gen_range(1usize..=3)).map(|_| self.atom(rng)).reduce(Pred::and)
        };
        (0..rng.gen_range(1usize..=3)).filter_map(|_| conj(rng)).reduce(Pred::or).expect("one")
    }

    /// A GROUP BY query: one to three distinct keys (the measure never
    /// one), one or two aggregates of the measure.
    fn query(&self, rng: &mut StdRng) -> Query {
        // two-xb cannot group across its partitions: the fact key alone
        // (the decoded prefix), or one to three dimension keys
        let mut keys: Vec<&str> = vec!["lo_k"];
        if rng.gen_range(0u32..3) > 0 {
            let dims: Vec<&str> = ["d_a", "d_c", "p_a"]
                .into_iter()
                .filter(|k| self.attrs.iter().any(|a| a.name == *k))
                .collect();
            keys = (0..rng.gen_range(1usize..=3))
                .map(|_| dims[rng.gen_range(0..dims.len())])
                .collect();
            keys.sort_unstable();
            keys.dedup();
        }
        let m = || AggExpr::attr("lo_m");
        let items = [
            SelectItem::sum("s", m()),
            SelectItem::count("n"),
            SelectItem::avg("a", m()),
            SelectItem::min("lo", m()),
            SelectItem::max("hi", m()),
        ];
        let first = rng.gen_range(0..items.len());
        let mut select = vec![items[first].clone()];
        if rng.gen::<bool>() {
            select.push(items[(first + rng.gen_range(1..items.len())) % items.len()].clone());
        }
        Query::select(select).filter(self.filter(rng)).group_by(keys).build_unchecked()
    }

    /// An UPDATE setting one or two attributes (grouped, constrained or
    /// the measure) under a random filter, or an INSERT: a few pool
    /// rows, or a batch of fresh dimension tuples large enough to push
    /// an indexed prefix of a `records`-record table past the threshold.
    fn mutation(&self, rng: &mut StdRng, records: usize) -> Mutation {
        match rng.gen_range(0u32..3) {
            0 => {
                let mut m = Mutation::update().filter(self.filter(rng));
                let first = rng.gen_range(0..self.attrs.len());
                for a in [first, (first + rng.gen_range(1..self.attrs.len())) % self.attrs.len()]
                    .into_iter()
                    .take(rng.gen_range(1usize..=2))
                {
                    let v = value(rng, self.attrs[a].bits);
                    m = m.set(self.attrs[a].name.as_str(), v);
                }
                m.build_unchecked()
            }
            1 => Mutation::Insert {
                rows: (0..rng.gen_range(1usize..=4)).map(|_| self.row(rng, false)).collect(),
            },
            _ => Mutation::Insert {
                rows: (0..records.min(300) + 1).map(|_| self.row(rng, true)).collect(),
            },
        }
    }
}

/// One calibration per mode, shared by every engine of the suite.
fn models() -> Vec<GroupByModel> {
    let cal = CalibrationConfig::tiny_for_tests();
    EngineMode::all()
        .into_iter()
        .map(|mode| run_calibration(&SimConfig::small_for_tests(), mode, &cal).unwrap().1)
        .collect()
}

/// The records a table's image holds, read back record by record.
fn stored(table: &PimTable) -> Relation {
    let mut rel = Relation::new(table.schema().clone());
    for record in 0..table.records() {
        let row: Vec<u64> = table
            .schema()
            .attrs()
            .iter()
            .map(|a| table.read_attr(record, &a.name).unwrap())
            .collect();
        rel.push_row(&row).unwrap();
    }
    rel
}

/// Over generated schemas (two or three prefixes, widths 1–64, a
/// dimension tuple wider than 64 bits in every other case), relations
/// (empty, one row, a few rows, more than one page), GROUP-BY queries
/// with DNF filters, and UPDATE / INSERT interleavings (some setting
/// grouped or constrained attributes, some pushing a prefix past the
/// index threshold): after every step, every table's domain sets equal
/// `stats::group_domains` on the replayed relation (a cluster shard's:
/// on its stored records), and every answer equals `run_oracle` — on
/// the single engine in all three modes and on a range-partitioned
/// `ClusterEngine`.
#[test]
fn domain_index_equals_the_row_scan() {
    let models = models();
    for seed in INDEX_SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let warehouse = Warehouse::generate(&mut rng, seed % 2 == 0);
        let rows = match seed % 4 {
            0 => 0,
            1 => 1,
            2 => rng.gen_range(2usize..=40),
            _ => rng.gen_range(257usize..=600),
        };
        let mut rel = Relation::new(warehouse.schema());
        for _ in 0..rows {
            rel.push_row(&warehouse.row(&mut rng, false)).unwrap();
        }
        let mut engines: Vec<PimQueryEngine> = EngineMode::all()
            .into_iter()
            .zip(&models)
            .map(|(mode, model)| {
                let mut e = PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), mode)
                    .unwrap_or_else(|e| panic!("seed {seed:#x}, {mode:?}: {e}"));
                e.set_model(model.clone());
                e
            })
            .collect();
        // an INSERT needs an active shard, so the empty case has none
        let mut cluster = (rows > 0).then(|| {
            let mut c = ClusterEngine::new(
                SimConfig::small_for_tests(),
                rel.clone(),
                EngineMode::OneXb,
                3,
                Partitioner::range_by_attr("d_a"),
            )
            .unwrap();
            c.set_model(models[0].clone());
            c
        });
        let queries: Vec<Query> = (0..2).map(|_| warehouse.query(&mut rng)).collect();
        for step in 0..4 {
            if step > 0 {
                let m = warehouse.mutation(&mut rng, rel.len());
                m.apply_to(&mut rel).unwrap();
                for e in &mut engines {
                    e.mutate(&m).unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
                }
                if let Some(c) = &mut cluster {
                    c.mutate(&m).unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
                }
            }
            for q in &queries {
                let what = format!("seed {seed:#x}, step {step}, {} by {:?}", q.filter, q.group_by);
                let want = stats::run_oracle(q, &rel).unwrap();
                let domains = stats::group_domains(q, &rel).unwrap();
                for e in &mut engines {
                    let out =
                        e.run(q).unwrap_or_else(|err| panic!("{what}, {:?}: {err}", e.mode()));
                    assert_eq!(out.groups, want, "{what}: {:?} answer", e.mode());
                    assert_eq!(e.group_domains(q).unwrap(), domains, "{what}: {:?}", e.mode());
                }
                if let Some(c) = &mut cluster {
                    assert_eq!(c.run(q).unwrap().groups, want, "{what}: cluster answer");
                    for i in 0..c.active_shards() {
                        let shard = c.shard_table(i).unwrap();
                        let want = stats::group_domains(q, &stored(shard)).unwrap();
                        assert_eq!(shard.group_domains(q).unwrap(), want, "{what}: shard {i}");
                    }
                }
            }
        }
    }
}
