//! Using the PIM engine on a custom (non-SSB) schema: a tiny IoT
//! telemetry warehouse, pre-joined sensor metadata, a disjunctive
//! filter, GROUP BY and a multi-aggregate SELECT list — showing the
//! public v2 query API is not SSB-specific.
//!
//! ```sh
//! cargo run --release --example custom_schema
//! ```

use std::sync::Arc;

use bbpim::db::builder::col;
use bbpim::db::dict::Dictionary;
use bbpim::db::plan::{AggExpr, Query, SelectItem};
use bbpim::db::schema::{Attribute, Schema};
use bbpim::db::stats;
use bbpim::db::Relation;
use bbpim::engine::engine::PimQueryEngine;
use bbpim::engine::groupby::calibration::CalibrationConfig;
use bbpim::engine::modes::EngineMode;
use bbpim::sim::SimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_telemetry(rows: usize) -> Result<Relation, Box<dyn std::error::Error>> {
    // Attribute-name convention: `lo_` marks the "fact" side (readings),
    // other prefixes are treated as pre-joined dimension attributes —
    // that is all the two-crossbar partitioning needs.
    let site_dict: Arc<Dictionary> = Dictionary::from_sorted(
        ["berlin", "haifa", "lisbon", "osaka", "quito"].iter().map(|s| s.to_string()).collect(),
    )?;
    let kind_dict: Arc<Dictionary> = Dictionary::from_sorted(
        ["humidity", "pressure", "temperature"].iter().map(|s| s.to_string()).collect(),
    )?;
    let schema = Schema::new(
        "telemetry",
        vec![
            Attribute::numeric("lo_sensor", 12),
            Attribute::numeric("lo_hour", 5),
            Attribute::numeric("lo_value", 14),
            Attribute::numeric("lo_baseline", 14),
            Attribute::dict("s_site", site_dict),
            Attribute::dict("s_kind", kind_dict),
        ],
    )?;
    let mut rel = Relation::with_capacity(schema, rows);
    let mut rng = StdRng::seed_from_u64(2024);
    for _ in 0..rows {
        let sensor = rng.gen_range(0..4096u64);
        let hour = rng.gen_range(0..24u64);
        let baseline = rng.gen_range(2000..6000u64);
        let value = baseline + rng.gen_range(0..4000u64);
        let site = sensor % 5;
        let kind = sensor % 3;
        rel.push_row(&[sensor, hour, value, baseline, site, kind])?;
    }
    Ok(rel)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rel = build_telemetry(100_000)?;
    let mut engine = PimQueryEngine::new(SimConfig::default(), rel.clone(), EngineMode::TwoXb)?;
    engine.calibrate(&CalibrationConfig::default())?;
    println!("telemetry warehouse loaded: {} readings, two-crossbar layout", 100_000);

    // Off-hours drift report per site: temperature sensors, during the
    // night OR the late evening (a disjunctive filter), with peak and
    // average drift plus the sample count — three named aggregates off
    // one planned filter mask.
    let q = Query::select([
        SelectItem::max("peak_drift", AggExpr::sub("lo_value", "lo_baseline")),
        SelectItem::avg("avg_drift", AggExpr::sub("lo_value", "lo_baseline")),
        SelectItem::count("readings"),
    ])
    .id("night_drift")
    .filter(
        col("s_kind").eq("temperature").and(col("lo_hour").lt(6u64).or(col("lo_hour").gt(21u64))),
    )
    .group_by(["s_site"])
    .build(rel.schema())?;
    println!("filter: {}", q.filter);

    let out = engine.run(&q)?;
    assert_eq!(out.groups, stats::run_oracle(&q, &rel)?);

    let site_dict = rel.schema().attr("s_site")?.dictionary().expect("dict").clone();
    println!("\noff-hours drift, temperature sensors (value - baseline):");
    println!("  {:<8} {:>10} {:>10} {:>9}", "site", "peak", "avg", "readings");
    for (key, row) in &out.groups {
        println!(
            "  {:<8} {:>10} {:>10} {:>9}",
            site_dict.decode(key[0]).unwrap_or("?"),
            row[0],
            row[1],
            row[2]
        );
    }
    println!(
        "\nsimulated: {:.3} ms, {} of {} subgroups aggregated in PIM",
        out.report.time_ns / 1e6,
        out.report.pim_agg_subgroups,
        out.report.total_subgroups
    );
    Ok(())
}
