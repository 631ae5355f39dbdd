//! Quickstart: generate a small SSB database, pre-join it, load it into
//! the simulated PIM module, and run queries end to end with the fluent
//! v2 query builder — including a multi-aggregate SELECT list answered
//! off a single planned filter pass.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bbpim::db::builder::col;
use bbpim::db::plan::{AggExpr, Query, SelectItem};
use bbpim::db::ssb::{queries, SsbDb, SsbParams};
use bbpim::engine::engine::PimQueryEngine;
use bbpim::engine::modes::EngineMode;
use bbpim::sim::SimConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small Star Schema Benchmark instance (SF 0.01 ≈ 60 K facts).
    let db = SsbDb::generate(&SsbParams::uniform(0.01));
    println!(
        "generated SSB SF=0.01: {} lineorders, {} customers, {} parts",
        db.lineorder.len(),
        db.customer.len(),
        db.part.len()
    );

    // 2. Pre-join fact and dimensions (Section III of the paper): same
    //    record count, wider records.
    let wide = db.prejoin();
    println!(
        "pre-joined relation: {} records x {} attributes ({} bits/record)",
        wide.len(),
        wide.schema().arity(),
        wide.schema().record_bits()
    );

    // 3. Load into the PIM module (Table I geometry) in one-crossbar
    //    layout: every record in a single 512-bit crossbar row.
    let mut engine = PimQueryEngine::new(SimConfig::default(), wide, EngineMode::OneXb)?;
    println!("loaded into {} huge pages (M)", engine.page_count());

    // 4. Build SSB Q1.1 with the fluent builder — validated against the
    //    schema at build() time — and run it: a filter over three
    //    attributes plus an in-PIM product (extendedprice x discount)
    //    and one PIM aggregation. (The 13 catalog queries in
    //    `queries::standard_queries()` are built exactly like this.)
    let q11 = Query::select([SelectItem::sum(
        "revenue",
        AggExpr::mul("lo_extendedprice", "lo_discount"),
    )])
    .id("Q1.1")
    .filter(
        col("d_year")
            .eq(1993u64)
            .and(col("lo_discount").between(1u64, 3u64))
            .and(col("lo_quantity").lt(25u64)),
    )
    .build(engine.schema())?;
    let out = engine.run(&q11)?;
    let revenue = out.groups.get(&Vec::new()).map(|row| row[0]).unwrap_or(0);
    let r = &out.report;
    println!("\nQ1.1: SUM(lo_extendedprice * lo_discount) = {revenue}");
    println!(
        "  selected          : {} records ({:.3}% selectivity)",
        r.selected,
        r.selectivity * 100.0
    );
    println!("  simulated latency : {:.3} ms", r.time_ns / 1e6);
    println!("  PIM energy        : {:.3} mJ", r.energy_pj * 1e-9);
    println!("  peak chip power   : {:.3} W", r.peak_chip_power_w);
    println!("  10-year endurance : {:.2e} writes/cell", r.required_endurance(10.0));

    // 5. The v2 surface: several named aggregates share that one filter
    //    pass (the crossbar-dominant stage), instead of re-filtering per
    //    aggregate. AVG is derived from mergeable sum + count.
    let combined = queries::combined_query("Q1.1-combined").expect("catalog variant");
    let multi = engine.run(&combined)?;
    let row = multi.groups.get(&Vec::new()).cloned().unwrap_or_default();
    println!("\nQ1.1-combined (one filter pass, three aggregates):");
    for (item, value) in combined.select.iter().zip(&row) {
        println!("  {:<12} = {value}", item.name);
    }
    println!(
        "  energy: {:.3} mJ vs {:.3} mJ x 3 for three separate single-aggregate queries",
        multi.report.energy_pj * 1e-9,
        out.report.energy_pj * 1e-9,
    );

    // 6. Every phase of the execution is recorded.
    println!("\nphase breakdown (Q1.1):");
    for phase in r.phases.phases() {
        println!(
            "  {:<16} {:>10.3} us  {:>10.3} uJ",
            phase.kind.label(),
            phase.time_ns / 1e3,
            phase.energy_pj * 1e-6
        );
    }
    Ok(())
}
