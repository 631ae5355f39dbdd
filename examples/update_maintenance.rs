//! Maintaining a pre-joined relation with the PIM multiplexer
//! (Algorithm 1): a customer relocates, and every one of their
//! (denormalised) purchase records is rewritten in-memory — no reads,
//! no data movement.
//!
//! ```sh
//! cargo run --release --example update_maintenance
//! ```

use bbpim::db::builder::col;
use bbpim::db::ssb::{SsbDb, SsbParams};
use bbpim::engine::engine::PimQueryEngine;
use bbpim::engine::modes::EngineMode;
use bbpim::engine::mutation::Mutation;
use bbpim::sim::timeline::PhaseKind;
use bbpim::sim::SimConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = SsbDb::generate(&SsbParams::uniform(0.01));
    let wide = db.prejoin();
    let mut engine = PimQueryEngine::new(SimConfig::default(), wide, EngineMode::OneXb)?;

    // The denormalisation hazard: customer 42's city is duplicated into
    // every lineorder they ever placed.
    let custkey = 42u64;
    let custkeys = engine.relation().column_by_name("lo_custkey")?;
    let mut duplicates = 0;
    custkeys.read(0..custkeys.len(), |_, v| duplicates += usize::from(v == custkey));
    println!("customer {custkey} appears in {duplicates} pre-joined records");

    // UPDATE wide SET c_city = 'UNITED KI1' WHERE lo_custkey = 42
    let m = Mutation::update()
        .filter(col("lo_custkey").eq(custkey))
        .set("c_city", "UNITED KI1")
        .build(engine.relation().schema())?;
    let report = engine.mutate(&m)?;
    println!("\nUPDATE via Algorithm 1 (filter + PIM MUX):");
    println!("  records rewritten : {}", report.records_updated);
    println!("  simulated latency : {:.3} us", report.time_ns / 1e3);
    println!("  PIM energy        : {:.3} uJ", report.energy_pj * 1e-6);
    println!(
        "  host reads        : {:.3} us  (the paper's point: none are needed)",
        report.phases.time_in(PhaseKind::HostRead).abs() / 1e3
    );

    // Verify through the engine's own storage.
    let city_dict = engine
        .relation()
        .schema()
        .attr("c_city")?
        .dictionary()
        .expect("city is dictionary-encoded")
        .clone();
    let mut checked = 0;
    for row in 0..engine.relation().len() {
        if engine.relation().value_by_name(row, "lo_custkey")? == custkey {
            let city = engine.relation().value_by_name(row, "c_city")?;
            assert_eq!(city_dict.decode(city), Some("UNITED KI1"));
            checked += 1;
        }
    }
    println!("\nverified {checked} records now read c_city = UNITED KI1");
    assert_eq!(checked as u64, report.records_updated);
    Ok(())
}
