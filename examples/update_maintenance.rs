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
    let mut engine = PimQueryEngine::new(SimConfig::default(), wide.clone(), EngineMode::OneXb)?;

    // The denormalisation hazard: customer 42's city is duplicated into
    // every lineorder they ever placed.
    let custkey = 42u64;
    let mut purchases = Vec::new();
    let custkeys = wide.column_by_name("lo_custkey")?;
    custkeys.read(0..custkeys.len(), |row, v| {
        if v == custkey {
            purchases.push(row);
        }
    });
    println!("customer {custkey} appears in {} pre-joined records", purchases.len());

    // UPDATE wide SET c_city = 'UNITED KI1' WHERE lo_custkey = 42
    let m = Mutation::update()
        .filter(col("lo_custkey").eq(custkey))
        .set("c_city", "UNITED KI1")
        .build(wide.schema())?;
    let report = engine.mutate(&m)?;
    println!("\nUPDATE via Algorithm 1 (filter + PIM MUX):");
    println!("  records rewritten : {}", report.records_updated);
    println!("  simulated latency : {:.3} us", report.time_ns / 1e3);
    println!("  PIM energy        : {:.3} uJ", report.energy_pj * 1e-6);
    println!(
        "  host reads        : {:.3} us  (the paper's point: none are needed)",
        report.phases.time_in(PhaseKind::HostRead).abs() / 1e3
    );

    // Verify through the engine's own storage: the stored bits of every
    // purchase the customer made.
    let city_dict =
        engine.schema().attr("c_city")?.dictionary().expect("city is dictionary-encoded").clone();
    for &record in &purchases {
        let city = engine.read_attr(record, "c_city")?;
        assert_eq!(city_dict.decode(city), Some("UNITED KI1"));
    }
    println!("\nverified {} records now read c_city = UNITED KI1", purchases.len());
    assert_eq!(purchases.len() as u64, report.records_updated);
    Ok(())
}
