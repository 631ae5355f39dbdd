//! Cross-commit golden for the GROUP-BY calibration. `run_calibration`
//! loads synthetic pages through the loader's writer and runs the real
//! pim-gb pipeline on them, so a host-side speed-up of either must
//! leave every measured point and the fitted model bit-identical. This
//! pins a 64-bit FNV-1a digest of the bits of every `HostPoint` and
//! `PimPoint` `time_ns`, in sweep order, and of the fitted
//! `GroupByModel`'s `Debug` rendering. A digest may only change
//! together with a deliberate, explained model change.

mod common;

use bbpim::engine::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim::engine::modes::EngineMode;
use bbpim::sim::SimConfig;
use common::{assert_pinned, fnv1a};

/// `[host points, pim points, model]` digests of one calibration.
fn digests(cfg: &SimConfig, mode: EngineMode, cal: &CalibrationConfig) -> [u64; 3] {
    let (data, model) = run_calibration(cfg, mode, cal).expect("calibration");
    let bits = |times: &mut dyn Iterator<Item = f64>| -> u64 {
        fnv1a(&times.flat_map(|t| t.to_bits().to_le_bytes()).collect::<Vec<u8>>())
    };
    [
        bits(&mut data.host_points.iter().map(|p| p.time_ns)),
        bits(&mut data.pim_points.iter().map(|p| p.time_ns)),
        fnv1a(format!("{model:?}").as_bytes()),
    ]
}

const MODES: [EngineMode; 3] = [EngineMode::PimDb, EngineMode::TwoXb, EngineMode::OneXb];

#[test]
fn tiny_sweeps_match_the_pinned_digests() {
    let cal = CalibrationConfig::tiny_for_tests();
    let mut got = Vec::new();
    for (name, cfg) in [("small", SimConfig::small_for_tests()), ("default", SimConfig::default())]
    {
        for mode in MODES {
            got.push((format!("{name} config, {mode:?}"), digests(&cfg, mode, &cal)));
        }
    }
    assert_pinned(
        "tiny calibration sweeps",
        &got,
        &[
            [0x663575e5bf9e0022, 0xb4c11a9adca9f8d2, 0x1b6551178e7b37a6], // small config, PimDb
            [0x663575e5bf9e0022, 0x10034936e486f711, 0x3c49a477043f6bd2], // small config, TwoXb
            [0x663575e5bf9e0022, 0x5dc0f6d78bcc5670, 0x6ce8a3e6ea163eeb], // small config, OneXb
            [0x0191388e4bb163ae, 0x69eeb71b37b19237, 0xd272fe51a807ed77], // default config, PimDb
            [0x0191388e4bb163ae, 0xd1226335863ddd31, 0x71bdd7ce3452c9d0], // default config, TwoXb
            [0x0191388e4bb163ae, 0x541d1cc50371ea63, 0xd0339b4872957418], // default config, OneXb
        ],
    );
}

/// The sweep `bench/perf` and the studies fit: 60 pages of the default
/// geometry.
#[test]
fn the_default_sweep_matches_the_pinned_digests() {
    let got = digests(&SimConfig::default(), EngineMode::OneXb, &CalibrationConfig::default());
    assert_pinned(
        "default calibration sweep",
        &[("default config, default sweep, OneXb".into(), got)],
        &[[0xab133c37dc7a48f0, 0x31063ffcf8c564b5, 0x5f6b0c3c93075bf0]],
    );
}
