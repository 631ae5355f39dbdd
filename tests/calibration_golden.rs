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
            [0x663575e5bf9e0022, 0x592bfb95a27cb4d5, 0x9715a37483449f7b], // small config, PimDb
            [0x663575e5bf9e0022, 0x4b42b05c2fa95e06, 0x21dce047736a399e], // small config, TwoXb
            [0x663575e5bf9e0022, 0x0673ea47a432ef3a, 0xf9658b75b6b304bb], // small config, OneXb
            [0x0191388e4bb163ae, 0x7f44a367b163714d, 0x44f7328454bde420], // default config, PimDb
            [0x0191388e4bb163ae, 0xb23d6e1c5863aeef, 0x9668b8265f7aa229], // default config, TwoXb
            [0x0191388e4bb163ae, 0x62c90767579fdab9, 0x2710b862d314eafb], // default config, OneXb
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
        &[[0xab133c37dc7a48f0, 0xc5aa1e4499a87a1d, 0x934441c656fb46bd]],
    );
}
