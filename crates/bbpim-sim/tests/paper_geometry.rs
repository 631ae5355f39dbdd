//! Integration checks at the paper's exact Table I geometry: the
//! structural properties the evaluation relies on must hold end to end.

use bbpim_sim::aggcircuit::AggRequest;
use bbpim_sim::compiler::predicate::compile_between_const;
use bbpim_sim::compiler::reduce::ReduceOp;
use bbpim_sim::compiler::{CodeBuilder, ColRange, ScratchPool};
use bbpim_sim::module::PimModule;
use bbpim_sim::SimConfig;

#[test]
fn one_page_is_32k_records_and_32_crossbars() {
    let mut module = PimModule::new(SimConfig::default()).unwrap();
    let pages = module.alloc_pages(1).unwrap();
    let page = module.page(pages[0]);
    assert_eq!(page.crossbar_count(), 32);
    assert_eq!(page.record_capacity(), 32 * 1024);
}

#[test]
fn filter_latency_is_page_count_independent_but_issue_grows() {
    // Bulk-bitwise execution is parallel across pages; only the request
    // issue serialises. Doubling the page count must add exactly the
    // issue overhead.
    let cfg = SimConfig::default();
    let mut module = PimModule::new(cfg.clone()).unwrap();
    let p4 = module.alloc_pages(4).unwrap();
    let p8 = module.alloc_pages(8).unwrap();

    let mut pool = ScratchPool::new(ColRange::new(400, 100));
    let mut b = CodeBuilder::new(&mut pool);
    compile_between_const(&mut b, ColRange::new(32, 20), 100, 5000).unwrap();
    let prog = b.finish();

    let t4 = module.exec_program(&p4, &prog).unwrap().time_ns;
    let t8 = module.exec_program(&p8, &prog).unwrap().time_ns;
    let expected_delta = 4.0 * cfg.request_issue_ns;
    assert!(
        (t8 - t4 - expected_delta).abs() < 1e-9,
        "t8 {t8} - t4 {t4} should equal 4 issue slots"
    );
}

#[test]
fn result_read_amplification_is_one_line_per_row() {
    // Reading a page's one-bit filter result costs rows lines (64 KB for
    // a 2 MB page): the 32x reduction of Section II-B.
    let cfg = SimConfig::default();
    let module = PimModule::new(cfg.clone()).unwrap();
    let lines_per_page = cfg.crossbar_rows as u64;
    let phase = module.host_read_phase(lines_per_page);
    let bytes = lines_per_page * cfg.line_bytes() as u64;
    assert_eq!(bytes, 64 * 1024);
    assert!(phase.time_ns > 0.0);
}

#[test]
fn aggregation_over_a_full_paper_page_matches_direct_sum() {
    let cfg = SimConfig::default();
    let mut module = PimModule::new(cfg).unwrap();
    let pages = module.alloc_pages(1).unwrap();
    let p = pages[0];
    let capacity = module.page(p).record_capacity();
    let mut expected = 0u64;
    for r in 0..capacity {
        let v = ((r as u64).wrapping_mul(48_271)) % 50_000;
        module.page_mut(p).write_records(r, 32, 20, &[v]).unwrap();
        let selected = r % 7 == 0;
        module.page_mut(p).write_records(r, 1, 1, &[selected as u64]).unwrap();
        if selected {
            expected += v;
        }
    }
    let req = AggRequest {
        op: ReduceOp::Sum,
        value: ColRange::new(32, 20),
        mask_col: 1,
        dst_row: 0,
        dst: ColRange::new(448, 40),
    };
    let (partials, phase) = module.aggregate(&pages, &req, None, true).unwrap();
    let total: u64 = partials.values.iter().flatten().sum();
    assert_eq!(total, expected);
    // 1024 rows × (2 value chunks + mask chunk) reads at 10 ns each,
    // plus issue + write-back: tens of microseconds.
    assert!(phase.time_ns > 10_000.0 && phase.time_ns < 100_000.0, "{}", phase.time_ns);
}

#[test]
fn chip_power_scales_linearly_to_the_papers_operating_point() {
    // At the paper's SF=10 the fact relation occupies ~1832 pages; the
    // logic-phase model must stay inside the paper's 44 W envelope.
    let cfg = SimConfig::default();
    let mut module = PimModule::new(cfg).unwrap();
    let few = module.alloc_pages(2).unwrap();
    let mut prog_builder_pool = ScratchPool::new(ColRange::new(400, 100));
    let mut b = CodeBuilder::new(&mut prog_builder_pool);
    compile_between_const(&mut b, ColRange::new(32, 20), 100, 5000).unwrap();
    let prog = b.finish();
    let p2 = module.exec_program(&few, &prog).unwrap().chip_power_w;
    let per_page = p2 / 2.0;
    let extrapolated = per_page * 1832.0;
    assert!(
        extrapolated > 5.0 && extrapolated < 44.0,
        "extrapolated {extrapolated} W should sit under the paper's 44 W"
    );
}
