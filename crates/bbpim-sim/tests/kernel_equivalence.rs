//! The simulator's fast kernels against their plain statements.
//!
//! Column-parallel work is accounted and executed a word (or a counter)
//! at a time; each test here keeps the row-at-a-time or bit-at-a-time
//! model it replaced as a reference and drives both with seeded random
//! inputs:
//!
//! * microprograms — one `bool` per cell, op at a time with MAGIC's
//!   semantics (`INIT` sets, a NOR only clears), against the lowered
//!   block kernel with its fused `INIT`+NOR, at crossbar, page and module
//!   level: cells, `ExecSummary` and every row's wear;
//! * wear — one counter per row, bumped row by row, against
//!   `max_row_cell_writes` at crossbar, page and module level;
//! * aggregation — `masked_reduce` over every row plus a per-row count,
//!   against `PimModule::aggregate` on both backends;
//! * row access — cell-by-cell `get` / `set` against
//!   `read_row_bits` / `write_row_bits`;
//! * record runs — one strided `write_row_bits` / `read_row_bits` per
//!   slot against the transposing `PimPage::write_records` /
//!   `read_records`, bits and wear.

use bbpim_sim::aggcircuit::AggRequest;
use bbpim_sim::bitmat::BitMatrix;
use bbpim_sim::compiler::reduce::{masked_reduce, ReduceOp};
use bbpim_sim::compiler::ColRange;
use bbpim_sim::crossbar::{Crossbar, ExecSummary};
use bbpim_sim::isa::{MicroOp, Microprogram};
use bbpim_sim::module::{PageId, PimModule};
use bbpim_sim::page::PimPage;
use bbpim_sim::SimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random program of column ops and row ops inside a `rows × cols`
/// frame.
fn random_program(rng: &mut StdRng, rows: usize, cols: usize) -> Microprogram {
    let mut p = Microprogram::new();
    for _ in 0..rng.gen_range(0usize..12) {
        // distinct operands: a MAGIC output differs from its inputs
        let (c, r) = (rng.gen_range(0..cols - 2), rng.gen_range(0..rows - 2));
        p.push(match rng.gen_range(0u32..5) {
            0 => MicroOp::InitCol { dst: c },
            1 => MicroOp::NorCols { a: c + 1, b: c + 2, dst: c },
            2 => MicroOp::NorManyCols { inputs: vec![c + 1, c + 2], dst: c },
            3 => MicroOp::InitRow { dst: r },
            _ => MicroOp::NorRows { a: r + 1, b: r + 2, dst: r },
        });
    }
    p
}

/// The per-row wear model the crossbar used to keep: one counter per
/// row, every write bumping the rows it covers one by one.
#[derive(Clone)]
struct PerRowWear {
    rows: Vec<u64>,
    cols: u64,
}

impl PerRowWear {
    fn run(&mut self, program: &Microprogram) {
        for op in program.ops() {
            match op {
                MicroOp::InitRow { dst } | MicroOp::NorRows { dst, .. } => {
                    self.rows[*dst] += self.cols;
                }
                _ => self.all(1),
            }
        }
    }

    fn all(&mut self, cells: u64) {
        for w in self.rows.iter_mut() {
            *w += cells;
        }
    }

    fn max(&self) -> u64 {
        self.rows.iter().copied().max().unwrap_or(0)
    }
}

/// A crossbar run op at a time, one `bool` per cell (row-major): `INIT`
/// sets a column or row, a NOR clears the output cells whose inputs
/// hold a one and leaves the rest — the semantics the simulator's
/// per-op gates had before programs were lowered.
#[derive(Clone)]
struct CellModel {
    cols: usize,
    cells: Vec<bool>,
    wear: PerRowWear,
}

impl CellModel {
    /// A model holding `xb`'s cells, with no wear yet.
    fn of(xb: &Crossbar) -> Self {
        let (rows, cols) = (xb.rows(), xb.cols());
        let cells = (0..rows * cols).map(|i| xb.bits().get(i / cols, i % cols)).collect();
        CellModel { cols, cells, wear: PerRowWear { rows: vec![0; rows], cols: cols as u64 } }
    }

    fn run(&mut self, program: &Microprogram) -> ExecSummary {
        let (rows, cols) = (self.wear.rows.len(), self.cols);
        let mut cells_written = 0;
        for op in program.ops() {
            let cell = |r: usize, c: usize| r * cols + c;
            match op {
                MicroOp::InitCol { dst } => {
                    (0..rows).for_each(|r| self.cells[cell(r, *dst)] = true);
                }
                MicroOp::NorCols { a, b, dst } => {
                    for r in 0..rows {
                        if self.cells[cell(r, *a)] || self.cells[cell(r, *b)] {
                            self.cells[cell(r, *dst)] = false;
                        }
                    }
                }
                MicroOp::NorManyCols { inputs, dst } => {
                    for r in 0..rows {
                        if inputs.iter().any(|c| self.cells[cell(r, *c)]) {
                            self.cells[cell(r, *dst)] = false;
                        }
                    }
                }
                MicroOp::InitRow { dst } => {
                    (0..cols).for_each(|c| self.cells[cell(*dst, c)] = true);
                }
                MicroOp::NorRows { a, b, dst } => {
                    for c in 0..cols {
                        if self.cells[cell(*a, c)] || self.cells[cell(*b, c)] {
                            self.cells[cell(*dst, c)] = false;
                        }
                    }
                }
            }
            cells_written += match op {
                MicroOp::InitRow { .. } | MicroOp::NorRows { .. } => cols,
                _ => rows,
            } as u64;
        }
        self.wear.run(program);
        ExecSummary { cycles: program.ops().len() as u64, cells_written }
    }

    /// Every cell and every row's wear of `xb` equal the model's.
    fn assert_matches(&self, xb: &Crossbar, what: &str) {
        for (i, want) in self.cells.iter().enumerate() {
            let (r, c) = (i / self.cols, i % self.cols);
            assert_eq!(xb.bits().get(r, c), *want, "{what}: row {r} col {c}");
        }
        assert_eq!(row_totals(xb), self.wear.rows, "{what}: row wear");
    }
}

/// A random program of every shape lowering tells apart: lone `INIT`s,
/// `INIT`+NOR gates (two- and 1–40-input), an `INIT` followed by a NOR
/// into a different column, NORs without an `INIT`, and row ops between
/// the column ops.
fn gate_program(rng: &mut StdRng, rows: usize, cols: usize) -> Microprogram {
    let mut p = Microprogram::new();
    for _ in 0..rng.gen_range(1usize..40) {
        let dst = rng.gen_range(0..cols);
        let other = |rng: &mut StdRng, not: usize| loop {
            let c = rng.gen_range(0..cols);
            if c != not {
                break c;
            }
        };
        let many = |rng: &mut StdRng, dst: usize| {
            (0..rng.gen_range(1usize..=40)).map(|_| other(rng, dst)).collect::<Vec<_>>()
        };
        match rng.gen_range(0u32..9) {
            0 => p.init_col(dst),
            1 => p.gate_nor(other(rng, dst), other(rng, dst), dst),
            2 => {
                p.init_col(dst);
                let elsewhere = other(rng, dst);
                // the INITed column may be one of the inputs
                p.nor_cols(dst, other(rng, elsewhere), elsewhere);
            }
            3 => p.nor_cols(other(rng, dst), other(rng, dst), dst),
            4 => {
                p.init_col(dst);
                p.nor_many_cols(many(rng, dst), dst);
            }
            5 => p.nor_many_cols(many(rng, dst), dst),
            6 => {
                p.init_col(dst);
                let elsewhere = other(rng, dst);
                p.nor_many_cols(many(rng, elsewhere), elsewhere);
            }
            7 => p.push(MicroOp::InitRow { dst: rng.gen_range(0..rows) }),
            _ => {
                let [a, b, dst] = [(); 3].map(|_| rng.gen_range(0..rows));
                if a != dst && b != dst {
                    p.push(MicroOp::NorRows { a, b, dst });
                }
            }
        }
    }
    p
}

/// Seeded random programs through the lowered kernel against
/// [`CellModel`], on every block width the geometry picks — one word
/// (64 rows), several one-word blocks (192), a 4-word block (256), 2-word
/// blocks (384), a 16-word block (1024, the paper's) and two of them
/// (2048) — at each level: one crossbar, one page, and the module's
/// `exec_program` over several pages, which shares one lowering. Every
/// cell and every row's wear is compared after each program, with
/// `ExecSummary` (at module level: the phase's cycles and logic energy,
/// with issue time and controller power zeroed so nothing else adds in).
#[test]
fn programs_match_the_op_at_a_time_reference() {
    for rows in [64, 192, 256, 384, 1024, 2048] {
        let cols = 64;
        let mut cfg = SimConfig::small_for_tests();
        (cfg.crossbar_rows, cfg.crossbar_cols) = (rows, cols);
        cfg.page_bytes = cfg.crossbar_bytes() * 4;
        cfg.module_capacity_bytes = cfg.page_bytes as u64 * 8;
        (cfg.request_issue_ns, cfg.controller_power_uw) = (0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(0x10_3E4D + rows as u64);
        let mut module = PimModule::new(cfg.clone()).unwrap();
        let pages = module.alloc_pages(3).unwrap();
        for &id in &pages {
            for xb in module.page_mut(id).crossbars_mut() {
                for c in 0..cols {
                    xb.bits_mut_unaccounted().col_mut(c).iter_mut().for_each(|w| *w = rng.gen());
                }
            }
        }
        let mut reference: Vec<Vec<CellModel>> = pages
            .iter()
            .map(|&id| module.page(id).crossbars().map(CellModel::of).collect())
            .collect();
        for step in 0..18 {
            let program = gate_program(&mut rng, rows, cols);
            let what = format!("{rows} rows, step {step}");
            let p = rng.gen_range(0..pages.len());
            match step % 3 {
                0 => {
                    let x = rng.gen_range(0..reference[p].len());
                    let xb = module.page_mut(pages[p]).crossbar_mut(x);
                    let summary = xb.execute(&program).unwrap();
                    assert_eq!(summary, reference[p][x].run(&program), "{what}: crossbar");
                }
                1 => {
                    let summary = module.page_mut(pages[p]).execute(&program).unwrap();
                    for model in &mut reference[p] {
                        assert_eq!(summary, model.run(&program), "{what}: page");
                    }
                }
                _ => {
                    // all pages, or all but one
                    let skip = rng.gen_range(0..2 * pages.len());
                    let subset: Vec<usize> = (0..pages.len()).filter(|&i| i != skip).collect();
                    let ids: Vec<PageId> = subset.iter().map(|&i| pages[i]).collect();
                    let phase = module.exec_program(&ids, &program).unwrap();
                    let mut summary = ExecSummary::default();
                    for &i in &subset {
                        for model in &mut reference[i] {
                            let s = model.run(&program);
                            (summary.cycles, summary.cells_written) =
                                (s.cycles, summary.cells_written + s.cells_written);
                        }
                    }
                    assert_eq!(phase.time_ns, summary.cycles as f64 * cfg.logic_cycle_ns, "{what}");
                    let logic_pj =
                        summary.cells_written as f64 * cfg.logic_energy_fj_per_bit * 1e-3;
                    assert_eq!(phase.energy_pj, logic_pj, "{what}: module");
                }
            }
            for (&id, page_ref) in pages.iter().zip(&reference) {
                let page = module.page(id);
                for (x, (xb, model)) in page.crossbars().zip(page_ref).enumerate() {
                    model.assert_matches(xb, &format!("{what}, page {id:?} crossbar {x}"));
                }
                let worst = page_ref.iter().map(|m| m.wear.max()).max().unwrap();
                assert_eq!(page.max_row_cell_writes(), worst, "{what}: worst row");
            }
        }
    }
}

#[test]
fn wear_matches_the_per_row_reference_at_every_level() {
    let cfg = SimConfig::small_for_tests();
    let (rows, cols, xbs) = (cfg.crossbar_rows, cfg.crossbar_cols, cfg.crossbars_per_page());
    let mut module = PimModule::new(cfg).unwrap();
    let pages = module.alloc_pages(3).unwrap();
    let fresh = PerRowWear { rows: vec![0; rows], cols: cols as u64 };
    // reference[page][crossbar]
    let mut reference = vec![vec![fresh; xbs]; pages.len()];
    let mut rng = StdRng::seed_from_u64(0x5EED_0018);
    for step in 0..1500 {
        let (p, x) = (rng.gen_range(0..pages.len()), rng.gen_range(0..xbs));
        let (row, cells) = (rng.gen_range(0..rows), rng.gen_range(0u64..40));
        match rng.gen_range(0u32..10) {
            0 => {
                // the module's entry point: a random subset of the pages
                let subset: Vec<PageId> =
                    pages.iter().copied().filter(|_| rng.gen::<bool>()).collect();
                let program = random_program(&mut rng, rows, cols);
                module.exec_program(&subset, &program).unwrap();
                for id in subset {
                    reference[id.0].iter_mut().for_each(|xb| xb.run(&program));
                }
            }
            1 => {
                let program = random_program(&mut rng, rows, cols);
                module.page_mut(pages[p]).execute(&program).unwrap();
                reference[p].iter_mut().for_each(|xb| xb.run(&program));
            }
            2 => {
                let program = random_program(&mut rng, rows, cols);
                module.page_mut(pages[p]).crossbar_mut(x).execute(&program).unwrap();
                reference[p][x].run(&program);
            }
            3 => {
                let width = rng.gen_range(0usize..=64);
                let col_lo = rng.gen_range(0..=cols - width);
                let xb = module.page_mut(pages[p]).crossbar_mut(x);
                xb.write_row_bits(row, col_lo, width, rng.gen());
                reference[p][x].rows[row] += width as u64;
            }
            4 => {
                module.page_mut(pages[p]).crossbar_mut(x).note_row_writes(row, cells);
                reference[p][x].rows[row] += cells;
            }
            5 => {
                module.page_mut(pages[p]).crossbar_mut(x).note_all_rows_writes(cells);
                reference[p][x].all(cells);
            }
            6 => {
                // one flag per record, a column at a time: the wear of a
                // chunk write on every written record's row
                let records = match rng.gen_range(0u32..3) {
                    0 => rows * xbs,
                    _ => rng.gen_range(0..=rows * xbs),
                };
                let set = (0..records).filter(|r| r % 3 == step % 3);
                module.page_mut(pages[p]).write_record_flags(32, 16, records, set).unwrap();
                for record in 0..records {
                    reference[p][record % xbs].rows[record / xbs] += 16;
                }
            }
            7 => {
                module.page_mut(pages[p]).crossbar_mut(x).reset_endurance();
                reference[p][x].rows.fill(0);
            }
            8 => {
                module.page_mut(pages[p]).reset_endurance();
                reference[p].iter_mut().for_each(|xb| xb.rows.fill(0));
            }
            _ => {
                if rng.gen_range(0u32..4) == 0 {
                    module.reset_endurance(&pages[p..]);
                    reference[p..].iter_mut().flatten().for_each(|xb| xb.rows.fill(0));
                }
            }
        }
        for (id, page_ref) in pages.iter().zip(&reference) {
            let page = module.page(*id);
            for (xb, xb_ref) in page.crossbars().zip(page_ref) {
                assert_eq!(xb.max_row_cell_writes(), xb_ref.max(), "step {step}, crossbar");
            }
            let page_max = page_ref.iter().map(PerRowWear::max).max().unwrap();
            assert_eq!(page.max_row_cell_writes(), page_max, "step {step}, page");
            assert_eq!(module.max_row_cell_writes(&[*id]), page_max, "step {step}, module");
        }
        let module_max = reference.iter().flatten().map(PerRowWear::max).max().unwrap();
        assert_eq!(module.max_row_cell_writes(&pages), module_max, "step {step}, module");
    }
}

#[test]
fn program_wear_formula_matches_execution() {
    let (rows, cols) = (64, 48);
    for case in 0..200 {
        let mut rng = StdRng::seed_from_u64(0xF0_0000 + case);
        let mut program = random_program(&mut rng, rows, cols);
        program.extend(&random_program(&mut rng, rows, cols));
        let mut xb = Crossbar::new(rows, cols);
        let summary = xb.execute(&program).unwrap();
        assert_eq!(program.max_row_cell_writes(rows, cols), xb.max_row_cell_writes(), "{case}");
        assert_eq!(summary.cells_written, program.cells_written(rows, cols), "case {case}");
    }
}

/// `write_record_flags` leaves the bits a one-record `write_records`
/// per record does, and touches nothing else.
#[test]
fn record_flags_match_per_record_chunk_writes() {
    let cfg = SimConfig::small_for_tests();
    let capacity = cfg.records_per_page();
    let mut rng = StdRng::seed_from_u64(0xF1A6);
    for records in [0, 1, 3, 4, 5, capacity / 2 + 1, capacity - 1, capacity] {
        let mut module = PimModule::new(cfg.clone()).unwrap();
        let pages = module.alloc_pages(2).unwrap();
        // old contents everywhere, so cleared and untouched cells show
        for r in 0..capacity {
            for &p in &pages {
                module.page_mut(p).write_records(r, 24, 32, &[0xDEAD_BEEF]).unwrap();
            }
        }
        let flags: Vec<bool> = (0..records).map(|_| rng.gen()).collect();
        let set = flags.iter().enumerate().filter(|(_, f)| **f).map(|(r, _)| r);
        module.page_mut(pages[0]).write_record_flags(32, 16, records, set).unwrap();
        for (r, flag) in flags.iter().enumerate() {
            module.page_mut(pages[1]).write_records(r, 32, 16, &[u64::from(*flag)]).unwrap();
        }
        let [fast, plain] = [pages[0], pages[1]].map(|p| module.page(p));
        for (a, b) in fast.crossbars().zip(plain.crossbars()) {
            assert_eq!(a.bits(), b.bits(), "{records} records");
        }
    }
    // a flag past the written records is the caller's bug
    let mut module = PimModule::new(cfg).unwrap();
    let page = module.alloc_pages(1).unwrap()[0];
    assert!(module.page_mut(page).write_record_flags(32, 16, 4, [4].into_iter()).is_err());
    assert!(module
        .page_mut(page)
        .write_record_flags(32, 16, capacity + 1, [].into_iter())
        .is_err());
}

/// Every row's value and selection bit, read cell by cell.
fn dense_inputs(xb: &Crossbar, value: ColRange, mask_col: usize) -> (Vec<u64>, Vec<bool>) {
    (0..xb.rows())
        .map(|r| {
            let v = (0..value.width)
                .fold(0u64, |v, i| v | u64::from(xb.bits().get(r, value.lo + i)) << i);
            (v, xb.bits().get(r, mask_col))
        })
        .unzip()
}

fn wrap(value: u64, width: usize) -> u64 {
    if width == 64 {
        value
    } else {
        value & ((1 << width) - 1)
    }
}

#[test]
fn aggregation_matches_the_dense_fold_on_both_backends() {
    let cfg = SimConfig::small_for_tests();
    let (rows, xbs) = (cfg.crossbar_rows, cfg.crossbars_per_page());
    let (mask_col, dst_row) = (70, 5);
    for case in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(0xA66_0000 + case);
        // every width from 1 to 64 comes up, with the result slot both
        // wider and narrower than the value
        let value = ColRange::new(0, 1 + (case as usize * 7) % 64);
        let dst = ColRange::new(80, rng.gen_range(1usize..=64));
        let count_slot = ColRange::new(150, rng.gen_range(1usize..=64));
        let op = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max][case as usize % 3];
        let req = AggRequest { op, value, mask_col, dst_row, dst };
        for circuit in [true, false] {
            let mut module = PimModule::new(cfg.clone()).unwrap();
            let pages = module.alloc_pages(1).unwrap();
            let page = module.page_mut(pages[0]);
            for (x, xb) in page.crossbars_mut().enumerate() {
                for r in 0..rows {
                    xb.write_row_bits(r, value.lo, value.width, rng.gen());
                    // crossbar 0 selects nothing, crossbar 1 everything
                    let selected = match x {
                        0 => false,
                        1 => true,
                        _ => rng.gen_range(0u32..4) == 0,
                    };
                    xb.bits_mut_unaccounted().set(r, mask_col, selected);
                }
            }
            let expected: Vec<(u64, u64)> = module
                .page(pages[0])
                .crossbars()
                .map(|xb| {
                    let (values, mask) = dense_inputs(xb, value, mask_col);
                    let folded = masked_reduce(&values, &mask, dst.width.max(value.width), op);
                    let count = mask.iter().filter(|m| **m).count() as u64;
                    (wrap(folded, dst.width), wrap(count, count_slot.width))
                })
                .collect();
            let (partials, _) = module.aggregate(&pages, &req, Some(count_slot), circuit).unwrap();
            let what = format!("case {case} circuit={circuit} {op:?} {value:?} -> {dst:?}");
            assert_eq!(partials.values[0].len(), xbs);
            for (x, xb) in module.page(pages[0]).crossbars().enumerate() {
                let (value, count) = expected[x];
                assert_eq!(
                    (partials.values[0][x], partials.counts[0][x]),
                    (value, count),
                    "{what}"
                );
                // and the same bits sit in the result row
                let (slot, _) = dense_inputs(xb, dst, mask_col);
                let (count_bits, _) = dense_inputs(xb, count_slot, mask_col);
                assert_eq!((slot[dst_row], count_bits[dst_row]), (value, count), "{what}");
            }
        }
    }
}

#[test]
fn row_bits_round_trip_across_word_boundaries() {
    let (rows, cols) = (192, 80);
    let mut rng = StdRng::seed_from_u64(0xB175);
    let mut fast = BitMatrix::new(rows, cols);
    let mut plain = BitMatrix::new(rows, cols);
    for c in 0..cols {
        for r in 0..rows {
            let bit = rng.gen();
            fast.set(r, c, bit);
            plain.set(r, c, bit);
        }
    }
    for row in [0, 1, 62, 63, 64, 65, 127, 128, 191] {
        for width in [0, 1, 2, 17, 63, 64] {
            for col_lo in [0, 1, 7, cols - width] {
                let value: u64 = rng.gen();
                fast.write_row_bits(row, col_lo, width, value);
                for i in 0..width {
                    plain.set(row, col_lo + i, (value >> i) & 1 == 1);
                }
                assert_eq!(fast, plain, "write row {row} col {col_lo} width {width}");
                let cell_by_cell =
                    (0..width).fold(0u64, |v, i| v | u64::from(plain.get(row, col_lo + i)) << i);
                assert_eq!(cell_by_cell, wrap(value, width.max(1)) * u64::from(width > 0));
                assert_eq!(fast.read_row_bits(row, col_lo, width), cell_by_cell);
            }
        }
    }
}

/// The per-bit writer `PimPage::write_records` replaced: one strided
/// `write_row_bits` per slot, each wearing its row by `width`; a run
/// over the whole page writes its bits unaccounted and counts `width`
/// all-rows writes per crossbar instead.
fn write_records_per_bit(
    page: &mut PimPage,
    first: usize,
    col_lo: usize,
    width: usize,
    values: &[u64],
) {
    let n = page.crossbar_count();
    let whole_page = values.len() == page.record_capacity();
    for (slot, v) in (first..).zip(values) {
        let xb = page.crossbar_mut(slot % n);
        if whole_page {
            xb.bits_mut_unaccounted().write_row_bits(slot / n, col_lo, width, *v);
        } else {
            xb.write_row_bits(slot / n, col_lo, width, *v);
        }
    }
    if whole_page {
        page.crossbars_mut().for_each(|xb| xb.note_all_rows_writes(width as u64));
    }
}

/// Every row's wear total, read through the public counters: adding
/// `(r + 1) · 2⁴⁰` writes to row `r` of a copy makes it the worst row,
/// so the maximum is its total plus that probe.
fn row_totals(xb: &Crossbar) -> Vec<u64> {
    let mut xb = xb.clone();
    (0..xb.rows())
        .map(|r| {
            let probe = (r as u64 + 1) << 40;
            xb.note_row_writes(r, probe);
            xb.max_row_cell_writes() - probe
        })
        .collect()
}

/// Every cell, every row's wear total and the page's worst row alike.
fn assert_same_page(fast: &PimPage, plain: &PimPage, what: &str) {
    for (x, (a, b)) in fast.crossbars().zip(plain.crossbars()).enumerate() {
        assert_eq!(a.bits(), b.bits(), "{what}: cells of crossbar {x}");
        assert_eq!(row_totals(a), row_totals(b), "{what}: row wear of crossbar {x}");
    }
    assert_eq!(fast.max_row_cell_writes(), plain.max_row_cell_writes(), "{what}: worst row");
}

/// Seeded runs through the transposing writer and reader against the
/// per-bit reference, on the small and the default geometry: runs of
/// length 0 and 1, runs across a 64-row column word, whole pages and
/// random ones; every width from 1 to 64 at random offsets; values with
/// bits set above the field; and random old contents in every cell, so
/// neighbouring columns and rows outside a run show what they keep.
#[test]
fn record_runs_match_the_per_bit_reference() {
    for (geometry, cfg) in
        [("small", SimConfig::small_for_tests()), ("default", SimConfig::default())]
    {
        let mut rng = StdRng::seed_from_u64(0x7_2A45_9053);
        let mut fast = PimPage::new(&cfg);
        let (capacity, n, cols) =
            (fast.record_capacity(), fast.crossbar_count(), cfg.crossbar_cols);
        for xb in fast.crossbars_mut() {
            for c in 0..cols {
                xb.bits_mut_unaccounted().col_mut(c).iter_mut().for_each(|w| *w = rng.gen());
            }
        }
        // a whole-page run first: column wear only, no per-row counters
        let mut plain = fast.clone();
        let values: Vec<u64> = (0..capacity).map(|_| rng.gen()).collect();
        fast.write_records(0, 3, 61, &values).unwrap();
        write_records_per_bit(&mut plain, 0, 3, 61, &values);
        assert_same_page(&fast, &plain, &format!("{geometry}: whole page"));
        for xb in fast.crossbars() {
            assert!(format!("{xb:?}").contains("row_cell_writes: []"), "{geometry}: {xb:?}");
        }
        for case in 0..64 {
            let len = match case % 6 {
                0 => 0,
                1 => 1,
                2 => capacity,
                _ => rng.gen_range(0..=capacity),
            };
            let first = match case % 6 {
                // from the first 64-row column word into the second
                3 if capacity > 64 * n => 64 * n - rng.gen_range(1..=n.min(len.max(1))),
                _ => rng.gen_range(0..=capacity - len),
            };
            let len = len.min(capacity - first);
            // every width once, in an order that varies it against `len`
            let width = 1 + (case * 5) % 64;
            let col_lo = rng.gen_range(0..=cols - width);
            let values: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
            let what = format!(
                "{geometry} case {case}: {len} records from {first}, bits {col_lo}+{width}"
            );
            fast.write_records(first, col_lo, width, &values).unwrap();
            write_records_per_bit(&mut plain, first, col_lo, width, &values);
            assert_same_page(&fast, &plain, &what);

            let (records, width) = (rng.gen_range(0..=capacity), rng.gen_range(0..=64));
            let col_lo = rng.gen_range(0..=cols - width);
            let mut out = vec![7; 3];
            fast.read_records(col_lo, width, records, &mut out).unwrap();
            let want: Vec<u64> = (0..records)
                .map(|s| plain.crossbar(s % n).read_row_bits(s / n, col_lo, width))
                .collect();
            assert_eq!(out, want, "{what}: read {records} records of bits {col_lo}+{width}");
        }
    }
}
