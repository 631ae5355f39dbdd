//! Semijoin mask programs: AND a dimension's key bitmap into the fact
//! mask *through the foreign-key column*, entirely on-module.
//!
//! A star join runs each dimension's filter on the dimension's own
//! module, yielding a bitmap over that dimension's (dense) key space.
//! The bitmap crosses the host channel once, compressed; expanding it
//! against millions of fact rows must NOT — the host would have to
//! write a bit per fact record, which is exactly the wide-mask traffic
//! the normalized storage model exists to avoid. Instead the bitmap is
//! decomposed into *runs* of consecutive selected keys, and the whole
//! run list compiles to one range predicate over the fact table's FK
//! column ([`Conjunction::and_ranges`]): every run splits into aligned
//! prefix cubes, one multi-input NOR each over complements of the FK
//! bits that every cube of the program shares. The fact-side program
//! then evaluates
//!
//! ```text
//! mask = OR over disjuncts ( AND(fact atoms)
//!                            AND per-dim OR(run cubes) )
//!        AND validity
//! ```
//!
//! in one [`Microprogram`] — bulk-bitwise cycles on the fact module,
//! zero channel bytes. A run costs two cycles per cube (at most two
//! cubes per FK bit, usually a handful), and the FK's complements are
//! paid once per program, so a scattered bitmap (a region filter
//! selecting every fifth customer) costs about two cycles per
//! single-key run — no bus traffic, and no comparator chain per run.
//!
//! [`build_dnf_mask_program`] is the one DNF builder. A disjunct is a
//! list of [`RangeTerm`]s whose runs the planner decided: the fact
//! atoms' selected values ([`bbpim_db::plan::ResolvedAtom::runs`]) and
//! one FK term per filtered dimension, its runs the dimension bitmap's
//! ([`bbpim_sim::maskwire::PackedBits::runs`]) offset by the key base.
//! A plain single-partition query filter is the case with no FK term.

use bbpim_sim::compiler::predicate::{Conjunction, Disjunction};
use bbpim_sim::compiler::{CodeBuilder, ColRange, ScratchPool};
use bbpim_sim::isa::Microprogram;

use crate::error::CoreError;
use crate::filter_exec::RangeTerm;

/// Build one program evaluating a whole DNF inside a single partition
/// (`scratch` is its workspace): per disjunct, AND its terms; OR across
/// disjuncts; AND `and_cols` (validity); write the result to `dst_col`.
/// A disjunct with no term is constant true; zero disjuncts write an
/// all-false mask — an executed filter must still leave a well-defined
/// mask on the touched pages.
///
/// Every AND is clear-only NORs into one INITed column
/// ([`Conjunction`]). One disjunct builds straight into `dst_col`;
/// several build one scratch term each, whose NOR ([`Disjunction`], the
/// complement of their OR) then goes into `dst_col` in the same NOR as
/// the complements of `and_cols`. No copy, no NOT per term.
///
/// # Errors
///
/// Propagates compiler failures (scratch exhaustion, bad constants).
pub fn build_dnf_mask_program(
    scratch: ColRange,
    disjuncts: &[Vec<RangeTerm>],
    and_cols: &[usize],
    dst_col: usize,
) -> Result<Microprogram, CoreError> {
    let mut pool = ScratchPool::new(scratch);
    let mut b = CodeBuilder::new(&mut pool);
    let mut mask = Conjunction::into_col(dst_col);
    let mut literals: Vec<(usize, bool)> = and_cols.iter().map(|&c| (c, true)).collect();
    let always = disjuncts.iter().any(Vec::is_empty);
    match disjuncts {
        _ if always => {}
        [] => literals.push((b.one()?, false)),
        [terms] => {
            for t in terms {
                mask.and_ranges(&mut b, t.range, &t.runs)?;
            }
        }
        _ => {
            let mut any = Disjunction::new();
            for terms in disjuncts {
                let mut conj = Conjunction::fresh();
                for t in terms {
                    conj.and_ranges(&mut b, t.range, &t.runs)?;
                }
                let col = conj.finish(&mut b)?;
                any.push(&mut b, col, true)?;
            }
            literals.push((any.finish_complement(&mut b)?, false));
        }
    }
    mask.and_literals(&mut b, &literals)?;
    mask.finish(&mut b)?;
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::layout::MASK_COL;
    use crate::modes::EngineMode;
    use crate::table::PimTable;
    use bbpim_db::plan::ResolvedAtom;
    use bbpim_db::Relation;
    use bbpim_sim::maskwire::PackedBits;

    fn table() -> (PimTable, Relation) {
        let rows = (0..700).map(|i| vec![(i * 7) % 200, i % 100]);
        fixture::table(EngineMode::OneXb, &[("fk", 8), ("v", 8)], rows)
    }

    /// The term of the key bitmap `bits` over keys from `key_base`, as
    /// the star path builds it: the bitmap's runs as key values.
    fn term_of(range: ColRange, bits: &[bool], key_base: u64) -> RangeTerm {
        let mut packed = PackedBits::zeros(bits.len());
        bits.iter().enumerate().filter(|(_, set)| **set).for_each(|(i, _)| packed.set(i));
        let runs = packed.runs().map(|(lo, hi)| (key_base + lo, key_base + hi)).collect();
        RangeTerm { range, runs }
    }

    /// The column range of `attr`.
    fn range(t: &PimTable, attr: &str) -> ColRange {
        t.layout().placement(attr).unwrap().range
    }

    /// Filter by `disjuncts` over every page; the selected count must be
    /// the mask's popcount. Returns the per-record mask.
    fn run(t: &mut PimTable, disjuncts: &[Vec<RangeTerm>]) -> Vec<bool> {
        let mut scan = fixture::scan(t);
        let selected = scan.filter_joined(disjuncts).unwrap();
        let mask = scan.mask(0, MASK_COL);
        assert_eq!(selected, mask.count_ones());
        mask.iter().collect()
    }

    #[test]
    fn bitmap_decomposes_into_maximal_runs() {
        let range = ColRange { lo: 0, width: 8 };
        let bits = [true, true, false, true, false, false, true, true];
        let t = term_of(range, &bits, 10);
        assert_eq!(t.runs, vec![(10, 11), (13, 13), (16, 17)]);
        let empty = term_of(range, &[false; 4], 0);
        assert!(empty.runs.is_empty());
    }

    #[test]
    fn run_predicates_match_bitmap_semantics() {
        let (mut t, rel) = table();
        // keys 20..=35 and 100, 102 selected
        let mut bits = vec![false; 200];
        bits[20..=35].fill(true);
        bits[100] = true;
        bits[102] = true;
        let fk_range = range(&t, "fk");
        let term = term_of(fk_range, &bits, 0);
        assert_eq!(term.runs.len(), 3);
        let mask = run(&mut t, &[vec![term]]);
        for (row, got) in mask.iter().enumerate() {
            let fk = rel.value(row, 0) as usize;
            assert_eq!(*got, bits[fk], "row {row} fk {fk}");
        }
    }

    #[test]
    fn semijoin_ands_with_fact_atoms() {
        let (mut t, rel) = table();
        let fk_range = range(&t, "fk");
        let v_range = range(&t, "v");
        let runs = ResolvedAtom::Lt { idx: 1, value: 30 }.runs(v_range.width);
        let atom = RangeTerm { range: v_range, runs };
        let term = RangeTerm { range: fk_range, runs: vec![(0, 49)] };
        let mask = run(&mut t, &[vec![atom, term]]);
        for (row, got) in mask.iter().enumerate() {
            let expect = rel.value(row, 0) < 50 && rel.value(row, 1) < 30;
            assert_eq!(*got, expect, "row {row}");
        }
    }

    #[test]
    fn disjuncts_or_together() {
        let (mut t, rel) = table();
        let fk_range = range(&t, "fk");
        let d1 = vec![RangeTerm { range: fk_range, runs: vec![(0, 9)] }];
        let d2 = vec![RangeTerm { range: fk_range, runs: vec![(150, 199)] }];
        let mask = run(&mut t, &[d1, d2]);
        for (row, got) in mask.iter().enumerate() {
            let fk = rel.value(row, 0);
            assert_eq!(*got, !(10..150).contains(&fk), "row {row}");
        }
    }

    #[test]
    fn empty_runs_make_disjunct_false_and_no_disjuncts_make_all_false() {
        let (mut t, _) = table();
        let fk_range = range(&t, "fk");
        let d = vec![RangeTerm { range: fk_range, runs: vec![] }];
        assert!(run(&mut t, &[d]).iter().all(|b| !b));
        assert!(run(&mut t, &[]).iter().all(|b| !b));
    }

    #[test]
    fn empty_disjunct_selects_all_valid() {
        let (mut t, rel) = table();
        let mask = run(&mut t, &[vec![]]);
        assert_eq!(mask.iter().filter(|b| **b).count(), rel.len());
    }

    #[test]
    fn many_scattered_runs_stay_within_scratch() {
        let (mut t, rel) = table();
        let fk_range = range(&t, "fk");
        // every third key: 67 single-key runs
        let bits: Vec<bool> = (0..200).map(|k| k % 3 == 0).collect();
        let term = term_of(fk_range, &bits, 0);
        assert!(term.runs.len() > 60);
        let mask = run(&mut t, &[vec![term]]);
        for (row, got) in mask.iter().enumerate() {
            assert_eq!(*got, rel.value(row, 0).is_multiple_of(3), "row {row}");
        }
    }
}
