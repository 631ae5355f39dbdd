//! Semijoin mask programs: AND a dimension's key bitmap into the fact
//! mask *through the foreign-key column*, entirely on-module.
//!
//! A star join runs each dimension's filter on the dimension's own
//! module, yielding a bitmap over that dimension's (dense) key space.
//! The bitmap crosses the host channel once, compressed; expanding it
//! against millions of fact rows must NOT — the host would have to
//! write a bit per fact record, which is exactly the wide-mask traffic
//! the normalized storage model exists to avoid. Instead the bitmap is
//! decomposed into *runs* of consecutive selected keys, and each run
//! compiles to a range predicate over the fact table's FK column: a
//! run of width 1 is an equality, wider runs a BETWEEN. The fact-side
//! program then evaluates
//!
//! ```text
//! mask = OR over disjuncts ( AND(fact atoms)
//!                            AND per-dim OR(run predicates) )
//!        AND validity
//! ```
//!
//! in one [`Microprogram`] — bulk-bitwise cycles on the fact module,
//! zero channel bytes. Selective dimension filters (the Q1.x class)
//! produce few runs and tiny programs; scattered bitmaps (a region
//! filter selecting every fifth customer) produce many runs, which
//! costs PIM-logic time but still no bus traffic — the trade the
//! paper's channel-bound analysis argues for.
//!
//! [`build_dnf_mask_program`] is the one DNF builder: a plain
//! single-partition query filter is the case where no disjunct carries
//! a semijoin term. Run predicates reuse the compiled-predicate library
//! via [`compile_atom`].

use bbpim_db::plan::ResolvedAtom;
use bbpim_sim::compiler::{CodeBuilder, ColRange, ScratchPool};
use bbpim_sim::isa::Microprogram;

use crate::error::CoreError;
use crate::filter_exec::{compile_atom, copy_col};

/// One dimension's contribution to a disjunct: the key runs its
/// filtered bitmap decomposed into, anchored at the fact FK column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemijoinTerm {
    /// The fact-partition column range holding the foreign key.
    pub fk_range: ColRange,
    /// Inclusive `[lo, hi]` runs of selected key *values* (not rows),
    /// ascending and non-overlapping — the runs of the dimension's key
    /// bitmap ([`bbpim_sim::maskwire::PackedBits::runs`]) offset by its
    /// key base. Empty = the dimension filter selected nothing, so the
    /// term (and its disjunct) is false.
    pub runs: Vec<(u64, u64)>,
}

/// One disjunct of a filter as a single-partition module sees it:
/// local atoms plus — on a star join's fact shard — one semijoin term
/// per participating dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemijoinDisjunct {
    /// Local atoms, pre-resolved to column ranges.
    pub atoms: Vec<(ResolvedAtom, ColRange)>,
    /// Semijoin terms (one per dimension this disjunct filters).
    pub semijoins: Vec<SemijoinTerm>,
}

/// Emit the OR of a term's run predicates; returns the result column.
///
/// Runs are OR-accumulated pairwise so at most one accumulator and one
/// fresh predicate are live at a time — the program length grows with
/// the run count but scratch occupancy does not.
fn compile_runs(b: &mut CodeBuilder<'_>, term: &SemijoinTerm) -> Result<usize, CoreError> {
    if term.runs.is_empty() {
        return Ok(b.zero()?);
    }
    let mut acc: Option<usize> = None;
    for &(lo, hi) in &term.runs {
        let atom = if lo == hi {
            ResolvedAtom::Eq { idx: 0, value: lo }
        } else {
            ResolvedAtom::Between { idx: 0, lo, hi }
        };
        let col = compile_atom(b, &atom, term.fk_range)?;
        acc = Some(match acc {
            None => col,
            Some(a) => {
                let ored = b.emit_or(a, col)?;
                b.release(a);
                b.release(col);
                ored
            }
        });
    }
    Ok(acc.expect("at least one run"))
}

/// Build one program evaluating a whole DNF inside a single partition
/// (`scratch` is its workspace): per disjunct, AND the local atoms with
/// every semijoin term's run-OR; OR across disjuncts; AND `and_cols`
/// (validity); write the result to `dst_col`. A disjunct with no atoms
/// and no semijoins contributes constant true; zero disjuncts write an
/// all-false mask — an executed filter must still leave a well-defined
/// mask on the touched pages.
///
/// # Errors
///
/// Propagates compiler failures (scratch exhaustion, bad constants).
pub fn build_dnf_mask_program(
    scratch: ColRange,
    disjuncts: &[SemijoinDisjunct],
    and_cols: &[usize],
    dst_col: usize,
) -> Result<Microprogram, CoreError> {
    let mut pool = ScratchPool::new(scratch);
    let mut b = CodeBuilder::new(&mut pool);
    if disjuncts.is_empty() {
        let zero = b.zero()?;
        copy_col(&mut b, zero, dst_col)?;
        return Ok(b.finish());
    }
    let mut terms: Vec<usize> = Vec::with_capacity(disjuncts.len());
    for d in disjuncts {
        if d.atoms.is_empty() && d.semijoins.is_empty() {
            terms.push(b.one()?);
            continue;
        }
        let mut cols: Vec<usize> = Vec::with_capacity(d.atoms.len() + d.semijoins.len());
        for (atom, range) in &d.atoms {
            cols.push(compile_atom(&mut b, atom, *range)?);
        }
        for sj in &d.semijoins {
            cols.push(compile_runs(&mut b, sj)?);
        }
        let term = b.emit_and_many(&cols)?;
        for c in cols {
            b.release(c);
        }
        terms.push(term);
    }
    let selected = if terms.len() == 1 {
        terms[0]
    } else {
        let ored = b.emit_or_many(terms.clone())?;
        for c in terms {
            b.release(c);
        }
        ored
    };
    let mut all: Vec<usize> = Vec::with_capacity(1 + and_cols.len());
    all.push(selected);
    all.extend_from_slice(and_cols);
    let combined = b.emit_and_many(&all)?;
    b.release(selected);
    copy_col(&mut b, combined, dst_col)?;
    b.release(combined);
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::layout::MASK_COL;
    use crate::modes::EngineMode;
    use crate::table::PimTable;
    use bbpim_db::Relation;
    use bbpim_sim::maskwire::PackedBits;

    fn table() -> (PimTable, Relation) {
        let rows = (0..700).map(|i| vec![(i * 7) % 200, i % 100]);
        fixture::table(EngineMode::OneXb, &[("fk", 8), ("v", 8)], rows)
    }

    /// The term of the key bitmap `bits` over keys from `key_base`, as
    /// the star path builds it: the bitmap's runs as key values.
    fn term_of(fk_range: ColRange, bits: &[bool], key_base: u64) -> SemijoinTerm {
        let mut packed = PackedBits::zeros(bits.len());
        bits.iter().enumerate().filter(|(_, set)| **set).for_each(|(i, _)| packed.set(i));
        let runs = packed.runs().map(|(lo, hi)| (key_base + lo, key_base + hi)).collect();
        SemijoinTerm { fk_range, runs }
    }

    /// The column range of `attr`.
    fn range(t: &PimTable, attr: &str) -> ColRange {
        t.layout().placement(attr).unwrap().range
    }

    /// Filter by `disjuncts` over every page; the selected count must be
    /// the mask's popcount. Returns the per-record mask.
    fn run(t: &mut PimTable, disjuncts: &[SemijoinDisjunct]) -> Vec<bool> {
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
        let d = SemijoinDisjunct { atoms: vec![], semijoins: vec![term] };
        let mask = run(&mut t, &[d]);
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
        let term = SemijoinTerm { fk_range, runs: vec![(0, 49)] };
        let d = SemijoinDisjunct {
            atoms: vec![(ResolvedAtom::Lt { idx: 1, value: 30 }, v_range)],
            semijoins: vec![term],
        };
        let mask = run(&mut t, &[d]);
        for (row, got) in mask.iter().enumerate() {
            let expect = rel.value(row, 0) < 50 && rel.value(row, 1) < 30;
            assert_eq!(*got, expect, "row {row}");
        }
    }

    #[test]
    fn disjuncts_or_together() {
        let (mut t, rel) = table();
        let fk_range = range(&t, "fk");
        let d1 = SemijoinDisjunct {
            atoms: vec![],
            semijoins: vec![SemijoinTerm { fk_range, runs: vec![(0, 9)] }],
        };
        let d2 = SemijoinDisjunct {
            atoms: vec![],
            semijoins: vec![SemijoinTerm { fk_range, runs: vec![(150, 199)] }],
        };
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
        let d = SemijoinDisjunct {
            atoms: vec![],
            semijoins: vec![SemijoinTerm { fk_range, runs: vec![] }],
        };
        assert!(run(&mut t, &[d]).iter().all(|b| !b));
        assert!(run(&mut t, &[]).iter().all(|b| !b));
    }

    #[test]
    fn empty_disjunct_selects_all_valid() {
        let (mut t, rel) = table();
        let d = SemijoinDisjunct { atoms: vec![], semijoins: vec![] };
        let mask = run(&mut t, &[d]);
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
        let d = SemijoinDisjunct { atoms: vec![], semijoins: vec![term] };
        let mask = run(&mut t, &[d]);
        for (row, got) in mask.iter().enumerate() {
            assert_eq!(*got, rel.value(row, 0).is_multiple_of(3), "row {row}");
        }
    }
}
