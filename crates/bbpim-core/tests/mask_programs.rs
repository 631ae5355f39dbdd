//! Exhaustive verifier of the mask-program builders: every program
//! `build_conjunction_program` (plain and accumulating) and
//! `build_dnf_mask_program` emit runs on a crossbar whose rows enumerate
//! small attributes, over a scratch region pre-filled with random bits.
//! Every term comes from the planner's runs (`ResolvedAtom::runs`, also
//! for constants past the attribute's width); the mask must equal a
//! row-at-a-time reference (`matches_value` for an atom, run
//! membership for a key term), no column outside the
//! destination and the scratch region may change, and no NOR may take
//! more than 64 inputs — with a roomy pool, with the 24 columns every
//! layout reserves, and with the builders' whole working set alone.

use bbpim_core::filter_exec::{build_conjunction_program, RangeTerm};
use bbpim_core::layout::{MASK_COL, TRANSFER_COL, VALID_COL};
use bbpim_core::semijoin::build_dnf_mask_program;
use bbpim_db::plan::ResolvedAtom;
use bbpim_sim::compiler::{ColRange, WORKING_COLS};
use bbpim_sim::crossbar::Crossbar;
use bbpim_sim::isa::{MicroOp, Microprogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 64;
const COLS: usize = 128;
/// Two 3-bit attributes whose pairs the 64 rows enumerate, and a 6-bit
/// key that is the row number.
const A: ColRange = ColRange { lo: 32, width: 3 };
const B: ColRange = ColRange { lo: 40, width: 3 };
const FK: ColRange = ColRange { lo: 48, width: 6 };
const SCRATCH: ColRange = ColRange { lo: 64, width: 64 };
/// The scratch pools every program is built for, inside `SCRATCH`.
const POOLS: [ColRange; 3] =
    [SCRATCH, ColRange { lo: 64, width: 24 }, ColRange { lo: 64, width: WORKING_COLS }];
const MAX_FAN_IN: usize = 64;

fn a_of(r: usize) -> u64 {
    (r & 7) as u64
}

fn b_of(r: usize) -> u64 {
    (r >> 3) as u64
}

fn valid(r: usize) -> bool {
    !r.is_multiple_of(7)
}

fn transfer(r: usize) -> bool {
    (r * 11) % 5 < 3
}

/// The crossbar every program runs on: attributes, validity and a
/// transfer chunk as above; the mask column and the scratch region hold
/// random bits drawn from `seed`.
fn crossbar(seed: u64) -> Crossbar {
    let mut xb = Crossbar::new(ROWS, COLS);
    for r in 0..ROWS {
        xb.write_row_bits(r, A.lo, A.width, a_of(r));
        xb.write_row_bits(r, B.lo, B.width, b_of(r));
        xb.write_row_bits(r, FK.lo, FK.width, r as u64);
        xb.write_row_bits(r, VALID_COL, 1, u64::from(valid(r)));
        xb.write_row_bits(r, TRANSFER_COL, 16, u64::from(transfer(r)));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for col in std::iter::once(MASK_COL).chain(SCRATCH.lo..SCRATCH.end()) {
        for w in xb.bits_mut_unaccounted().col_mut(col) {
            *w = rng.gen();
        }
    }
    xb
}

/// Run `prog` on a fresh crossbar drawn from `seed`, checking the fan-in
/// rule and that nothing outside `dst` and `scratch` moved; returns the
/// crossbar and `dst`'s bits before the run.
fn run(
    prog: &Microprogram,
    scratch: ColRange,
    seed: u64,
    dst: usize,
    what: &str,
) -> (Crossbar, Vec<bool>) {
    let mut xb = crossbar(seed);
    let dst_before: Vec<bool> = (0..ROWS).map(|r| xb.bits().get(r, dst)).collect();
    let before: Vec<Vec<u64>> = (0..COLS).map(|c| xb.bits().col(c).to_vec()).collect();
    for (i, op) in prog.ops().iter().enumerate() {
        if let MicroOp::NorManyCols { inputs, .. } = op {
            assert!(inputs.len() <= MAX_FAN_IN, "{what}: op {i} NORs {} inputs", inputs.len());
        }
    }
    xb.execute(prog).unwrap();
    let writable = |c: usize| c == dst || (c >= scratch.lo && c < scratch.end());
    for (c, col) in before.iter().enumerate().filter(|&(c, _)| !writable(c)) {
        assert_eq!(xb.bits().col(c), &col[..], "{what}: column {c} outside dst and scratch moved");
    }
    (xb, dst_before)
}

/// Every atom over a 3-bit attribute: each comparison against each
/// constant up to 17 (past the width from 8 on), each BETWEEN, each IN
/// member set — alone and beside an out-of-width member.
fn every_small_atom() -> Vec<ResolvedAtom> {
    let mut atoms = Vec::new();
    for c in 0..=17u64 {
        atoms.push(ResolvedAtom::Eq { idx: 0, value: c });
        atoms.push(ResolvedAtom::Lt { idx: 0, value: c });
        atoms.push(ResolvedAtom::Gt { idx: 0, value: c });
        for hi in c..=17 {
            atoms.push(ResolvedAtom::Between { idx: 0, lo: c, hi });
        }
    }
    for set in 1u64..256 {
        let values: Vec<u64> = (0..8).filter(|v| set >> v & 1 == 1).collect();
        atoms.push(ResolvedAtom::In { idx: 0, values: values.clone() });
        atoms.push(ResolvedAtom::In { idx: 0, values: [values, vec![9, 1000]].concat() });
    }
    atoms.push(ResolvedAtom::In { idx: 0, values: vec![8, 1000] });
    atoms
}

/// `atom` as the term over `range` the planner builds.
fn term(atom: &ResolvedAtom, range: ColRange) -> RangeTerm {
    RangeTerm { range, runs: atom.runs(range.width) }
}

#[test]
fn conjunctions_are_exact_over_every_small_atom() {
    let atoms = every_small_atom();
    let mut rng = StdRng::seed_from_u64(0xC0);
    for (k, atom) in atoms.iter().enumerate() {
        let other = &atoms[rng.gen_range(0..atoms.len())];
        // alone, and beside an atom on the other attribute; validity
        // alone, and with the transfer chunk
        let with_other = [term(atom, A), term(other, B)];
        for (n, and_cols) in [(1, &[VALID_COL][..]), (2, &[VALID_COL, TRANSFER_COL][..])] {
            let conj = &with_other[..n];
            let want = |r: usize| {
                valid(r)
                    && (n == 1 || transfer(r))
                    && atom.matches_value(a_of(r))
                    && (n == 1 || other.matches_value(b_of(r)))
            };
            for (accumulate, scratch) in
                [false, true].into_iter().flat_map(|a| POOLS.map(|p| (a, p)))
            {
                let what = format!(
                    "{atom:?} and {other:?}: {conj:?} and {and_cols:?}, accumulate {accumulate}, \
                     {scratch:?}"
                );
                let prog = build_conjunction_program(scratch, conj, and_cols, MASK_COL, accumulate)
                    .unwrap();
                let seed = (k as u64) << 2 | (n as u64) << 1 | u64::from(accumulate);
                let (xb, old) = run(&prog, scratch, seed, MASK_COL, &what);
                for (r, &was) in old.iter().enumerate() {
                    let expect = want(r) || (accumulate && was);
                    assert_eq!(xb.bits().get(r, MASK_COL), expect, "{what}: row {r}");
                }
            }
        }
    }
}

#[test]
fn conjunctions_on_a_six_bit_attribute_are_exact() {
    let mut atoms = Vec::new();
    // constants up to 129, past the width from 64 on
    for c in 0..=129u64 {
        atoms.push(ResolvedAtom::Eq { idx: 0, value: c });
        atoms.push(ResolvedAtom::Lt { idx: 0, value: c });
        atoms.push(ResolvedAtom::Gt { idx: 0, value: c });
        for hi in (c..=129).step_by(5) {
            atoms.push(ResolvedAtom::Between { idx: 0, lo: c, hi });
        }
    }
    for (k, atom) in atoms.iter().enumerate() {
        for scratch in POOLS {
            let what = format!("{atom:?} in {scratch:?}");
            let conj = [term(atom, FK)];
            let prog =
                build_conjunction_program(scratch, &conj, &[VALID_COL], MASK_COL, false).unwrap();
            let (xb, _) = run(&prog, scratch, 0x6B17 + k as u64, MASK_COL, &what);
            for r in 0..ROWS {
                let expect = valid(r) && atom.matches_value(r as u64);
                assert_eq!(xb.bits().get(r, MASK_COL), expect, "{what}: row {r}");
            }
        }
    }
}

#[test]
fn a_conjunction_without_atoms_ands_its_columns() {
    // pim-gb's two-xb combine step: query mask AND transferred mask
    for scratch in POOLS {
        let prog =
            build_conjunction_program(scratch, &[], &[VALID_COL, TRANSFER_COL], 2, false).unwrap();
        let (xb, _) = run(&prog, scratch, 0xA0, 2, "no atoms");
        for r in 0..ROWS {
            assert_eq!(xb.bits().get(r, 2), valid(r) && transfer(r), "row {r}");
        }
    }
}

/// One conjunct of a reference disjunct: an atom over `A`, `B` or
/// `FK`, or a key term's runs over `FK`.
#[derive(Debug, Clone)]
enum Conjunct {
    Atom(ResolvedAtom, ColRange),
    Keys(Vec<(u64, u64)>),
}

impl Conjunct {
    /// The term the planner builds for it.
    fn term(&self) -> RangeTerm {
        match self {
            Conjunct::Atom(atom, range) => term(atom, *range),
            Conjunct::Keys(runs) => RangeTerm { range: FK, runs: runs.clone() },
        }
    }

    /// Does it select row `r`?
    fn selects(&self, r: usize) -> bool {
        match self {
            Conjunct::Atom(atom, range) if range.lo == A.lo => atom.matches_value(a_of(r)),
            Conjunct::Atom(atom, range) if range.lo == B.lo => atom.matches_value(b_of(r)),
            Conjunct::Atom(atom, _) => atom.matches_value(r as u64),
            Conjunct::Keys(runs) => runs.iter().any(|&(lo, hi)| (lo..=hi).contains(&(r as u64))),
        }
    }
}

/// The maximal runs of the set bits of `keys` (bit k = key k).
fn runs_of(keys: u64) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for k in (0..64).filter(|k| keys >> k & 1 == 1) {
        match runs.last_mut() {
            Some(last) if last.1 + 1 == k => last.1 = k,
            _ => runs.push((k, k)),
        }
    }
    runs
}

fn check_dnf(disjuncts: &[Vec<Conjunct>], seed: u64) {
    let terms: Vec<Vec<RangeTerm>> =
        disjuncts.iter().map(|d| d.iter().map(Conjunct::term).collect()).collect();
    for scratch in POOLS {
        let what = format!("{disjuncts:?} in {scratch:?}");
        let prog = build_dnf_mask_program(scratch, &terms, &[VALID_COL], MASK_COL).unwrap();
        let (xb, _) = run(&prog, scratch, seed, MASK_COL, &what);
        for r in 0..ROWS {
            let expect = valid(r) && disjuncts.iter().any(|d| d.iter().all(|c| c.selects(r)));
            assert_eq!(xb.bits().get(r, MASK_COL), expect, "{what}: row {r}");
        }
    }
}

fn semijoin(runs: Vec<(u64, u64)>) -> Vec<Conjunct> {
    vec![Conjunct::Keys(runs)]
}
#[test]
fn semijoin_runs_are_exact() {
    // empty runs, every single key, every prefix and suffix range
    check_dnf(&[semijoin(vec![])], 0x5E);
    for k in 0..64u64 {
        check_dnf(&[semijoin(vec![(k, k)])], 0x5E00 + k);
        check_dnf(&[semijoin(vec![(0, k)])], 0x5F00 + k);
        check_dnf(&[semijoin(vec![(k, 63)])], 0x6000 + k);
    }
    // seeded bitmaps, from sparse to dense, as maximal runs and split
    // into single keys
    let mut rng = StdRng::seed_from_u64(0x5E31);
    for case in 0..200u64 {
        let keys = (0..1 + case % 4).fold(u64::MAX, |acc, _| acc & rng.gen::<u64>());
        check_dnf(&[semijoin(runs_of(keys))], 0x7000 + case);
        let singles = (0..64).filter(|k| keys >> k & 1 == 1).map(|k| (k, k)).collect();
        check_dnf(&[semijoin(singles)], 0x8000 + case);
    }
}

#[test]
fn disjunctions_are_exact() {
    let atoms = every_small_atom();
    // zero disjuncts select nothing; an empty disjunct selects every
    // valid record, beside others or alone
    check_dnf(&[], 0xD0);
    check_dnf(&[vec![]], 0xD1);
    let mut rng = StdRng::seed_from_u64(0xD15);
    let random_disjunct = |rng: &mut StdRng| {
        let mut d = Vec::new();
        if rng.gen_range(0..10usize) < 7 {
            d.push(Conjunct::Atom(atoms[rng.gen_range(0..atoms.len())].clone(), A));
        }
        if rng.gen::<bool>() {
            d.push(Conjunct::Atom(atoms[rng.gen_range(0..atoms.len())].clone(), B));
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let keys = rng.gen::<u64>() & rng.gen::<u64>();
            d.push(Conjunct::Keys(runs_of(keys)));
        }
        d
    };
    for case in 0..300u64 {
        let n = 1 + (case % 4) as usize;
        let mut ds: Vec<Vec<Conjunct>> = (0..n).map(|_| random_disjunct(&mut rng)).collect();
        if case % 23 == 0 {
            ds.push(vec![]);
        }
        check_dnf(&ds, 0xD200 + case);
    }
}
