//! Randomized tests: compiled NOR-only microprograms are semantically
//! identical to integer arithmetic/comparison for arbitrary widths and
//! values.
//!
//! Formerly written with `proptest`; rewritten as deterministic
//! seed-driven loops (see `tests/properties.rs` at the workspace root
//! for the rationale).

use bbpim_sim::compiler::{
    arith, mux, predicate, CodeBuilder, ColRange, ScratchPool, WORKING_COLS,
};
use bbpim_sim::crossbar::Crossbar;
use bbpim_sim::isa::{MicroOp, Microprogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 64;
const COLS: usize = 256;
const CASES: u64 = 64;

/// Crossbar with `values` written into an attribute at column 0.
fn crossbar_with(values: &[u64], width: usize) -> Crossbar {
    let mut xb = Crossbar::new(ROWS, COLS);
    for (r, v) in values.iter().enumerate() {
        xb.write_row_bits(r, 0, width, *v);
    }
    xb
}

fn scratch() -> ScratchPool {
    ScratchPool::new(ColRange::new(96, 160))
}

fn random_values(rng: &mut StdRng, mask: u64) -> Vec<u64> {
    (0..ROWS).map(|_| rng.gen::<u64>() & mask).collect()
}

/// The run of `attr < c`: none for `c = 0`.
fn below(c: u64) -> Vec<(u64, u64)> {
    c.checked_sub(1).map(|hi| (0, hi)).into_iter().collect()
}

/// The run of `attr > c` on an attribute whose largest value is `max`.
fn above(c: u64, max: u64) -> Vec<(u64, u64)> {
    (c < max).then_some((c + 1, max)).into_iter().collect()
}

#[test]
fn eq_matches_semantics() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE0 + case);
        let width = rng.gen_range(1usize..=16);
        let mask = (1u64 << width) - 1;
        let constant = rng.gen::<u64>() & mask;
        let values = random_values(&mut rng, mask);
        let mut xb = crossbar_with(&values, width);
        let mut pool = scratch();
        let mut b = CodeBuilder::new(&mut pool);
        let out = predicate::compile_eq_const(&mut b, ColRange::new(0, width), constant).unwrap();
        xb.execute(&b.finish()).unwrap();
        for (r, v) in values.iter().enumerate() {
            assert_eq!(xb.bits().get(r, out), *v == constant, "case {case} row {r}");
        }
    }
}

#[test]
fn lt_gt_match_semantics() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x17 + case);
        let width = rng.gen_range(1usize..=12);
        let mask = (1u64 << width) - 1;
        let constant = rng.gen::<u64>() & mask;
        let values = random_values(&mut rng, mask);

        let mut xb = crossbar_with(&values, width);
        let mut pool = scratch();
        let mut b = CodeBuilder::new(&mut pool);
        let attr = ColRange::new(0, width);
        let lt = predicate::compile_ranges(&mut b, attr, &below(constant)).unwrap();
        let gt = predicate::compile_ranges(&mut b, attr, &above(constant, mask)).unwrap();
        xb.execute(&b.finish()).unwrap();
        for (r, v) in values.iter().enumerate() {
            assert_eq!(xb.bits().get(r, lt), *v < constant, "case {case} lt row {r}");
            assert_eq!(xb.bits().get(r, gt), *v > constant, "case {case} gt row {r}");
        }
    }
}

#[test]
fn add_sub_match_semantics() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xADD + case);
        let wa = rng.gen_range(1usize..=10);
        let wb = rng.gen_range(1usize..=10);
        let ma = (1u64 << wa) - 1;
        let mb = (1u64 << wb) - 1;
        let wdst = wa.max(wb) + 1;
        let pairs: Vec<(u64, u64)> =
            (0..ROWS).map(|_| (rng.gen::<u64>() & ma, rng.gen::<u64>() & mb)).collect();
        let mut xb = Crossbar::new(ROWS, COLS);
        for (r, (a, b)) in pairs.iter().enumerate() {
            xb.write_row_bits(r, 0, wa, *a);
            xb.write_row_bits(r, 16, wb, *b);
        }
        let mut pool = scratch();
        let mut builder = CodeBuilder::new(&mut pool);
        arith::compile_add(
            &mut builder,
            ColRange::new(0, wa),
            ColRange::new(16, wb),
            ColRange::new(32, wdst),
        )
        .unwrap();
        arith::compile_sub(
            &mut builder,
            ColRange::new(0, wa),
            ColRange::new(16, wb),
            ColRange::new(64, wdst),
        )
        .unwrap();
        xb.execute(&builder.finish()).unwrap();
        let modulus = 1u64 << wdst;
        for (r, (a, b)) in pairs.iter().enumerate() {
            assert_eq!(xb.read_row_bits(r, 32, wdst), (a + b) % modulus, "case {case} add row {r}");
            assert_eq!(
                xb.read_row_bits(r, 64, wdst),
                a.wrapping_sub(*b) % modulus,
                "case {case} sub row {r}"
            );
        }
    }
}

#[test]
fn mul_matches_semantics() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x301 + case);
        let wa = rng.gen_range(1usize..=8);
        let wb = rng.gen_range(1usize..=5);
        let ma = (1u64 << wa) - 1;
        let mb = (1u64 << wb) - 1;
        let wdst = wa + wb;
        let pairs: Vec<(u64, u64)> =
            (0..ROWS).map(|_| (rng.gen::<u64>() & ma, rng.gen::<u64>() & mb)).collect();
        let mut xb = Crossbar::new(ROWS, COLS);
        for (r, (a, b)) in pairs.iter().enumerate() {
            xb.write_row_bits(r, 0, wa, *a);
            xb.write_row_bits(r, 16, wb, *b);
        }
        let mut pool = scratch();
        let mut builder = CodeBuilder::new(&mut pool);
        arith::compile_mul(
            &mut builder,
            ColRange::new(0, wa),
            ColRange::new(16, wb),
            ColRange::new(32, wdst),
        )
        .unwrap();
        xb.execute(&builder.finish()).unwrap();
        for (r, (a, b)) in pairs.iter().enumerate() {
            assert_eq!(xb.read_row_bits(r, 32, wdst), a * b, "case {case} row {r}");
        }
    }
}

#[test]
fn mux_update_matches_select_semantics() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x30C + case);
        let width = rng.gen_range(1usize..=12);
        let mask = (1u64 << width) - 1;
        let imm = rng.gen::<u64>() & mask;
        let rows: Vec<(u64, bool)> =
            (0..ROWS).map(|_| (rng.gen::<u64>() & mask, rng.gen::<bool>())).collect();
        let mut xb = Crossbar::new(ROWS, COLS);
        for (r, (v, sel)) in rows.iter().enumerate() {
            xb.write_row_bits(r, 0, width, *v);
            xb.bits_mut_unaccounted().set(r, 90, *sel);
        }
        let mut pool = scratch();
        let mut b = CodeBuilder::new(&mut pool);
        mux::compile_mux_update(&mut b, ColRange::new(0, width), imm, 90).unwrap();
        xb.execute(&b.finish()).unwrap();
        for (r, (v, sel)) in rows.iter().enumerate() {
            let expected = if *sel { imm } else { *v };
            assert_eq!(xb.read_row_bits(r, 0, width), expected, "case {case} row {r}");
        }
    }
}

#[test]
fn between_and_in_match_semantics() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB17 + case);
        let width = rng.gen_range(1usize..=10);
        let mask = (1u64 << width) - 1;
        let (lo, hi) = {
            let a = rng.gen::<u64>() & mask;
            let b = rng.gen::<u64>() & mask;
            (a.min(b), a.max(b))
        };
        let mut members: Vec<u64> =
            (0..rng.gen_range(1usize..5)).map(|_| rng.gen::<u64>() & mask).collect();
        members.sort_unstable();
        members.dedup();
        // the members as runs, adjacent ones merged
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &v in &members {
            match runs.last_mut() {
                Some(last) if last.1 + 1 == v => last.1 = v,
                _ => runs.push((v, v)),
            }
        }
        let values = random_values(&mut rng, mask);
        let mut xb = crossbar_with(&values, width);
        let mut pool = scratch();
        let mut b = CodeBuilder::new(&mut pool);
        let bw = predicate::compile_between_const(&mut b, ColRange::new(0, width), lo, hi).unwrap();
        let inn = predicate::compile_ranges(&mut b, ColRange::new(0, width), &runs).unwrap();
        xb.execute(&b.finish()).unwrap();
        for (r, v) in values.iter().enumerate() {
            assert_eq!(xb.bits().get(r, bw), (lo..=hi).contains(v), "case {case} between row {r}");
            assert_eq!(xb.bits().get(r, inn), members.contains(v), "case {case} in row {r}");
        }
    }
}

// ---------------------------------------------------------------------
// Exhaustive verifier at ≤ 6-bit operands.
//
// Every program runs on a crossbar whose scratch region starts out
// holding random bits, so an emitter that reads a scratch cell before
// writing it, or NORs onto a cell it never INITed (MAGIC's NOR only
// clears), turns into a wrong answer. Every column outside the
// destination and the scratch region must come back unchanged, and no
// NOR may take more than `MAX_FAN_IN` inputs.

/// Attribute columns of the exhaustive checks: lhs, rhs, destination.
const X_LHS: usize = 0;
const X_RHS: usize = 8;
const X_DST: usize = 16;
/// The scratch region, right of every attribute.
const X_SCRATCH: ColRange = ColRange { lo: 32, width: 64 };
const X_COLS: usize = 96;
/// The widest NOR a program may emit: an equality on a 64-bit
/// attribute. Wider ORs split into several NORs.
const MAX_FAN_IN: usize = 64;

/// Assert the fan-in rule on every op of `prog`.
fn assert_fan_in(prog: &Microprogram, what: &str) {
    for (i, op) in prog.ops().iter().enumerate() {
        if let MicroOp::NorManyCols { inputs, .. } = op {
            assert!(inputs.len() <= MAX_FAN_IN, "{what}: op {i} NORs {} inputs", inputs.len());
        }
    }
}

/// A crossbar of `rows` rows (a multiple of 64) whose row `r` holds
/// `fill(r)` as `(column, width, value)` triples, and whose scratch
/// region holds random bits drawn from `seed`.
fn verifier_crossbar(
    rows: usize,
    seed: u64,
    fill: impl Fn(usize) -> Vec<(usize, usize, u64)>,
) -> Crossbar {
    let mut xb = Crossbar::new(rows, X_COLS);
    for r in 0..rows {
        for (col, width, value) in fill(r) {
            xb.write_row_bits(r, col, width, value);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for col in X_SCRATCH.lo..X_SCRATCH.end() {
        for w in xb.bits_mut_unaccounted().col_mut(col) {
            *w = rng.gen();
        }
    }
    xb
}

/// Run `emit`'s program on `xb` and check that no column outside
/// `dst` and the scratch region changed. Returns `emit`'s output.
fn run_checked<T>(
    xb: &mut Crossbar,
    dst: ColRange,
    what: &str,
    emit: impl FnOnce(&mut CodeBuilder<'_>) -> T,
) -> T {
    run_checked_in(xb, X_SCRATCH, dst, what, emit).0
}

/// [`run_checked`] with the scratch pool over `scratch`; also returns
/// the program.
fn run_checked_in<T>(
    xb: &mut Crossbar,
    scratch: ColRange,
    dst: ColRange,
    what: &str,
    emit: impl FnOnce(&mut CodeBuilder<'_>) -> T,
) -> (T, Microprogram) {
    let before: Vec<Vec<u64>> = (0..xb.cols()).map(|c| xb.bits().col(c).to_vec()).collect();
    let mut pool = ScratchPool::new(scratch);
    let mut b = CodeBuilder::new(&mut pool);
    let out = emit(&mut b);
    let prog = b.finish();
    prog.validate(xb.rows(), xb.cols()).unwrap();
    assert_fan_in(&prog, what);
    xb.execute(&prog).unwrap();
    let writable =
        |c: usize| (c >= dst.lo && c < dst.end()) || (c >= scratch.lo && c < scratch.end());
    for (c, col) in before.iter().enumerate().filter(|&(c, _)| !writable(c)) {
        assert_eq!(xb.bits().col(c), &col[..], "{what}: column {c} outside dst and scratch moved");
    }
    (out, prog)
}

/// Rows that enumerate every `(a, b)` pair of a `wa`-bit lhs and a
/// `wb`-bit rhs: row `r` holds `a = r mod 2^wa`, `b = (r >> wa) mod 2^wb`.
fn pair_rows(wa: usize, wb: usize) -> usize {
    (1usize << (wa + wb)).max(64)
}

fn pair_of(r: usize, wa: usize, wb: usize) -> (u64, u64) {
    ((r & ((1 << wa) - 1)) as u64, ((r >> wa) & ((1 << wb) - 1)) as u64)
}

#[test]
fn arithmetic_is_exact_at_every_small_width() {
    type Emit =
        fn(&mut CodeBuilder<'_>, ColRange, ColRange, ColRange) -> Result<(), bbpim_sim::SimError>;
    type Reference = fn(u64, u64) -> u64;
    let ops: [(&str, Emit, Reference); 3] = [
        ("add", arith::compile_add, |a, b| a.wrapping_add(b)),
        ("sub", arith::compile_sub, |a, b| a.wrapping_sub(b)),
        ("mul", arith::compile_mul, |a, b| a.wrapping_mul(b)),
    ];
    for wa in 1..=6 {
        for wb in 1..=6 {
            let rows = pair_rows(wa, wb);
            for wd in 1..=12 {
                let (lhs, rhs, dst) =
                    (ColRange::new(X_LHS, wa), ColRange::new(X_RHS, wb), ColRange::new(X_DST, wd));
                for (k, (name, emit, reference)) in ops.iter().enumerate() {
                    let seed = ((wa * 7 + wb) * 13 + wd) as u64 * 3 + k as u64;
                    let mut xb = verifier_crossbar(rows, seed, |r| {
                        let (a, b) = pair_of(r, wa, wb);
                        vec![(X_LHS, wa, a), (X_RHS, wb, b), (X_DST, wd, !(a ^ b))]
                    });
                    let what = format!("{name} {wa}x{wb}->{wd}");
                    run_checked(&mut xb, dst, &what, |b| emit(b, lhs, rhs, dst).unwrap());
                    let modulus = (1u64 << wd) - 1;
                    for r in 0..rows {
                        let (a, b) = pair_of(r, wa, wb);
                        assert_eq!(
                            xb.read_row_bits(r, X_DST, wd),
                            reference(a, b) & modulus,
                            "{what}: a={a} b={b}"
                        );
                    }
                }
            }
        }
    }
}

/// A crossbar whose columns 0, 1, 2 enumerate `(a, b, cin)` (rows
/// 0..8, repeated), over dirty scratch.
fn adder_inputs(seed: u64) -> Crossbar {
    verifier_crossbar(64, seed, |r| (0..3).map(|c| (c, 1, (r as u64 >> c) & 1)).collect())
}

#[test]
fn full_adder_truth_table_over_dirty_scratch() {
    let check = |xb: &Crossbar, sum: usize, cout: usize, what: &str| {
        for r in 0..64 {
            let total = (r & 1) + ((r >> 1) & 1) + ((r >> 2) & 1);
            assert_eq!(xb.bits().get(r, sum), total & 1 == 1, "{what}: sum row {r}");
            assert_eq!(xb.bits().get(r, cout), total >= 2, "{what}: cout row {r}");
        }
    };
    let mut xb = adder_inputs(0xFA);
    let (sum, cout) = run_checked(&mut xb, ColRange::new(0, 0), "full adder", |b| {
        b.emit_full_adder(0, 1, 2).unwrap()
    });
    check(&xb, sum, cout, "full adder");
    // the in-place form: the sum overwrites one of its own inputs
    for target in 0..3 {
        let mut xb = adder_inputs(0xFB + target as u64);
        let what = format!("full adder into input {target}");
        let cout = run_checked(&mut xb, ColRange::new(target, 1), &what, |b| {
            b.emit_full_adder_into(0, 1, 2, target).unwrap()
        });
        check(&xb, target, cout, &what);
    }
}

#[test]
fn gates_are_exact_over_dirty_scratch() {
    type Gate = fn(&mut CodeBuilder<'_>) -> usize;
    type Reference = fn(bool, bool) -> bool;
    let gates: [(&str, Gate, Reference); 5] = [
        ("not", |b| b.emit_not(0).unwrap(), |a, _| !a),
        ("and", |b| b.emit_and(0, 1).unwrap(), |a, c| a && c),
        ("or", |b| b.emit_or(0, 1).unwrap(), |a, c| a || c),
        ("xor", |b| b.emit_xor(0, 1).unwrap(), |a, c| a ^ c),
        ("nor_many", |b| b.emit_nor_many(vec![0, 1]).unwrap(), |a, c| !(a || c)),
    ];
    for (k, (name, emit, reference)) in gates.iter().enumerate() {
        let mut xb = adder_inputs(0x6A7E + k as u64);
        let out = run_checked(&mut xb, ColRange::new(0, 0), name, emit);
        for r in 0..64 {
            let want = reference(r & 1 == 1, r & 2 == 2);
            assert_eq!(xb.bits().get(r, out), want, "{name}: row {r}");
        }
    }
}

#[test]
fn half_adder_truth_table_over_dirty_scratch() {
    // a fresh sum column, then the sum over `a`, then over `b`
    for target in [X_DST, 0, 1] {
        let mut xb = adder_inputs(0x4A + target as u64);
        let what = format!("half adder into column {target}");
        let cout = run_checked(&mut xb, ColRange::new(target, 1), &what, |b| {
            b.emit_half_adder_into(0, 1, target).unwrap()
        });
        for r in 0..64 {
            let total = (r & 1) + ((r >> 1) & 1);
            assert_eq!(xb.bits().get(r, target), total & 1 == 1, "{what}: sum row {r}");
            assert_eq!(xb.bits().get(r, cout), total == 2, "{what}: cout row {r}");
        }
    }
}

#[test]
fn predicates_are_exact_against_every_small_constant() {
    for width in 1..=6usize {
        let attr = ColRange::new(X_LHS, width);
        let values = |r: usize| (r % (1 << width)) as u64;
        let fresh = |seed: u64| verifier_crossbar(64, seed, |r| vec![(X_LHS, width, values(r))]);
        let check = |xb: &Crossbar, out: usize, what: &str, want: &dyn Fn(u64) -> bool| {
            for r in 0..64 {
                assert_eq!(xb.bits().get(r, out), want(values(r)), "{what}: value {}", values(r));
            }
        };
        let none = ColRange::new(X_DST, 0);
        for c in 0..(1u64 << width) {
            let seed = (width as u64) << 8 | c;
            let mut xb = fresh(seed);
            let out = run_checked(&mut xb, none, "eq", |b| {
                predicate::compile_ranges(b, attr, &[(c, c)]).unwrap()
            });
            check(&xb, out, &format!("eq {width}-bit {c}"), &|v| v == c);
            let mut xb = fresh(seed ^ 1);
            let out = run_checked(&mut xb, none, "lt", |b| {
                predicate::compile_ranges(b, attr, &below(c)).unwrap()
            });
            check(&xb, out, &format!("lt {width}-bit {c}"), &|v| v < c);
            let mut xb = fresh(seed ^ 2);
            let out = run_checked(&mut xb, none, "gt", |b| {
                predicate::compile_ranges(b, attr, &above(c, (1 << width) - 1)).unwrap()
            });
            check(&xb, out, &format!("gt {width}-bit {c}"), &|v| v > c);
            for hi in c..(1u64 << width) {
                let mut xb = fresh(seed << 8 | hi);
                let out = run_checked(&mut xb, none, "between", |b| {
                    predicate::compile_ranges(b, attr, &[(c, hi)]).unwrap()
                });
                check(&xb, out, &format!("between {width}-bit {c}..={hi}"), &|v| {
                    (c..=hi).contains(&v)
                });
            }
        }
    }
}

/// Every list of sorted, disjoint, inclusive runs over `0..domain`.
fn every_run_list(domain: u64) -> Vec<Vec<(u64, u64)>> {
    fn from(floor: u64, domain: u64, prefix: &mut Vec<(u64, u64)>, out: &mut Vec<Vec<(u64, u64)>>) {
        out.push(prefix.clone());
        for lo in floor..domain {
            for hi in lo..domain {
                prefix.push((lo, hi));
                from(hi + 1, domain, prefix, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    from(0, domain, &mut Vec::new(), &mut out);
    out
}

/// The prefix cubes covering `[lo, hi]` over `width` bits, as (first
/// value, free bits), found top-down: a node of the binary value tree
/// inside the run is a cube, one straddling it splits.
fn reference_cubes(width: usize, lo: u64, hi: u64) -> Vec<(u64, usize)> {
    fn node(first: u64, free: usize, lo: u64, hi: u64, out: &mut Vec<(u64, usize)>) {
        let last = first + ((1u128 << free) - 1) as u64;
        if last < lo || first > hi {
            return;
        }
        if lo <= first && last <= hi {
            out.push((first, free));
            return;
        }
        node(first, free - 1, lo, hi, out);
        node(first + (1 << (free - 1)), free - 1, lo, hi, out);
    }
    let mut out = Vec::new();
    node(0, width, lo, hi, &mut out);
    out
}

/// The closed form of `compile_ranges`' cycles on a fresh builder with
/// room for every complement and 64 pending cubes (see `predicate`'s
/// module docs), from the reference cubes.
fn ranges_cycles(width: usize, runs: &[(u64, u64)]) -> u64 {
    let cubes: Vec<(u64, usize)> =
        runs.iter().flat_map(|&(lo, hi)| reference_cubes(width, lo, hi)).collect();
    let ones = |(v, free): (u64, usize)| -> Vec<usize> {
        (free..width).filter(|i| v >> i & 1 == 1).collect()
    };
    match cubes.as_slice() {
        [] => 3,
        [(_, free)] if *free == width => 1,
        [cube] => 2 * ones(*cube).len() as u64 + 2,
        many => {
            let mut complemented = std::collections::BTreeSet::new();
            let mut wide = 0;
            for &(v, free) in many {
                if width - free >= 2 {
                    wide += 1;
                    complemented.extend(ones((v, free)));
                } else if v >> free & 1 == 0 {
                    complemented.insert(free);
                }
            }
            let q = many.len() as u64;
            2 * complemented.len() as u64 + 2 * wide + 1 + q.div_ceil(64) + 2
        }
    }
}

#[test]
fn ranges_are_exact_against_every_small_run_list() {
    for width in 1..=3usize {
        let domain = 1u64 << width;
        let attr = ColRange::new(X_LHS, width);
        let values = |r: usize| r as u64 % domain;
        let none = ColRange::new(X_DST, 0);
        for (k, runs) in every_run_list(domain).iter().enumerate() {
            let seed = (width as u64) << 20 | k as u64;
            let mut xb = verifier_crossbar(64, seed, |r| vec![(X_LHS, width, values(r))]);
            let what = format!("ranges {width}-bit {runs:?}");
            let (out, prog) = run_checked_in(&mut xb, X_SCRATCH, none, &what, |b| {
                predicate::compile_ranges(b, attr, runs).unwrap()
            });
            assert_eq!(prog.cycles(), ranges_cycles(width, runs), "{what}: cycles");
            for r in 0..64 {
                let v = values(r);
                let want = runs.iter().any(|&(lo, hi)| (lo..=hi).contains(&v));
                assert_eq!(xb.bits().get(r, out), want, "{what}: value {v}");
            }
        }
    }
}

/// Seeded run lists over a `width`-bit attribute: the maximal runs of a
/// random key set, some split where they are adjacent.
fn seeded_runs(rng: &mut StdRng, width: usize) -> Vec<(u64, u64)> {
    let domain = 1u64 << width;
    let density = rng.gen_range(1u64..=8);
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for v in 0..domain {
        if rng.gen_range(0u64..8) >= density {
            continue;
        }
        match runs.last_mut() {
            Some(last) if last.1 + 1 == v && rng.gen_range(0u64..4) > 0 => last.1 = v,
            _ => runs.push((v, v)),
        }
    }
    runs
}

#[test]
fn ranges_are_exact_on_seeded_run_lists_up_to_twelve_bits() {
    const WIDE: ColRange = ColRange { lo: 96, width: 160 };
    for case in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(0x5A9 + case);
        let width = rng.gen_range(1usize..=12);
        let runs = seeded_runs(&mut rng, width);
        let rows = (1usize << width).max(64);
        let attr = ColRange::new(0, width);
        let mut xb = Crossbar::new(rows, COLS);
        for r in 0..rows {
            xb.write_row_bits(r, 0, width, (r % (1 << width)) as u64);
        }
        for col in WIDE.lo..WIDE.end() {
            for w in xb.bits_mut_unaccounted().col_mut(col) {
                *w = rng.gen();
            }
        }
        let what = format!("case {case}: {width}-bit, {} runs", runs.len());
        let (out, prog) = run_checked_in(&mut xb, WIDE, ColRange::new(0, 0), &what, |b| {
            predicate::compile_ranges(b, attr, &runs).unwrap()
        });
        assert_eq!(prog.cycles(), ranges_cycles(width, &runs), "{what}: cycles");
        for r in 0..rows {
            let v = (r % (1 << width)) as u64;
            let want = runs.iter().any(|&(lo, hi)| (lo..=hi).contains(&v));
            assert_eq!(xb.bits().get(r, out), want, "{what}: value {v}");
        }
    }
}

#[test]
fn comparison_cycles_follow_the_closed_form() {
    for width in 1..=6usize {
        let attr = ColRange::new(X_LHS, width);
        let max = (1u64 << width) - 1;
        let cycles = |emit: &dyn Fn(&mut CodeBuilder<'_>) -> usize| {
            let mut pool = scratch();
            let mut b = CodeBuilder::new(&mut pool);
            emit(&mut b);
            b.finish().cycles()
        };
        for c in 0..=max {
            for (what, runs) in [("eq", vec![(c, c)]), ("lt", below(c)), ("gt", above(c, max))] {
                let got = cycles(&|b| predicate::compile_ranges(b, attr, &runs).unwrap());
                assert_eq!(got, ranges_cycles(width, &runs), "{what} {width}-bit {c}");
            }
            for hi in c..=max {
                let between = cycles(&|b| predicate::compile_ranges(b, attr, &[(c, hi)]).unwrap());
                assert_eq!(between, ranges_cycles(width, &[(c, hi)]), "between {c}..={hi}");
            }
        }
    }
}

/// Every predicate compiles in `WORKING_COLS` scratch columns and in
/// the 24 every layout reserves (`MIN_SCRATCH_COLS`), at 64 bits and at
/// any run count: 64 seeded 64-bit values per crossbar, run lists drawn
/// around them.
#[test]
fn ranges_compile_in_the_working_set_at_sixty_four_bits() {
    for pool_cols in [WORKING_COLS, 24] {
        let scratch = ColRange::new(64, pool_cols);
        for case in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(0x64B + case);
            let values: Vec<u64> = (0..ROWS).map(|_| rng.gen()).collect();
            let mut bounds: Vec<u64> =
                values.iter().map(|&v| v ^ (rng.gen::<u64>() >> rng.gen_range(0u32..64))).collect();
            bounds.extend(&values);
            bounds.extend([0, u64::MAX]);
            bounds.sort_unstable();
            bounds.dedup();
            // consecutive bound pairs, every other one kept
            let runs: Vec<(u64, u64)> = bounds
                .chunks_exact(2)
                .map(|p| (p[0], p[1]))
                .filter(|_| rng.gen_range(0u64..3) > 0)
                .take(1 + case as usize * 2)
                .collect();
            let mut xb = Crossbar::new(ROWS, 64 + pool_cols);
            for (r, v) in values.iter().enumerate() {
                xb.write_row_bits(r, 0, 64, *v);
            }
            for col in scratch.lo..scratch.end() {
                for w in xb.bits_mut_unaccounted().col_mut(col) {
                    *w = rng.gen();
                }
            }
            let what = format!("{pool_cols} columns, case {case}: {} runs", runs.len());
            let (out, _) = run_checked_in(&mut xb, scratch, ColRange::new(0, 0), &what, |b| {
                predicate::compile_ranges(b, ColRange::new(0, 64), &runs).unwrap()
            });
            for (r, v) in values.iter().enumerate() {
                let want = runs.iter().any(|&(lo, hi)| (lo..=hi).contains(v));
                assert_eq!(xb.bits().get(r, out), want, "{what}: value {v:#x}");
            }
        }
        // an equality on all-ones: 64 complements, in any pool
        let mut xb = Crossbar::new(ROWS, 64 + pool_cols);
        for r in 0..ROWS {
            xb.write_row_bits(r, 0, 64, if r % 3 == 0 { u64::MAX } else { u64::MAX << (r % 64) });
        }
        let what = format!("eq u64::MAX in {pool_cols} columns");
        let (out, _) = run_checked_in(&mut xb, scratch, ColRange::new(0, 0), &what, |b| {
            predicate::compile_eq_const(b, ColRange::new(0, 64), u64::MAX).unwrap()
        });
        for r in 0..ROWS {
            let want = r % 3 == 0 || r % 64 == 0;
            assert_eq!(xb.bits().get(r, out), want, "{what}: row {r}");
        }
    }
}
