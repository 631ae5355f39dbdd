#!/usr/bin/env bash
# The repository's grep lint rules, one named check per rule, so a failure
# names the rule it broke. Every check runs; the script prints `ok` or
# `FAIL` per rule, a failing rule's offending lines above its name, and
# exits 1 if any rule failed.
#
#     bash scripts/lint.sh
#
# "Non-test" code is a file cut at its first `#[cfg(test)]`.
set -u
cd "$(dirname "$0")/.."

# The non-test part of file $1.
nontest() { sed '/^#\[cfg(test)\]/,$d' "$1"; }

# --- library code --------------------------------------------------------

# Clippy already runs with -D warnings; this only stops the allow-list from
# growing back in any library crate: the scan context and the tables' own
# switches removed every threaded argument list.
no_argument_list_allows() {
  if grep -rnE 'allow\(clippy::(too_many_arguments|type_complexity)\)' crates/*/src; then return 1; fi
}

# A filter result stays one packed bit-vector (`maskwire::PackedBits`) on
# the star path: no unpacked copy in the key bitmap, the star storage or
# the semijoin.
no_unpacked_masks_on_the_star_path() {
  for f in crates/bbpim-cluster/src/bitmap.rs crates/bbpim-cluster/src/star.rs crates/bbpim-core/src/semijoin.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'Vec<bool>|\[bool\]'; then echo "in $f"; return 1; fi
  done
}

# The retired snapshot path stays out of `bbpim-bench` (its tests still
# assert that `--json` is rejected; the bracketed letters stop the
# patterns matching this file).
no_snapshot_path_in_the_harness() {
  for f in $(find crates/bbpim-bench/src -name '*.rs'); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'write_[s]napshot|"--json"|bench_[g]ate'; then echo "in $f"; return 1; fi
  done
}

# `bench/sim/` carries the simulated clock only.
no_host_rows_in_bench_sim() {
  if grep -n '"clock": "host"' bench/sim/*.json; then return 1; fi
}

# A `PimTable` holds its schema, zone maps and domain index, never the
# rows (a `Relation`) the image already holds. Its constructors from a
# `Relation` live in `loader.rs`.
no_catalog_in_pim_table() {
  if sed '/^#\[cfg(test)\]/,$d' crates/bbpim-core/src/table.rs | grep -nw 'Relation'; then return 1; fi
}

# The `Cluster`, which owns the join-plan cache, holds no `Relation`
# either (an empty match fails, so a renamed struct cannot pass
# vacuously).
no_catalog_in_cluster() {
  cluster=$(sed -n '/^pub struct Cluster<S: Storage> {/,/^}/p' crates/bbpim-cluster/src/engine.rs)
  if [ -z "$cluster" ]; then echo "no pub struct Cluster in engine.rs"; return 1; fi
  if echo "$cluster" | grep -nw 'Relation'; then return 1; fi
}

# The star storage model holds nothing: its planner reads the dimension
# images and the cluster owns the join-plan cache.
no_field_in_star() {
  if ! grep -q '^pub struct Star;$' crates/bbpim-cluster/src/star.rs; then echo "Star regained a field"; return 1; fi
}

# The pre-joined storage model holds nothing either: every table owns its
# mode and its GROUP-BY model.
no_field_in_prejoined() {
  if ! grep -q '^pub struct PreJoined;$' crates/bbpim-cluster/src/engine.rs; then echo "PreJoined regained a field"; return 1; fi
}

# The star storage names neither the line rule nor the fold: its GROUP BY
# runs through the one host gather, `Scan::host_gb`, so a second gather
# cannot grow back.
no_host_gather_in_star() {
  if sed '/^#\[cfg(test)\]/,$d' crates/bbpim-cluster/src/star.rs | grep -nwE 'ScatteredRead|fold_record'; then echo "a second host gather in star.rs"; return 1; fi
}

# The star schema is stated once, in `bbpim_db::ssb::star::DIMENSIONS`:
# no `StarSchema` catalog copy comes back.
no_star_schema_copy() {
  if grep -rnw 'struct StarSchema' crates src tests examples; then echo "StarSchema is back"; return 1; fi
}

# No non-test code of the two star engines (the cluster's, Monet's
# `mnt_reg`) or of the pre-join names a fact FK or a dimension key itself.
no_fk_or_key_named_outside_dimensions() {
  for f in $(find crates/bbpim-monet/src crates/bbpim-cluster/src -name '*.rs') crates/bbpim-db/src/ssb/mod.rs crates/bbpim-db/src/ssb/prejoin.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nwE 'lo_custkey|lo_suppkey|lo_partkey|lo_orderdate|c_custkey|s_suppkey|p_partkey|d_datekey'; then echo "in $f: read it from DIMENSIONS"; return 1; fi
  done
}

# No code but `DimMeta::row`, the one positional FK probe, builds a
# `DanglingKey`.
no_dangling_key_outside_the_fk_probe() {
  for f in $(find crates -path '*/src/*.rs' ! -path crates/bbpim-db/src/ssb/star.rs ! -path crates/bbpim-db/src/error.rs); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nw 'DanglingKey {'; then echo "in $f: probe through DimMeta::row"; return 1; fi
  done
}

# The host channel's price list is in one place: no non-test code outside
# `bbpim-sim` reads an `XferPolicy` lever or asks a module for its policy;
# it asks `PimModule` for the price (struct literals such as `paper`'s
# lever table set levers, they do not read them).
no_transfer_lever_read_outside_pim_module() {
  for f in $(find crates/*/src src -name '*.rs' ! -path 'crates/bbpim-sim/src/*'); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '\.(compress_masks|batch_dispatch|module_reduce)\b|\.policy\(\)'; then echo "in $f: ask PimModule for the price"; return 1; fi
  done
}

# The signatures (from `fn` to the line that opens the body or ends the
# declaration) of the functions matching the regex $1 in the non-test code
# of the files that follow, each line prefixed with its file.
signatures() {
  local names=$1; shift
  for f in "$@"; do
    nontest "$f" | awk -v f="$f" -v re="fn ($names)[<(]" '
      $0 ~ re { on = 1 }
      on { print f ": " $0; if ($0 ~ /[{;][[:space:]]*$/) on = 0 }'
  done
}

# The signatures of every method of an `impl Scan` block in the non-test
# code of `bbpim-core`.
scan_signatures() {
  for f in $(find crates/bbpim-core/src -name '*.rs'); do
    nontest "$f" | awk -v f="$f" '
      /^impl Scan<.*> \{/ { inside = 1 }
      inside && /^}/ { inside = 0 }
      inside && /^    (pub(\(crate\))? )?fn / { on = 1 }
      on { print f ": " $0; if ($0 ~ /[{;][[:space:]]*$/) on = 0 }'
  done
}

# The engine mode and the GROUP-BY model are the table's (`PimTable`
# owns both, beside its pruning switch): no `run_query`, `Scan` method or
# `Storage::exec_shard` takes either as a parameter. Each signature set
# must be found, so a renamed function cannot pass vacuously.
no_mode_or_model_parameter() {
  local run exec scan
  run=$(signatures run_query crates/bbpim-core/src/engine.rs)
  exec=$(signatures exec_shard crates/bbpim-cluster/src/engine.rs crates/bbpim-cluster/src/star.rs)
  scan=$(scan_signatures)
  if [ -z "$run" ] || [ -z "$exec" ] || [ -z "$scan" ]; then
    echo "a signature set is empty: run_query, exec_shard or the Scan methods moved"; return 1
  fi
  if printf '%s\n' "$run" "$exec" "$scan" | grep -wE 'EngineMode|GroupByModel'; then return 1; fi
}

# An UPDATE is PIM work only: the non-test code of `mutation.rs` reads no
# record under the mask (its domain-index upkeep forgets the prefixes it
# writes), and the domain index has no pre-update read list.
no_host_read_in_update() {
  if nontest crates/bbpim-core/src/mutation.rs | grep -nF -e '.read(' -e '.mask('; then return 1; fi
  if grep -nw 'UpdateReads' crates/bbpim-db/src/domain.rs; then return 1; fi
}

# An atom has one meaning from planner to crossbar: `ResolvedAtom::runs`
# turns it into value runs clipped to the attribute's width, and the mask
# builders take only terms of runs (`filter_exec::RangeTerm`). No mirror
# comparison enum comes back in `bbpim-sim`, and no non-test code of
# `bbpim-core` matches on or builds a `ResolvedAtom` variant.
one_atom_meaning() {
  local status=0
  if grep -rnE '\benum Cmp\b' crates/bbpim-sim/src; then echo "a comparison enum in bbpim-sim: compile the planner's runs"; status=1; fi
  for f in $(find crates/bbpim-core/src -name '*.rs'); do
    if nontest "$f" | grep -nE 'ResolvedAtom::[A-Z]'; then echo "in $f: build a RangeTerm from ResolvedAtom::runs"; status=1; fi
  done
  return $status
}

# --- tests ---------------------------------------------------------------

# The integration suites share one fixture module: no suite defines a
# shared fixture of its own outside `tests/common`.
no_shared_fixture_copy_outside_tests_common() {
  if grep -rnE 'fn (shared_model|fnv1a|assert_pinned)\b|trait Replay\b' tests --exclude-dir=common; then echo "use the fixture in tests/common"; return 1; fi
}

# --- the scheduler -------------------------------------------------------

# One admission loop: the crate-private `Core` of `bbpim-sched` is the
# only non-test code that builds the chain kernel.
one_kernel_driving_loop() {
  n=$(for f in $(find crates src -name '*.rs'); do sed '/^#\[cfg(test)\]/,$d' "$f"; done | grep -c 'Kernel::new(')
  if [ "$n" -ne 1 ]; then echo "Kernel::new has $n non-test call sites"; return 1; fi
}

# The tenant server (`bbpim_sched::serve`) is a front-end of that loop: it
# neither drives the kernel nor mutates or resolves against the engine
# itself.
no_kernel_in_the_serve_module() {
  if grep -rnE 'Kernel|apply_mutation\(|resolve_query_demand\(|compile_mutation_demand\(' crates/bbpim-sched/src/serve.rs crates/bbpim-sched/src/serve; then return 1; fi
}

# One scatter/gather surface: `StreamEngine` is declared once, in
# `bbpim-cluster`, whose `Cluster` implements it with the real bodies —
# no inherent twin of its methods on the cluster and no forwarding impl
# in the scheduler (the declaration must be found, so a renamed trait
# cannot pass vacuously).
one_scatter_gather_surface() {
  local status=0
  if ! grep -rq '^pub trait StreamEngine\b' crates/bbpim-cluster/src; then echo "no pub trait StreamEngine in bbpim-cluster"; status=1; fi
  if grep -rn 'trait StreamEngine\b' crates src tests examples bench/perf/src | grep -v '^crates/bbpim-cluster/src/'; then echo "StreamEngine declared outside bbpim-cluster"; status=1; fi
  for f in $(find crates/bbpim-sched/src -name '*.rs'); do
    if nontest "$f" | grep -nE 'StreamEngine for [A-Za-z]*Cluster\b'; then echo "in $f: the cluster implements StreamEngine itself"; status=1; fi
  done
  if grep -rnE '^\s*pub fn (plan_shards|run_on_shard|merge_executions|mutate_on_lanes|plan_mutation_lanes|ingest_lanes)\b' crates/bbpim-cluster/src; then echo "an inherent twin of a StreamEngine method in bbpim-cluster"; status=1; fi
  return $status
}

failed=()
for rule in \
  no_argument_list_allows \
  no_unpacked_masks_on_the_star_path \
  no_snapshot_path_in_the_harness \
  no_host_rows_in_bench_sim \
  no_catalog_in_pim_table \
  no_catalog_in_cluster \
  no_field_in_star \
  no_field_in_prejoined \
  no_host_gather_in_star \
  no_star_schema_copy \
  no_fk_or_key_named_outside_dimensions \
  no_dangling_key_outside_the_fk_probe \
  no_transfer_lever_read_outside_pim_module \
  no_mode_or_model_parameter \
  no_host_read_in_update \
  one_atom_meaning \
  no_shared_fixture_copy_outside_tests_common \
  one_kernel_driving_loop \
  no_kernel_in_the_serve_module \
  one_scatter_gather_surface; do
  if "$rule"; then
    echo "ok   $rule"
  else
    echo "FAIL $rule"
    failed+=("$rule")
  fi
done
if [ "${#failed[@]}" -gt 0 ]; then
  echo "lint: ${#failed[@]} rule(s) failed: ${failed[*]}"
  exit 1
fi
