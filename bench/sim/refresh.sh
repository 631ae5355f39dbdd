#!/bin/sh
# Regenerates bench/sim/: `bbpim-perf all` at the default seed with every
# host-clock metric stripped — the rows CI compares a fresh run against
# (`bbpim-perf check bench/sim bench-out/perf`). A host-only PR never runs
# this; a PR that changes the model does, and says which rows moved.
set -eu
cd "$(dirname "$0")/../.."
tmp=bench-out/sim-refresh
cargo run --release --offline --quiet --manifest-path bench/perf/Cargo.toml -- \
  all --seconds 1 --out "$tmp"
for w in ssb_modes star_join stream_htap serve_tenants; do
  jq 'del(.metrics[] | select(.clock=="host"))' "$tmp/$w.json" > "bench/sim/$w.json"
done
sed -i "s/^# rustc: .*/# rustc: $(rustc -V)/" bench/sim/README
