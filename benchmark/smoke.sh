#!/bin/sh
# Smoke test of the benchmark: the full code path at fat-tree(4) with four
# updates, about twenty seconds after the build. `run` and `trace` check
# every verdict, counter and self-check themselves, and validate each
# child's result against BENCHMARK.json (every declared metric present,
# names and units equal to the benchmark's own), exiting non-zero if
# anything is off. Three seeds, because a generator that only works at the
# default seed is a bug.
set -eu
cd "$(dirname "$0")/.."
bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
for seed in 2016 31337 8675309; do
    bench run --smoke --seed "$seed" 2>/dev/null
done
bench trace --smoke 2>/dev/null
echo "benchmark smoke: ok"
