#!/usr/bin/env bash
# Everything that must hold before the benchmark is trusted: it builds, is
# formatted, lints clean, its unit tests pass, both binaries run every
# workload with every check on, and two interleaved sets of runs of the same
# code agree with each other through `compare`.
#
#   benchmark/check.sh            quick sizes (about a minute after the build)
#   benchmark/check.sh --full     the A/A comparison at full size: 2 x 5 runs
#                                 of all four workloads, about ten minutes
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"

size=(--quick)
pairs=2
if [ "${1:-}" = "--full" ]; then
  size=()
  pairs=5
fi

cargo build --release --offline
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline

bin="${CARGO_TARGET_DIR:-target}/release"
out="out/check"
rm -rf "$out"

# same workloads, R cut, every check still on
"$bin/x2s-bench" run --quick --workload all --out "$out/quick"
"$bin/x2s-trace" --quick --workload all --out "$out/quick"

# A/A: the same binary as both sides, runs interleaved A B A B ... so both
# sides see the same weather; the six count-based metrics must then agree
# exactly and every wall-clock median within its bound
a=()
b=()
for i in $(seq 1 "$pairs"); do
  for side in a b; do
    "$bin/x2s-bench" run "${size[@]}" --workload all --out "$out/$side$i" >/dev/null
    for f in "$out/$side$i"/run-*.json; do
      if [ "$side" = a ]; then a+=("$f"); else b+=("$f"); fi
    done
  done
done
"$bin/x2s-bench" compare --a "${a[@]}" --b "${b[@]}"
echo "check.sh: all good"
