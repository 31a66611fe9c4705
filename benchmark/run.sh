#!/usr/bin/env bash
# The command BENCHMARK.json names. A driver runs, from the root of a checkout,
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# and reads the last line of standard output: x2s-bench's (tracing off, the
# end-to-end metrics) or x2s-trace's (the per-layer metrics). Only the binary
# asked for is built (a no-op after the first time), so a layer API change
# that breaks x2s-trace leaves the end-to-end numbers standing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

trace=0
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --trace) trace="$2"; shift 2 ;;
    *) pass+=("$1"); shift ;;
  esac
done

if [ "$trace" = "1" ]; then
  tool=(x2s-trace)
else
  tool=(x2s-bench run)
fi

# cargo's own output goes to stderr; stdout stays the benchmark's
cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" --bin "${tool[0]}" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/${tool[0]}" "${tool[@]:1}" "${pass[@]}"
