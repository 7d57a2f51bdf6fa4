#!/usr/bin/env bash
# Build the benchmark and the server from this checkout's sources, then
# run one workload:
#   bash duoperf/run.sh --workload mas-nli|serve-refine \
#     --seed N --seconds S --trace 0|1
# The benchmark is the dune package in duoperf/.  It is built in a
# workspace of its own, .duoperf/ws, whose entries link to duoperf/src,
# lib/ and bin/, so the root project's build never compiles it and the
# build products stay in .duoperf/ws/_build.  Build output goes to
# stderr; the last line of stdout is the result.
set -eu
cd "$(dirname "$0")/.."
for d in lib bin duoperf/src; do
  [ -d "$d" ] || { echo "run.sh: $d/ is missing: run from a full checkout" >&2; exit 2; }
done
ws=.duoperf/ws
mkdir -p "$ws"
ln -sfn ../../duoperf/dune-project "$ws/dune-project"
ln -sfn ../../duoperf/src "$ws/duoperf"
ln -sfn ../../lib "$ws/lib"
ln -sfn ../../bin "$ws/bin"
# release profile: the root project's warnings-as-errors set does not
# apply here; --cache=disabled keeps every build product in the checkout
dune build --root "$ws" --profile release --cache=disabled -j 2 --display quiet \
  ./duoperf/duoperf.exe ./bin/duoserve.exe 1>&2
exec "$ws/_build/default/duoperf/duoperf.exe" "$@"
