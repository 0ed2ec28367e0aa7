#!/usr/bin/env bash
# Same-seed check for refactors: builds <base-ref> and the current working
# tree, runs the deterministic simulator sweeps on both and diffs them:
#   - chaos_runner --seeds 20 --base-seed 1, with and without --snapshots
#     (stdout plus exit code);
#   - the `sim` rows of bench_fig6_ingress --quick.
#
#   tools/check_same_seed.sh <base-ref>
#
# Exit 0 = identical, 1 = some output differs (diff printed), 2 = usage or
# build error. The base is exported with `git archive` into a scratch dir
# under $TMPDIR, which also holds both builds and every output and is removed
# on exit. JOBS sets build parallelism (default 2). CI runs it on every pull
# request against the merge base (the `same-seed` job); a change that means
# to alter modelled behaviour is expected to differ and carries the
# `changes-behaviour` label, which skips that job.
set -euo pipefail

[[ $# -eq 1 ]] || { echo "usage: $0 <base-ref>" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
git -C "$root" rev-parse --verify --quiet "$1^{commit}" > /dev/null ||
  { echo "check_same_seed: unknown ref '$1'" >&2; exit 2; }
work=$(mktemp -d "${TMPDIR:-/tmp}/check_same_seed.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$1" | tar -x -C "$work/base"

for side in base head; do
  src=$work/base
  [[ $side == head ]] && src=$root
  out=$work/$side
  echo "check_same_seed: building and running $side ($src)"
  if ! { cmake -S "$src" -B "$out-build" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$out-build" -j "${JOBS:-2}" --target chaos_runner bench_fig6_ingress
       } > "$out-build.log" 2>&1; then
    tail -n 30 "$out-build.log" >&2
    exit 2
  fi
  # Run inside the scratch dir so WAL files and bench JSON stay out of the
  # trees; a failing seed's exit code is part of the compared output.
  (cd "$work" && set +e
   "$out-build/tools/chaos_runner" --seeds 20 --base-seed 1 > "$out.chaos" 2> /dev/null
   echo "exit=$?" >> "$out.chaos"
   "$out-build/tools/chaos_runner" --seeds 20 --base-seed 1 --snapshots \
     > "$out.chaos_snapshots" 2> /dev/null
   echo "exit=$?" >> "$out.chaos_snapshots"
   "$out-build/bench/bench_fig6_ingress" --quick --out "$out.fig6.json" 2> /dev/null |
     grep '^sim ' > "$out.fig6_sim"
   true)
done

status=0
for name in chaos chaos_snapshots fig6_sim; do
  if diff -u "$work/base.$name" "$work/head.$name"; then
    echo "check_same_seed: $name: identical ($(wc -l < "$work/head.$name") lines)"
  else
    echo "check_same_seed: $name: DIFFERS from $1"
    status=1
  fi
done
exit "$status"
