#!/bin/sh
# Writes the four fixed-seed campaigns whose bytes a change must keep into
# OUT/{train,curriculum,robustness,generalization}. QPGRAD_BACKEND, if set,
# picks the backend as it does for any command. Compare two trees with
#   diff -r -x manifest.txt PARENT_OUT CHANGE_OUT
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 1
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
run() { PYTHONPATH=src python -m qpgrad.cli "$@"; }
run train --seed 12345 --seeds 2 --set train.lambda=0.3 --out "$out/train"
run curriculum --seed 4 --seeds 2 --out "$out/curriculum"
run eval-robustness --seed 5 --set eval.checkpoints=perfbench/checkpoints --out "$out/robustness"
run eval-generalization --seed 6 --set eval.checkpoints=perfbench/checkpoints --out "$out/generalization"
