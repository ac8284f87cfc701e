#!/bin/sh
# Writes the four fixed-seed campaigns whose bytes a change must keep into
# OUT/{train,curriculum,robustness,generalization}. QPGRAD_BACKEND, if set,
# picks the backend as it does for any command. Under QPGRAD_BACKEND=numpy
# the four are perfbench-sized (a few seconds each), since the full set
# takes far longer than that on numpy: a 3-epoch training run on perfbench's
# converging seed, a curriculum run with a reduced failure budget and
# validation, and the two evaluations with fewer episodes and a smaller
# grid. Compare two trees with
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
checkpoints="--set eval.checkpoints=perfbench/checkpoints"
if [ "${QPGRAD_BACKEND:-}" = numpy ]; then
    run train --seed 11400714819323210830 --seeds 1 --set train.lambda=0.3 --set train.epochs=3 \
        --out "$out/train"
    run curriculum --seed 11400714819323210830 --seeds 1 --set train.lambda=0.3 \
        --set curriculum.max_failures=30 --set curriculum.validation_episodes=10 \
        --set curriculum.validation_threshold=20 --out "$out/curriculum"
    run eval-robustness --seed 5 $checkpoints --set eval.episodes=3 --out "$out/robustness"
    run eval-generalization --seed 6 $checkpoints --set grid.angle_edges=-2.75,-1.0,1.0,2.75 \
        --set grid.velocity_edges=0.0,0.13,0.26 --set grid.cell_episodes=2 --out "$out/generalization"
else
    run train --seed 12345 --seeds 2 --set train.lambda=0.3 --out "$out/train"
    run curriculum --seed 4 --seeds 2 --out "$out/curriculum"
    run eval-robustness --seed 5 $checkpoints --out "$out/robustness"
    run eval-generalization --seed 6 $checkpoints --out "$out/generalization"
fi
