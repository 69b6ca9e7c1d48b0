#!/bin/sh
# Command-line tour: build a problem bundle, solve it, resume from a
# checkpoint, inspect a dense tensor, and run the verification suites.
set -eu

OUT=$(mktemp -d)
echo "working in $OUT"

# 1. Materialize a synthetic benchmark problem (also runs all four solvers
#    at two rank bounds and writes plot-ready CSV traces).  Exit code 2:
#    some run used up its 40 iterations.
tuckeropt bench over-rank --out "$OUT/bench" --max-iters 40 --delta 0.5 \
    || [ $? -eq 2 ]

# 2. Solve the saved bundle directly, keeping a checkpoint.
tuckeropt complete "$OUT/bench/over-rank_problem" --solver grap-r \
    --rank 4,4,4 --delta 0.5 --max-iters 40 \
    --trace "$OUT/trace.csv" --summary "$OUT/summary.json" \
    --save "$OUT/solution.ckpt" || [ $? -eq 2 ]

# 3. Resume from the checkpoint for ten more iterations: the run goes on
#    from iteration 40 with the same rank-decrease threshold, and
#    --max-iters bounds the iteration index it reaches.
tuckeropt complete "$OUT/bench/over-rank_problem" --solver grap-r \
    --rank 4,4,4 --delta 0.5 --max-iters 50 \
    --resume "$OUT/solution.ckpt" || [ $? -eq 2 ]

# 4. Brute-force verification suites (exact projections, gradients, bounds).
tuckeropt check --suite gradient --suite hosvd --restarts 25

echo "artifacts in $OUT:"
ls "$OUT"
head -3 "$OUT/trace.csv"
cat "$OUT/summary.json"
