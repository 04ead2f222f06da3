#!/bin/sh
# Run every workload once, untraced: sh perfbench/run_all.sh [SEED] [RUN_SECONDS]
# Prints each workload's report; exits 1 if any workload failed an oracle.
seed=${1:-1}
run_seconds=${2:-35}
cd "$(dirname "$0")/.." || exit 2
status=0
for workload in torus-cli hyperbolic-self wide-target; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$run_seconds" --trace 0 || status=1
done
exit $status
