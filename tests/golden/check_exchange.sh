#!/bin/sh
# Compare `oracle --check exchange` reports with the frozen files beside this
# script, byte for byte.  Usage, from the root of a checkout:
#   sh tests/golden/check_exchange.sh [python]
# `sample` draws from a pool at t = 20 and into a set at t = 30; at
# rho = 0.999 the worst instance is a drawn pair, so the report shows the pairs.
python=${1:-python3}
dir=$(dirname "$0")
status=0
for rho in 0.9 0.999; do
  for t in 20 30; do
    if ! PYTHONPATH=src "$python" -m streamrate.cli oracle --check exchange --rho "$rho" --sigma-z2 0.1 \
        --tmax "$t" --samples 500 --seed 7 | cmp - "$dir/exchange_rho${rho}_t${t}.json"; then
      echo "exchange report at rho $rho, t $t differs from the frozen file"
      status=1
    fi
  done
done
exit $status
