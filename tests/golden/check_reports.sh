#!/bin/sh
# Compare `oracle` reports with the frozen files beside this script, byte for
# byte: four exchange reports, two single-burst reports and one multi-burst
# report.
# Usage, from the root of a checkout:
#   sh tests/golden/check_reports.sh [python]
# `sample` draws from a pool at t = 20 and into a set at t = 30; at
# rho = 0.999 the worst instance is a drawn pair, so the report shows the pairs.
# The single-burst report at t = 40 runs into the regime where rounding ties
# values: from t = 18 the star's requirement repeats (monotone slack 0.0), and
# a burst ending 14 or more slots before t gives the burst-free value exactly,
# so the worst-case DP chooses among tied patterns.
python=${1:-python3}
dir=$(dirname "$0")
status=0
check() {  # check FILE ARG...: the report of `oracle ARG...` equals FILE
  file=$1
  shift
  if ! PYTHONPATH=src "$python" -m streamrate.cli oracle "$@" | cmp - "$dir/$file"; then
    echo "oracle $* differs from the frozen file $file"
    status=1
  fi
}
for rho in 0.9 0.999; do
  for t in 20 30; do
    check "exchange_rho${rho}_t${t}.json" --check exchange --rho "$rho" --sigma-z2 0.1 \
      --tmax "$t" --samples 500 --seed 7
  done
done
check single_rho0.9_B2_t20.json --check single --B 2 --rho 0.9 --sigma-z2 0.1 --tmax 20
check single_rho0.9_B3_t40.json --check single --B 3 --rho 0.9 --sigma-z2 0.1 --tmax 40
check multi_rho0.9_B2_L3_t18.json --check multi --B 2 --L 3 --rho 0.9 --sigma-z2 0.1 --tmax 18
exit $status
