#!/usr/bin/env bash
# Writes the output tree of one source tree: every catalog scenario with
# --svg, two uncoupled configs, a 50-sample Fock config, the cold exact and
# the two adaptive thermal Lindblad configs, a pumped config and a Fock
# config on all three engines with --svg, each run once with that tree's
# package.
# Usage: write-outputs.sh SRC OUT (SRC is a checkout holding src/ptdimer)
set -eo pipefail
src=$(cd "$1" && pwd)
out=$2
conf=$(mktemp -d)
trap 'rm -rf "$conf"' EXIT
run() {
  PYTHONPATH="$src/src" python3 -m ptdimer "$@"
}
for id in $(run list-scenarios | cut -d ' ' -f 1); do
  run run --scenario "$id" --svg --out "$out" > /dev/null
done
# uncoupled: the coherence starts and stays exactly 0
printf '%s\n' 'g = 0' 'state = thermal 293' 'engines = gaussian' \
  > "$conf/uncoupled-thermal.conf"
printf '%s\n' 'g = 0' 'state = fock 3 2' > "$conf/uncoupled-fock.conf"
# 50 samples: tables below the digit arithmetic's row bound, written by one
# `%` call each (every other table here has at least 200 rows)
printf '%s\n' 'state = fock 3 2' 'samples = 50' > "$conf/sparse.conf"
# the T > 0 jump path: a block of 204 reached coordinates, propagated
# exactly
printf '%s\n' 'state = thermal 6e-5' 'temperature = 6e-5' \
  'engines = lindblad, gaussian' 'allow_lindblad_thermal = true' \
  'samples = 200' > "$conf/cold.conf"
# and a block of 819 reached coordinates, above the exact bound: stepped
# adaptively
printf '%s\n' 'state = thermal 1e-4' 'temperature = 1e-4' \
  'engines = lindblad, gaussian' 'allow_lindblad_thermal = true' \
  'samples = 200' > "$conf/adaptive.conf"
# and a block of 4,324 reached coordinates at 23 levels a mode, the largest
# block built here
printf '%s\n' 'state = thermal 2e-4' 'temperature = 2e-4' \
  'engines = lindblad, gaussian' 'allow_lindblad_thermal = true' \
  'samples = 200' > "$conf/warm.conf"
# the pump sets g = g0*|alpha| at the red sideband (1.27e-2 omega_b, PT
# phase); after the configs above, so that a tree whose config layer
# rejects the pump keys still writes them
printf '%s\n' 'g0 = 100' 'pump_amplitude = 6.4e10' 'state = fock 1 0' \
  > "$conf/pump.conf"
# a Fock start on all three engines, the gaussian one reading its moments;
# after the pump, since a tree whose gaussian engine takes thermal starts
# only rejects it (exit 2) and set -e would skip every config after it
printf '%s\n' 'state = fock 3 2' 'engines = lindblad, nonhermitian, gaussian' \
  'svg = true' > "$conf/three-engines.conf"
for name in uncoupled-thermal uncoupled-fock sparse cold adaptive warm pump \
    three-engines; do
  run run --config "$conf/$name.conf" --out "$out/$name" > /dev/null
done
