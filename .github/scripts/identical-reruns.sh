#!/usr/bin/env bash
# Runs the installed console script twice on every catalog scenario, two
# uncoupled configs and the cold exact and the two adaptive thermal Lindblad
# configs, and fails unless the two runs wrote identical files.
# Usage: identical-reruns.sh DIR (scratch space for configs and outputs)
set -eo pipefail
dir=$1
ids=$(ptdimer list-scenarios | cut -d ' ' -f 1)
for id in $ids; do
  for out in first again; do
    ptdimer run --scenario "$id" --svg --out "$dir/$out" > /dev/null
  done
done
# uncoupled: the coherence starts and stays exactly 0
printf '%s\n' 'g = 0' 'state = thermal 293' 'engines = gaussian' \
  > "$dir/uncoupled-thermal.conf"
printf '%s\n' 'g = 0' 'state = fock 3 2' > "$dir/uncoupled-fock.conf"
# the T > 0 jump path: a block of 204 reached coordinates, propagated
# exactly
printf '%s\n' 'state = thermal 6e-5' 'temperature = 6e-5' \
  'engines = lindblad, gaussian' 'allow_lindblad_thermal = true' \
  'samples = 200' > "$dir/cold.conf"
# and a block of 819 reached coordinates, above the exact bound: stepped
# adaptively
printf '%s\n' 'state = thermal 1e-4' 'temperature = 1e-4' \
  'engines = lindblad, gaussian' 'allow_lindblad_thermal = true' \
  'samples = 200' > "$dir/adaptive.conf"
# and a block of 4,324 reached coordinates at 23 levels a mode, the largest
# block built here
printf '%s\n' 'state = thermal 2e-4' 'temperature = 2e-4' \
  'engines = lindblad, gaussian' 'allow_lindblad_thermal = true' \
  'samples = 200' > "$dir/warm.conf"
for conf in uncoupled-thermal uncoupled-fock cold adaptive warm; do
  for out in first again; do
    ptdimer run --config "$dir/$conf.conf" --out "$dir/$out/$conf" > /dev/null
  done
done
diff -r "$dir/first" "$dir/again"
