#!/usr/bin/env bash
# Checks that the installed console script starts, then writes this
# checkout's output tree twice (write-outputs.sh) and fails unless the two
# runs wrote identical files.
# Usage: identical-reruns.sh DIR (scratch space for the two output trees)
set -eo pipefail
dir=$1
root=$(cd "$(dirname "$0")/../.." && pwd)
ptdimer list-scenarios > /dev/null
for out in first again; do
  "$root/.github/scripts/write-outputs.sh" "$root" "$dir/$out"
done
diff -r "$dir/first" "$dir/again"
