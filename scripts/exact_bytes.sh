#!/usr/bin/env bash
# solve-exact's output bytes on this tree against git revision REV.
#
#     bash scripts/exact_bytes.sh HEAD^
#
# unpacks the src/ of REV with `git archive` into a temporary directory,
# writes a fixed-seed input set with the tree in src/: 16-bit planted and
# random partitions from `slabsum gen` (n = 64..512) and ssp files with
# attained and unattained targets (gen has no ssp kind), runs solve-exact on
# every input with each tree, and fails at the first pair of outputs that
# differ.  The exit code is that of the failing command, 0 when all match.
set -euo pipefail

rev=${1:?usage: exact_bytes.sh REV}
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/before" "$work/in" "$work/out"
git -C "$root" archive "$rev" src | tar -x -C "$work/before"

slabsum() {  # slabsum SRC ARGS...: the CLI of the slabsum in SRC
    local src=$1
    shift
    PYTHONPATH=$src python -c 'import sys; from slabsum.cli import main; sys.exit(main())' "$@"
}

# the before tree must be the one imported, not an installed slabsum
where=$(PYTHONPATH=$work/before/src python -c 'import slabsum; print(slabsum.__file__)')
[[ $where == "$work"/before/src/* ]] || { echo "before tree not imported: $where" >&2; exit 1; }

for n in 64 128 256 512; do
    for seed in 0 1 2; do
        slabsum "$root/src" gen --n "$n" --bits 16 --planted --seed "$seed" \
            --out "$work/in/planted-$n-$seed.json"
        slabsum "$root/src" gen --n "$n" --bits 16 --seed "$seed" \
            --out "$work/in/random-$n-$seed.json"
    done
done

# ssp: a random subset's sum, a quarter of the total, a small distance
# below the total, and an odd target of even weights, never attained
PYTHONPATH=$root/src python - "$work/in" <<'EOF'
import random
import sys

from slabsum.instance import SspInstance, gen_random, write_instance

for n in (64, 128, 256, 512):
    for seed in range(3):
        u = gen_random(n, 16, seed).weights
        rng = random.Random(seed)
        even = tuple(w + w % 2 for w in u)
        targets = {"subset": (u, sum(w for w in u if rng.random() < 0.5)),
                   "quarter": (u, sum(u) // 4),
                   "near-total": (u, sum(u) - min(u)),
                   "unattained": (even, sum(even) // 2 | 1)}
        for name, (weights, target) in targets.items():
            write_instance(f"{sys.argv[1]}/ssp-{name}-{n}-{seed}.json",
                           SspInstance(weights, target=target))
EOF

count=0
for path in "$work"/in/*.json; do
    name=$(basename "$path")
    slabsum "$work/before/src" solve-exact --in "$path" --out "$work/out/before-$name"
    slabsum "$root/src" solve-exact --in "$path" --out "$work/out/after-$name"
    cmp "$work/out/before-$name" "$work/out/after-$name"
    count=$((count + 1))
done
solved=$(grep -l '"solved": true' "$work"/out/after-* | wc -l)
echo "solve-exact output identical to $rev on $count inputs ($solved solved)"
