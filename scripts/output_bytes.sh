#!/usr/bin/env bash
# The CLI's exit codes and output bytes on this tree against git revision REV.
#
#     bash scripts/output_bytes.sh HEAD^
#
# unpacks the src/ of REV with `git archive` into a temporary directory and
# runs every command below with each tree, each in its own directory:
#   * `slabsum gen`: planted and random partitions with 16-bit weights
#     (n = 16..512, seeds 0-2) and with 1- and 64-bit weights (n = 16, 64,
#     256), and sssp systems at p = 2 (n = 6..14) and p = 4 (n = 6, 8), with
#     and without --planted; the files written must agree too;
#   * solve-exact on the 16-bit partitions and on ssp files with attained and
#     unattained targets (gen has no ssp kind, so these are written once);
#   * `decide-slab --c 2`, `decide-slab --c 3` and `solve-fptas --epsilon
#     1/(4n)` on the partitions at n = 16, 32, 64, where most slab decisions
#     skip the complement probe or see it give up, so the early-stopped table
#     and its witness walk answer;
#   * `oracle` on the 18 partitions at n = 16 (1-, 16- and 64-bit weights,
#     planted and random, seeds 0-2); the 1-bit ones, all weights 1, have
#     12,870 solutions, of which the report keeps 64;
#   * solve-sssp on every generated system: the p = 2 grids fit the default
#     leaf budget and are searched (two of the planted ones underflow at
#     c = 2), and the p = 4 ones are refused;
#   * solve-sssp --leaf-budget 10^12 on the p = 4 systems, whose grids of
#     5.5*10^9 to 5.4*10^10 leaves are then searched through both merge levels
#     and both M-index lists;
#   * solve-sssp --c 3 on the p = 2 systems, where the two planted ones that
#     underflow at c = 2 are found.
# The inputs of the later commands are the files gen wrote on this tree.  It
# fails at the first pair of runs whose exit code, stdout, stderr or written
# file differ; the exit code is that of the failing comparison, 0 when all
# match.
set -euo pipefail

rev=${1:?usage: output_bytes.sh REV}
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/before" "$work/in" "$work/out" "$work/before-files" "$work/after-files"
git -C "$root" archive "$rev" src | tar -x -C "$work/before"

slabsum() {  # slabsum SRC ARGS...: the CLI of the slabsum in SRC
    local src=$1
    shift
    PYTHONPATH=$src python -c 'import sys; from slabsum.cli import main; sys.exit(main())' "$@"
}

# the before tree must be the one imported, not an installed slabsum
where=$(PYTHONPATH=$work/before/src python -c 'import slabsum; print(slabsum.__file__)')
[[ $where == "$work"/before/src/* ]] || { echo "before tree not imported: $where" >&2; exit 1; }

compare() {  # compare NAME ARGS...: one CLI run on each tree, which must agree
    local name=$1 side src status
    shift
    for side in before after; do
        [[ $side == before ]] && src=$work/before/src || src=$root/src
        status=0
        (cd "$work/$side-files" && slabsum "$src" "$@") > "$work/out/$side-$name" 2>&1 \
            || status=$?
        echo "exit $status" >> "$work/out/$side-$name"
    done
    cmp "$work/out/before-$name" "$work/out/after-$name"
}

gens=0
gen() {  # gen NAME ARGS...: slabsum gen on each tree; the files written must agree too
    local name=$1
    shift
    compare "gen-$name" gen "$@" --out "$name.json"
    cmp "$work/before-files/$name.json" "$work/after-files/$name.json"
    gens=$((gens + 1))
}

for n in 16 32 64 128 256 512; do
    for seed in 0 1 2; do
        gen "planted-$n-$seed" --n "$n" --bits 16 --planted --seed "$seed"
        gen "random-$n-$seed" --n "$n" --bits 16 --seed "$seed"
    done
done
cp "$work"/after-files/{planted,random}-*.json "$work/in/"
for bits in 1 64; do
    for n in 16 64 256; do
        for seed in 0 1 2; do
            gen "bits$bits-planted-$n-$seed" --n "$n" --bits "$bits" --planted --seed "$seed"
            gen "bits$bits-random-$n-$seed" --n "$n" --bits "$bits" --seed "$seed"
        done
    done
done
for p in 2 4; do
    [[ $p == 2 ]] && sizes="6 8 10 12 14" || sizes="6 8"
    for n in $sizes; do
        for seed in 0 1 2; do
            gen "sssp-p$p-planted-$n-$seed" --kind sssp --p "$p" --n "$n" --bits 16 \
                --planted --seed "$seed"
            gen "sssp-p$p-random-$n-$seed" --kind sssp --p "$p" --n "$n" --bits 16 \
                --seed "$seed"
        done
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

exact=0
for path in "$work"/in/*.json; do
    compare "exact-$(basename "$path")" solve-exact --in "$path"
    exact=$((exact + 1))
done
slab=0
for n in 16 32 64; do
    for path in "$work"/in/{planted,random}-$n-*.json; do
        name=$(basename "$path")
        compare "c2-$name" decide-slab --in "$path" --c 2
        compare "c3-$name" decide-slab --in "$path" --c 3
        compare "fptas-$name" solve-fptas --in "$path" --epsilon "1/$((4 * n))"
        slab=$((slab + 3))
    done
done
oracles=0
for path in "$work"/after-files/{,bits1-,bits64-}{planted,random}-16-*.json; do
    compare "oracle-$(basename "$path")" oracle --in "$path"
    oracles=$((oracles + 1))
done
for path in "$work"/after-files/sssp-*.json; do
    name=$(basename "$path")
    compare "sssp-$name" solve-sssp --in "$path"
    case $name in
        sssp-p4-*) compare "sssp-p4big-$name" solve-sssp --in "$path" \
                       --leaf-budget 1000000000000 ;;
        sssp-p2-*) compare "sssp-p2c3-$name" solve-sssp --in "$path" --c 3 ;;
    esac
done
sssp_runs() {  # sssp_runs KIND: "N runs (F found, E not exit 0)" of one solve-sssp group
    local files=("$work"/out/after-"$1"-*)
    echo "${#files[@]} runs ($(grep -l '"found": true' "${files[@]}" | wc -l) found," \
         "$(grep -L '^exit 0$' "${files[@]}" | wc -l) not exit 0)"
}
solved=$(grep -l '"solved": true' "$work"/out/after-exact-* | wc -l)
refused=$(grep -L '^exit 0$' "$work"/out/after-{c2,c3,fptas}-* | wc -l)
echo "output identical to $rev: gen on $gens files, solve-exact on $exact inputs" \
     "($solved solved), $slab slab decisions ($refused not exit 0), oracle on" \
     "$oracles partitions at n = 16, solve-sssp" \
     "at its defaults: $(sssp_runs sssp-sssp); p = 4 with --leaf-budget 10^12:" \
     "$(sssp_runs sssp-p4big); p = 2 with --c 3: $(sssp_runs sssp-p2c3)"
