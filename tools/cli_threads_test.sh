#!/usr/bin/env bash
# The CLI's RL paths give byte-identical results at any thread count.
#
# Each command runs at --threads 1 and at --threads 4, and the two runs
# must write the same bytes:
#   1. a small `mcmpart pretrain --validate --save-best` checkpoint;
#   2. `mcmpart partition --method rl` on resnet and inception;
#   3. `mcmpart partition --method zeroshot --checkpoint <that checkpoint>`
#      on the same graphs.
# stdout is compared too, with the per-run directory names masked.
#
# Usage: cli_threads_test.sh <path-to-mcmpart>
set -u

MCMPART=${1:?usage: cli_threads_test.sh <mcmpart>}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

for graph in resnet inception; do
  "$MCMPART" generate "$graph" "$TMP/$graph.graph" > /dev/null ||
    fail "generate $graph"
done

for threads in 1 4; do
  dir="$TMP/t$threads"
  mkdir "$dir"
  "$MCMPART" pretrain --chips 36 --validate --save-best "$dir/best.ckpt" \
    --threads "$threads" > "$dir/pretrain.out" ||
    fail "pretrain at --threads $threads exited $?"
  for graph in resnet inception; do
    "$MCMPART" partition "$TMP/$graph.graph" --method rl --budget 40 \
      --seed 3 --chips 36 --threads "$threads" --out "$dir/$graph.rl" \
      > "$dir/$graph.rl.out" ||
      fail "rl on $graph at --threads $threads exited $?"
    "$MCMPART" partition "$TMP/$graph.graph" --method zeroshot \
      --checkpoint "$dir/best.ckpt" --checkpoint-shape pretrain --budget 40 \
      --seed 3 --chips 36 --threads "$threads" --out "$dir/$graph.zeroshot" \
      > "$dir/$graph.zeroshot.out" ||
      fail "zeroshot on $graph at --threads $threads exited $?"
  done
done

for file in best.ckpt resnet.rl resnet.zeroshot inception.rl \
            inception.zeroshot; do
  cmp -s "$TMP/t1/$file" "$TMP/t4/$file" ||
    fail "$file differs between --threads 1 and --threads 4"
done
for out in pretrain resnet.rl resnet.zeroshot inception.rl \
           inception.zeroshot; do
  diff <(sed "s|$TMP/t1|DIR|g" "$TMP/t1/$out.out") \
       <(sed "s|$TMP/t4|DIR|g" "$TMP/t4/$out.out") ||
    fail "$out stdout differs between --threads 1 and --threads 4"
done
echo "PASS"
