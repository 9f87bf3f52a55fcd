#!/bin/sh
# A short command-line session.  Run from the repository root after
# `pip install -e . --no-build-isolation`:
#
#   sh demos/cli_session.sh
set -e

BV_POINT='{"edgeParams":{"1":"1/3"},"labels":[[1],[2,1]],"operad":"assoc","tree":{"node":{"children":[{"node":{"children":[{"leaf":1},{"leaf":2}]}}]},"sigma":[1,2]}}'
WB_POINT='{"operad":"assoc","tree":{"node":{"children":[{"leaf":1},{"leaf":2},{"leaf":3}]},"sigma":[1,2,3]},"vertices":[{"bv":{"edgeParams":{},"labels":[[1,3,2]],"operad":"assoc","tree":{"node":{"children":[{"leaf":1},{"leaf":2},{"leaf":3}]},"sigma":[1,2,3]}},"t":"1/2"}]}'

echo "== normalize a resolution point (unit vertex collapses) =="
echo "$BV_POINT" | operad-forge normalize-bv

echo
echo "== counit of a bimodule point =="
echo "$WB_POINT" | operad-forge mu-tilde

echo
echo "== deloop the same point with the constant kernel =="
echo "$WB_POINT" | operad-forge deloop --kernel constant

echo
echo "== cell classes at stage (3,2) =="
operad-forge cells --k 3 --l 2 --nontrivial | python3 -c \
  "import json,sys; d=json.load(sys.stdin); print(d['census'], 'indices in', len(d['classes']), 'classes')"

echo
echo "== contraction graph at stage (4,3), DOT header =="
operad-forge graph --k 4 --l 3 --format dot | head -3

echo
echo "== straightening deformation at u=1/4 =="
echo '{"index":{"main":{"node":{"children":[{"node":{"children":[{"leaf":1}]}}]}},"aux":[{"node":{"children":[{"leaf":1}]}},{"node":{"children":[{"leaf":1}]}}]},"heights":["0","1/2"],"auxParams":[[],[]]}' \
  | operad-forge homotopy-h --u 1/4

echo
echo "== scaled-down acceptance run =="
operad-forge selftest --scale 0.02
