#!/bin/sh
# Regenerates the benchmark's circuits and models with icnet_cli.
#
#   sh perfbench/inputs/make_inputs.sh build/examples/icnet_cli
#
# The outputs are committed, so a later change to the circuit generator, the
# labeler or the trainer cannot move the benchmark's inputs. Run this only to
# replace them on purpose; a benchmark baseline measured on the old inputs is
# void afterwards. The models only need the serving architecture (ICNet,
# attention readout), not accuracy, so their training sets are small.
set -eu
cli=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
cd "$(dirname "$0")"

# 128 gates, 32 inputs, 16 outputs, seed 7: bench/serve_throughput's circuit.
"$cli" gen small.bench --gates 128 --inputs 32 --outputs 16 --seed 7
"$cli" dataset small.bench small.dataset --instances 24 --min 1 --max 6 \
  --seed 1 --jobs 4
"$cli" train small.bench small.dataset small.model --epochs 60 --jobs 4

# ExperimentProfile::paper's circuit: 1529 gates, 64 inputs, 32 outputs.
"$cli" gen paper.bench --gates 1529 --inputs 64 --outputs 32 --seed 42
"$cli" dataset paper.bench paper.dataset --instances 16 --min 1 --max 12 \
  --seed 1 --jobs 4
"$cli" train paper.bench paper.dataset paper.model --epochs 60 --jobs 4

rm -f small.dataset paper.dataset
