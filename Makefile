# Convenience wrappers around the dune alias split.
#
#   make check-fast   build + the fast test tier (@runtest: strided
#                     16-bit subsets, engine determinism at jobs 1/2/4)
#   make check-full   fast tier + @exhaustive (every bfloat16/float16
#                     input of the differential suite — including all five
#                     standard rounding modes derived from the float34
#                     round-to-odd table — and of the serving kernel's
#                     identity to the scalar path, RLIBM_EXHAUSTIVE=1)
#   make bench        print the paper's Figures 3-5 and the ablations
#                     (bench/main.ml; ungated — the benchmark CI compares
#                     is bench/suite, see BENCHMARK.json)
#
# RLIBM_JOBS=<n> controls worker domains for the sharded passes.

.PHONY: all build check-fast check-full bench clean

all: build

build:
	dune build

check-fast: build
	dune runtest

check-full: check-fast
	dune build @exhaustive

bench: build
	dune exec bench/main.exe

clean:
	dune clean
