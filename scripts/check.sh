#!/bin/sh
# CI gate: full build, test suite, execution-tier equivalence, domain
# determinism, and the metrics smoke run diffed against the committed
# baseline.
set -eu
cd "$(dirname "$0")/.."

dune build @all
dune runtest

# API reference: every public .mli must keep building under odoc.
# Gated on the tool being installed so local dev loops without odoc
# still work; CI installs it, so doc breakage fails the build there.
if command -v odoc >/dev/null 2>&1; then
    dune build @doc
else
    echo "check.sh: odoc not installed; skipping dune build @doc (CI runs it)" >&2
fi

# Execution-tier differential harness: every bundled program plus
# randomized streams must be bit-identical across the tier-0
# interpreter, the tier-1 block engine, and the tier-2 ahead-of-time
# compiled path — including snapshot/restore, fault campaigns, and
# multi-domain fleets (also part of runtest; run explicitly so a
# failure is unmistakable in CI logs).
dune exec test/test_tiers.exe

# Domain-parallel determinism: Net.run at 1 vs N domains must produce
# byte-identical counters, events, and machine state.
dune exec test/test_net.exe -- test domains

# Adversarial attack campaign smoke: the cross-kernel containment
# matrix must cover all four comparators and SenSmart must contain
# strictly more attack classes than at least one of them (asserted by
# the suite; this run keeps the CLI path itself exercised in CI).
dune exec bin/sensmart_cli.exe -- attack --trials 1 --report > /dev/null

# Rewriting-pipeline smoke: the fixture firmware set (avr-gcc-shaped
# Intel-HEX, loaded symbol-less) must rewrite cleanly and emit the
# machine-readable report (schema sensmart.rewrite.report/1; the same
# numbers land in the committed baseline as rewrite.* counters).
dune exec bin/sensmart_cli.exe -- rewrite --report > /dev/null

# Campaign-service smoke: a short seeded load test through the CLI
# serve path must drain cleanly (serve exits nonzero iff any job
# failed, so the exit code is the gate).
dune exec bin/sensmart_cli.exe -- serve --loadtest 32 --workers 4 --stall-us 0 > /dev/null

# The shared --tier flag is validated: a tier outside 0-2 is a usage
# error, never a silent clamp to the nearest tier.
if dune exec bin/sensmart_cli.exe -- native lfsr --tier 3 > /dev/null 2>&1; then
    echo "check.sh: native --tier 3 was accepted" >&2
    exit 1
fi

# Metrics smoke run under the release profile (the dev profile does not
# inline, so host throughput numbers are only meaningful in release),
# then gate host.*_per_sec counters against the committed baseline
# (>10% drop fails; see scripts/bench_diff.sh).
dune build --profile release bench/main.exe
dune exec --profile release bench/main.exe -- --smoke
scripts/bench_diff.sh bench/baseline_metrics.json sensmart_metrics.json
