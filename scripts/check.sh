#!/bin/sh
# CI gate: full build, test suite (which also diffs the metrics smoke
# snapshot against the golden bench/baseline_metrics.json), execution-
# tier equivalence, domain determinism, and CLI smokes.  Host time is
# measured by perfbench (BENCHMARK.json), not here.
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

# Tier-2 compiles in the background: a cold-cache run shorter than its
# compile prints exactly what tier 1 prints and exits 0, with or
# without an OCaml compiler on PATH, and leaves no compiler running.
cli=_build/default/bin/sensmart_cli.exe
cold=$(mktemp -d)
want=$("$cli" native crc_mc --tier 1)
got=$(SENSMART_AOT_CACHE="$cold" "$cli" native crc_mc --tier 2)
got_nocc=$(PATH=/nonexistent SENSMART_AOT_CACHE="$cold" "$cli" native crc_mc --tier 2 2>/dev/null)
rm -rf "$cold"
if [ "$got" != "$want" ] || [ "$got_nocc" != "$want" ]; then
    echo "check.sh: cold-cache --tier 2 differs from --tier 1" >&2
    exit 1
fi
if pgrep -f sensmart_aot_ >/dev/null; then
    echo "check.sh: a tier-2 compiler outlived its run" >&2
    exit 1
fi
