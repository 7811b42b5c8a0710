#!/bin/sh
# CI gate: full build, test suite (which also diffs the metrics smoke
# snapshot against the golden bench/baseline_metrics.json and
# EXPERIMENTS.md against its regenerated experiment tables), execution-
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

# Shared tier-1 tables under concurrent writers: a fleet's motes share
# one decode cache and block table, which two domains fill at once.
# The aggregate line and the whole-fleet snapshot must match 1 domain.
fleet_dir=$(mktemp -d)
fleet1=$(dune exec bin/sensmart_cli.exe -- fleet --motes 300 --domains 1 -o "$fleet_dir/A")
fleet2=$(dune exec bin/sensmart_cli.exe -- fleet --motes 300 --domains 2 -o "$fleet_dir/B")
if [ "$(echo "$fleet1" | head -n 1)" != "$(echo "$fleet2" | head -n 1)" ] \
    || ! cmp -s "$fleet_dir/A" "$fleet_dir/B"; then
    echo "check.sh: fleet at 2 domains differs from 1 domain" >&2
    rm -rf "$fleet_dir"
    exit 1
fi
rm -rf "$fleet_dir"

# Adversarial attack campaign smoke: the cross-kernel containment
# matrix must cover all four comparators and SenSmart must contain
# strictly more attack classes than at least one of them (asserted by
# the suite; this run keeps the CLI path itself exercised in CI).  The
# matrix printed at tier 0 must equal tier 1's, and a --packet that is
# not hex digit pairs is a usage error.
dune exec bin/sensmart_cli.exe -- attack --trials 1 --report > /dev/null
attack0=$(dune exec bin/sensmart_cli.exe -- attack --trials 1 --tier 0)
attack1=$(dune exec bin/sensmart_cli.exe -- attack --trials 1 --tier 1)
if [ "$attack0" != "$attack1" ]; then
    echo "check.sh: attack --tier 0 differs from --tier 1" >&2
    exit 1
fi
for packet in a_ a7:01; do
    if dune exec bin/sensmart_cli.exe -- attack --packet "$packet" > /dev/null 2>&1; then
        echo "check.sh: attack --packet $packet was accepted" >&2
        exit 1
    fi
done

# Fault campaign at tiers 0 and 1: its Flash_flip addresses fall in
# [0, 0x2000), mostly past the end of the image, so the campaign grows
# private flash through Cpu.load.  Both tiers must print the same.
fault0=$(dune exec bin/sensmart_cli.exe -- fault feeder search --trials 40 --tier 0)
fault1=$(dune exec bin/sensmart_cli.exe -- fault feeder search --trials 40 --tier 1)
if [ "$fault0" != "$fault1" ]; then
    echo "check.sh: fault --tier 0 differs from --tier 1" >&2
    exit 1
fi

# Rewriting-pipeline smoke: the fixture firmware set (avr-gcc-shaped
# Intel-HEX, loaded symbol-less) must rewrite cleanly and emit the
# machine-readable report (schema sensmart.rewrite.report/1; the same
# numbers land in the committed baseline as rewrite.* counters).
dune exec bin/sensmart_cli.exe -- rewrite --report > /dev/null

# Paper experiments through the generated CLI path: `all --quick` must
# print a section for every entry of the experiment registry.
cli=_build/default/bin/sensmart_cli.exe
all_out=$("$cli" all --quick)
titles=$("$cli" list --experiments | cut -f 2)
[ -n "$titles" ] || { echo "check.sh: no experiments registered" >&2; exit 1; }
echo "$titles" | while IFS= read -r title; do
    if ! printf '%s\n' "$all_out" | grep -qxF "=== $title ==="; then
        echo "check.sh: all --quick is missing \"$title\"" >&2
        exit 1
    fi
done

# Campaign-service smoke: a short seeded load test through the CLI
# serve path must drain cleanly (serve exits nonzero iff any job
# failed, so the exit code is the gate).
dune exec bin/sensmart_cli.exe -- serve --loadtest 32 --workers 4 > /dev/null

# A spec file that names a job kind serve does not have, or repeats a
# job id, is a usage error (exit 2) before any job runs.
serve_rejects() {
    status=0
    printf '%b' "$2" | dune exec bin/sensmart_cli.exe -- serve --workers 2 \
        > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "check.sh: serve with $1 exited $status, expected 2" >&2
        exit 1
    fi
}
serve_rejects "a sleep job" '{"job":"sleep","ms":1}\n'
serve_rejects "a repeated job id" \
    '{"id":1,"job":"bench","program":"crc"}\n{"id":1,"job":"bench","program":"lfsr"}\n'

# The shared --tier flag is validated: a tier outside 0-2 is a usage
# error, never a silent clamp to the nearest tier.
if dune exec bin/sensmart_cli.exe -- native lfsr --tier 3 > /dev/null 2>&1; then
    echo "check.sh: native --tier 3 was accepted" >&2
    exit 1
fi

# Tier-2 compiles in the background: a cold-cache run shorter than its
# compile prints exactly what tier 1 prints and exits 0, with or
# without an OCaml compiler on PATH, and leaves no compiler running.
# Every compile runs in a build-* directory under its cache directory,
# so a leftover compiler is one whose command line names "$cold".
cold=$(mktemp -d)
want=$("$cli" native crc_mc --tier 1)
got=$(SENSMART_AOT_CACHE="$cold" "$cli" native crc_mc --tier 2)
got_nocc=$(PATH=/nonexistent SENSMART_AOT_CACHE="$cold" "$cli" native crc_mc --tier 2 2>/dev/null)
rm -rf "$cold"
if [ "$got" != "$want" ] || [ "$got_nocc" != "$want" ]; then
    echo "check.sh: cold-cache --tier 2 differs from --tier 1" >&2
    exit 1
fi
if pgrep -f "$cold" >/dev/null; then
    echo "check.sh: a tier-2 compiler outlived its run" >&2
    exit 1
fi

# A cold-cache fault campaign at tier 2: its Flash_flips give many
# flash digests in one process, which take turns in the one compile
# slot.  At the default threshold the campaign starts no compile at
# all, so the threshold is lowered for its digests to ask for one.  It
# prints exactly what tier 1 prints, and at exit no compiler is running
# and no build directory is left in the cache.
cold=$(mktemp -d)
want=$("$cli" fault feeder search --trials 40 --tier 1)
got=$(SENSMART_AOT_THRESHOLD=1000 SENSMART_AOT_CACHE="$cold" \
    "$cli" fault feeder search --trials 40 --tier 2)
leftover=$(find "$cold" -maxdepth 1 -name 'build-*')
rm -rf "$cold"
if [ "$got" != "$want" ]; then
    echo "check.sh: cold-cache fault --tier 2 differs from --tier 1" >&2
    exit 1
fi
if pgrep -f "$cold" >/dev/null || [ -n "$leftover" ]; then
    echo "check.sh: a tier-2 compile outlived the fault campaign" >&2
    exit 1
fi

# Snapshot/resume through the CLI: a feeder/search kernel captured
# mid-run and resumed at each tier prints exactly what the
# uninterrupted run prints (the "resumed" banner and wall time aside).
snap_dir=$(mktemp -d)
"$cli" snapshot feeder search --at 120000 -o "$snap_dir/F" > /dev/null
want=$("$cli" run feeder search --budget 3000000 | sed 's/ ([0-9.]* s)//')
for tier in 0 1 2; do
    got=$("$cli" resume "$snap_dir/F" --budget 3000000 --tier "$tier" \
        | grep -v '^resumed' | sed 's/ ([0-9.]* s)//')
    if [ "$got" != "$want" ]; then
        echo "check.sh: resume at tier $tier differs from the uninterrupted run" >&2
        rm -rf "$snap_dir"
        exit 1
    fi
done
rm -rf "$snap_dir"
