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
# failure is unmistakable in CI logs).  Run outside dune's test
# environment, it is given the suites' artifact cache (test/dune) so it
# never writes into the user's ~/.cache/sensmart/aot.
aot_cache="$PWD/_build/default/test/aot-cache"
SENSMART_AOT_CACHE="$aot_cache" dune exec test/test_tiers.exe

# Tier-1 ops against tier-0 steps: tier 1 runs each instruction through
# an op of its own, so every instruction a tier-1 block can hold is
# checked from random state (test_machine "tier1-ops"), here under
# three fixed seeds, so a seed-dependent divergence fails by name.
for seed in 1 2 3; do
    SENSMART_SEED=$seed SENSMART_AOT_CACHE="$aot_cache" \
        dune exec test/test_machine.exe -- test tier1-ops
done

# Domain-parallel determinism: Net.run at 1 vs N domains must produce
# byte-identical counters, events, and machine state.
SENSMART_AOT_CACHE="$aot_cache" dune exec test/test_net.exe -- test domains

# Shared tier-1 tables under concurrent writers: a fleet's motes share
# one decode cache and block table, which two domains fill at once.
# The aggregate line and the whole-fleet snapshot must match 1 domain.
fleet_dir=$(mktemp -d)
fleet1=$(dune exec bin/sensmart_cli.exe -- fleet --motes 300 --domains 1 --tier 1 -o "$fleet_dir/A")
fleet2=$(dune exec bin/sensmart_cli.exe -- fleet --motes 300 --domains 2 --tier 1 -o "$fleet_dir/B")
if [ "$(echo "$fleet1" | head -n 1)" != "$(echo "$fleet2" | head -n 1)" ] \
    || ! cmp -s "$fleet_dir/A" "$fleet_dir/B"; then
    echo "check.sh: fleet at 2 domains differs from 1 domain" >&2
    rm -rf "$fleet_dir"
    exit 1
fi

# The whole 300-mote fleet snapshot is pinned byte for byte (1 829 259
# bytes): the snapshot codec must write exactly the SENSNAP v2 bytes on
# a full fleet, not only on test_snapshot's small pinned captures.
fleet_md5=$(md5sum < "$fleet_dir/A" | cut -d' ' -f1)
if [ "$fleet_md5" != "a7065327ce9c1f2d772e270dd756bf72" ]; then
    echo "check.sh: 300-mote fleet snapshot MD5 is $fleet_md5, expected a7065327ce9c1f2d772e270dd756bf72" >&2
    rm -rf "$fleet_dir"
    exit 1
fi

# Tier-1 blocks that run through direct jumps, calls and their returns
# carry the fleet's hot path: each radio or ADC poll iteration, with
# its trap-counter detour, is one block, and tier 1 fast-forwards the
# steady state of those loops (Block.summarize).  The same fleet on the
# tier-0 interpreter must print the same aggregate line and write a
# byte-identical snapshot.
fleet0=$(dune exec bin/sensmart_cli.exe -- fleet --motes 300 --domains 1 --tier 0 -o "$fleet_dir/T0")
if [ "$(echo "$fleet0" | head -n 1)" != "$(echo "$fleet1" | head -n 1)" ] \
    || ! cmp -s "$fleet_dir/T0" "$fleet_dir/A"; then
    echo "check.sh: fleet at tier 0 differs from tier 1" >&2
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

# Polling loops that tier 1 summarizes: readadc is nearly all ADC
# polling.  Bare-metal, and under a disruptive fault campaign whose
# injections land while it polls (a plan draws them over the middle 80%
# of the budget, and readadc halts near cycle 80 000), tiers 0 and 1
# must print the same, so a summary taken on fault-corrupted state
# fails here.
for args in "native readadc" \
    "fault readadc --trials 20 --disruptive --budget 100000"; do
    out0=$(dune exec bin/sensmart_cli.exe -- $args --tier 0)
    out1=$(dune exec bin/sensmart_cli.exe -- $args --tier 1)
    if [ "$out0" != "$out1" ]; then
        echo "check.sh: $args --tier 0 differs from --tier 1" >&2
        exit 1
    fi
done

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

# The 1000-job load test's simulated results are fixed: at one worker
# and at two, serve prints the same digest of its canonical result
# lines and the same 71 store dedup hits (the mix's 73 bisect jobs
# share two warm snapshots; EXPERIMENTS.md, "campaign service
# throughput").  The summary line is on stderr.
for workers in 1 2; do
    summary=$("$cli" serve --loadtest 1000 --workers "$workers" 2>&1 > /dev/null)
    case "$summary" in
        *" 71 dedup hits; digest 53bb00ecacc7") ;;
        *)
            echo "check.sh: serve --loadtest 1000 --workers $workers printed:" >&2
            echo "$summary" >&2
            exit 1
            ;;
    esac
done

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
# without an OCaml compiler on PATH.  At exit it waits for its compile,
# so it leaves no compiler running, no build-* directory and exactly one
# artifact, and a second run binds from that warmed cache and still
# prints what tier 1 prints.  Every compile runs in a build-* directory
# under its cache directory, so a leftover compiler is one whose command
# line names "$cold".  The no-toolchain run gets its own empty cache, so
# it cannot bind a cached artifact instead of falling back.  The cold
# run starts outside the repo, so the compile finds machine.cmi from
# the executable's path, not from the cwd.  The warm run must load the
# artifact as it is: one it failed to load would be removed and
# compiled again, and the output alone cannot show that, so the
# artifact's inode and mtime must not change.  Tier-1 fallback prints
# the same too, so the warm run must also report on stderr that
# compiled code retired instructions.  The artifact may import the
# interface of Machine__State but not those of Machine__Aot or
# Machine__Block, whose every change would otherwise invalidate it.
cold=$(mktemp -d)
nocc=$(mktemp -d)
want=$("$cli" native crc_mc --tier 1)
abs_cli="$PWD/$cli"
got=$(cd / && SENSMART_AOT_CACHE="$cold" "$abs_cli" native crc_mc --tier 2)
running=$(pgrep -f "$cold" || true)
artifacts=$(find "$cold" -maxdepth 1 -name '*.cmxs' | wc -l)
leftover=$(find "$cold" -maxdepth 1 -name 'build-*')
stamp=$(stat -c '%i %Y' "$cold"/*.cmxs || true)
if command -v ocamlobjinfo >/dev/null 2>&1; then
    imports=$(ocamlobjinfo "$cold"/*.cmxs | grep -E 'Machine__(Aot|Block)$' || true)
else
    imports=""
    echo "check.sh: ocamlobjinfo not installed; skipping the artifact import check" >&2
fi
got_warm=$(SENSMART_AOT_CACHE="$cold" "$cli" native crc_mc --tier 2 2>"$cold/stderr")
t2_insns=$(sed -n 's/^tier-2: \([0-9]*\) instructions in compiled code.*/\1/p' "$cold/stderr")
stamp_warm=$(stat -c '%i %Y' "$cold"/*.cmxs || true)
got_nocc=$(PATH=/nonexistent SENSMART_AOT_CACHE="$nocc" "$cli" native crc_mc --tier 2 2>/dev/null)
rm -rf "$cold" "$nocc"
if [ "$got" != "$want" ] || [ "$got_warm" != "$want" ] || [ "$got_nocc" != "$want" ]; then
    echo "check.sh: cold-cache, warm-cache or no-toolchain --tier 2 differs from --tier 1" >&2
    exit 1
fi
if [ -n "$running" ] || [ -n "$leftover" ] || [ "$artifacts" -ne 1 ]; then
    echo "check.sh: a cold --tier 2 run left a compiler or build dir, or not one artifact ($artifacts)" >&2
    exit 1
fi
if [ "$stamp_warm" != "$stamp" ]; then
    echo "check.sh: the warm --tier 2 run rebuilt its cached artifact ($stamp -> $stamp_warm)" >&2
    exit 1
fi
if [ "${t2_insns:-0}" -le 0 ]; then
    echo "check.sh: the warm --tier 2 run retired no instructions in compiled code" >&2
    exit 1
fi
if [ -n "$imports" ]; then
    echo "check.sh: the tier-2 artifact imports Machine__Aot or Machine__Block:" >&2
    echo "$imports" >&2
    exit 1
fi

# A cold-cache fault campaign at tier 2: its Flash_flips give many
# flash digests in one process, which take turns in the one compile
# slot.  At the default threshold the campaign starts no compile at
# all, so the threshold is lowered for its digests to ask for one.  It
# prints exactly what tier 1 prints, and at exit no compiler is running,
# no build directory is left in the cache and an artifact is.
cold=$(mktemp -d)
want=$("$cli" fault feeder search --trials 40 --tier 1)
got=$(SENSMART_AOT_THRESHOLD=1000 SENSMART_AOT_CACHE="$cold" \
    "$cli" fault feeder search --trials 40 --tier 2)
leftover=$(find "$cold" -maxdepth 1 -name 'build-*')
artifacts=$(find "$cold" -maxdepth 1 -name '*.cmxs' | wc -l)
rm -rf "$cold"
if [ "$got" != "$want" ]; then
    echo "check.sh: cold-cache fault --tier 2 differs from --tier 1" >&2
    exit 1
fi
if pgrep -f "$cold" >/dev/null || [ -n "$leftover" ] || [ "$artifacts" -eq 0 ]; then
    echo "check.sh: a tier-2 compile outlived the fault campaign, or none was cached" >&2
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
