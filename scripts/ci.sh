#!/usr/bin/env sh
# Tier-1 CI: configure, build, and run the full test suite three
# times — plain, under AddressSanitizer + UndefinedBehaviorSanitizer,
# and under ThreadSanitizer — then run the quick-scale benches, check
# the artifacts against the committed manifest, exercise the
# checkpoint/restore, multi-process farm crash-safety, memory-backend
# and trace paths, smoke-run hostbench against its recorded digests,
# and check the full-scale artifacts against their manifest and
# EXPERIMENTS.md against them.
#
# Usage: scripts/ci.sh [jobs]
set -eu

jobs="${1:-$(nproc 2>/dev/null || echo 4)}"
root="$(cd "$(dirname "$0")/.." && pwd)"

run_suite() {
    build_dir="$1"
    shift
    echo "=== configure ${build_dir} ($*) ==="
    cmake -B "${build_dir}" -S "${root}" "$@"
    echo "=== build ${build_dir} ==="
    cmake --build "${build_dir}" -j "${jobs}"
    echo "=== ctest ${build_dir} ==="
    ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
}

run_suite "${root}/build"
run_suite "${root}/build-san" -DSTASHSIM_SANITIZE=address,undefined
# Each System runs on one thread; TSan covers the threads that run
# many Systems at once (the SweepDriver's workers) and the farm's
# lease heartbeats.
run_suite "${root}/build-tsan" -DSTASHSIM_SANITIZE=thread

artifacts="${root}/build/bench-artifacts"
echo "=== stashbench --quick (artifacts -> ${artifacts}) ==="
mkdir -p "${artifacts}"
"${root}/build/bench/stashbench" --quick --jobs "${jobs}" \
    --out "${artifacts}"
ls -l "${artifacts}"/BENCH_*.json

# Same-behaviour golden: every deterministic quick artifact must match
# the committed manifest byte for byte, so a moved counter fails here
# and not only in the two-decimal EXPERIMENTS.md check below.
# Regenerate the manifest only in a change that means to alter
# simulated behaviour, and explain that change in EXPERIMENTS.md:
#   cd "${artifacts}" && ls BENCH_*.json | grep -v BENCH_simperf.json |
#       xargs sha256sum > "${root}/scripts/quick_artifacts.sha256"
echo "=== quick artifacts vs scripts/quick_artifacts.sha256 ==="
(cd "${artifacts}" && sha256sum -c "${root}/scripts/quick_artifacts.sha256")

# Checkpoint/restore parity, end to end through the CLI: run four
# quick benches dropping checkpoints at every eligible phase
# boundary, then delete the cached RESULT_* artifacts so --restore is
# forced to re-finish every run from a mid-run CKPT_* snapshot.  The
# resumed artifacts must be byte-identical.  fig6 is the bench whose
# L1s park accesses for every reason: fig5 waits only for MSHRs, and
# ablation_replication and synth never wait in the L1.  fig5 and fig6
# are also the benches here whose stashes park loads (their Stash and
# StashG runs), so they cover the stash wait list and the VP-map
# lookup counter it keeps in each cuN.stash section.
snapdir="${root}/build/bench-artifacts-snapshot"
echo "=== checkpoint/restore parity (fig5, ablation_replication, synth, fig6; L1 and stash wait lists) ==="
rm -rf "${snapdir}"
mkdir -p "${snapdir}"
"${root}/build/bench/stashbench" --quick --jobs "${jobs}" \
    --checkpoint-every 1 --out "${snapdir}" \
    fig5 ablation_replication synth fig6
for name in fig5 ablation_replication synth fig6; do
    mv "${snapdir}/BENCH_${name}.json" \
       "${snapdir}/BENCH_${name}.ref.json"
    rm "${snapdir}/checkpoints/${name}"/RESULT_*.snap
done
"${root}/build/bench/stashbench" --quick --jobs "${jobs}" \
    --restore "${snapdir}/checkpoints" --out "${snapdir}" \
    fig5 ablation_replication synth fig6
for name in fig5 ablation_replication synth fig6; do
    cmp "${snapdir}/BENCH_${name}.ref.json" \
        "${snapdir}/BENCH_${name}.json"
done
echo "checkpoint-restored artifacts are byte-identical"

# Farm crash-safety, end to end: two --farm workers drain one fig5
# sweep over a shared state dir; one is SIGKILLed mid-run (the
# dead-worker path: its lease goes stale and is reclaimed) and one is
# SIGTERMed (graceful: final checkpoint, lease released, exit 75
# "interrupted, resumable").  A fresh worker with a short lease TTL
# then finishes the campaign, and its artifact must be byte-identical
# to an uninterrupted single-process run, with no orphaned leases.
farmref="${root}/build/bench-artifacts-farm-ref"
farmstate="${root}/build/bench-farm-state"
echo "=== farm crash-safety (fig5: SIGKILL one worker, SIGTERM one, survivor finishes) ==="
rm -rf "${farmref}" "${farmstate}" \
    "${root}/build/bench-artifacts-farm-w1" \
    "${root}/build/bench-artifacts-farm-w2" \
    "${root}/build/bench-artifacts-farm-w3"
mkdir -p "${farmref}" "${farmstate}" \
    "${root}/build/bench-artifacts-farm-w1" \
    "${root}/build/bench-artifacts-farm-w2" \
    "${root}/build/bench-artifacts-farm-w3"
"${root}/build/bench/stashbench" --quick --jobs "${jobs}" \
    --out "${farmref}" fig5
"${root}/build/bench/stashbench" --quick --jobs 1 \
    --checkpoint-every 1 --farm "${farmstate}" --worker-id w1 \
    --out "${root}/build/bench-artifacts-farm-w1" fig5 \
    >/dev/null 2>&1 &
w1_pid=$!
"${root}/build/bench/stashbench" --quick --jobs 1 \
    --checkpoint-every 1 --farm "${farmstate}" --worker-id w2 \
    --out "${root}/build/bench-artifacts-farm-w2" fig5 \
    >/dev/null 2>&1 &
w2_pid=$!
sleep 2
kill -KILL "${w1_pid}" 2>/dev/null || true
kill -TERM "${w2_pid}" 2>/dev/null || true
w1_rc=0; wait "${w1_pid}" || w1_rc=$?
w2_rc=0; wait "${w2_pid}" || w2_rc=$?
# The graceful worker either finished before the signal (0) or exited
# with the distinct "interrupted, resumable" code (75).
case "${w2_rc}" in
    0|75) ;;
    *) echo "SIGTERMed farm worker exited ${w2_rc}, want 0 or 75" >&2
       exit 1 ;;
esac
sleep 2 # let the SIGKILLed worker's last heartbeat go stale
"${root}/build/bench/stashbench" --quick --jobs "${jobs}" \
    --farm "${farmstate}" --worker-id w3 --lease-ttl 1 \
    --out "${root}/build/bench-artifacts-farm-w3" fig5
cmp "${farmref}/BENCH_fig5.json" \
    "${root}/build/bench-artifacts-farm-w3/BENCH_fig5.json"
if ls "${farmstate}"/fig5/LEASE_*.json >/dev/null 2>&1; then
    echo "orphaned leases left in the farm state dir:" >&2
    ls "${farmstate}"/fig5/LEASE_*.json >&2
    exit 1
fi
echo "farmed artifact is byte-identical to the single-process sweep"

# Memory-backend leg: one quick bench per backend.  --backend fixed
# is the default model spelled explicitly, so its artifact must be
# byte-identical to the plain quick run's; sttmram and scmcache just
# have to run to completion with validated runs (their artifacts are
# model-dependent by design).  BENCH_memback.json — the three-backend
# ablation — is archived by the all-bench quick leg above.
backends_dir="${root}/build/bench-artifacts-backends"
echo "=== stashbench --backend legs (fixed parity + sttmram/scmcache) ==="
for backend in fixed sttmram scmcache; do
    rm -rf "${backends_dir}/${backend}"
    mkdir -p "${backends_dir}/${backend}"
    "${root}/build/bench/stashbench" --quick --jobs "${jobs}" \
        --backend "${backend}" --out "${backends_dir}/${backend}" fig5
done
cmp "${artifacts}/BENCH_fig5.json" \
    "${backends_dir}/fixed/BENCH_fig5.json"
echo "--backend fixed artifact is byte-identical to the default"
if "${root}/build/bench/stashbench" --backend bogus fig5 \
    >/dev/null 2>&1; then
    echo "--backend bogus should have been rejected" >&2
    exit 1
fi
echo "--backend bogus rejected with a diagnostic"

# Trace frontend leg: record a synthetic workload as a stashtrace-v1
# file, re-emit it through the parser (the canonical rendering is a
# parse/write fixed point, so the two files must be byte-identical),
# then replay it as a bench.  Malformed traces and bad flag
# combinations must be rejected with exit 2.
tracedir="${root}/build/bench-artifacts-trace"
echo "=== stashtrace record -> normalize -> replay round trip ==="
rm -rf "${tracedir}"
mkdir -p "${tracedir}"
"${root}/build/bench/stashbench" --quick \
    --trace-from SynthMix --trace-record "${tracedir}/synthmix.trace"
"${root}/build/bench/stashbench" \
    --trace-replay "${tracedir}/synthmix.trace" \
    --trace-record "${tracedir}/synthmix.norm.trace"
cmp "${tracedir}/synthmix.trace" "${tracedir}/synthmix.norm.trace"
echo "recorded and normalized traces are byte-identical"
"${root}/build/bench/stashbench" --quick --jobs "${jobs}" \
    --trace-replay "${tracedir}/synthmix.trace" --out "${tracedir}"
ls -l "${tracedir}/BENCH_replay.json"
printf 'not a trace\n' > "${tracedir}/bogus.trace"
if "${root}/build/bench/stashbench" \
    --trace-replay "${tracedir}/bogus.trace" >/dev/null 2>&1; then
    echo "malformed trace should have been rejected" >&2
    exit 1
fi
if "${root}/build/bench/stashbench" --trace-from SynthMix \
    >/dev/null 2>&1; then
    echo "--trace-from without --trace-record should be rejected" >&2
    exit 1
fi
echo "malformed trace and bad flag combinations rejected"

# hostbench smoke leg: build and run the host-cost benchmark that
# gates perf changes, one traced pass per workload, plus
# synth-irregular at a second seed.  hostbench exits 1 when a run fails
# or a timed pass simulates different counts than its untimed pass.
# Each grid's digest folds every run's simulated counts, so it must
# match the value recorded here; change one only in a change that
# means to alter simulated behaviour.
echo "=== hostbench smoke (one traced pass per workload; digests) ==="
while read -r workload seed digest; do
    if ! out="$(cd "${root}" && python3 hostbench/run.py \
        --workload "${workload}" --seed "${seed}" --seconds 1 --trace 1)"
    then
        printf '%s\n' "${out}"
        echo "hostbench ${workload} seed ${seed} failed" >&2
        exit 1
    fi
    printf '%s\n' "${out}" | tail -n 1
    got="$(printf '%s\n' "${out}" |
        awk -v w="${workload}" '$1 == "digest" && $2 == w { print $3 }')"
    if [ "${got}" != "${digest}" ]; then
        echo "hostbench ${workload} seed ${seed}: digest ${got}," \
             "want ${digest}" >&2
        exit 1
    fi
    echo "hostbench ${workload} seed ${seed}: digest ${got} as recorded"
done <<EOF
micro-1cu 1 0b5d376e3613d87e
apps-15cu 1 accd8022b9899fc7
synth-irregular 1 aff865e35a93f7f6
synth-irregular 2 a7d14d9416436cde
EOF

# Surface the host-throughput numbers (events/sec per bench and the
# suite aggregate) directly in the CI log, so every run leaves a
# measured perf trajectory next to the archived artifact.
echo "=== simulator throughput (BENCH_simperf.json) ==="
cat "${artifacts}/BENCH_simperf.json"

# EXPERIMENTS.md drift check: the committed report must match what
# --render-md produces from a fresh full-scale run.  The benches are
# deterministic, so regenerating the artifacts here is exact — no
# committed JSON needed.
full="${root}/build/bench-artifacts-full"
echo "=== stashbench full scale + EXPERIMENTS.md drift check ==="
mkdir -p "${full}"
"${root}/build/bench/stashbench" --jobs "${jobs}" --out "${full}"

# Full-scale golden: only full-scale runs evict LLC lines, so every
# deterministic full-scale artifact must also match its manifest byte
# for byte (EXPERIMENTS.md below shows two decimals).  Regenerate it
# only with the quick manifest, for the same reason:
#   cd "${full}" && ls BENCH_*.json | grep -v BENCH_simperf.json |
#       xargs sha256sum > "${root}/scripts/full_artifacts.sha256"
echo "=== full-scale artifacts vs scripts/full_artifacts.sha256 ==="
(cd "${full}" && sha256sum -c "${root}/scripts/full_artifacts.sha256")
"${root}/build/bench/stashbench" --out "${full}" \
    --render-md "${root}/EXPERIMENTS.md"
git -C "${root}" diff --exit-code -- EXPERIMENTS.md || {
    echo "EXPERIMENTS.md is stale: regenerate it with" \
         "'stashbench --out <dir> --render-md EXPERIMENTS.md'" \
         "and commit" >&2
    exit 1
}

echo "=== CI passed (plain + ASan/UBSan + TSan + quick benches + manifests + checkpoint/restore + farm + backends + trace + hostbench + full scale) ==="
