#!/usr/bin/env sh
# Tier-1 CI: configure, build, and run the full test suite three
# times — plain, under AddressSanitizer + UndefinedBehaviorSanitizer,
# and under ThreadSanitizer — then run the quick-scale benches, check
# the artifacts against the committed manifest, exercise the RESULT
# cache (and its diagnostic for an unusable state directory), an
# interrupted and resumed --restore run, the memory-backend and trace
# paths (three recorded traces against their manifest), smoke-run
# hostbench against its recorded digests, and check the full-scale
# artifacts against their manifest and EXPERIMENTS.md against them.
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

# The plain build must stay warning-free: any warning fails it.
run_suite "${root}/build" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
run_suite "${root}/build-san" -DSTASHSIM_SANITIZE=address,undefined
# Each System runs on one thread; TSan covers the threads that run
# many Systems at once (the SweepDriver's workers).
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

# RESULT cache, end to end through the CLI: run four quick benches
# with --restore on a fresh state directory, so every run caches its
# result as a RESULT_*.snap, then delete every other cached result and
# rerun with the same --restore directory.  The runs whose results
# were deleted simulate again from tick 0 and cache their results
# anew; every kept result must be served "(cached)" and left alone
# (same inode: a run simulated again re-publishes its file); and every
# artifact must be byte-identical to the first pass.  Each run is
# visited by exactly one sweep thread, so the log shows exactly one
# "(cached)" line per kept file.
cachedir="${root}/build/bench-artifacts-cache"
echo "=== RESULT cache (fig5, ablation_replication, synth, fig6: serve or re-simulate) ==="
rm -rf "${cachedir}"
mkdir -p "${cachedir}/state"
"${root}/build/bench/stashbench" --quick --jobs "${jobs}" \
    --restore "${cachedir}/state" --out "${cachedir}" \
    fig5 ablation_replication synth fig6
total="$(ls "${cachedir}"/state/*/RESULT_*.snap | wc -l)"
for name in fig5 ablation_replication synth fig6; do
    mv "${cachedir}/BENCH_${name}.json" \
       "${cachedir}/BENCH_${name}.ref.json"
    ls "${cachedir}/state/${name}"/RESULT_*.snap |
        awk 'NR % 2 == 1' | xargs rm
done
(cd "${cachedir}/state" && ls -i ./*/RESULT_*.snap) >"${cachedir}/kept"
kept="$(wc -l <"${cachedir}/kept")"
if ! "${root}/build/bench/stashbench" --quick --jobs "${jobs}" \
    --restore "${cachedir}/state" --out "${cachedir}" \
    fig5 ablation_replication synth fig6 >"${cachedir}/rerun.log" 2>&1
then
    cat "${cachedir}/rerun.log"
    exit 1
fi
for name in fig5 ablation_replication synth fig6; do
    cmp "${cachedir}/BENCH_${name}.ref.json" \
        "${cachedir}/BENCH_${name}.json"
done
(cd "${cachedir}/state" && ls -i ./*/RESULT_*.snap) >"${cachedir}/after"
untouched="$(grep -cFx -f "${cachedir}/kept" "${cachedir}/after" || true)"
served="$(grep -c '(cached)' "${cachedir}/rerun.log" || true)"
recached="$(wc -l <"${cachedir}/after")"
if [ "${kept}" -eq 0 ] || [ "${untouched}" -ne "${kept}" ] ||
    [ "${served}" -ne "${kept}" ] || [ "${recached}" -ne "${total}" ]
then
    cat "${cachedir}/rerun.log"
    echo "${kept} of ${total} results kept: ${untouched} left" \
         "untouched, ${served} runs served (cached), ${recached}" \
         "results cached after the rerun" >&2
    exit 1
fi
echo "${kept} kept results served, the deleted ones re-simulated; artifacts are byte-identical"

# A state directory holding a plain file where a bench keeps its
# results (DIR/fig5): stashbench must name the directory and the
# reason and exit 1, not abort on an escaping filesystem error.
collide="${cachedir}/collide"
mkdir -p "${collide}/state"
: >"${collide}/state/fig5"
collide_rc=0
"${root}/build/bench/stashbench" --smoke --jobs 1 \
    --restore "${collide}/state" --out "${collide}" fig5 \
    >"${collide}/run.log" 2>&1 || collide_rc=$?
want="stashbench: cannot use state directory ${collide}/state/fig5: "
if [ "${collide_rc}" -ne 1 ] || ! grep -qF "${want}" "${collide}/run.log"
then
    cat "${collide}/run.log"
    echo "--restore over a plain file named fig5 exited ${collide_rc}," \
         "want 1 and '${want}<reason>'" >&2
    exit 1
fi
echo "--restore over a plain file named fig5 exits 1 with a diagnostic"

# Interrupt and resume, end to end: SIGTERM a single-process
# --restore run of fig6 (about 3 s serial at quick scale) one second
# in.  It stops starting runs, finishes and caches the run in flight,
# and exits 75 "interrupted, resumable" (or 0 if it finished first).
# Rerunning with the same --restore directory serves the cached runs
# and simulates the rest, and its artifact must be byte-identical to
# the main quick leg's.
sigdir="${root}/build/bench-artifacts-sigterm"
echo "=== SIGTERM and resume (fig6 --restore: interrupt, rerun, cmp) ==="
rm -rf "${sigdir}"
mkdir -p "${sigdir}/state"
"${root}/build/bench/stashbench" --quick --jobs 1 \
    --restore "${sigdir}/state" --out "${sigdir}" fig6 \
    >"${sigdir}/interrupted.log" 2>&1 &
sig_pid=$!
sleep 1
kill -TERM "${sig_pid}" 2>/dev/null || true
sig_rc=0; wait "${sig_pid}" || sig_rc=$?
case "${sig_rc}" in
    0|75) ;;
    *) cat "${sigdir}/interrupted.log"
       echo "SIGTERMed stashbench exited ${sig_rc}, want 0 or 75" >&2
       exit 1 ;;
esac
"${root}/build/bench/stashbench" --quick --jobs "${jobs}" \
    --restore "${sigdir}/state" --out "${sigdir}" fig6
cmp "${artifacts}/BENCH_fig6.json" "${sigdir}/BENCH_fig6.json"
echo "SIGTERMed run exited ${sig_rc}; the resumed artifact is byte-identical"

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

# Trace frontend leg: record three workloads as stashtrace-v1 files
# and check them against the committed manifest (the recorder walks
# the built op stream and reads each op's lanes back from the block's
# lane pool, so a slip in how a workload is lowered or its lanes are
# stored shows up here even when the trace still round-trips).
# SynthMix's lanes are 4 bytes apart or gathers, Implicit's 64 bytes
# apart, and On-demand's ops have one lane each.  Then re-emit the
# SynthMix trace through the parser (the canonical rendering is a
# parse/write fixed point, so the two files must be byte-identical)
# and replay it as a bench.  Malformed traces and bad flag
# combinations must be rejected with exit 2.  Regenerate the manifest
# only with the quick one:
#   cd "${tracedir}" && sha256sum synthmix.trace implicit.trace \
#       on-demand.trace > "${root}/scripts/trace_artifacts.sha256"
tracedir="${root}/build/bench-artifacts-trace"
echo "=== stashtrace record -> manifest -> normalize -> replay round trip ==="
rm -rf "${tracedir}"
mkdir -p "${tracedir}"
"${root}/build/bench/stashbench" --quick \
    --trace-from SynthMix --trace-record "${tracedir}/synthmix.trace"
"${root}/build/bench/stashbench" --quick \
    --trace-from Implicit --trace-record "${tracedir}/implicit.trace"
"${root}/build/bench/stashbench" --quick \
    --trace-from On-demand --trace-record "${tracedir}/on-demand.trace"
(cd "${tracedir}" && sha256sum -c "${root}/scripts/trace_artifacts.sha256")
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

echo "=== CI passed (plain + ASan/UBSan + TSan + quick benches + manifests + RESULT cache + state-dir diagnostic + SIGTERM resume + backends + trace manifest + hostbench + full scale) ==="
