#!/usr/bin/env bash
# Produce BENCH_<PR>.json: a committed snapshot of the pinned vbench set,
# so per-PR perf numbers accumulate in-repo and the trajectory is diffable
# instead of living in CI logs.
#
# Usage: scripts/bench_snapshot.sh <pr-number>
#
# The vendored criterion shim (vendor/criterion) prints one
# `bench <group>/<name> <mean> ns/iter` line per benchmark and keeps no
# on-disk estimates, so the snapshot is parsed from bench stdout. These
# are short offline runs for trend-watching, not publication-grade
# measurements; treat single-digit-percent moves as noise.
set -euo pipefail
cd "$(dirname "$0")/.."

PR="${1:?usage: scripts/bench_snapshot.sh <pr-number>}"
BENCHES=(resolve_engine ipc open_paths lookup_models sync_round)

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

# Three runs per bench, best (minimum) mean kept: the snapshot feeds a
# 25% regression gate below, and single short runs on a shared box jitter
# by double-digit percents — the min is the standard noise-shedding
# estimator and matches the best-of-N pins inside the benches themselves.
#
# The runs are pinned to one core where `taskset` works. A rendezvous
# between two unpinned threads is bimodal — ~2 µs when the scheduler keeps
# them on one core, ~30 µs across two on a small VM — and which mode a run
# lands in is not the code's doing; `vload` pins for the same reason.
cargo bench -p vbench --no-run
PIN=()
LAST_CPU=$(( $(nproc) - 1 ))
if command -v taskset >/dev/null && taskset -c "$LAST_CPU" true 2>/dev/null; then
    PIN=(taskset -c "$LAST_CPU")
fi
for b in "${BENCHES[@]}"; do
    for rep in 1 2 3; do
        echo "==> ${PIN[*]} cargo bench -p vbench --bench $b (run $rep/3)"
        "${PIN[@]}" cargo bench -p vbench --bench "$b" | tee "$OUT_DIR/$b.$rep.txt"
    done
done

python3 - "$PR" "$OUT_DIR" "${BENCHES[@]}" <<'PY'
import json, pathlib, re, sys

pr, out_dir, benches = sys.argv[1], pathlib.Path(sys.argv[2]), sys.argv[3:]
line_re = re.compile(r"^bench\s+(\S+)\s+(\d+)\s+ns/iter\s*$")

results = {}
for b in benches:
    for rep_file in sorted(out_dir.glob(f"{b}.*.txt")):
        for line in rep_file.read_text().splitlines():
            m = line_re.match(line)
            if not m:
                continue
            name, mean = m.group(1), int(m.group(2))
            prev = results.get(name)
            if prev is None or mean < prev["mean_ns"]:
                results[name] = {"bench": b, "mean_ns": mean}

if not results:
    sys.exit("no `bench ... ns/iter` lines found in bench output")

out = pathlib.Path(f"BENCH_{pr}.json")
with out.open("w") as f:
    json.dump({"pr": int(pr), "bench_set": benches, "results": results}, f,
              indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out} ({len(results)} benchmarks)")

# Regression gate: any benchmark more than 25% slower than the newest
# previous snapshot fails the run — loudly, after writing the snapshot so
# the offending numbers are on disk to inspect. 25% is far above the noise
# floor of these short offline runs; tripping it means a real hot-path
# regression, not jitter.
prior = sorted(
    (p for p in pathlib.Path(".").glob("BENCH_*.json") if p != out),
    key=lambda p: int(re.sub(r"\D", "", p.stem) or 0),
)
if prior:
    base_path = prior[-1]
    base = json.loads(base_path.read_text())["results"]
    regressions = []
    for name, cur in sorted(results.items()):
        old = base.get(name)
        if old and cur["mean_ns"] * 4 > old["mean_ns"] * 5:
            pct = 100.0 * cur["mean_ns"] / old["mean_ns"] - 100.0
            regressions.append(
                f"  {name}: {old['mean_ns']} -> {cur['mean_ns']} ns/iter (+{pct:.0f}%)"
            )
    if regressions:
        sys.exit(
            f"BENCH REGRESSION vs {base_path} (>25% slower):\n"
            + "\n".join(regressions)
        )
    print(f"regression gate vs {base_path}: ok")
else:
    print("regression gate: no prior BENCH_*.json, skipped")
PY
