#!/usr/bin/env bash
# Runs the JSON-emitting microbenches and collects their BENCH_<name>.json
# results into one directory (default: bench/ in the repo, so baselines can
# be committed and diffed across changes).
#
#   scripts/run_bench.sh [build-dir] [out-dir]
#
# Env:
#   TR_BENCH_OUT   overrides out-dir
#   TR_BENCH_ONLY  space-separated subset of bench names to run
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_dir="${TR_BENCH_OUT:-${2:-$repo_root/bench}}"

if [[ ! -d "$build_dir/bench" ]]; then
  echo "error: $build_dir/bench not found — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi
mkdir -p "$out_dir"

# Benches that emit BENCH_<name>.json (see bench/bench_util.h).
json_benches=(micro_itemcf micro_metrics micro_store micro_query
              micro_recover)
if [[ -n "${TR_BENCH_ONLY:-}" ]]; then
  read -r -a json_benches <<<"$TR_BENCH_ONLY"
fi

for name in "${json_benches[@]}"; do
  bin="$build_dir/bench/$name"
  if [[ ! -x "$bin" ]]; then
    echo "skip: $bin missing" >&2
    continue
  fi
  echo "== $name =="
  # google-benchmark-based binaries get a trimmed repetition count; the
  # JSON emitter inside each binary uses its own fixed rep policy. (Plain
  # "0.1", not "0.1s" — the pinned benchmark library predates the
  # suffixed-duration flag syntax and rejects it.)
  TR_BENCH_OUT="$out_dir" "$bin" --benchmark_min_time=0.1 || exit 1
  echo
done

echo "results:"
ls -l "$out_dir"/BENCH_*.json

# Append this run to the trajectory log: one JSONL line per invocation with
# a run id, the git sha, and every collected bench's metrics — the long-term
# record scripts/check_bench.py's point-in-time gate does not keep.
trajectory="$out_dir/BENCH_trajectory.jsonl"
python3 - "$out_dir" "$trajectory" "$repo_root" <<'PYEOF'
import glob, json, os, subprocess, sys, time, uuid

out_dir, trajectory, repo_root = sys.argv[1], sys.argv[2], sys.argv[3]
try:
    sha = subprocess.run(["git", "rev-parse", "HEAD"],
                         capture_output=True, text=True, cwd=repo_root,
                         check=True).stdout.strip()
except (subprocess.CalledProcessError, OSError):
    sha = "unknown"
benches = {}
for path in sorted(glob.glob(os.path.join(out_dir, "BENCH_*.json"))):
    with open(path) as f:
        record = json.load(f)
    benches[record.pop("name", os.path.basename(path))] = record
line = {
    "run_id": uuid.uuid4().hex[:12],
    "git_sha": sha,
    "timestamp": int(time.time()),
    "benches": benches,
}
with open(trajectory, "a") as f:
    f.write(json.dumps(line, sort_keys=True) + "\n")
print(f"trajectory -> {trajectory} (run {line['run_id']} @ {sha[:12]})")
PYEOF
