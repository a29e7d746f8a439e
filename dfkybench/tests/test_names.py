"""Checks that the runner's workload and metric names match BENCHMARK.json.

Usage: python3 test_names.py <dfky_bench binary> <BENCHMARK.json>
"""
import json
import subprocess
import sys


def main(binary, benchmark_json):
    listed = json.loads(subprocess.run([binary, "--list-metrics"], check=True,
                                       capture_output=True, text=True).stdout)
    with open(benchmark_json) as f:
        bench = json.load(f)
    errors = []
    want = [w["name"] for w in bench["workloads"]]
    if listed["workloads"] != want:
        errors.append(f"workloads: runner {listed['workloads']} vs {want}")
    for key in ("end_to_end", "per_layer"):
        runner = [tuple(m) for m in listed[key]]
        declared = [(m["name"], m["unit"]) for m in bench[key]]
        if runner != declared:
            errors.append(f"{key}: runner {runner} vs BENCHMARK.json {declared}")
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
