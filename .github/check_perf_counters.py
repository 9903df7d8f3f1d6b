"""Gate perfbench's deterministic allocation counters on committed ceilings.

Reads one perfbench result (the JSON object on the last line of its
stdout) from stdin and fails if any counter named in
.github/perf-counters.json for WORKLOAD exceeds its ceiling by more than
the file's tolerance.

    tail -n 1 perfbench-paper-grid.txt | python3 .github/check_perf_counters.py paper-grid
"""

import json
import pathlib
import sys


def main() -> int:
    workload = sys.argv[1]
    spec = json.loads(pathlib.Path(__file__).with_name("perf-counters.json").read_text())
    tolerance = spec["tolerance"]
    metrics = json.load(sys.stdin)["metrics"]
    failed = False
    for name, ceiling in spec["ceilings"][workload].items():
        value = metrics[name]["value"]
        limit = ceiling * (1 + tolerance)
        ok = value <= limit
        failed |= not ok
        print(f"{workload} {name}: {value:.6g} (ceiling {ceiling:.6g}, limit {limit:.6g}) {'ok' if ok else 'REGRESSED'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
