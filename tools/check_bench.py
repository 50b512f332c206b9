"""Check the committed benchmark trajectory files.

Run from the root of a checkout:

    python3 tools/check_bench.py

Each performance change commits one ``BENCH_<topic>.json`` at the root of
the checkout. Every such file must parse as JSON, and for each workload
that ``BENCHMARK.json`` declares it must hold a non-empty ``parent`` and
``change`` list of result lines under ``workloads.<name>``. Prints one line
per file and exits 1 when any file fails.
"""
import glob
import json
import os
import sys

ROOT = os.getcwd()


def problems(path: str, workloads: list[str]) -> list[str]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as e:
        return [f"does not parse: {e}"]
    runs = data.get("workloads") if isinstance(data, dict) else None
    if not isinstance(runs, dict):
        return ["has no 'workloads' object"]
    out = []
    for name in workloads:
        entry = runs.get(name)
        for side in ("parent", "change"):
            if not isinstance(entry, dict) or not isinstance(entry.get(side), list) or not entry[side]:
                out.append(f"lacks a '{side}' entry for workload {name}")
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    failed = False
    for path in sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json"))):
        found = problems(path, workloads)
        print(os.path.basename(path), "ok" if not found else "; ".join(found))
        failed |= bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
