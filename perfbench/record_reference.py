"""Add output summaries from finished runs to reference.json.

    python3 perfbench/record_reference.py

Reads every `.bench_out/<workload>-seed<N>-trace0.json` whose checks
passed and whose seed has no reference yet, and stores its output summary
under that workload and seed. Entries already recorded are never
replaced, and runs of source that differs from the recorded source tree
are refused, so the reference stays the output of one commit.
"""

from __future__ import annotations

import json
import sys

import run
from checks import REFERENCE_PATH, load_reference


def main() -> int:
    reference = load_reference() or {"recorded_from": None, "workloads": {}}
    added = 0
    for path in sorted(run.OUT_DIR.glob("*-trace0.json")):
        result = json.loads(path.read_text())
        env, checks = result["env"], result["checks"]
        source = {"git_commit": env["git_commit"], "src_sha256": env["src_sha256"]}
        if reference["recorded_from"] is None:
            reference["recorded_from"] = source
        if env["src_sha256"] != reference["recorded_from"]["src_sha256"]:
            print(f"skip {path.name}: source differs from the recorded tree", file=sys.stderr)
            continue
        entries = reference["workloads"].setdefault(env["workload"], {})
        if result["failed"] or str(env["seed"]) in entries:
            continue
        entries[str(env["seed"])] = checks["summary"]
        added += 1
    for name, entries in reference["workloads"].items():
        reference["workloads"][name] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=False) + "\n")
    print(f"added {added} entr{'y' if added == 1 else 'ies'} to {REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
