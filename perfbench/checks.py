"""Output checks: finiteness, repeat identity, and the recorded reference.

Every workload iteration hands back an `Outputs`: named float arrays
(losses, predictions, assessment coordinates) and named labels (the
assessed quadrants). The digest covers every byte of them. A run passes
when each iteration is finite and byte-identical to the first, and when
the first matches the reference recorded for this workload and seed.

Reference tolerance. An identical digest is an exact match, which is what
unchanged arithmetic gives. Otherwise each summary value may differ from
the recorded one by SPREAD_FRACTION times that value's range across every
recorded seed (never less than ABS_FLOOR). A reordered float64 reduction
moves these values by far less than that; a real defect moves them by a
sizeable part of the range. Labels must match exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SPREAD_FRACTION = 1e-4
ABS_FLOOR = 1e-12
REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Outputs:
    arrays: dict = field(default_factory=dict)  # name -> float64 array
    labels: dict = field(default_factory=dict)  # name -> str

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.arrays):
            arr = np.ascontiguousarray(self.arrays[name], dtype="<f8")
            h.update(name.encode() + repr(arr.shape).encode() + arr.tobytes())
        for name in sorted(self.labels):
            h.update(f"{name}={self.labels[name]}".encode())
        return h.hexdigest()

    def summary(self) -> dict:
        """Scalars compared against the reference: every short array in
        full, and per-column mean and RMS plus the first and last row of
        every matrix."""
        values = {}
        for name, arr in sorted(self.arrays.items()):
            arr = np.asarray(arr, dtype=np.float64)
            if arr.ndim == 2:
                parts = {
                    "mean": arr.mean(axis=0), "rms": np.sqrt((arr * arr).mean(axis=0)),
                    "first": arr[0], "last": arr[-1],
                }
                for part, vec in parts.items():
                    for i, v in enumerate(vec):
                        values[f"{name}.{part}.{i}"] = float(v)
            else:
                for i, v in enumerate(arr.reshape(-1)):
                    values[f"{name}.{i}"] = float(v)
        return {"digest": self.digest(), "values": values, "labels": dict(self.labels)}


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def _tolerances(entries: dict) -> dict:
    ranges: dict = {}
    for entry in entries.values():
        for key, v in entry["values"].items():
            lo, hi = ranges.get(key, (v, v))
            ranges[key] = (min(lo, v), max(hi, v))
    return {k: max(ABS_FLOOR, SPREAD_FRACTION * (hi - lo)) for k, (lo, hi) in ranges.items()}


def compare_reference(workload: str, seed: int, summary: dict, reference: dict) -> dict:
    """Returns {"status": "exact"|"within_tolerance"|"mismatch"|"not_recorded", ...}."""
    entries = reference.get("workloads", {}).get(workload, {})
    ref = entries.get(str(seed))
    if ref is None:
        return {"status": "not_recorded", "mismatches": []}
    if ref["digest"] == summary["digest"]:
        return {"status": "exact", "mismatches": []}
    tol = _tolerances(entries)
    mismatches = []
    for key, want in ref["values"].items():
        got = summary["values"].get(key)
        if got is None or abs(got - want) > tol[key]:
            mismatches.append(f"{key}: got {got!r}, reference {want!r}, tolerance {tol[key]:.3g}")
    for key, want in ref["labels"].items():
        if summary["labels"].get(key) != want:
            mismatches.append(f"{key}: got {summary['labels'].get(key)!r}, reference {want!r}")
    status = "mismatch" if mismatches else "within_tolerance"
    return {"status": status, "mismatches": mismatches}
