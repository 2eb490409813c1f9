"""Every library name the benchmark's tracer wraps must exist.

`perfbench/tracer.py` resolves all of its TARGETS when it is imported, and
`perfbench/run.py` imports it on every run, traced or not. A library
change that drops or renames one of those names would fail every
benchmark run; this test makes it fail here instead.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_resolves_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = {(owner, attr) for owner, attr, _, _ in tracer.TARGETS}
    assert set(tracer._ORIGINALS) == targets
    assert all(callable(fn) for fn in tracer._ORIGINALS.values())
