"""Benchmark of the bioaffect affect workflow, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports bioaffect from `src/`. With
`--trace 0` it repeats the set-up for SETUP_SECONDS, runs closed-loop
iterations of the workload for S seconds and reports the end-to-end
metrics of BENCHMARK.json. With `--trace 1` it runs two pairs of
untraced and traced iterations (see tracer.py), reports the per-layer
metrics and the tracing overhead, and writes every span and conv call record to
`.bench_out/`. Both modes check the outputs (see checks.py) and print, as
the last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`.
"""

from __future__ import annotations

import os

# Pinned before numpy loads its BLAS: one thread is within any core count
# and gives steadier timings than two on this code, whose matmuls are small.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import concurrent.futures  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
SETUP_SECONDS = 2.0
MAX_PROBED_CPUS = 8
TRACE_PAIRS = 2


def _median(values) -> float:
    return float(statistics.median(values))


def _blas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(np, workload: str, seed: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    threads = _blas_threads(np)
    nproc = len(os.sched_getaffinity(0))
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "bioaffect").glob("*.py")):
        src_hash.update(path.name.encode() + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads if threads is not None else BLAS_THREADS,
        "blas_threads_measured": threads is not None,
        "nproc": nproc,
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "machine": platform.machine(),
    }


def check_outputs(np, checks, name: str, seed: int, iterations: list) -> dict:
    """Finite and byte-identical to the first iteration, per output; the
    first iteration against the recorded reference."""
    first = iterations[0].outputs
    failed = 0
    problems = []
    for k, it in enumerate(iterations):
        for key, arr in it.outputs.arrays.items():
            # One row per predict call; a 1-D array is one output.
            rows = np.atleast_2d(np.asarray(arr, dtype=np.float64))
            ref = np.atleast_2d(np.asarray(first.arrays.get(key, []), dtype=np.float64))
            bad = ~np.isfinite(rows).all(axis=1)
            if ref.shape == rows.shape:
                bad |= (rows.view(np.uint64) != ref.view(np.uint64)).any(axis=1)
            else:
                bad[:] = True
            if bad.any():
                failed += int(bad.sum())
                problems.append(f"iteration {k}: {int(bad.sum())} bad row(s) in {key}")
        for key, value in it.outputs.labels.items():
            if value != first.labels.get(key):
                failed += 1
                problems.append(f"iteration {k}: {key} = {value!r} != {first.labels.get(key)!r}")
    summary = first.summary()
    reference = checks.compare_reference(name, seed, summary, checks.load_reference())
    failed += len(reference["mismatches"])
    problems.extend(reference["mismatches"])
    return {
        "attempted": sum(it.ops for it in iterations),
        "failed": failed,
        "problems": problems,
        "reference": reference["status"],
        "repeats": len(iterations),
        "summary": summary,
    }


def _rate(pairs) -> float:
    """Items per second from (seconds, items) pairs, over all of them."""
    seconds, items = zip(*pairs)
    return sum(items) / sum(seconds)


def phase_rates(iterations: list) -> dict:
    """Items/s of every phase over the whole run, under the names the notes use."""
    names = {"train": "train_samples_per_s", "pretrain": "pretrain_windows_per_s",
             "ingest": "ingest_frames_per_s"}
    return {names[p]: _rate(it.phases[p] for it in iterations) for p in iterations[0].phases}


def pin_fastest_cpu(np, cpus: list) -> int:
    """Move this process to the allowed core that runs a short probe fastest.

    Other tenants of the machine slow each core by 1.4x to 1.6x, for
    seconds at a time and independently of the other cores, so a whole run
    could otherwise land on a slowed core. The probe takes ~10 ms a core.
    """
    x = np.ones((200, 200))
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = perf_counter()
        for _ in range(30):
            x @ x
        timings.append((perf_counter() - start, cpu))
    best = min(timings)[1]
    os.sched_setaffinity(0, {best})
    return best


def generate_inputs(workload, seed: int, work: Path) -> dict:
    """Make the workload's inputs in a child process, so that the memory
    generation takes is not part of this process's peak RSS."""
    fork = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=fork) as pool:
        return pool.submit(workload.generate, seed, work).result()


def time_setup(np, workload, inputs, seed: int, cpus: list) -> tuple:
    """Times of set-up repeated for SETUP_SECONDS, each repeat on the
    fastest core, and the state the last repeat built."""
    times = []
    state = None
    start = perf_counter()
    while not times or perf_counter() - start < SETUP_SECONDS:
        pin_fastest_cpu(np, cpus)
        # Only one set-up's state is alive at a time, as for a user.
        state = None
        begin = perf_counter()
        state = workload.setup(inputs, seed)
        times.append(perf_counter() - begin)
    return times, state


def run_untraced(np, tracer, workload, inputs, seed: int, seconds: float, cpus: list) -> tuple:
    tracer.assert_unwrapped()
    setup_s, state = time_setup(np, workload, inputs, seed, cpus)
    # The number of set-up repeats depends on the machine's speed, and so
    # would the point in the first iteration where the cyclic collector
    # runs; that point moved the peak RSS by up to 6 % between runs.
    gc.collect()
    iterations = []
    start = perf_counter()
    while not iterations or perf_counter() - start < seconds:
        pin_fastest_cpu(np, cpus)
        iterations.append(workload.iterate(state, inputs, seed))
        if len(iterations) == 1:
            # The peak creeps up with every iteration, so it is read after a
            # fixed amount of work; otherwise a faster commit would fit more
            # iterations and show more memory.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.assert_unwrapped()
    # Rates are items over time for the whole run. Other tenants slow each
    # core by up to ~1.6x for seconds at a time, and a rate over the run
    # moves with the share of slowed time; a per-call percentile instead
    # flips between the two speeds, so p50 and p90 are reported, not gated.
    latencies = [x for it in iterations for x in it.latencies_s]
    metrics = {
        "setup_s": _median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "job_items_per_s": _rate(it.job for it in iterations),
        "predict_frames_per_s": _rate(it.predict for it in iterations),
    }
    info = {
        **phase_rates(iterations),
        "predict_ms_p50": _median(latencies) * 1e3,
        "predict_ms_p90": float(np.percentile(latencies, 90)) * 1e3,
        "predict_samples": len(latencies),
        "setup_repeats": len(setup_s),
    }
    return metrics, info, iterations


def run_traced(np, tracer, workload, inputs, seed: int, name: str, cpus: list) -> tuple:
    """TRACE_PAIRS pairs of one untraced and one traced pass of set-up plus
    iteration. The per-layer metrics and spans come from the faster traced
    pass; the overhead compares the faster pass of each kind."""
    untraced_s, traced_s, tracers, iterations = [], [], [], []
    for _ in range(TRACE_PAIRS):
        tracer.assert_unwrapped()
        pin_fastest_cpu(np, cpus)
        start = perf_counter()
        state = workload.setup(inputs, seed)
        iterations.append(workload.iterate(state, inputs, seed))
        untraced_s.append(perf_counter() - start)
        del state
        pin_fastest_cpu(np, cpus)
        tr = tracer.Tracer()
        tr.install()
        try:
            start = perf_counter()
            tr.run_id = f"{name}:{seed}:setup"
            span = tr.open("bench.setup")
            state = workload.setup(inputs, seed)
            tr.close(span)
            tr.run_id = f"{name}:{seed}:iteration"
            span = tr.open("bench.iteration")
            iterations.append(workload.iterate(state, inputs, seed))
            tr.close(span)
            traced_s.append(perf_counter() - start)
        finally:
            tr.uninstall()
        tracers.append(tr)
        del state
    tracer.assert_unwrapped()
    tr = tracers[traced_s.index(min(traced_s))]
    metrics = tr.layer_metrics()
    metrics["trace.overhead_s"] = min(traced_s) - min(untraced_s)
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / min(untraced_s)
    metrics["trace.spans"] = len(tr.spans)
    info = {"untraced_s": untraced_s, "traced_s": traced_s}
    return metrics, info, iterations, tr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    bench_json = ROOT / "BENCHMARK.json"
    if not (SRC / "bioaffect" / "__init__.py").is_file() or not bench_json.is_file():
        print(f"error: {ROOT} holds no bioaffect source tree (src/bioaffect) "
              "or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(bench_json.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    sys.path.insert(0, str(SRC))
    import numpy as np

    import bioaffect
    if Path(bioaffect.__file__).resolve().parent != (SRC / "bioaffect").resolve():
        print(f"error: imported bioaffect from {bioaffect.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment(np, args.workload, args.seed)
    env["valid"] = env["blas_threads"] <= env["nproc"]

    cpus = sorted(os.sched_getaffinity(0))[:MAX_PROBED_CPUS]
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        inputs = generate_inputs(workload, args.seed, work)
        if args.trace:
            metrics, info, iterations, tr = run_traced(
                np, tracer, workload, inputs, args.seed, args.workload, cpus
            )
        else:
            metrics, info, iterations = run_untraced(
                np, tracer, workload, inputs, args.seed, args.seconds, cpus
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checked = check_outputs(np, checks, args.workload, args.seed, iterations)

    if set(metrics) != set(declared):
        print(f"error: measured metrics {sorted(set(metrics) ^ set(declared))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(
            json.dumps({"env": env, **tr.dump()}, separators=(",", ":"))
        )
    correct = env["valid"] and checked["failed"] == 0
    result = {
        "correct": correct,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {**result, "env": env, "info": info, "checks": checked}, indent=1, sort_keys=True
    ) + "\n")

    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']} "
          f"{env['blas_version']} with {env['blas_threads']} thread(s), nproc {env['nproc']}, "
          f"commit {env['git_commit']}, seed {args.seed}"
          + ("" if env["valid"] else "  INVALID: BLAS threads exceed nproc"))
    for k in declared:
        print(f"{k} {metrics[k]!r} {declared[k]}")
    for k, v in info.items():
        print(f"info {k} {v!r}")
    print(f"checks: {checked['failed']} failed of {checked['attempted']} attempted "
          f"(fail_ratio {checked['failed'] / checked['attempted']!r}), "
          f"{checked['repeats']} repeats, reference {checked['reference']}")
    for problem in checked["problems"][:20]:
        print(f"  {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
