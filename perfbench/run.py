"""End-to-end and per-layer benchmark of the oct_cascade pipeline.

    python3 perfbench/run.py --workload desk-ablate --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop with a single client: the next volume goes
to the program only after the previous call returned, and only the
program's own threads run while a call is timed. Inputs come from the
workload seed (see workloads.json) and are written by fresh processes
before timing starts; the set-up is repeated and its median reported.
The loop runs for --seconds of program time and at least once over every
input. Every output is then checked against phantom ground truth.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates traced and untraced volumes, reports the per-layer metrics
(self time, calls and counters per traced volume) and then measures
allocation peaks in a separate tracemalloc pass over one volume.

The last line printed is one JSON object: correct, attempted, failed and
metrics. Spans and a full record of each run, the run environment
included, are written under .perfbench-work/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


class Call(NamedTuple):
    input: int
    seconds: float
    traced: bool
    error: str | None


def _children(requests: list[dict]) -> list:
    """Answer each request in a fresh Python process running workloads.py.

    The processes run side by side; each is waited for, and killed first
    if this function is left early.
    """
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    procs = []
    try:
        for request in requests:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "workloads.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
            )
            procs.append(proc)
            proc.stdin.write(json.dumps(request))
            proc.stdin.close()
        answers = []
        for request, proc in zip(requests, procs):
            out = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"workloads.py {request['op']} exited with {proc.returncode}")
            answers.append(json.loads(out))
        return answers
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


def _digest(directory: str) -> str:
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    from oct_cascade import layers

    thread_count = getattr(layers, "_thread_count", None)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        # the layer tracer's slice pool size; 1 once the package has no pool
        "dp_threads": thread_count() if thread_count else 1,
        "platform": platform.platform(),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    """Mean of the finite values; a check that raised leaves NaN behind."""
    finite = [v for v in values if math.isfinite(v)]
    return statistics.fmean(finite) if finite else 0.0


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool, settings: dict) -> dict:
    """Set up, time, check and (with trace) probe one workload.

    Returns a record with every metric, its sample count and the calls.
    """
    import spans
    import workloads

    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    setup_runs = []
    request = {"op": "setup", "spec": spec, "seed": seed, "work_dir": str(work)}
    for _ in range(settings["setup_repeats"]):
        start = time.perf_counter()
        (answer,) = _children([request])
        setup_runs.append(time.perf_counter() - start)
    inputs = [workloads.Input(**inp) for inp in answer]

    tracer = spans.Tracer()
    digests: dict[int, str] = {}

    def one(inp, traced: bool, volume: int) -> Call:
        error = None
        with contextlib.ExitStack() as probes:
            if traced:
                probes.enter_context(spans.patched(spans.TRACED, tracer.wrap))
                tracer.volume = volume
            start = time.perf_counter()
            try:
                workloads.call(spec, inp)
            except Exception as exc:  # a failing volume is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if error is None:
            digest = _digest(inp.output_dir)
            if digests.setdefault(inp.index, digest) != digest:
                error = "outputs differ from the first call on the same input"
        return Call(inp.index, elapsed, traced, error)

    warm_up = one(inputs[0], False, -1)
    timed: list[Call] = []
    busy = 0.0
    n = len(inputs)
    while busy < seconds or len(timed) < max(n, 2):
        i = len(timed)
        timed.append(one(inputs[i % n], trace and (i + i // n) % 2 == 0, i))
        busy += timed[-1].seconds
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks recompute every input, after the timed loop and the memory
    # high-water mark; two processes halve their wall time.
    halves = [inputs[0::2], inputs[1::2]]
    answers = _children([
        {"op": "check", "spec": spec, "tolerance_vox": settings["boundary_tolerance_vox"],
         "inputs": [dataclasses.asdict(inp) for inp in half]}
        for half in halves if half
    ])
    checks = {
        inp.index: workloads.Check(**c)
        for half, answer in zip(halves, answers)
        for inp, c in zip(half, answer)
    }
    calls = [warm_up] + timed
    errors = [
        c.error or "; ".join(checks[c.input].errors)
        for c in calls
        if c.error or checks[c.input].errors
    ]

    plain = [c.seconds for c in timed if not c.traced and c.error is None]
    plain_busy = sum(c.seconds for c in timed if not c.traced)
    quality = list(checks.values())
    metrics = {
        "volumes_per_s": (len(plain) / plain_busy if plain_busy else 0.0, len(plain)),
        "volume_s_p50": (_median(plain), len(plain)),
        "peak_rss_mib": (peak_rss_mib, 1),
        "setup_s": (_median(setup_runs) + warm_up.seconds, len(setup_runs)),
        "error_rate": (len(errors) / len(calls), len(calls)),
        "iou_mean": (_mean(c.iou for c in quality), len(quality)),
        "auc_mean": (_mean(c.auc for c in quality), len(quality)),
        "boundary_mae_vox": (_mean(c.boundary_mae_vox for c in quality), len(quality)),
    }

    layer = {}
    if trace:
        traced = [c.seconds for c in timed if c.traced]
        layer = spans.layer_metrics(tracer.spans, len(traced), sum(traced))
        layer["trace.overhead_frac"] = _median(traced) / _median(plain) - 1.0 if plain else 0.0
        layer["layers.boundary_mae_vox"] = metrics["boundary_mae_vox"][0]
        layer.update(spans.AllocationProbe().measure(lambda: workloads.call(spec, inputs[0])))
        _write_spans(name, seed, tracer.spans)

    shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(calls),
        "failed": len(errors),
        "errors": errors[:10],
        "metrics": metrics,
        "layer": layer,
        "setup_runs_s": setup_runs,
        "warm_up_s": warm_up.seconds,
        "calls": [c._asdict() for c in timed],
    }


def _write_spans(name: str, seed: int, recorded) -> None:
    out = WORK / "spans"
    out.mkdir(parents=True, exist_ok=True)
    origin = min((sp.start for sp in recorded), default=0.0)
    with open(out / f"{name}-seed{seed}.jsonl", "w") as fh:
        for sp in recorded:
            row = sp._replace(start=sp.start - origin, end=sp.end - origin)._asdict()
            fh.write(json.dumps(row) + "\n")


def result_line(record: dict, bench: dict) -> dict:
    """The driver-facing summary: end-to-end metrics, or per-layer with trace."""
    if record["trace"]:
        values = {m["name"]: (record["layer"][m["name"]], m["unit"]) for m in bench["per_layer"]}
    else:
        values = {m["name"]: (record["metrics"][m["name"]][0], m["unit"]) for m in bench["end_to_end"]}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()},
    }


_EXTRA_UNITS = {"error_rate": "ratio", "boundary_mae_vox": "vox"}


def report(record: dict, bench: dict, env: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(_EXTRA_UNITS)
    print(f"== {record['workload']}  seed {record['seed']}  seconds {record['seconds']:g}  trace {record['trace']}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, n) in record["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {units[name]:<8} n={n}")
    for name in sorted(record["layer"]):
        print(f"  {name:<44} {record['layer'][name]:>14.6g} {units.get(name, '')}")
    for error in record["errors"]:
        print(f"  error: {error}")


def main(argv=None) -> int:
    settings = json.loads((HERE / "workloads.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(settings["workloads"])
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=settings["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oct_cascade" / "__init__.py").is_file():
        print(f"perfbench: no oct_cascade sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()

    WORK.mkdir(exist_ok=True)
    for name in names if args.workload == "all" else [args.workload]:
        record = run_workload(name, settings["workloads"][name], args.seed, args.seconds, bool(args.trace), settings)
        record["env"] = env
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        report(record, bench, env)
        print(json.dumps(result_line(record, bench)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
