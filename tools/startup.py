"""Print the wall time and peak RSS of command-line runs of oct_cascade.

Runs `python -m oct_cascade` in child processes, in a fresh temporary
directory, for these commands:

* `--help`;
* `phantom gen --scale paper` (19x496x384);
* `run` on that paper volume read from disk, with its ground-truth mask
  and overlays;
* `eval` of that run's mask and probability map against the ground truth.

Each command runs `RUNS` (5) times, one child at a time, each `phantom
gen` and `run` into a new output directory. A child's wall time is taken
from its start to its exit, and its peak RSS is the `ru_maxrss` of its own
rusage (`os.wait4`). The medians and minima of each
are printed as one JSON object, after the Python version:

    python3 tools/startup.py > BENCH_startup.json
    python3 tools/startup.py --src ../other-checkout/src

Stdlib only; `--src` names the package source directory to run (this
checkout's `src/` by default).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

RUNS = 5


def _measure(src: str, args: list[str]) -> tuple[float, float]:
    """The wall seconds and peak RSS (MiB) of one `python -m oct_cascade
    <args>` child, which must exit 0."""
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "oct_cascade", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    # os.wait4 reaps the child, so its stderr is read first: a child that
    # fills the pipe would otherwise never exit.
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"oct_cascade {' '.join(args)} exited {proc.returncode}:\n{err.decode()}")
    return wall, usage.ru_maxrss / 1024.0  # KiB on Linux


def _summary(samples: list[tuple[float, float]]) -> dict:
    walls, rss = zip(*samples)
    return {"runs": len(samples), "wall_s_median": statistics.median(walls), "wall_s_min": min(walls),
            "peak_rss_mib_median": statistics.median(rss), "peak_rss_mib_min": min(rss)}


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="package source directory (default: this checkout's src/)")
    args = parser.parse_args()
    src = os.path.abspath(args.src)

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        gen, run = os.path.join(tmp, "gen0"), os.path.join(tmp, "run0")
        config = os.path.join(tmp, "run.json")
        with open(config, "w") as fh:
            json.dump({"input": {"volume": os.path.join(gen, "volume.json"),
                                 "ground_truth_mask": os.path.join(gen, "gt_vessel_mask.json")},
                       "report": {"overlays": True}, "output_dir": run}, fh)
        commands = {
            "--help": lambda i: ["--help"],
            "phantom gen --scale paper": lambda i: ["phantom", "gen", "--scale", "paper",
                                                    "--out", os.path.join(tmp, f"gen{i}")],
            "run, paper volume from disk": lambda i: ["run", "--config", config,
                                                      "--out", os.path.join(tmp, f"run{i}")],
            "eval": lambda i: ["eval", "--pred", os.path.join(run, "mask.json"),
                               "--gt", os.path.join(gen, "gt_vessel_mask.json"),
                               "--prob", os.path.join(run, "prob.json"),
                               "--out", os.path.join(tmp, "eval")],
        }
        for name, argv in commands.items():  # in order: each reads what the one before wrote
            results[name] = _summary([_measure(src, argv(i)) for i in range(RUNS)])
    print(json.dumps({"python": platform.python_version(), "commands": results}, indent=1))


if __name__ == "__main__":
    main()
