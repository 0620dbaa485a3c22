"""Print the sha256 of every file the acceptance workflows write.

Runs `python -m oct_cascade` in child processes, in a fresh temporary
directory, for these workflows:

* criterion 8: `phantom gen --seed 3` plus `run` on its 8x96x64 phantom
  config (the acceptance suite's determinism check);
* `ablate --seeds 0-9` on the desk phantom defaults;
* `eval` of that run's mask and probability map against the ground-truth
  vessel mask of the same phantom, written by `phantom gen --config`;
* import: `run` on that written phantom with every stage imported - the
  boundaries from its `gt_boundaries.csv`, the shadow mask from its
  `gt_shadow_footprint` and the backend from the criterion-8 run's
  `prob.json`;
* paper: `phantom gen --scale paper` (19x496x384), a classical `run` on the
  written volume with overlays, and a `run` on it with every stage imported
  as above, the backend from that classical run's `prob.json`;
* montage: that imported paper `run` again, with `report.montage` on and
  the overlays off;
* held-out: `phantom gen --seed 7919` on the desk defaults (32x192x160).

The Python, numpy and scipy versions that wrote the files come first, as
`# <name> <version>` lines. Each other line is
`<sha256>  <workflow>/<relative path>`, sorted, so two checkouts that write
the same bytes print the same text:

    python3 tools/output_digest.py > after.txt
    python3 tools/output_digest.py --src ../other-checkout/src > before.txt
    diff before.txt after.txt

Stdlib only; `--src` names the package source directory to run (this
checkout's `src/` by default). `tests/golden_digests.txt` holds this output
for the committed code, and `tests/test_golden_digests.py` compares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib.metadata import version

CRITERION_8 = {"input": {"phantom": {"dims": [8, 96, 64], "n_vessels": 2, "seed": 3}},
               "output_dir": "unused"}
DESK_ABLATE = {"input": {"phantom": {}}, "output_dir": "unused"}


def _oct_cascade(src: str, *args: str) -> None:
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "oct_cascade", *args],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"oct_cascade {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")


def _input(gen: str) -> dict:
    """The input section for the phantom `phantom gen` wrote to `gen`."""
    return {"volume": os.path.join(gen, "volume.json"),
            "ground_truth_mask": os.path.join(gen, "gt_vessel_mask.json")}


def _imported(gen: str, run: str) -> dict:
    """A run config on that phantom with every stage imported: its boundaries
    and shadow footprint, and the backend from `run`'s `prob.json`."""
    return {
        "input": _input(gen),
        "boundaries": {"source": "import", "path": os.path.join(gen, "gt_boundaries.csv")},
        "shadows": {"source": "import", "path": os.path.join(gen, "gt_shadow_footprint.json")},
        "backend": {"kind": "import", "path": os.path.join(run, "prob.json")},
    }


def _run(src: str, configs: str, name: str, cfg: dict, out: str) -> None:
    path = os.path.join(configs, f"{name}.json")
    with open(path, "w") as fh:
        json.dump({**cfg, "output_dir": out}, fh)
    _oct_cascade(src, "run", "--config", path)


def _versions() -> list[str]:
    """The `# <name> <version>` lines of the interpreter the workflows run in."""
    return [f"# python {platform.python_version()}",
            *(f"# {name} {version(name)}" for name in ("numpy", "scipy"))]


def _digests(root: str) -> list[str]:
    lines = []
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, root)}")
    return sorted(lines)


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="package source directory (default: this checkout's src/)")
    src = os.path.abspath(parser.parse_args().src)

    with tempfile.TemporaryDirectory() as tmp:
        configs, out = os.path.join(tmp, "configs"), os.path.join(tmp, "out")
        os.makedirs(configs)
        for name, cfg in (("criterion8", CRITERION_8), ("desk", DESK_ABLATE),
                          ("phantom", CRITERION_8["input"]["phantom"])):
            with open(os.path.join(configs, f"{name}.json"), "w") as fh:
                json.dump(cfg, fh)

        gen, run = os.path.join(out, "criterion8", "gen"), os.path.join(out, "criterion8", "run")
        _oct_cascade(src, "phantom", "gen", "--seed", "3", "--out", gen)
        _oct_cascade(src, "run", "--config", os.path.join(configs, "criterion8.json"), "--out", run)
        _oct_cascade(src, "ablate", "--config", os.path.join(configs, "desk.json"),
                     "--seeds", "0-9", "--out", os.path.join(out, "ablate"))
        truth = os.path.join(out, "eval", "gen")
        _oct_cascade(src, "phantom", "gen", "--config", os.path.join(configs, "phantom.json"),
                     "--out", truth)
        _oct_cascade(src, "eval", "--pred", os.path.join(run, "mask.json"),
                     "--gt", os.path.join(truth, "gt_vessel_mask.json"),
                     "--prob", os.path.join(run, "prob.json"), "--out", os.path.join(out, "eval"))
        _run(src, configs, "import", _imported(truth, run), os.path.join(out, "import"))

        gen = os.path.join(out, "paper", "gen")
        _oct_cascade(src, "phantom", "gen", "--scale", "paper", "--out", gen)
        run = os.path.join(out, "paper", "run")
        _run(src, configs, "paper-run", {"input": _input(gen), "report": {"overlays": True}}, run)
        _run(src, configs, "paper-import", _imported(gen, run), os.path.join(out, "paper", "import"))
        _run(src, configs, "montage", {**_imported(gen, run), "report": {"overlays": False, "montage": True}},
             os.path.join(out, "montage"))

        _oct_cascade(src, "phantom", "gen", "--seed", "7919", "--out", os.path.join(out, "held-out"))
        print("\n".join(_versions() + _digests(out)))


if __name__ == "__main__":
    main()
