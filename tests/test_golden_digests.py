"""Every file the acceptance workflows write keeps the bytes recorded in
`golden_digests.txt`, across commits.

`tools/output_digest.py` runs the workflows in child processes and prints
the interpreter's Python, numpy and scipy versions, then one sha256 per
written file. This test runs it on this checkout's `src/` and compares
with the committed output; it is never skipped. A change that alters
output bytes on purpose regenerates the file with

    python3 tools/output_digest.py > tests/golden_digests.txt

and names the changed files and the reason in CHANGES.md.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GOLDEN = os.path.join(ROOT, "tests", "golden_digests.txt")


def _split(text: str) -> tuple[list[str], dict[str, str]]:
    """The version lines and a {relative path: sha256} map of the tool's output."""
    versions, digests = [], {}
    for line in text.splitlines():
        if line.startswith("# "):
            versions.append(line[2:])
        elif line:
            digest, path = line.split("  ", 1)
            digests[path] = digest
    return versions, digests


def test_outputs_match_golden_digests():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "output_digest.py"),
         "--src", os.path.join(ROOT, "src")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    with open(GOLDEN) as fh:
        want_versions, want = _split(fh.read())
    got_versions, got = _split(proc.stdout)
    differ = sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))
    if want_versions == got_versions:
        versions = f"versions are the golden file's: {', '.join(got_versions)}"
    else:
        versions = f"versions differ: golden {want_versions}, here {got_versions}"
    if differ:
        pytest.fail("\n".join([f"{len(differ)} files differ from, or are missing from or new "
                               f"to, the {len(want)} golden ones:", *differ, versions]))
