"""Golden outputs: the seed-0 run digests of tools/run_digest.py and the
sha256 of the method sweep's records file, checked in.

A change that keeps output byte-identical leaves every digest as written.
Float kernels differ across numpy builds, BLAS builds and CPUs, so the
comparison runs only where the environment stamp equals the one stored with
the digests; elsewhere the test skips and names both stamps. After a change
that moves output on purpose, regenerate the file with

    python3 tools/run_digest.py --write tests/golden/run_digest_seed0.json

and give the old and new totals in CHANGES.md.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "run_digest_seed0.json"


def load_run_digest():
    spec = importlib.util.spec_from_file_location("run_digest", ROOT / "tools" / "run_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def skip_under_another_stamp(golden_stamp, stamp):
    if stamp != golden_stamp:
        pytest.skip(f"golden digests were written under {golden_stamp}; this host is {stamp}")


@pytest.fixture(scope="module")
def golden_and_tool():
    """The golden file and the digest tool; skips under another stamp."""
    run_digest = load_run_digest()
    golden = json.loads(GOLDEN.read_text())
    skip_under_another_stamp(golden["stamp"], run_digest.environment_stamp())
    return golden, run_digest


def test_other_blas_kernels_skip_the_comparison():
    # OpenBLAS picks its kernels by CPU at load time; forcing another core
    # in a child process must change the stamp, so that a host running
    # other kernels skips the digests, naming both stamps, and never fails
    golden = json.loads(GOLDEN.read_text())["stamp"]
    if golden["blas_core"] in (None, "Haswell"):
        pytest.skip(f"the golden stamp names the BLAS core {golden['blas_core']}")
    code = "import json, run_digest; print(json.dumps(run_digest.environment_stamp()))"
    child = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "tools", capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"}, check=True,
    )
    stamp = json.loads(child.stdout)
    assert stamp != golden
    with pytest.raises(pytest.skip.Exception) as skipped:
        skip_under_another_stamp(golden, stamp)
    assert str(golden) in str(skipped.value) and str(stamp) in str(skipped.value)


def test_seed0_digests_match_golden(golden_and_tool):
    golden, run_digest = golden_and_tool
    runs = run_digest.digests([0])
    moved = [label for label, digest in runs if golden["runs"].get(label) != digest]
    assert not moved, f"runs whose output moved: {moved}"
    assert [label for label, _ in runs] == list(golden["runs"])
    assert run_digest.total(runs) == golden["total"]


def test_method_sweep_records_match_golden(golden_and_tool):
    golden, run_digest = golden_and_tool
    assert run_digest.records_digest() == golden["records_method"]
