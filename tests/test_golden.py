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
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "run_digest_seed0.json"


def load_run_digest():
    spec = importlib.util.spec_from_file_location("run_digest", ROOT / "tools" / "run_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden_and_tool():
    """The golden file and the digest tool; skips under another stamp."""
    run_digest = load_run_digest()
    golden = json.loads(GOLDEN.read_text())
    stamp = run_digest.environment_stamp()
    if stamp != golden["stamp"]:
        pytest.skip(f"golden digests were written under {golden['stamp']}; this host is {stamp}")
    return golden, run_digest


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
