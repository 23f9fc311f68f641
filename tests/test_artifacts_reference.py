"""Every registered paper artifact, pinned numerically.

Each artifact's ``data`` is compared leaf by leaf with the reference
the benchmark records in ``perfbench/reference/artifacts.json``, using
the benchmark's own comparison (relative tolerance 1e-9). That file has
one writer, ``python3 perfbench/record_reference.py``: rerun it only
when an artifact's numbers change on purpose.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.registry import EXPERIMENTS

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from wl_artifacts import REFERENCE, flatten, mismatches  # noqa: E402


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_artifact_matches_reference(name, reference):
    assert name in reference, f"no recorded reference for {name}"
    bad = mismatches(flatten(EXPERIMENTS[name]().data), reference[name])
    assert not bad, f"{len(bad)} leaves differ from the reference: {bad[:5]}"
