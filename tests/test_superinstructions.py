"""The threaded backend no longer fuses steps into superinstructions, and
the ``REPRO_FUSION_THRESHOLD`` knob that drove the fusion is retired.
A deployment may still export it: the full static+dynamic runs under the
old "fuse everything" setting (threshold 1) must stay byte-identical to
the reference interpreter run without it."""

import pytest

from repro.config import ALL_ON
from repro.workloads import WORKLOADS_BY_NAME

from tests.test_threaded_backend import _run_under


class TestWorkloadIdentity:
    @pytest.mark.parametrize("name", [
        "dinero", "m88ksim", "chebyshev", "pnmconvol",
    ])
    def test_threshold_one_byte_identical(self, name, monkeypatch):
        monkeypatch.setenv("REPRO_FUSION_THRESHOLD", "1")
        workload = WORKLOADS_BY_NAME[name]
        threaded = _run_under(workload, ALL_ON, "threaded")
        monkeypatch.delenv("REPRO_FUSION_THRESHOLD")
        reference = _run_under(workload, ALL_ON, "reference")
        assert reference == threaded

    def test_threshold_one_pycodegen_fallback_identical(self, monkeypatch):
        """The threaded rung under the pycodegen backend (cold tier,
        degradations) ignores the retired knob too; stats must not drift."""
        monkeypatch.setenv("REPRO_FUSION_THRESHOLD", "1")
        workload = WORKLOADS_BY_NAME["romberg"]
        pycodegen = _run_under(workload, ALL_ON, "pycodegen")
        monkeypatch.delenv("REPRO_FUSION_THRESHOLD")
        reference = _run_under(workload, ALL_ON, "reference")
        assert reference == pycodegen
