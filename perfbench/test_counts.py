"""Self-test of the benchmark's tracer: call counts repeat exactly between
two traced runs of the same code, spans are written whole, and wrapped
functions are seen through every module binding.

    python3 -m pytest -q perfbench/test_counts.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

run._import_package()
import numpy as np  # noqa: E402
import rdregion  # noqa: E402
from rdregion import cli  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _traced_counts(workload: str, seed: int) -> tuple[dict, list]:
    """Counts of one traced pass over the workload's first op."""
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        ops, _ = workloads.build(workload, seed, Path(tmp))
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = 0
            code, _ = run._run_op(cli, ops[0])
        finally:
            tracer.uninstall()
        assert code == 0
        metrics = tracer.metrics(1)
        tracer.write_spans(Path(tmp) / "spans.npz")
        spans = np.load(Path(tmp) / "spans.npz")
        assert len(spans["id"]) == sum(tracer.calls)
        assert set(spans["parent"]) <= set(spans["id"]) | {-1}
        assert np.all(spans["end"] >= spans["start"])
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (v, u) in metrics.items()}
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    return counts, [n for n in workloads.SOLVERS[workload] if tracer.count(n) > 0]


@pytest.mark.parametrize("workload", sorted(workloads.BUILD_FUNCS))
def test_counts_repeat_exactly(workload):
    first, solvers_a = _traced_counts(workload, 3)
    second, solvers_b = _traced_counts(workload, 3)
    assert first == second
    assert solvers_a == solvers_b and solvers_a
    assert first["cli.calls"] > 0


def test_declared_workloads_match():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert {w["name"]: w["why"] for w in declared} == workloads.WHY
    assert set(workloads.WHY) == set(workloads.BUILD_FUNCS) == set(workloads.SOLVERS)


def test_wrappers_reach_from_imports():
    tracer = Tracer()
    original = rdregion.waterfill.max_det_capped
    tracer.install()
    try:
        wrapped = rdregion.waterfill.max_det_capped
        assert wrapped is not original
        assert rdregion.sumrate.max_det_capped is wrapped
        assert rdregion.max_det_capped is wrapped
        assert rdregion.matching.waterfill_det is rdregion.waterfill.waterfill_det
    finally:
        tracer.uninstall()
    assert rdregion.sumrate.max_det_capped is original


def test_names_a_module_no_longer_defines_are_skipped(monkeypatch):
    monkeypatch.setattr(rdregion.linalg, "__all__", [*rdregion.linalg.__all__, "removed_kernel"])
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "linalg.eig_sym" in tracer.names
    assert "linalg.removed_kernel" not in tracer.names
    assert tracer.metrics(1)["linalg.eig_sym.calls"] == (0, "count")
