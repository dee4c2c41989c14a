"""Smoke test of the benchmark itself: metric names, result JSON, tracing.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))
from momabs import linalg, moments, sim  # noqa: E402
from momabs.signals import SignalSpec, Term  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _round_trip(declared, values):
    out = run.result(declared, values, attempted=12, failed=1, correct=True)
    back = json.loads(json.dumps(out))
    assert back == out
    assert set(back) == {"correct", "attempted", "failed", "metrics"}
    assert set(back["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert back["metrics"][m["name"]]["unit"] == m["unit"]
    return back


def test_tail_has_ten_slower_ops():
    value, pct = run.tail([float(t) for t in range(20, 0, -1)])
    assert value == 10.0 and pct == 50.0


def test_end_to_end_metrics_round_trip():
    times = [1.0 + 0.01 * i for i in range(15)]
    back = _round_trip(SPEC["end_to_end"], run.end_to_end_values(times, [0.2, 0.3, 0.25], 50.0))
    assert back["metrics"]["op_s.min"]["value"] == 1.0
    assert back["metrics"]["setup_s"]["value"] == 0.25


def test_traced_op_reports_every_layer_metric_and_restores_bindings():
    original = linalg.solve_sylvester
    tracer = Tracer()
    plant = linalg.StateSpaceModel(a=-np.eye(3) + np.diag([1.0, 1.0], 1), b=np.ones((3, 1)),
                                   c=np.ones((1, 3)))
    di = moments.DirectInterpolant(s=np.array([[0.0, 1.0], [-1.0, 0.0]]), l=np.ones((1, 2)))
    spec = sim.InterconnectionSpec(
        topology="direct-generator", models={"plant": plant},
        links={"s": di.s, "l": di.l}, initial={"w": [1.0, 0.0], "x": np.zeros(3)},
        signal=SignalSpec(((Term("sin", 1.0, 1.0),),)), horizon=0.1, step=0.01,
    )
    times, traced = [0.5, 0.6, 0.4], [False, True, False]
    tracer.install(1)
    tracer.begin_op()
    moments.moment_direct(plant, di)
    sim.integrate(spec)
    tracer.end_op()
    tracer.uninstall()

    assert moments.solve_sylvester is original and linalg.solve_sylvester is original
    names = [s[0] for s in tracer.spans]
    sylvester = names.index("linalg.solve_sylvester")
    assert names[tracer.spans[sylvester][3]] == "moments.moment_direct"
    values = run.layer_values(tracer, times, traced)
    back = _round_trip(SPEC["per_layer"], values)
    assert back["metrics"]["linalg.solve_sylvester.calls"]["value"] == 1
    assert back["metrics"]["sim.rk4_linear.steps"]["value"] == 10
    assert back["metrics"]["trace.overhead_s"]["value"] == pytest.approx(0.15)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-example", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
