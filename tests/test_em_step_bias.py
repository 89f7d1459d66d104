"""Smoke test of tools/em_step_bias.py: one cell at 2 replicas, so a renamed internal fails here."""

import importlib.util
import math
import time
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "em_step_bias.py"


def test_em_step_bias_runs_one_cell_and_gates_it():
    spec = importlib.util.spec_from_file_location("em_step_bias", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    began = time.perf_counter()
    cell = tool._run(("A", 4.0, 1, 2))
    assert time.perf_counter() - began < 5.0
    assert cell["h"] == "dt/1" and cell["seed"] == tool._seed("A", 4.0, 1) and cell["replicas"] == 2
    # one sub-step per record step: T/dt = 200
    assert cell["substeps_per_path"] == 200
    assert len(cell["rel_bias"]) == len(cell["rel_se"]) == tool.L
    assert all(math.isfinite(v) for v in cell["rel_bias"] + cell["rel_se"])
    ok, rows = tool.verdict([cell])
    assert isinstance(ok, bool)
    assert [(r["quantity"], r["test"]) for r in rows] == [
        ("E sum X^2", "against reference"),
        ("m6", "against reference"),
    ]
