"""The package's public names are exactly what its users import.

The demos and the README's Python examples are the documented users of
``sapa_rrm``; their imports are parsed, and the demos also run, with
warnings as errors.  The benchmark's tracer is a user too: it wraps
module attributes by name and counts what the wrapped calls return,
and its smoke setting runs end to end here.
"""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sapa_rrm
from sapa_rrm.qram import ControlGrid, build_majorant, enumerate_setpoints
from sapa_rrm.radar_model import Environment, RadarConstants, UtilityShape

ROOT = Path(__file__).resolve().parents[1]


def documented_sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme,
                                         re.S)):
        yield f"README.md python block {i}", block


def package_imports(source):
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "sapa_rrm"
            for alias in node.names}


def test_documented_imports_are_public():
    sources = dict(documented_sources())
    assert any(name.startswith("README.md") for name in sources)
    public = set(sapa_rrm.__all__)
    for name, source in sources.items():
        imported = package_imports(source)
        assert imported, f"{name} imports nothing from sapa_rrm"
        missing = imported - public
        assert not missing, f"{name} imports non-public {sorted(missing)}"


@pytest.mark.parametrize("demo", sorted(p.name for p in
                                         (ROOT / "demos").glob("*.py")))
def test_demo_runs_without_warnings(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else os.pathsep.join((src, path))}
    proc = subprocess.run([sys.executable, "-W", "error", f"demos/{demo}"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout


def test_every_public_name_resolves():
    for name in sapa_rrm.__all__:
        assert hasattr(sapa_rrm, name), name


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_points_and_counters_resolve():
    # a trace point whose attribute is gone would read zero, not fail
    tracing = load_tracing()
    for mod_name, attr, span_name, _counter in tracing.TRACE_POINTS:
        module = importlib.import_module(mod_name)
        assert callable(getattr(module, attr, None)), \
            f"{span_name}: {mod_name}.{attr} does not resolve"

    grid = ControlGrid(t_d_values=(4e-3, 20e-3), f_t_values=(0.5, 2.0),
                       n_h_values=(12, 48))
    env = Environment(range=60e3, bearing=0.2, rcs=1.0, maneuver_std=10.0,
                      corr_time=4.0)
    args = (env, 0.5, grid, RadarConstants(), UtilityShape())
    points = enumerate_setpoints(*args)
    counts = tracing._count_setpoints(args, {}, points)
    assert counts["grid_points"] == grid.size == 8
    assert 0 < counts["feasible"] == len(points) <= grid.size
    assert counts["u_one"] + counts["u_zero"] <= counts["feasible"]
    majorant = build_majorant(points)
    counts = tracing._count_majorant((points,), {}, majorant)
    assert counts == {"in_points": len(points),
                      "vertices": len(majorant.points)}
    assert counts["vertices"] > 0


def test_benchmark_smoke_run_is_correct():
    # checks the smoke reference digests and every trace counter
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke",
         "--seed", "1234", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
