"""The library's import policy and the README's examples, checked as printed."""

from __future__ import annotations

import ast
import pathlib
import re
import sys
import tempfile

import numpy as np

from hwdims.cli import parse_config
from hwdims.evaluate import POLICIES
from hwdims.hw import TREND_KINDS
from hwdims.optimize import ALGORITHMS, OBJECTIVES
from hwdims.timeseries import DIMS_INIT_METHODS, SEASON_INIT_METHODS

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_numpy_and_stdlib_only():
    # The library may import only numpy and the standard library.
    allowed = set(sys.stdlib_module_names) | {"numpy", "hwdims"}
    bad = []
    for path in sorted((ROOT / "src" / "hwdims").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [f"{path}:{node.lineno}: {name}" for name in names
                    if name.split(".")[0] not in allowed]
    assert not bad, "imports outside numpy + stdlib:\n" + "\n".join(bad)


def test_fit_and_evaluate_cannot_decompose():
    # Seeds come from moving averages: the search and the rolling evaluation
    # import nothing from the decomposition, so only `decompose` runs mstl.
    bad = []
    for name in ("optimize.py", "evaluate.py"):
        path = ROOT / "src" / "hwdims" / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or "", *(alias.name for alias in node.names)]
            else:
                continue
            bad += [f"{path}:{node.lineno}: {module}" for module in modules
                    if "decompose" in module.split(".")]
    assert not bad, "imports of the decomposition:\n" + "\n".join(bad)


def test_main_has_one_handler_per_exit_code():
    # cli.main catches each fault class once, for its exit code; any other
    # exception is a bug and surfaces as a traceback, not as a data error.
    path = ROOT / "src" / "hwdims" / "cli.py"
    main = next(node for node in ast.parse(path.read_text(), str(path)).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = []
    for node in ast.walk(main):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught += [ast.unparse(t) if t else "(bare except)" for t in types]
    assert sorted(caught) == ["DataError", "FitInfeasibleError", "OSError", "UsageError"], caught


def test_readme_quickstart():
    # The library quickstart must run as printed, on a synthetic 52-week
    # hourly series standing in for the user's data, and forecast the holiday
    # it registers after that data.
    readme = README.read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)

    def load_my_hourly_demand():
        t = np.arange(52 * 168)
        noise = np.random.default_rng(0).normal(0.0, 5.0, t.size)
        return 1000.0 * (1 + 0.2 * np.sin(2 * np.pi * t / 24)) \
            * (1 + 0.05 * np.sin(2 * np.pi * t / 168)) + noise

    ns = {"load_my_hourly_demand": load_my_hourly_demand}
    exec(compile(block, "README.md quickstart", "exec"), ns)
    # the holiday block at 8736 starts after the data; the forecast reads it
    assert (ns["projection"]["holidays"] >= 0).all()


def test_readme_config():
    # Every key of the README's run.cfg must parse, so the documented keys
    # and the config parser stay in step; for each enumerated key, the value
    # and the `|`-separated names in its comment must be exactly the values
    # the parser accepts.
    readme = README.read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp) / "run.cfg"
        config.write_text(block)
        parse_config(config)
    accepted = {"trend": TREND_KINDS, "algorithm": ALGORITHMS,
                "objective": OBJECTIVES, "policy": POLICIES}
    # season and dims lines may repeat: their init methods, on all the lines
    # together with their comments, must be the ones each accepts
    methods = {"season": SEASON_INIT_METHODS, "dims": DIMS_INIT_METHODS}
    seen = {key: set() for key in methods}
    for line in block.splitlines():
        key, _, rest = line.partition("=")
        value, _, comment = rest.partition("#")
        commented = {name.strip() for name in comment.split("|")} - {""}
        if key.strip() in methods:
            seen[key.strip()] |= {value.split()[2]} | commented
        allowed = accepted.pop(key.strip(), None)
        if allowed is not None:
            documented = {value.strip()} | commented
            assert documented == set(allowed), (
                f"README {key.strip()}: documents {sorted(documented)}, "
                f"the parser accepts {sorted(allowed)}")
    assert not accepted, f"README run.cfg: no line for {sorted(accepted)}"
    for key, allowed in methods.items():
        assert seen[key] == set(allowed), (
            f"README {key} init methods: documents {sorted(seen[key])}, "
            f"the parser accepts {sorted(allowed)}")
