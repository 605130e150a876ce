"""The benchmark wraps functions by name and calls some of them: each name must
still exist, and each call must still fit its function's signature."""

import argparse
import ast
import importlib.util
import inspect
from pathlib import Path

from shapelift import cli, config, linalg, mapping, pipeline, render, shapes, subspace

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_exists(monkeypatch):
    # Importing bench/run.py pins the BLAS thread variables; undo that after.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)

    sl = argparse.Namespace(cli=cli, config=config, linalg=linalg, mapping=mapping,
                            pipeline=pipeline, render=render, shapes=shapes,
                            subspace=subspace)
    targets = run.trace_targets(sl, image_dim=16)
    assert len(targets) > 20
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if attr not in vars(owner)]
    assert not missing


def test_run_calls_bind_to_the_library_signatures():
    # bench/run.py passes threads=1 to these calls.  A signature that no
    # longer takes what it passes fails every benchmark run, so each call in
    # run.py must bind, argument for argument, to today's signature.
    tree = ast.parse((BENCH / "run.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("generate_dataset", "compare_methods")]
    assert sorted(call.func.attr for call in calls) == [
        "compare_methods", "generate_dataset", "generate_dataset"]
    for call in calls:
        assert "threads" in {kw.arg for kw in call.keywords}
        inspect.signature(getattr(pipeline, call.func.attr)).bind(
            *call.args, **{kw.arg: kw.value for kw in call.keywords})
