"""The traced benchmark wraps functions by name; each name must still exist."""

import argparse
import importlib.util
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
