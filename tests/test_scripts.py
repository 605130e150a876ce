"""Smoke test for the example script under ``scripts/``.

The reference three-method table needs no script: it is ``shapelift gen``
followed by ``shapelift compare`` on ``configs/reference.cfg``.
"""

import os
import subprocess
import sys
from pathlib import Path

import shapelift
from shapelift import shapes

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_heatmap_demo_writes_four_error_clouds(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(shapelift.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_heatmap_demo.py"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "average test rmse:" in proc.stdout
    written = sorted(p.name for p in tmp_path.glob("heatmap_*.ply"))
    assert written == [f"heatmap_{label}_{mode}.ply" for label in ("best", "worst")
                       for mode in ("corresponded", "nearest")]
    for name in written:
        points, extras, _ = shapes.read_ply(tmp_path / name)
        assert set(extras) == {"error"}
        assert extras["error"].shape == (points.shape[0],) and points.shape[0] > 0
