"""Run each script in scripts/ end to end and check the CSV it writes."""
import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,header,rows", [
    ("run_canonical.py", ["N", "optimal_m", "weight_path0"], 21),
    ("constraint_sweep.py", ["N", "c", "value", "feasible", "floor_slack"], 12),
])
def test_script_writes_its_csv(tmp_path, script, header, rows):
    out = tmp_path / "out.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--out", str(out)],
                   check=True, capture_output=True, text=True, env=env, timeout=300)
    with out.open(newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert table[0] == header
    assert len(table) - 1 == rows
