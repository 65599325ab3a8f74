"""The scripts' output, pinned.  ``golden/kac_table_max_total_dim_6.txt`` is
``scripts/kac_table.py --max-total-dim 6`` as the Fraction log series of
Hua's formula printed it, before the integer series replaced it."""

import os
import subprocess
import sys
from pathlib import Path

import quiverforge

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(quiverforge.__file__).resolve().parent.parent)


def test_kac_table_matches_the_golden_output():
    env = {k: v for k, v in os.environ.items() if k != "QUIVERFORGE_CACHE"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kac_table.py"), "--max-total-dim", "6"],
        capture_output=True, text=True, env=env, check=True,
    )
    golden = (Path(__file__).parent / "golden" / "kac_table_max_total_dim_6.txt").read_text()
    assert done.stdout == golden
