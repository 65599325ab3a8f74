"""The scripts' output, pinned.  ``golden/kac_table_max_total_dim_6.txt`` is
``scripts/kac_table.py --max-total-dim 6`` as the Fraction log series of
Hua's formula printed it, before the integer series replaced it, and
``golden/kac_table_max_total_dim_10.txt`` is ``--max-total-dim 10`` as
the integer series printed it while each interpolation node still
rebuilt its series' Q-free plan and Lagrange interpolation ran in
Fractions.
``golden/identity_sweep.txt`` is ``scripts/identity_sweep.py`` at its
defaults as the orbit partition printed it while each generator's action
was still built by decoding unit points and multiplying matrices."""

import os
import subprocess
import sys
from pathlib import Path

import quiverforge

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(quiverforge.__file__).resolve().parent.parent)


def _script_stdout(name, *args):
    env = {k: v for k, v in os.environ.items() if k != "QUIVERFORGE_CACHE"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return done.stdout


def test_kac_table_matches_the_golden_output():
    golden = (Path(__file__).parent / "golden" / "kac_table_max_total_dim_6.txt").read_text()
    assert _script_stdout("kac_table.py", "--max-total-dim", "6") == golden


def test_kac_table_matches_the_golden_output_to_total_dimension_10():
    golden = (Path(__file__).parent / "golden" / "kac_table_max_total_dim_10.txt").read_text()
    assert _script_stdout("kac_table.py", "--max-total-dim", "10") == golden


def test_identity_sweep_matches_the_golden_output():
    golden = (Path(__file__).parent / "golden" / "identity_sweep.txt").read_text()
    assert _script_stdout("identity_sweep.py") == golden
