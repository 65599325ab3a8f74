"""What a fresh process loads: numpy only once an orbit partition runs,
scipy never, ``dataclasses`` and ``inspect`` not before numpy (which loads
``inspect``), ``hashlib`` (which maps OpenSSL's libcrypto) only when a hash
is taken, and the result cache (with its POSIX-only ``fcntl``) only when
the CLI does.  Each check runs in a subprocess, because this one already has
numpy loaded (the tests import it)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import quiverforge
from quiverforge import kronecker_quiver
from quiverforge.cli import serialize_quiver

SRC = str(Path(quiverforge.__file__).resolve().parent.parent)


def loaded_after(body: str, modules=("numpy", "scipy"), prelude: str = "") -> dict:
    """Run ``prelude``, ``import quiverforge`` and then ``body`` in a fresh
    interpreter and report which of ``modules`` are in its ``sys.modules``."""
    env = {k: v for k, v in os.environ.items() if k != "QUIVERFORGE_CACHE"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    report = f"print(json.dumps({{m: m in sys.modules for m in {tuple(modules)!r}}}))"
    script = f"import json, sys\n{prelude}\nimport quiverforge\n{body}\n{report}\n"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_kac_forms_roots_and_betti_load_neither_numpy_nor_scipy(tmp_path):
    path = tmp_path / "kron2.json"
    path.write_text(serialize_quiver(kronecker_quiver(2)))
    body = "\n".join([
        "from quiverforge import cli, kac_polynomial, kronecker_quiver",
        "assert kac_polynomial(kronecker_quiver(2), (1, 1)).integer_coefficients() == [1, 1]",
        f"assert cli.main(['forms', '--quiver', {str(path)!r}, '--d', '2,1']) == 0",
        f"assert cli.main(['roots', '--quiver', {str(path)!r}, '--d', '3,3']) == 0",
        f"assert cli.main(['betti', '--quiver', {str(path)!r}, '--d', '1,1', '--theta', '-1,1']) == 0",
    ])
    assert loaded_after(body) == {"numpy": False, "scipy": False}


def test_orbit_partition_loads_numpy_but_not_scipy():
    body = "\n".join([
        "from quiverforge import jordan_quiver",
        "from quiverforge.orbits import orbit_partition",
        "assert orbit_partition(jordan_quiver(), (2,), 2)[1] == 16",
    ])
    assert loaded_after(body) == {"numpy": True, "scipy": False}


def test_counting_and_moduli_run_without_fcntl_or_the_cache():
    # None in sys.modules makes any import of fcntl fail, as on a host without it
    body = "\n".join([
        "from quiverforge import cbvdb_identity_check, count_report, kac_polynomial, kronecker_quiver",
        "kron2 = kronecker_quiver(2)",
        "assert kac_polynomial(kron2, (1, 1)).integer_coefficients() == [1, 1]",
        "assert count_report(kron2, (1, 1), 2, cross_check=True).absolutely_indecomposable == 3",
        "assert cbvdb_identity_check(kron2, (1, 1), (-1, 1), 2).holds",
    ])
    loaded = loaded_after(body, ("quiverforge.cache",), prelude='sys.modules["fcntl"] = None')
    assert loaded == {"quiverforge.cache": False}


def test_import_and_light_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    # the result records are NamedTuples, so no import generates their code
    path = tmp_path / "kron2.json"
    path.write_text(serialize_quiver(kronecker_quiver(2)))
    body = "\n".join([
        "from quiverforge import acceptance, cli, kac_polynomial, kronecker_quiver",
        "assert kac_polynomial(kronecker_quiver(2), (1, 1)).integer_coefficients() == [1, 1]",
        f"assert cli.main(['forms', '--quiver', {str(path)!r}, '--d', '2,1']) == 0",
    ])
    assert loaded_after(body, ("dataclasses", "inspect")) == {"dataclasses": False, "inspect": False}


def test_import_kac_forms_and_betti_load_no_hashlib(tmp_path):
    # only a quiver's content hash and the cache's version key take a hash
    path = tmp_path / "kron2.json"
    path.write_text(serialize_quiver(kronecker_quiver(2)))
    body = "\n".join([
        "from quiverforge import cli, kac_polynomial, kronecker_quiver",
        "assert kac_polynomial(kronecker_quiver(2), (2, 2)).integer_coefficients() == [1, 1]",
        f"assert cli.main(['forms', '--quiver', {str(path)!r}, '--d', '2,1']) == 0",
        f"assert cli.main(['betti', '--quiver', {str(path)!r}, '--d', '1,1', '--theta', '-1,1']) == 0",
    ])
    assert loaded_after(body, ("hashlib", "_hashlib")) == {"hashlib": False, "_hashlib": False}
