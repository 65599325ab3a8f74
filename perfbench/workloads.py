"""The four benchmark workloads: job lists, expected answers and set-up.

Every job is one call into the public ``quiverforge`` API (the ``kac`` job
also reads Betti numbers off the polynomial it gets back) or one in-process
``quiverforge.cli.main(argv)`` call.  Calls go through module attributes at
call time, so the tracer's wrappers see them.

Expected answers are fixed here.  Where theory gives a value it is used
(Kac polynomial q for the Jordan quiver, q + 1 and q^2 + q + 1 for the
Kronecker quivers at (1, 1), 1 at real roots, zero discrepancy, identities
that hold); the remaining values (M/I/A counts, level-set sizes, point
counts, CLI payloads) are those of the seed commit, where both Burnside
routes agree.

The workload seed changes only the job order of each pass, the order of
the ``cli-cache`` command stream and the pre-filled cache records.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable

import quiverforge as qf
from quiverforge import cache, cli

CAP_JORDAN = 2_500_000
CAP_KRONECKER2 = 5_000_000
PREFILL_RECORDS = 5000


@dataclass(frozen=True)
class Job:
    name: str
    call: Callable[[], object]
    expected: object
    largest: bool = False


class Workload:
    """A fixed job table, run in passes in a seeded order."""

    name = ""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.rng = random.Random(seed)
        self.quivers = {
            "jordan": qf.jordan_quiver(),
            "kron2": qf.kronecker_quiver(2),
            "kron3": qf.kronecker_quiver(3),
            "a2": qf.a2_quiver(),
        }
        self.jobs = self.build_jobs()

    def build_jobs(self) -> list[Job]:
        raise NotImplementedError

    def next_pass(self) -> list[Job]:
        """Job order of the next pass; any per-pass reset happens here,
        outside the timed region."""
        order = list(self.jobs)
        self.rng.shuffle(order)
        return order


# ---------------------------------------------------------------------------
# kac: Kac polynomials by interpolation, then Betti numbers


KAC_TABLE = [
    # quiver, d, cap, Kac coefficients, Betti numbers
    ("jordan", (1,), CAP_JORDAN, [0, 1], [1, 0, 0]),
    ("jordan", (2,), CAP_JORDAN, [0, 1], [1, 0, 0]),
    ("jordan", (3,), CAP_JORDAN, [0, 1], [1, 0, 0]),
    ("kron2", (1, 1), CAP_KRONECKER2, [1, 1], [1, 0, 1]),
    ("kron2", (2, 1), CAP_KRONECKER2, [1], [1]),
    ("kron2", (2, 2), CAP_KRONECKER2, [1, 1], [1, 0, 1]),
    ("kron3", (1, 1), qf.DEFAULT_CAP, [1, 1, 1], [1, 0, 1, 0, 1]),
    ("a2", (1, 1), qf.DEFAULT_CAP, [1], [1]),
]
KAC_LARGEST = ("jordan", (3,))


class KacWorkload(Workload):
    name = "kac"

    def build_jobs(self):
        jobs = []
        for qname, d, cap, coeffs, betti in KAC_TABLE:
            quiver = self.quivers[qname]

            def call(quiver=quiver, d=d, cap=cap):
                poly = qf.kac_polynomial(quiver, d, cap=cap)
                report = qf.betti_from_kac(poly, quiver.expected_moduli_dim(d))
                return {"kac": poly.integer_coefficients(), "betti": list(report.betti)}

            jobs.append(
                Job(
                    f"kac {qname} {_vec(d)}",
                    call,
                    {"kac": coeffs, "betti": betti},
                    largest=(qname, d) == KAC_LARGEST,
                )
            )
        return jobs


# ---------------------------------------------------------------------------
# burnside: count_report with the Burnside cross-check, and the Hua identity


BURNSIDE_COUNTS = [
    # quiver, d, q, (M, I, A)
    ("kron2", (2, 1), 2, (5, 1, 1)),
    ("kron2", (2, 1), 3, (6, 1, 1)),
    ("kron2", (2, 1), 4, (7, 1, 1)),
    ("kron2", (2, 1), 5, (8, 1, 1)),
    ("kron2", (2, 2), 2, (16, 4, 3)),
    ("jordan", (2,), 5, (30, 15, 5)),
    ("jordan", (2,), 7, (56, 28, 7)),
    ("jordan", (3,), 2, (14, 4, 2)),
]
BURNSIDE_HUA = [("jordan", 2, 3), ("kron2", 2, 3), ("kron2", 3, 2)]  # quiver, q, degree
BURNSIDE_LARGEST = ("jordan", (2,), 7)


class BurnsideWorkload(Workload):
    name = "burnside"

    def build_jobs(self):
        jobs = []
        for qname, d, q, (m, i, a) in BURNSIDE_COUNTS:
            quiver = self.quivers[qname]

            def call(quiver=quiver, d=d, q=q):
                report = qf.count_report(quiver, d, q, cross_check=True)
                return [report.iso_classes, report.indecomposable,
                        report.absolutely_indecomposable, report.method]

            jobs.append(
                Job(
                    f"count {qname} {_vec(d)} q={q}",
                    call,
                    [m, i, a, "orbit-partition+burnside"],
                    largest=(qname, d, q) == BURNSIDE_LARGEST,
                )
            )
        for qname, q, degree in BURNSIDE_HUA:
            quiver = self.quivers[qname]

            def call(quiver=quiver, q=q, degree=degree):
                return str(qf.hua_identity_check(quiver, q, degree))

            jobs.append(Job(f"hua {qname} q={q} D={degree}", call, "0"))
        return jobs


# ---------------------------------------------------------------------------
# moduli: point-count identity, lifting fibers, one deformed level set


MODULI_CBVDB = [
    # quiver, d, theta, q, (point count, e, A)
    ("kron2", (1, 1), (-1, 1), 3, (12, 1, 4)),
    ("kron2", (1, 1), (-1, 1), 5, (30, 1, 6)),
    ("kron2", (1, 1), (-1, 1), 7, (56, 1, 8)),
    ("kron3", (1, 1), (-1, 1), 5, (775, 2, 31)),
    ("a2", (1, 1), (-1, 1), 5, (1, 0, 1)),
    ("kron2", (2, 1), (-1, 2), 3, (1, 0, 1)),
]


class ModuliWorkload(Workload):
    name = "moduli"

    def build_jobs(self):
        jobs = []
        for qname, d, theta, q, (points, e, a) in MODULI_CBVDB:
            quiver = self.quivers[qname]

            def call(quiver=quiver, d=d, theta=theta, q=q):
                check = qf.cbvdb_identity_check(quiver, d, theta, q)
                return [check.holds, check.point_count, check.e, check.abs_indecomposable]

            jobs.append(
                Job(f"cbvdb {qname} {_vec(d)} theta={_vec(theta)} q={q}", call,
                    [True, points, e, a])
            )
        kron2 = self.quivers["kron2"]

        def lifting():
            check = qf.lifting_fiber_check(kron2, (2, 1), (-1, 2), 3)
            return [check.holds, check.level_count, check.fibers_total]

        def level_set():
            return qf.enumerate_level_set(kron2, (2, 1), (-1, 2), 4)

        jobs.append(Job("lifting kron2 2,1 theta=-1,2 q=3", lifting, [True, 48, 48]))
        jobs.append(Job("level-set kron2 2,1 eta=-1,2 q=4", level_set, 180, largest=True))
        return jobs


# ---------------------------------------------------------------------------
# cli-cache: a command stream through cli.main against a pre-filled cache


CLI_COMMANDS = [
    # argv after the quiver file, cacheable, expected stdout payload
    ("kron2", ["count", "--d", "2,1", "--q", "4", "--cross-check"],
     {"A": 1, "I": 1, "M": 7, "d": [2, 1], "method": "orbit-partition+burnside", "q": 4,
      "quiver": "04d0d596d638b31c38c4c17bcaa92c703f9e558f265c4ffb3f94544daab5f4b3"}),
    ("kron2", ["count", "--d", "2,2", "--q", "2", "--cross-check"],
     {"A": 3, "I": 4, "M": 16, "d": [2, 2], "method": "orbit-partition+burnside", "q": 2,
      "quiver": "04d0d596d638b31c38c4c17bcaa92c703f9e558f265c4ffb3f94544daab5f4b3"}),
    ("jordan", ["count", "--d", "2", "--q", "5"],
     {"A": 5, "I": 15, "M": 30, "d": [2], "method": "orbit-partition", "q": 5,
      "quiver": "c70122b19efbb44511c5ebd334ce06fac88dbefd6140bc6fb9e05d1041471993"}),
    ("jordan", ["kac", "--d", "2"], {"polynomial": [0, 1]}),
    ("kron3", ["kac", "--d", "1,1"], {"polynomial": [1, 1, 1]}),
    ("kron2", ["hua", "--q", "2", "--degree", "3"],
     {"degree": 3, "max_discrepancy": "0", "q": 2}),
    ("jordan", ["hua", "--q", "2", "--degree", "3"],
     {"degree": 3, "max_discrepancy": "0", "q": 2}),
    ("kron2", ["moduli", "--d", "2,1", "--theta", "-1,2", "--q", "3"],
     {"A": 1, "e": 0, "identity_holds": True, "level_set": 48, "point_count": 1, "q": 3,
      "scope": "theorem"}),
    ("kron2", ["moduli", "--d", "1,1", "--theta", "-1,1", "--q", "5"],
     {"A": 6, "e": 1, "identity_holds": True, "level_set": 120, "point_count": 30, "q": 5,
      "scope": "theorem"}),
    ("kron2", ["moduli", "--d", "2,1", "--eta", "-1,2", "--q", "3"],
     {"level_set": 48, "q": 3, "trace_obstruction_ok": True}),
    ("kron3", ["betti", "--d", "1,1", "--theta", "-1,1"], {"betti": [1, 0, 1, 0, 1], "e": 2}),
    ("kron2", ["betti", "--d", "1,1", "--theta", "-1,1"], {"betti": [1, 0, 1], "e": 1}),
    ("kron2", ["forms", "--d", "2,1", "--d2", "1,2"],
     {"d": [2, 1], "d2": [1, 2], "euler": -4, "expected_moduli_dim": 0, "symmetrized": -2,
      "tits": 1}),
    ("kron3", ["roots", "--d", "3,3"], {"bound": [3, 3], "roots": [[0, 1], [1, 0], [1, 3], [3, 1]]}),
    ("kron2", ["stability", "--d", "2,1", "--theta", "-1,2", "--q", "3"],
     {"d": [2, 1], "generic": True, "normalized": [-3, 6], "pairing": 0, "slope": "0",
      "theta": [-1, 2], "total": 81,
      "verdicts": {"semistable-not-stable": 0, "stable": 48, "unstable": 33}}),
]
CLI_LARGEST = ["moduli", "--d", "2,1", "--theta", "-1,2", "--q", "3"]
CACHED_COMMANDS = {"count", "kac", "hua", "moduli"}


class CliCacheWorkload(Workload):
    """Each command appears twice per pass, so a cacheable one misses and
    appends once, then hits once.  Every pass starts from the same cache
    file, pre-filled with unrelated records at set-up."""

    name = "cli-cache"

    def __init__(self, workdir: str, seed: int):
        self.cache_path = os.path.join(workdir, "cache.jsonl")
        self.prefill_path = os.path.join(workdir, "prefill.jsonl")
        super().__init__(workdir, seed)
        self.prefill()

    def build_jobs(self):
        paths = {}
        for qname, quiver in self.quivers.items():
            paths[qname] = os.path.join(self.workdir, f"{qname}.json")
            with open(paths[qname], "w", encoding="utf-8") as fh:
                fh.write(cli.serialize_quiver(quiver))
        jobs = []
        for qname, args, payload in CLI_COMMANDS:
            argv = [args[0], "--quiver", paths[qname], *args[1:], "--cache", self.cache_path]
            jobs.append(
                Job(" ".join([args[0], qname, *args[1:]]), _cli_call(argv),
                    {"exit": 0, "payload": payload}, largest=args == CLI_LARGEST)
            )
        return jobs + jobs

    def prefill(self):
        """Unrelated records through cache_store; fixed shapes, so the cost
        of scanning them does not depend on the seed."""
        real = {q.content_hash() for q in self.quivers.values()}
        for _ in range(PREFILL_RECORDS):
            key = f"{self.rng.getrandbits(256):064x}"
            if key in real:
                continue
            op = self.rng.choice(("count", "kac", "moduli"))
            d = [self.rng.randint(1, 9), self.rng.randint(1, 9)]
            params = {"d": d, "q": self.rng.choice((2, 3, 4, 5, 7, 8, 9))}
            result = {"A": self.rng.randint(10, 99), "I": self.rng.randint(10, 99),
                      "M": self.rng.randint(100, 999)}
            cache.cache_store(self.prefill_path, key, op, params, qf.__version__, result)

    def next_pass(self):
        shutil.copyfile(self.prefill_path, self.cache_path)
        return super().next_pass()


def _cli_call(argv):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return {"exit": code, "payload": json.loads(out.getvalue())}

    return call


def _vec(v) -> str:
    return ",".join(str(x) for x in v)


WORKLOADS = {
    w.name: w for w in (KacWorkload, BurnsideWorkload, ModuliWorkload, CliCacheWorkload)
}
