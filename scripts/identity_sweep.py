#!/usr/bin/env python3
"""Sweep the exact identities over small instances and field sizes.

For each (quiver, d, theta) instance and each prime power q, this prints
the level-set count, the moduli point count, both sides of the point-count
identity, and the lifting-fiber verdict.  Degenerate characteristics (where
the division fails or the identity breaks) are reported as data.  It then
prints M, I and A of every instance and q from the orbit partition, each
cross-checked by the formula chain (Hua -> Galois descent ->
Krull-Schmidt); a disagreement raises ConsistencyError and the script
exits non-zero.

Usage: python scripts/identity_sweep.py [--qmax 8]
"""

import argparse

from quiverforge import (
    DEFAULT_CAP,
    SmallCharacteristic,
    a2_quiver,
    cbvdb_identity_check,
    count_report,
    enumerate_level_set,
    hua_identity_check,
    jordan_quiver,
    kronecker_quiver,
    lifting_fiber_check,
)
from quiverforge.counting import prime_powers


def q_values(qmax):
    stream = prime_powers()
    while True:
        q = next(stream)
        if q > qmax:
            return
        yield q


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--qmax", type=int, default=8)
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    args = parser.parse_args()

    instances = [
        ("kronecker-2", kronecker_quiver(2), (1, 1), (-1, 1)),
        ("kronecker-3", kronecker_quiver(3), (1, 1), (-1, 1)),
        ("a2", a2_quiver(), (1, 1), (-1, 1)),
        ("jordan", jordan_quiver(), (1,), (0,)),
    ]
    print(f"{'instance':<14}{'q':<4}{'level':<8}{'|X|':<7}{'q^e*A':<7}{'identity':<10}lifting")
    for name, quiver, d, theta in instances:
        for q in q_values(args.qmax):
            try:
                check = cbvdb_identity_check(quiver, d, theta, q, cap=args.cap)
                level, points, expected = check.level_set, check.point_count, check.expected
                verdict = "holds" if check.holds else "FAILS"
            except SmallCharacteristic:
                level = enumerate_level_set(quiver, d, theta, q, cap=args.cap)
                points, expected, verdict = "-", "-", "small char"
            lifting = lifting_fiber_check(quiver, d, theta, q, cap=args.cap)
            print(
                f"{name:<14}{q:<4}{level:<8}{points:<7}{expected:<7}{verdict:<10}"
                f"{'ok' if lifting.holds else 'FAILS'}"
            )

    print()
    print("class counts (orbit partition, cross-checked by the formula chain):")
    print(f"{'instance':<14}{'q':<4}{'M':<7}{'I':<7}A")
    for name, quiver, d, _ in instances:
        for q in q_values(args.qmax):
            report = count_report(quiver, d, q, cap=args.cap, cross_check=True)
            print(
                f"{name:<14}{q:<4}{report.iso_classes:<7}{report.indecomposable:<7}"
                f"{report.absolutely_indecomposable}"
            )

    print()
    print("generating-identity discrepancies (zero means the identity holds):")
    for name, quiver in [("jordan", jordan_quiver()), ("kronecker-2", kronecker_quiver(2))]:
        for q in (2, 3):
            gap = hua_identity_check(quiver, q, 2, cap=args.cap)
            print(f"  {name:<14} q={q} D=2: {gap}")


if __name__ == "__main__":
    main()
