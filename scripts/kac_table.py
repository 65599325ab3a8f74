#!/usr/bin/env python3
"""Tabulate counting polynomials and Betti numbers for the stock quivers.

Usage: python scripts/kac_table.py [--max-total-dim N]
"""

import argparse

from quiverforge import (
    DEFAULT_CAP,
    a2_quiver,
    betti_from_kac,
    is_indivisible,
    jordan_quiver,
    kac_polynomial,
    kronecker_quiver,
)
from quiverforge.quiver import iter_proper_subdims


def dimension_vectors(n_vertices, max_total):
    box = tuple(max_total for _ in range(n_vertices))
    for d in iter_proper_subdims(tuple(x + 1 for x in box)):
        if 0 < sum(d) <= max_total:
            yield d


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-total-dim", type=int, default=2)
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    args = parser.parse_args()

    quivers = [
        ("jordan", jordan_quiver()),
        ("kronecker-1", kronecker_quiver(1)),
        ("kronecker-2", kronecker_quiver(2)),
        ("kronecker-3", kronecker_quiver(3)),
        ("a2", a2_quiver()),
    ]
    print(f"{'quiver':<14}{'d':<10}{'A(q) coefficients':<22}{'e':<5}betti")
    for name, quiver in quivers:
        for d in dimension_vectors(len(quiver.vertices), args.max_total_dim):
            poly = kac_polynomial(quiver, d, cap=args.cap)
            coeffs = poly.integer_coefficients()
            e = quiver.expected_moduli_dim(d)
            if poly.degree <= e and e >= 0:
                scope = quiver.is_loop_free and is_indivisible(d)
                report = betti_from_kac(poly, e, in_theorem_scope=scope)
                betti = list(report.betti)
                tag = "" if scope else " (heuristic)"
            else:
                betti, tag = "-", ""
            print(f"{name:<14}{str(d):<10}{str(coeffs):<22}{e:<5}{betti}{tag}")


if __name__ == "__main__":
    main()
