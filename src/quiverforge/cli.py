"""Command-line entry point.

Machine-readable JSON goes to stdout, a one-line human summary to stderr.
Exit codes: 0 success, 1 domain error, 2 cap/undecided, 64 usage error.
Quiver files are JSON with a versioned schema (see parse_quiver).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path

from . import __version__
from .cache import cache_lookup, cache_store
from .counting import (
    count_report,
    hua_identity_check,
    kac_polynomial,
    orbit_representatives,
)
from .errors import CapExceeded, DEFAULT_CAP, QuiverForgeError, ValidationError
from .ffield import field_from_order
from .moduli import betti_from_kac, cbvdb_identity_check, enumerate_level_set, trace_obstruction
from .quiver import (  # serialize_quiver stays importable here, beside parse_quiver
    FORMAT_VERSION,
    Quiver,
    _canonical,
    _charge_generic_walk,
    is_generic,
    normalize_to_degree_zero,
    pairing,
    serialize_quiver,
    slope,
)
from .reps import stability_verdict
from .series import ExactPolynomial

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    """argparse that exits 64 on usage errors and accepts vector values
    with a leading minus sign, e.g. --theta -1,1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(?:,-?\d+)*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


# ---------------------------------------------------------------------------
# quiver files


def parse_quiver(text: str) -> tuple[Quiver, dict, dict]:
    """Parse the JSON quiver schema; returns (quiver, named dimension
    vectors, named stability parameters).  An optional ``star_pairing``
    object (arrow id -> arrow id) makes the quiver doubled."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ValidationError("quiver file must be a JSON object")
    if data.get("format") != FORMAT_VERSION:
        raise ValidationError(f'quiver file needs "format": {FORMAT_VERSION}')
    vertices = data.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValidationError('field "vertices" must be a list of strings')
    raw_arrows = data.get("arrows")
    if not isinstance(raw_arrows, list):
        raise ValidationError('field "arrows" must be a list')
    arrows = []
    for i, a in enumerate(raw_arrows):
        if not isinstance(a, dict):
            raise ValidationError(f"arrows[{i}] must be an object")
        for key in ("id", "tail", "head"):
            if key not in a or not isinstance(a[key], str):
                raise ValidationError(f'arrows[{i}] needs a string field "{key}"')
        arrows.append((a["id"], a["tail"], a["head"]))
    star_pairing = data.get("star_pairing")
    if star_pairing is not None and not (
        isinstance(star_pairing, dict) and all(isinstance(b, str) for b in star_pairing.values())
    ):
        raise ValidationError('field "star_pairing" must be an object of arrow ids')
    quiver = Quiver(vertices, arrows, star_pairing)

    def named_vectors(field_name: str) -> dict:
        block = data.get(field_name, {})
        if not isinstance(block, dict):
            raise ValidationError(f'field "{field_name}" must be an object')
        out = {}
        for name, vec in block.items():
            if not isinstance(vec, list) or not all(isinstance(x, int) for x in vec):
                raise ValidationError(f'{field_name}[{name!r}] must be a list of integers')
            if len(vec) != len(quiver.vertices):
                raise ValidationError(
                    f"{field_name}[{name!r}] has {len(vec)} entries for "
                    f"{len(quiver.vertices)} vertices"
                )
            out[name] = tuple(vec)
        return out

    return quiver, named_vectors("dimension_vectors"), named_vectors("stability_parameters")


def load_quiver_file(path: str) -> tuple[Quiver, dict, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read quiver file {path!r}: {exc}")
    return parse_quiver(text)


def _parse_vector(raw: str, named: dict, what: str) -> tuple[int, ...]:
    if raw in named:
        return named[raw]
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise ValidationError(
            f"{what} must be comma-separated integers or a name from the quiver file, got {raw!r}"
        )


# ---------------------------------------------------------------------------
# output plumbing


def _emit(payload: dict, summary: str, text_mode: bool) -> None:
    if text_mode:
        print(summary)
    else:
        print(_canonical(payload))
        print(summary, file=sys.stderr)


@functools.cache
def _code_fingerprint() -> str:
    """SHA-256 of the package's source files: the cache's version key, so
    that a record written by other code, same version number or not, is a
    miss."""
    import hashlib  # loads OpenSSL's libcrypto, which only hashing needs

    digest = hashlib.sha256()
    for source in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(source.name.encode("utf-8") + b"\0")
        digest.update(source.read_bytes())
    return digest.hexdigest()


def _cached(args, quiver: Quiver, op: str, params: dict, compute):
    """Run compute() through the JSON-lines cache when one is configured;
    returns (result, the summary suffix: " (cached)" on a hit, else "")."""
    path = args.cache or os.environ.get("QUIVERFORGE_CACHE")
    if not path:
        return compute(), ""
    key = quiver.content_hash()
    hit = cache_lookup(path, key, op, params, _code_fingerprint())
    if hit is not None:
        return hit, " (cached)"
    result = compute()
    cache_store(path, key, op, params, _code_fingerprint(), result)
    return result, ""


# ---------------------------------------------------------------------------
# commands


def _cmd_forms(args) -> tuple[dict, str]:
    quiver, named_d, _ = load_quiver_file(args.quiver)
    d = _parse_vector(args.d, named_d, "--d")
    d2 = _parse_vector(args.d2, named_d, "--d2") if args.d2 else d
    payload = {
        "d": list(d),
        "d2": list(d2),
        "euler": quiver.euler_form(d, d2),
        "symmetrized": quiver.symmetrized_form(d, d2),
        "tits": quiver.tits_form(d),
        "expected_moduli_dim": quiver.expected_moduli_dim(d),
    }
    summary = (
        f"<d,d2> = {payload['euler']}, (d,d2) = {payload['symmetrized']}, "
        f"tits(d) = {payload['tits']}, e = {payload['expected_moduli_dim']}"
    )
    return payload, summary


def _cmd_roots(args) -> tuple[dict, str]:
    quiver, named_d, _ = load_quiver_file(args.quiver)
    bound = _parse_vector(args.d, named_d, "--d")
    roots = sorted(quiver.real_roots_up_to(bound))
    payload = {"bound": list(bound), "roots": [list(r) for r in roots]}
    return payload, f"{len(roots)} positive real roots within {list(bound)}"


def _cmd_stability(args) -> tuple[dict, str]:
    quiver, named_d, named_theta = load_quiver_file(args.quiver)
    d = _parse_vector(args.d, named_d, "--d")
    theta = _parse_vector(args.theta, named_theta, "--theta")
    _charge_generic_walk(theta, d, args.cap)
    payload = {
        "d": list(d),
        "theta": list(theta),
        "pairing": pairing(theta, d),
        "generic": is_generic(theta, d),
        "slope": str(slope(theta, d)),
        "normalized": list(normalize_to_degree_zero(theta, d)),
    }
    summary = f"theta.d = {payload['pairing']}, generic = {payload['generic']}"
    if args.q is not None:
        # refused before Rep(Q, d) is partitioned, not on its first representative
        if payload["pairing"] != 0:
            raise ValidationError("stability verdicts need theta . dim W = 0")
        tallies = {"stable": 0, "semistable-not-stable": 0, "unstable": 0}
        # the verdict is iso-invariant: each orbit counts with its size
        for w, size in orbit_representatives(quiver, d, args.q, args.cap):
            tallies[stability_verdict(w, theta, cap=args.cap).kind] += size
        payload["verdicts"] = tallies
        payload["total"] = sum(tallies.values())
        summary += f"; verdicts over F_{args.q}: {tallies}"
    return payload, summary


def _cmd_count(args) -> tuple[dict, str]:
    quiver, named_d, _ = load_quiver_file(args.quiver)
    d = _parse_vector(args.d, named_d, "--d")
    params = {"d": list(d), "q": args.q, "cross_check": bool(args.cross_check)}

    def compute():
        report = count_report(quiver, d, args.q, cap=args.cap, cross_check=args.cross_check)
        return report.to_json_dict()

    payload, suffix = _cached(args, quiver, "count", params, compute)
    summary = (
        f"M = {payload['M']}, I = {payload['I']}, A = {payload['A']} "
        f"for d = {list(d)} over F_{args.q}{suffix}"
    )
    return payload, summary


def _kac_record(args, quiver: Quiver, d):
    """The ``kac`` cache record for d, shared by ``kac`` and ``betti``."""

    def compute():
        poly = kac_polynomial(quiver, d, cap=args.cap)
        return {"polynomial": poly.integer_coefficients()}

    return _cached(args, quiver, "kac", {"d": list(d)}, compute)


def _cmd_kac(args) -> tuple[dict, str]:
    quiver, named_d, _ = load_quiver_file(args.quiver)
    d = _parse_vector(args.d, named_d, "--d")
    payload, suffix = _kac_record(args, quiver, d)
    return payload, f"counting polynomial coefficients {payload['polynomial']}{suffix}"


def _cmd_hua(args) -> tuple[dict, str]:
    quiver, _, _ = load_quiver_file(args.quiver)
    params = {"q": args.q, "degree": args.degree}

    def compute():
        gap = hua_identity_check(quiver, args.q, args.degree, cap=args.cap)
        return {"q": args.q, "degree": args.degree, "max_discrepancy": str(gap)}

    payload, suffix = _cached(args, quiver, "hua", params, compute)
    return payload, f"max coefficient discrepancy {payload['max_discrepancy']}{suffix}"


def _cmd_moduli(args) -> tuple[dict, str]:
    quiver, named_d, named_theta = load_quiver_file(args.quiver)
    d = _parse_vector(args.d, named_d, "--d")
    if args.theta is None and args.eta is None:
        raise ValidationError("moduli needs --theta (full point count) or --eta (level set only)")
    if args.theta is not None and args.eta is not None:
        raise ValidationError(
            "moduli takes --theta (full point count) or --eta (level set only), not both"
        )
    if args.theta is not None:
        theta = _parse_vector(args.theta, named_theta, "--theta")
        params = {"d": list(d), "theta": list(theta), "q": args.q}

        def compute():
            check = cbvdb_identity_check(quiver, d, theta, args.q, cap=args.cap)
            return {
                "q": args.q,
                "level_set": check.level_set,
                "point_count": check.point_count,
                "e": check.e,
                "A": check.abs_indecomposable,
                "identity_holds": check.holds,
                "scope": "theorem" if check.in_theorem_scope else "heuristic",
            }

        payload, suffix = _cached(args, quiver, "moduli", params, compute)
        summary = (
            f"|level set| = {payload['level_set']}, |X(F_q)| = {payload['point_count']}, "
            f"identity holds: {payload['identity_holds']}{suffix}"
        )
        return payload, summary
    eta = _parse_vector(args.eta, named_theta, "--eta")
    params = {"d": list(d), "eta": list(eta), "q": args.q}

    def compute():
        # the level set charges the cap before q is factored into a field
        level = enumerate_level_set(quiver, d, eta, args.q, cap=args.cap)
        return {
            "q": args.q,
            "level_set": level,
            "trace_obstruction_ok": trace_obstruction(eta, d, field_from_order(args.q).p),
        }

    payload, suffix = _cached(args, quiver, "moduli-level", params, compute)
    return payload, f"|level set| = {payload['level_set']}{suffix}"


def _cmd_betti(args) -> tuple[dict, str]:
    quiver, named_d, named_theta = load_quiver_file(args.quiver)
    d = _parse_vector(args.d, named_d, "--d")
    theta = _parse_vector(args.theta, named_theta, "--theta")
    _charge_generic_walk(theta, d, args.cap)
    if not is_generic(theta, d):
        raise ValidationError(f"theta={list(theta)} is not generic for d={list(d)}")
    e = quiver.expected_moduli_dim(d)
    if e < 0:  # refused before the Kac polynomial is computed and cached
        raise ValidationError("half-dimension e must be nonnegative")
    record, _ = _kac_record(args, quiver, d)
    poly = ExactPolynomial(record["polynomial"])
    report = betti_from_kac(poly, e, in_theorem_scope=quiver.is_loop_free)
    payload = {"e": report.e, "betti": list(report.betti)}
    if report.scope != "theorem":
        payload["scope"] = report.scope
    return payload, f"e = {report.e}, betti = {list(report.betti)}"


def _cmd_verify(args) -> tuple[dict, str]:
    from .acceptance import run_suite

    results = run_suite(args.suite)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} criterion {r.cid}: {r.name}", file=sys.stderr)
    payload = {
        "suite": args.suite,
        "criteria": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    n_ok = sum(1 for r in results if r.passed)
    return payload, f"{n_ok}/{len(results)} criteria passed"


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: ``parse_args`` does not mutate it."""
    parser = _Parser(prog="quiverforge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"quiverforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, *, quiver=True, d=False, d2=False, theta=None, eta=False, q=None, degree=False):
        p = sub.add_parser(name)
        if quiver:
            p.add_argument("--quiver", required=True, help="path to a quiver JSON file")
        if d:
            p.add_argument("--d", required=True, help="dimension vector, comma-separated")
        if d2:
            p.add_argument("--d2", default=None, help="second vector for bilinear forms")
        if theta == "required":
            p.add_argument("--theta", required=True, help="stability parameter, comma-separated")
        elif theta == "optional":
            p.add_argument("--theta", default=None, help="stability parameter, comma-separated")
        if eta:
            p.add_argument("--eta", default=None, help="deformation parameter, comma-separated")
        if q == "required":
            p.add_argument("--q", required=True, type=int, help="field size, a prime power")
        elif q == "optional":
            p.add_argument("--q", default=None, type=int, help="field size, a prime power")
        if degree:
            p.add_argument("--degree", required=True, type=int, help="total degree bound")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="enumeration budget")
        p.add_argument("--cache", default=None, help="JSON-lines cache path")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="text_mode", action="store_false", default=False)
        fmt.add_argument("--text", dest="text_mode", action="store_true")
        p.set_defaults(func=func)
        return p

    add("forms", _cmd_forms, d=True, d2=True)
    add("roots", _cmd_roots, d=True)
    add("stability", _cmd_stability, d=True, theta="required", q="optional")
    count_p = add("count", _cmd_count, d=True, q="required")
    count_p.add_argument(
        "--cross-check",
        action="store_true",
        help="also compute M, I and A by Hua -> Galois descent -> Krull-Schmidt and compare",
    )
    add("kac", _cmd_kac, d=True)
    add("hua", _cmd_hua, q="required", degree=True)
    add("moduli", _cmd_moduli, d=True, theta="optional", eta=True, q="required")
    add("betti", _cmd_betti, d=True, theta="required")
    verify_p = sub.add_parser("verify")
    verify_p.add_argument("--suite", default="small", choices=["small"])
    fmt = verify_p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="text_mode", action="store_false", default=False)
    fmt.add_argument("--text", dest="text_mode", action="store_true")
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, summary = args.func(args)
    except CapExceeded as exc:
        _emit({"error": {"kind": "cap", "message": str(exc)}}, f"error: {exc}", args.text_mode)
        return 2
    except QuiverForgeError as exc:
        _emit(
            {"error": {"kind": type(exc).__name__, "message": str(exc)}},
            f"error: {exc}",
            args.text_mode,
        )
        return 1
    _emit(payload, summary, args.text_mode)
    if args.func is _cmd_verify and not payload["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
