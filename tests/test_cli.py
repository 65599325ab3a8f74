import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import random
import re
import sys
import tempfile
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverforge import (
    ValidationError,
    a2_quiver,
    cli,
    counting,
    jordan_quiver,
    kronecker_quiver,
    moduli,
)
from quiverforge import cache, ffield, orbits, reps
from quiverforge import quiver as quiver_module
from quiverforge.cache import cache_lookup, cache_store
from quiverforge.cli import main, parse_quiver, serialize_quiver

JORDAN_TEXT = '{"format": 1, "vertices": ["1"], "arrows": [{"id": "a", "tail": "1", "head": "1"}]}'

KRON2_TEXT = json.dumps(
    {
        "format": 1,
        "vertices": ["1", "2"],
        "arrows": [
            {"id": "a1", "tail": "1", "head": "2"},
            {"id": "a2", "tail": "1", "head": "2"},
        ],
        "dimension_vectors": {"d": [1, 1]},
        "stability_parameters": {"theta": [-1, 1]},
    }
)


@pytest.fixture
def kron2_file(tmp_path):
    path = tmp_path / "kron2.json"
    path.write_text(KRON2_TEXT)
    return str(path)


@pytest.fixture
def jordan_file(tmp_path):
    path = tmp_path / "jordan.json"
    path.write_text(JORDAN_TEXT)
    return str(path)


# -- parsing


def test_parse_jordan():
    quiver, _, _ = parse_quiver(JORDAN_TEXT)
    assert quiver.vertices == ("1",)
    assert len(quiver.arrows) == 1
    assert quiver.arrows[0].tail == quiver.arrows[0].head == "1"


def test_parse_kronecker_with_named_vectors():
    quiver, named_d, named_theta = parse_quiver(KRON2_TEXT)
    assert len(quiver.arrows) == 2
    assert named_d["d"] == (1, 1)
    assert named_theta["theta"] == (-1, 1)


def test_parse_rejects_dangling_vertex():
    bad = '{"format": 1, "vertices": ["1"], "arrows": [{"id": "a", "tail": "1", "head": "2"}]}'
    with pytest.raises(ValidationError):
        parse_quiver(bad)


def test_parse_rejects_missing_format():
    with pytest.raises(ValidationError):
        parse_quiver('{"vertices": ["1"], "arrows": []}')


def test_parse_rejects_bad_json_with_location():
    with pytest.raises(ValidationError) as info:
        parse_quiver('{"format": 1,')
    assert "line" in str(info.value)


def test_parse_rejects_wrong_vector_length():
    bad = json.loads(KRON2_TEXT)
    bad["dimension_vectors"] = {"d": [1]}
    with pytest.raises(ValidationError):
        parse_quiver(json.dumps(bad))


def test_roundtrip_is_identity_on_canonical_form():
    quiver, _, _ = parse_quiver(KRON2_TEXT)
    text = serialize_quiver(quiver)
    again, _, _ = parse_quiver(text)
    assert again == quiver
    assert serialize_quiver(again) == text


def test_doubled_quiver_roundtrips():
    # the canonical form sorts arrows by id (a1, a1*, a2, a2*), so equality
    # (which sees arrow order) holds from the canonical form on
    doubled = kronecker_quiver(2).double()
    text = serialize_quiver(doubled)
    again, _, _ = parse_quiver(text)
    assert again.is_doubled and again.star_pairing == doubled.star_pairing
    assert again.content_hash() == doubled.content_hash()
    assert parse_quiver(serialize_quiver(again))[0] == again
    assert serialize_quiver(again) == text
    jordan_doubled = jordan_quiver().double()
    assert parse_quiver(serialize_quiver(jordan_doubled))[0] == jordan_doubled


def test_hash_invariant_under_arrow_reordering():
    data = json.loads(KRON2_TEXT)
    data["arrows"] = list(reversed(data["arrows"]))
    reordered, _, _ = parse_quiver(json.dumps(data))
    original, _, _ = parse_quiver(KRON2_TEXT)
    assert reordered.content_hash() == original.content_hash()


@pytest.mark.parametrize(
    "quiver",
    [jordan_quiver(), kronecker_quiver(2), kronecker_quiver(3), a2_quiver(), kronecker_quiver(2).double()],
    ids=["jordan", "kron2", "kron3", "a2", "kron2-doubled"],
)
def test_content_hash_is_the_hash_of_the_serialized_file(quiver):
    expected = hashlib.sha256(serialize_quiver(quiver).encode("utf-8")).hexdigest()
    assert quiver.content_hash() == expected


def test_the_canonical_form_has_one_owner():
    # quiver writes it; the CLI re-exports serialize_quiver, and cache records use the same encoder
    assert cli.serialize_quiver is quiver_module.serialize_quiver
    assert cli._canonical is cache._canonical is quiver_module._canonical


def test_content_hashes_pinned():
    assert kronecker_quiver(2).content_hash().startswith("04d0d596d638b31c")
    assert jordan_quiver().content_hash().startswith("c70122b19efbb445")


# -- dispatch


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ONE_VERTEX = '{"format": 1, "vertices": ["1"], %s}'


@pytest.mark.parametrize(
    "text,d,message",
    [
        ("[]", "1", "quiver file must be a JSON object"),
        ('{"format": 1, "vertices": [1], "arrows": []}', "1",
         'field "vertices" must be a list of strings'),
        (ONE_VERTEX % '"arrows": {}', "1", 'field "arrows" must be a list'),
        (ONE_VERTEX % '"arrows": ["a"]', "1", "arrows[0] must be an object"),
        (ONE_VERTEX % '"arrows": [{"tail": "1", "head": "1"}]', "1",
         'arrows[0] needs a string field "id"'),
        (ONE_VERTEX % '"arrows": [{"id": "a", "tail": 1, "head": "1"}]', "1",
         'arrows[0] needs a string field "tail"'),
        (ONE_VERTEX % '"arrows": [{"id": "a", "tail": "1"}]', "1",
         'arrows[0] needs a string field "head"'),
        (ONE_VERTEX % '"arrows": [], "dimension_vectors": [[1]]', "1",
         'field "dimension_vectors" must be an object'),
        (ONE_VERTEX % '"arrows": [], "dimension_vectors": {"d": [1.5]}', "1",
         "dimension_vectors['d'] must be a list of integers"),
        (None, "1", "cannot read quiver file {path!r}: [Errno 2] No such file or directory: {path!r}"),
        (JORDAN_TEXT, "1,x",
         "--d must be comma-separated integers or a name from the quiver file, got '1,x'"),
    ],
    ids=["not-an-object", "vertex-not-a-string", "arrows-not-a-list", "arrow-not-an-object",
         "missing-id", "tail-not-a-string", "missing-head", "dimension-vectors-not-an-object",
         "named-vector-not-integers", "unreadable-path", "malformed-d"],
)
def test_malformed_input_is_refused_as_a_validation_error(capsys, tmp_path, text, d, message):
    path = str(tmp_path / "quiver.json")
    if text is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    message = message.format(path=path)
    code, out, err = run_cli(capsys, ["forms", "--quiver", path, "--d", d])
    assert code == 1
    assert out == '{"error":{"kind":"ValidationError","message":%s}}\n' % json.dumps(message)
    assert err == f"error: {message}\n"


def test_kac_command_payload(capsys, kron2_file):
    code, out, err = run_cli(capsys, ["kac", "--quiver", kron2_file, "--d", "1,1"])
    assert code == 0
    assert out.strip() == '{"polynomial":[1,1]}'
    assert err.strip()  # human summary on stderr


def test_betti_command_payload(capsys, kron2_file):
    code, out, _ = run_cli(
        capsys, ["betti", "--quiver", kron2_file, "--d", "1,1", "--theta", "-1,1"]
    )
    assert code == 0
    assert json.loads(out) == {"e": 1, "betti": [1, 0, 1]}


def test_count_command(capsys, kron2_file):
    code, out, _ = run_cli(
        capsys, ["count", "--quiver", kron2_file, "--d", "d", "--q", "2", "--cross-check"]
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["M"], payload["I"], payload["A"]) == (4, 3, 3)


def test_forms_roots_stability(capsys, kron2_file):
    code, out, _ = run_cli(capsys, ["forms", "--quiver", kron2_file, "--d", "2,1"])
    assert code == 0 and json.loads(out)["tits"] == 1
    code, out, _ = run_cli(capsys, ["roots", "--quiver", kron2_file, "--d", "3,3"])
    assert code == 0
    assert [1, 2] in json.loads(out)["roots"]
    code, out, _ = run_cli(
        capsys,
        ["stability", "--quiver", kron2_file, "--d", "1,1", "--theta", "theta", "--q", "2"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generic"] is True
    assert payload["verdicts"] == {"stable": 3, "semistable-not-stable": 0, "unstable": 1}


def _point_tallies(quiver, d, theta, q):
    """Per-point oracle: one verdict for every point of Rep(Q, d)."""
    tallies = {"stable": 0, "semistable-not-stable": 0, "unstable": 0}
    for w in reps.all_representations(quiver, ffield.field_from_order(q), d):
        tallies[reps.stability_verdict(w, theta).kind] += 1
    return tallies


STABILITY_CASES = [
    (name, d, theta, q)
    for name, d, theta in [
        ("kron2", (1, 1), (-1, 1)),
        ("kron2", (2, 1), (-1, 2)),
        ("kron3", (1, 1), (-1, 1)),
        ("a2", (1, 1), (-1, 1)),
        ("a2", (2, 1), (-1, 2)),
        ("a2", (1, 1), (1, -1)),
        ("jordan", (1,), (0,)),
        ("jordan", (2,), (0,)),
    ]
    for q in (2, 3)
] + [("kron2", (2, 2), (-1, 1), 2)]  # non-generic theta: semistable-not-stable points


@pytest.mark.parametrize("name,d,theta,q", STABILITY_CASES)
def test_stability_tallies_match_the_point_oracle(capsys, tmp_path, name, d, theta, q):
    quiver = {
        "kron2": kronecker_quiver(2),
        "kron3": kronecker_quiver(3),
        "a2": a2_quiver(),
        "jordan": jordan_quiver(),
    }[name]
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_quiver(quiver))
    vec = lambda v: ",".join(map(str, v))
    code, out, _ = run_cli(
        capsys,
        ["stability", "--quiver", str(path), "--d", vec(d), "--theta", vec(theta), "--q", str(q)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"] == _point_tallies(quiver, d, theta, q)
    assert payload["total"] == q ** sum(r * c for r, c in reps.arrow_shapes(quiver, d))


def test_stability_tally_pinned_case(capsys, kron2_file):
    code, out, _ = run_cli(
        capsys,
        ["stability", "--quiver", kron2_file, "--d", "2,1", "--theta", "-1,2", "--q", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"] == {"stable": 48, "semistable-not-stable": 0, "unstable": 33}
    assert payload["total"] == 81


def test_production_passes_walk_no_point_and_no_end_ring(capsys, kron2_file, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a production pass walked Rep(Q, d) point by point")

    for module in (reps, moduli, cli):
        monkeypatch.setattr(module, "all_representations", forbidden, raising=False)
    monkeypatch.setattr(reps, "_iter_span", forbidden)
    kron2 = kronecker_quiver(2)
    assert moduli.enumerate_level_set(kron2, (2, 1), (-1, 2), 3) == 48
    assert moduli.lifting_fiber_check(kron2, (2, 1), (-1, 2), 3).holds
    code, out, _ = run_cli(
        capsys,
        ["stability", "--quiver", kron2_file, "--d", "2,1", "--theta", "-1,2", "--q", "3"],
    )
    assert code == 0 and json.loads(out)["total"] == 81


def test_hua_and_moduli_commands(capsys, jordan_file, kron2_file):
    code, out, _ = run_cli(capsys, ["hua", "--quiver", jordan_file, "--q", "2", "--degree", "2"])
    assert code == 0 and json.loads(out)["max_discrepancy"] == "0"
    code, out, _ = run_cli(
        capsys,
        ["moduli", "--quiver", kron2_file, "--d", "1,1", "--theta", "-1,1", "--q", "5"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["level_set"] == 120 and payload["point_count"] == 30
    assert payload["identity_holds"] is True
    code, out, _ = run_cli(
        capsys,
        ["moduli", "--quiver", kron2_file, "--d", "1,1", "--eta", "1,0", "--q", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["level_set"] == 0 and payload["trace_obstruction_ok"] is False


def test_hua_refuses_a_negative_degree(capsys, jordan_file):
    code, out, _ = run_cli(capsys, ["hua", "--quiver", jordan_file, "--q", "2", "--degree", "-3"])
    assert code == 1
    assert out == (
        '{"error":{"kind":"ValidationError",'
        '"message":"the degree bound must be nonnegative, got -3"}}\n'
    )


@pytest.mark.parametrize("degree", ["0", "2"])
def test_hua_refuses_a_q_that_is_not_a_prime_power(capsys, jordan_file, degree):
    code, out, err = run_cli(capsys, ["hua", "--quiver", jordan_file, "--q", "6", "--degree", degree])
    assert code == 1
    assert out == '{"error":{"kind":"ValidationError","message":"6 is not a prime power"}}\n'
    assert err == "error: 6 is not a prime power\n"


def test_moduli_theta_walks_the_level_set_once(capsys, kron2_file, monkeypatch):
    walks = []
    original = moduli._fiber_sizes

    def counted(*args, **kwargs):
        walks.append(args)
        return original(*args, **kwargs)

    def brute(*args, **kwargs):
        raise AssertionError("the doubled-space walk is the test oracle only")

    monkeypatch.setattr(moduli, "_fiber_sizes", counted)
    monkeypatch.setattr(moduli, "level_set_points", brute)
    code, out, _ = run_cli(
        capsys, ["moduli", "--quiver", kron2_file, "--d", "1,1", "--theta", "-1,1", "--q", "3"]
    )
    assert code == 0
    assert out.strip() == (
        '{"A":4,"e":1,"identity_holds":true,"level_set":24,"point_count":12,"q":3,'
        '"scope":"theorem"}'
    )
    assert len(walks) == 1


@pytest.mark.parametrize(
    "argv,code,payload",
    [
        (
            ["--d", "1,1", "--theta", "1,1", "--q", "3"],
            1,
            '{"error":{"kind":"ValidationError",'
            '"message":"theta=(1, 1) is not generic for d=(1, 1)"}}',
        ),
        # a divisible d is never generic; that is the error it gets
        (
            ["--d", "2,2", "--theta", "-1,1", "--q", "2"],
            1,
            '{"error":{"kind":"ValidationError",'
            '"message":"theta=(-1, 1) is not generic for d=(2, 2)"}}',
        ),
        (
            ["--d", "1,1", "--theta", "-1,1", "--q", "5", "--cap", "10"],
            2,
            '{"error":{"kind":"cap",'
            '"message":"orbit enumeration of the representation space needs 25 elements, '
            'cap is 10"}}',
        ),
        (
            ["--d", "0,0", "--theta", "0,0", "--q", "3"],
            1,
            '{"error":{"kind":"ValidationError",'
            '"message":"d=(0, 0) is zero; moduli counts need a nonzero d"}}',
        ),
        (
            ["--d", "1,1", "--q", "3"],
            1,
            '{"error":{"kind":"ValidationError",'
            '"message":"moduli needs --theta (full point count) or --eta (level set only)"}}',
        ),
        # both flags once answered the theta question and dropped --eta
        (
            ["--d", "1,1", "--theta", "-1,1", "--eta", "1,-1", "--q", "3"],
            1,
            '{"error":{"kind":"ValidationError",'
            '"message":"moduli takes --theta (full point count) or --eta (level set only), '
            'not both"}}',
        ),
    ],
)
def test_moduli_theta_error_payloads(capsys, kron2_file, argv, code, payload):
    got, out, _ = run_cli(capsys, ["moduli", "--quiver", kron2_file, *argv])
    assert got == code
    assert out == payload + "\n"


def test_moduli_theta_refuses_a_negative_expected_dimension(capsys, tmp_path):
    # (2, 1) is no root of A_2: e = 1 - <d, d> = -2
    path = tmp_path / "a2.json"
    path.write_text(serialize_quiver(a2_quiver()))
    code, out, _ = run_cli(
        capsys, ["moduli", "--quiver", str(path), "--d", "2,1", "--theta", "-1,2", "--q", "3"]
    )
    assert code == 1
    assert out == (
        '{"error":{"kind":"ValidationError",'
        '"message":"expected moduli dimension is negative for d=(2, 1)"}}\n'
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        # e = 1 - <d, d> = -8 and -24: refused before the level-set walk, not by the cap
        (["moduli", "--d", "4,1", "--theta", "-1,4", "--q", "3"],
         "expected moduli dimension is negative for d=(4, 1)"),
        (["moduli", "--d", "7,2", "--theta", "-2,7", "--q", "3"],
         "expected moduli dimension is negative for d=(7, 2)"),
        # refused before the Kac polynomial is computed or cached
        (["betti", "--d", "4,1", "--theta", "-1,4"], "half-dimension e must be nonnegative"),
        (["betti", "--d", "60,1", "--theta", "-1,60"], "half-dimension e must be nonnegative"),
    ],
)
def test_negative_expected_dimension_is_refused_before_any_work(
    capsys, kron2_file, tmp_path, monkeypatch, argv, message
):
    def forbidden(*args, **kwargs):
        raise AssertionError("work done for a refused e < 0")

    monkeypatch.setattr(counting, "orbit_partition", forbidden)
    monkeypatch.setattr(orbits, "_orbit_labels", forbidden)
    monkeypatch.setattr(cli, "kac_polynomial", forbidden)
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run_cli(capsys, [argv[0], "--quiver", kron2_file, *argv[1:], "--cache", str(cache)])
    assert code == 1
    assert out == '{"error":{"kind":"ValidationError","message":"%s"}}\n' % message
    assert not cache.exists()


@pytest.mark.parametrize("d", ["3,2", "3,3"])
def test_stability_refuses_a_theta_off_degree_zero_before_the_partition(capsys, kron2_file, monkeypatch, d):
    # 3^12 points at (3, 2); 3^18, past the default cap, at (3, 3)
    def forbidden(*args, **kwargs):
        raise AssertionError("Rep(Q, d) partitioned for a theta the verdicts refuse")

    monkeypatch.setattr(counting, "orbit_partition", forbidden)
    monkeypatch.setattr(orbits, "_orbit_labels", forbidden)
    code, out, _ = run_cli(
        capsys, ["stability", "--quiver", kron2_file, "--d", d, "--theta", "1,1", "--q", "3"]
    )
    assert code == 1
    assert out == (
        '{"error":{"kind":"ValidationError",'
        '"message":"stability verdicts need theta . dim W = 0"}}\n'
    )


@pytest.mark.parametrize(
    "quiver,argv,code,payload",
    [
        (
            "kron2",
            ["--d", "1,1", "--theta", "1,1"],
            1,
            '{"error":{"kind":"ValidationError",'
            '"message":"theta=[1, 1] is not generic for d=[1, 1]"}}',
        ),
        # the Jordan quiver has a loop: out of the theorem's scope
        ("jordan", ["--d", "1", "--theta", "0"], 0, '{"betti":[1,0,0],"e":1,"scope":"heuristic"}'),
    ],
)
def test_betti_payloads(capsys, kron2_file, jordan_file, quiver, argv, code, payload):
    path = {"kron2": kron2_file, "jordan": jordan_file}[quiver]
    got, out, _ = run_cli(capsys, ["betti", "--quiver", path, *argv])
    assert got == code
    assert out == payload + "\n"


def test_exit_code_domain_error(capsys, kron2_file):
    code, out, _ = run_cli(capsys, ["count", "--quiver", kron2_file, "--d", "1,1", "--q", "6"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "ValidationError"


@pytest.mark.parametrize("extra", [[], ["--cross-check"]], ids=["plain", "cross-check"])
def test_exit_code_cap(capsys, kron2_file, extra):
    # the orbit partition budgets the q^n points before Burnside budgets GL_d
    code, out, _ = run_cli(
        capsys,
        ["count", "--quiver", kron2_file, "--d", "2,2", "--q", "3", "--cap", "10", *extra],
    )
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "cap"
    assert error["message"] == (
        "orbit enumeration of the representation space needs 6561 elements, cap is 10"
    )


def test_exit_code_cap_past_the_digit_limit(capsys, kron2_file):
    # 2^16200 points: more decimal digits than int-to-str allows by default
    code, out, _ = run_cli(capsys, ["count", "--quiver", kron2_file, "--d", "90,90", "--q", "2"])
    assert code == 2
    try:
        needed = str(2**16200)
    except ValueError:
        needed = "at least 2^16200"
    assert json.loads(out)["error"] == {
        "kind": "cap",
        "message": f"orbit enumeration of the representation space needs {needed} elements, "
        "cap is 1000000",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--d", "1,1"],
        ["stability", "--d", "1,1", "--theta", "-1,1"],
        ["moduli", "--d", "1,1", "--theta", "-1,1"],
        ["moduli", "--d", "1,1", "--eta", "0,0"],
        ["hua", "--degree", "2"],
    ],
    ids=["count", "stability", "moduli-theta", "moduli-eta", "hua"],
)
def test_a_huge_q_is_refused_at_the_cap_before_it_is_factored(capsys, kron2_file, huge_q, argv):
    code, out, err = run_cli(capsys, [argv[0], "--quiver", kron2_file, *argv[1:], "--q", str(huge_q)])
    message = (
        f"orbit enumeration of the representation space needs {huge_q**2} elements, "
        "cap is 1000000"
    )
    assert code == 2
    assert out == json.dumps({"error": {"kind": "cap", "message": message}}, separators=(",", ":")) + "\n"
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["betti", "stability"])
def test_the_genericity_walk_is_refused_at_the_cap(capsys, tmp_path, monkeypatch, command):
    # theta.d = 0 on the A_4 path: is_generic would walk 161 * 162 * 163 sub-vectors
    path = tmp_path / "a4.json"
    path.write_text(
        serialize_quiver(quiver_module.Quiver(
            ["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")]
        ))
    )

    def forbidden(*args):
        raise AssertionError("genericity walked past the cap")

    monkeypatch.setattr(cli, "is_generic", forbidden)
    code, out, _ = run_cli(capsys, [
        command, "--quiver", str(path), "--d", "160,161,162,163",
        "--theta", "144272509,611178002,909925195,-1649638904",
    ])
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "cap", "message": f"genericity walk needs {161 * 162 * 163} elements, cap is 1000000"
    }


def test_kac_and_moduli_answer_within_the_cap_of_what_they_walk(capsys, kron2_file):
    # the largest log series of A_(2,2) has 36 pair products and the table
    # 16 partition tuples; the (2, 2) level set walks the 3^8 orbits' points
    code, out, _ = run_cli(capsys, ["kac", "--quiver", kron2_file, "--d", "2,2", "--cap", "40"])
    assert (code, out) == (0, '{"polynomial":[1,1]}\n')
    code, out, _ = run_cli(
        capsys, ["moduli", "--quiver", kron2_file, "--d", "2,2", "--eta", "0,0", "--q", "3"]
    )
    assert code == 0
    assert json.loads(out) == {"level_set": 116289, "q": 3, "trace_obstruction_ok": True}


def test_exit_code_usage(capsys, kron2_file):
    with pytest.raises(SystemExit) as info:
        main(["count", "--quiver", kron2_file, "--nonsense"])
    assert info.value.code == 64


def test_text_mode(capsys, kron2_file):
    code, out, _ = run_cli(
        capsys, ["kac", "--quiver", kron2_file, "--d", "1,1", "--text"]
    )
    assert code == 0
    assert not out.startswith("{")  # human text on stdout, not JSON
    assert "[1, 1]" in out


def test_output_is_deterministic(capsys, kron2_file):
    _, out1, _ = run_cli(capsys, ["count", "--quiver", kron2_file, "--d", "1,1", "--q", "3"])
    _, out2, _ = run_cli(capsys, ["count", "--quiver", kron2_file, "--d", "1,1", "--q", "3"])
    assert out1 == out2


def test_one_parser_serves_a_stream_of_calls(capsys, kron2_file):
    argvs = [
        ["kac", "--quiver", kron2_file, "--d", "1,1"],
        ["count", "--quiver", kron2_file, "--nonsense"],
        ["forms", "--quiver", kron2_file, "--d", "1,1"],
        ["kac", "--quiver", kron2_file, "--d", "1,1", "--text"],
    ]
    alone = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        alone.append(run_cli(capsys, argv))
    cli._build_parser.cache_clear()
    in_stream = [run_cli(capsys, argv) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in alone] == [0, 64, 0, 0]
    assert in_stream == alone


# -- cache


def test_cache_store_then_lookup(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache_store(path, "h", "kac", {"d": [1, 1]}, "0.1.0", {"polynomial": [1, 1]})
    assert cache_lookup(path, "h", "kac", {"d": [1, 1]}, "0.1.0") == {"polynomial": [1, 1]}


def _canonical_line(quiver_hash, op, params, version, result) -> bytes:
    """The line cache_store writes for a record, spelled with ``json.dumps``."""
    record = {"hash": quiver_hash, "op": op, "params": params, "version": version, "result": result}
    return (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def test_cache_store_writes_the_canonical_line(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    records = [
        ('h"\u00e9', "kac", {"d": [1, 1]}, "v", {"polynomial": [1, 1]}),
        ("h", "count", {"q": 3, "d": [2, {"b": [1], "a": None}]}, "v", [[1, 2], [], [3]]),
        ("h", "kac", {}, "v\u00e9", ["x", {"z": 1, "y": [0.5]}]),
    ]
    for record in records:
        cache_store(path, *record)
    with open(path, "rb") as fh:
        assert fh.read().splitlines(keepends=True) == [_canonical_line(*r) for r in records]


def test_cache_store_appends_each_record_in_one_locked_write(tmp_path, monkeypatch):
    events = []
    flock, write = cache.fcntl.flock, cache.os.write

    def recorded_flock(fd, operation):
        events.append(("lock", operation))
        return flock(fd, operation)

    def recorded_write(fd, data):
        events.append(("write", len(data)))
        return write(fd, data)

    monkeypatch.setattr(cache.fcntl, "flock", recorded_flock)
    monkeypatch.setattr(cache.os, "write", recorded_write)
    path = str(tmp_path / "cache.jsonl")
    cache_store(path, "h", "kac", {"d": [1, 1]}, "v", {"polynomial": [1, 1]})
    cache_store(path, "h", "kac", {"d": [2, 1]}, "v", {"polynomial": [1]})
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    assert events == [
        ("lock", cache.fcntl.LOCK_EX), ("write", len(lines[0])),
        ("lock", cache.fcntl.LOCK_EX), ("write", len(lines[1])),
    ]


def _store_many(path, writer):
    for i in range(25):
        cache_store(path, f"h{writer}", "op", {"i": i}, "v", "x" * 200_000)


def test_concurrent_cache_writers_keep_every_record_whole(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    context = multiprocessing.get_context("fork")
    writers = [context.Process(target=_store_many, args=(path, w)) for w in range(4)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join()
    assert [writer.exitcode for writer in writers] == [0] * 4
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert sorted((r["hash"], r["params"]["i"]) for r in records) == sorted(
        (f"h{w}", i) for w in range(4) for i in range(25)
    )
    assert all(r["result"] == "x" * 200_000 for r in records)


def test_cache_miss_on_empty_and_version(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    assert cache_lookup(path, "h", "kac", {}, "0.1.0") is None
    cache_store(path, "h", "kac", {}, "0.0.9", {"x": 1})
    assert cache_lookup(path, "h", "kac", {}, "0.1.0") is None


def test_cache_skips_corrupt_lines(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_text("not json\n")
    cache_store(str(path), "h", "op", {"a": 1}, "v", 42)
    assert cache_lookup(str(path), "h", "op", {"a": 1}, "v") == 42
    assert "corrupt" in capsys.readouterr().err


def test_cache_warnings_count_only_newlines(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b"junk\rmore junk\n")
    cache_store(str(path), "h", "op", {"a": 1}, "v", 42)
    with open(path, "ab") as fh:
        fh.write(b"bad line\n")
    assert cache_lookup(str(path), "h", "op", {"a": 1}, "v") == 42
    assert _warned_lines(capsys.readouterr().err) == {1, 3}


def test_cached_command_skips_an_undecodable_line(capsys, kron2_file, tmp_path):
    argv = ["kac", "--quiver", kron2_file, "--d", "1,1"]
    code, fresh, _ = run_cli(capsys, argv)
    assert code == 0
    path = tmp_path / "cache.jsonl"
    run_cli(capsys, [*argv, "--cache", str(path)])
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe garbage\n")
    code, out, err = run_cli(capsys, [*argv, "--cache", str(path)])
    assert code == 0
    assert out == fresh
    assert "skipping corrupt cache line 2" in err
    assert "cached" in err


def test_lookup_decodes_only_the_asked_quivers_records(tmp_path, monkeypatch):
    path = str(tmp_path / "cache.jsonl")
    rng = random.Random(0)
    h = hashlib.sha256(b"asked").hexdigest()
    # longer than one block, with the asked quiver's records in different blocks
    for i in range(cache._BLOCK_LINES + 2000):
        if i == 700:
            cache_store(path, h, "kac", {"d": [1, 1]}, "old", {"polynomial": [0]})
        if i == cache._BLOCK_LINES + 700:
            cache_store(path, h, "kac", {"d": [1, 1]}, "new", {"polynomial": [1, 1]})
        cache_store(path, f"{rng.getrandbits(256):064x}", "kac", {"d": [1, 1]}, "new", i)
    decoded = []
    loads = cache.json.loads

    def counted(text, *args, **kwargs):
        decoded.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(cache.json, "loads", counted)
    assert cache_lookup(path, h, "kac", {"d": [1, 1]}, "new") == {"polynomial": [1, 1]}
    assert len(decoded) <= 2


def _full_parse_lookup(path, quiver_hash, op, params, version):
    """The lookup that decodes every line: the oracle for ``cache_lookup``.
    It reads bytes, so only "\\n" ends a line, as in ``cache_lookup``."""

    def canonical(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    wanted = canonical(params)
    found = None
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError:
                    print(f"warning: skipping corrupt cache line {lineno}", file=sys.stderr)
                    continue
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    print(f"warning: skipping corrupt cache line {lineno}", file=sys.stderr)
                    continue
                if not isinstance(record, dict):
                    print(f"warning: skipping corrupt cache line {lineno}", file=sys.stderr)
                    continue
                if (
                    record.get("hash") == quiver_hash
                    and record.get("op") == op
                    and record.get("version") == version
                    and canonical(record.get("params", {})) == wanted
                ):
                    found = record.get("result")
    except FileNotFoundError:
        return None
    return found


# one hash is a prefix of another, and one needs JSON escapes
POOL_HASHES = ("0f3a", "0f3a9", 'h"\u00e9')
POOL_OPS = ("kac", "count")
POOL_PARAMS = ({}, {"d": [1, 1]}, {"d": [1, 1], "q": 3})
POOL_VERSIONS = ("v1", "v2")

pool_records = st.tuples(
    st.sampled_from(POOL_HASHES),
    st.sampled_from(POOL_OPS),
    st.sampled_from(POOL_PARAMS),
    st.sampled_from(POOL_VERSIONS),
    st.one_of(st.integers(-5, 5), st.lists(st.integers(0, 3), max_size=3)),
)
# bytes that are not UTF-8 (a lone continuation byte, a cut two-byte lead, an
# encoded surrogate), mixed with one that is and with a stray carriage return
junk_bytes = st.lists(
    st.sampled_from(
        [b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xed\xa0\x80", "\u00e9".encode(), b"\r"]
    ),
    min_size=1,
    max_size=3,
).map(b"".join)
cache_lines = st.one_of(
    st.tuples(st.just("record"), pool_records),
    st.tuples(st.just("text"), st.sampled_from(["", "   ", "not json", "[1]", "3"])),
    st.tuples(st.just("truncated"), pool_records, st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("spliced"), pool_records, st.floats(0, 1), junk_bytes),
)


def _warned_lines(stderr: str) -> set[int]:
    return {int(n) for n in re.findall(r"skipping corrupt cache line (\d+)", stderr)}


def _assert_lookups_agree_with_the_full_parse(path):
    """Every lookup from the pools gives the oracle's result and warnings,
    less those for another quiver's canonical lines, which it never reads."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        stored = [line.strip() for line in fh]
    for h in POOL_HASHES:
        own = '{"hash":' + json.dumps(h)
        foreign = {n for n, line in enumerate(stored, start=1)
                   if line.startswith('{"hash":"') and not line.startswith(own)}
        for op in POOL_OPS:
            for params in POOL_PARAMS:
                for version in POOL_VERSIONS:
                    with contextlib.redirect_stderr(io.StringIO()) as err:
                        want = _full_parse_lookup(path, h, op, params, version)
                    with contextlib.redirect_stderr(io.StringIO()) as new_err:
                        got = cache_lookup(path, h, op, params, version)
                    assert got == want
                    assert _warned_lines(new_err.getvalue()) == (
                        _warned_lines(err.getvalue()) - foreign
                    )


@given(st.lists(cache_lines, max_size=16))
def test_lookup_agrees_with_the_full_parse(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.jsonl")
        open(path, "w").close()
        for kind, *rest in lines:
            if kind == "record":
                cache_store(path, *rest[0])
                continue
            if kind == "text":
                data = rest[0].encode("utf-8")
            else:
                full_path = os.path.join(tmp, "full.jsonl")
                cache_store(full_path, *rest[0])
                with open(full_path, "rb") as fh:
                    full = fh.read().rstrip(b"\n")
                os.remove(full_path)
                if kind == "truncated":
                    data = full[: 1 + int(rest[1] * (len(full) - 1))]
                else:
                    cut = int(rest[1] * len(full))
                    data = full[:cut] + rest[2] + full[cut:]
            with open(path, "ab") as fh:
                fh.write(data + b"\n")
        _assert_lookups_agree_with_the_full_parse(path)


@given(st.lists(cache_lines, min_size=3, max_size=16))
def test_lookup_agrees_with_the_full_parse_across_blocks(lines):
    # blocks of two lines, so every generated file crosses a block boundary
    with mock.patch.object(cache, "_BLOCK_LINES", 2):
        test_lookup_agrees_with_the_full_parse.hypothesis.inner_test(lines)


# records around the asked "0f3a" in byte order: "00" < "0f3a" < "0f3a9" < "ff"
ASKED = _canonical_line("0f3a", "kac", {"d": [1, 1]}, "v1", "asked")
LOW = _canonical_line("00", "kac", {"d": [1, 1]}, "v1", 0)
PREFIXED = _canonical_line("0f3a9", "kac", {"d": [1, 1]}, "v1", 9)
HIGH = _canonical_line("ff", "kac", {"d": [1, 1]}, "v1", 1)
# the asked record in a key order cache_store does not write: above every canonical line
REORDERED = json.dumps(
    {"version": "v1", "result": "reordered", "params": {"d": [1, 1]}, "op": "kac", "hash": "0f3a"}
).encode() + b"\n"
# the asked record with JSON whitespace between the hash and its comma
CR_BEFORE_COMMA = ASKED.replace(b'"0f3a",', b'"0f3a"\r,')
SPACE_BEFORE_COMMA = ASKED.replace(b'"0f3a",', b'"0f3a" ,')
PROOF_BLOCKS = {
    "asked first": [ASKED, HIGH, LOW, PREFIXED],
    "asked least at or after its prefix": [LOW, HIGH, ASKED, LOW],
    "asked last": [HIGH, LOW, PREFIXED, ASKED],
    "asked hash a prefix of a foreign one": [LOW, PREFIXED, HIGH, PREFIXED],
    "whitespace before a foreign record": [LOW, b" " + HIGH, HIGH, LOW],
    "whitespace before the asked record, least": [LOW, b" " + ASKED, HIGH, LOW],
    "not json, least": [HIGH, b"not json\n", LOW, PREFIXED],
    "asked record in another key order, greatest": [LOW, REORDERED, HIGH, LOW],
    "undecodable line, greatest": [LOW, HIGH, b"\xff\xfe junk\n", LOW],
    "bare record prefix": [LOW, b'{"hash":"\n', HIGH, ASKED],
    "asked last, no final newline": [LOW, HIGH, PREFIXED, ASKED.rstrip(b"\n")],
    "foreign last, no final newline": [LOW, ASKED, HIGH, PREFIXED.rstrip(b"\n")],
    "asked record, carriage return before the comma": [LOW, HIGH, CR_BEFORE_COMMA, PREFIXED],
    "asked record, space before the comma": [LOW, SPACE_BEFORE_COMMA, HIGH, LOW],
}


@pytest.mark.parametrize("block", PROOF_BLOCKS.values(), ids=PROOF_BLOCKS)
def test_block_proof_agrees_with_the_full_parse(tmp_path, block):
    # a block of foreign records, then the block under test
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b"".join([LOW, PREFIXED, HIGH, LOW, *block]))
    # blocks of four lines, and the real size, which holds the file in one
    for size in (4, cache._BLOCK_LINES):
        with mock.patch.object(cache, "_BLOCK_LINES", size):
            _assert_lookups_agree_with_the_full_parse(str(path))


def test_lookup_matches_lines_only_in_blocks_that_fail_the_proof(tmp_path, monkeypatch):
    monkeypatch.setattr(cache, "_BLOCK_LINES", 8)
    path = str(tmp_path / "cache.jsonl")
    rng = random.Random(0)
    # four blocks of other quivers' records, the asked one in the last
    for i in range(4 * cache._BLOCK_LINES - 1):
        if i == 3 * cache._BLOCK_LINES + 2:
            cache_store(path, "h", "kac", {"d": [1, 1]}, "v", "hit")
        cache_store(path, f"{rng.getrandbits(256):064x}", "kac", {"d": [1, 1]}, "v", i)
    matched = []

    def compile_counted(*args):
        match = re.compile(*args).match

        def counted(line):
            matched.append(line)
            return match(line)

        return SimpleNamespace(match=counted)

    monkeypatch.setattr(cache, "re", SimpleNamespace(compile=compile_counted, escape=re.escape))
    assert cache_lookup(path, "h", "kac", {"d": [1, 1]}, "v") == "hit"
    assert 0 < len(matched) <= cache._BLOCK_LINES


def test_lookup_across_a_block_boundary(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    block = cache._BLOCK_LINES
    rng = random.Random(0)
    for _ in range(block - 4):
        cache_store(path, f"{rng.getrandbits(256):064x}", "kac", {"d": [1, 1]}, "v", 0)

    def noncanonical(d, result):
        # the asked quiver's record, in a key order cache_store does not write
        record = {"version": "v", "result": result, "params": {"d": d}, "op": "kac", "hash": "h"}
        return json.dumps(record).encode()

    tail = [
        b"not json",                      # block - 3
        b"\xff\xfe garbage",              # block - 2
        noncanonical([1, 1], "first"),    # block - 1
        ([2, 1], "early"),                # block, the last line of the first block
        ([1, 1], "last"),                 # block + 1
        noncanonical([2, 1], "late"),     # block + 2
        b"\x80 junk",                     # block + 3
        b"[1]",                           # block + 4
        b'{"hash":"other",not json',      # block + 5: another quiver's, never read
    ]
    for line in tail:
        if isinstance(line, tuple):
            cache_store(path, "h", "kac", {"d": line[0]}, "v", line[1])
        else:
            with open(path, "ab") as fh:
                fh.write(line + b"\n")
    assert cache_lookup(path, "h", "kac", {"d": [1, 1]}, "v") == "last"
    assert _warned_lines(capsys.readouterr().err) == {block - 3, block - 2, block + 3, block + 4}
    assert cache_lookup(path, "h", "kac", {"d": [2, 1]}, "v") == "late"
    assert _warned_lines(capsys.readouterr().err) == {block - 3, block - 2, block + 3, block + 4}


def test_lookup_memory_is_one_block_not_the_file(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    rng = random.Random(0)
    for _ in range(4 * cache._BLOCK_LINES):
        key = f"{rng.getrandbits(256):064x}"
        cache_store(path, key, "count", {"d": [2, 3], "q": 5}, "v", {"A": 12, "I": 34, "M": 567})
    cache_store(path, "h", "count", {"d": [2, 3], "q": 5}, "v", "hit")
    tracemalloc.start()
    try:
        assert cache_lookup(path, "h", "count", {"d": [2, 3], "q": 5}, "v") == "hit"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(path) / 2


def test_cli_uses_cache(capsys, kron2_file, tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    run_cli(capsys, ["kac", "--quiver", kron2_file, "--d", "1,1", "--cache", cache])
    code, out, err = run_cli(
        capsys, ["kac", "--quiver", kron2_file, "--d", "1,1", "--cache", cache]
    )
    assert code == 0
    assert out.strip() == '{"polynomial":[1,1]}'
    assert "cached" in err


def test_betti_reads_the_kac_record(capsys, kron2_file, tmp_path, monkeypatch):
    cache = str(tmp_path / "cache.jsonl")
    code, _, _ = run_cli(capsys, ["kac", "--quiver", kron2_file, "--d", "1,1", "--cache", cache])
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("betti recomputed a cached Kac polynomial")

    for module in (counting, cli):
        monkeypatch.setattr(module, "kac_polynomial", refuse)
    code, out, _ = run_cli(
        capsys,
        ["betti", "--quiver", kron2_file, "--d", "1,1", "--theta", "-1,1", "--cache", cache],
    )
    assert code == 0
    assert json.loads(out) == {"e": 1, "betti": [1, 0, 1]}
    with open(cache, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert [(r["op"], r["params"]) for r in records] == [("kac", {"d": [1, 1]})]


def test_cache_env_var(capsys, kron2_file, tmp_path, monkeypatch):
    cache = str(tmp_path / "env-cache.jsonl")
    monkeypatch.setenv("QUIVERFORGE_CACHE", cache)
    run_cli(capsys, ["kac", "--quiver", kron2_file, "--d", "1,1"])
    _, _, err = run_cli(capsys, ["kac", "--quiver", kron2_file, "--d", "1,1"])
    assert "cached" in err


def test_cache_unwritable_warns_but_computes(capsys, kron2_file):
    code, out, err = run_cli(
        capsys,
        ["kac", "--quiver", kron2_file, "--d", "1,1", "--cache", "/nonexistent-dir/c.jsonl"],
    )
    assert code == 0
    assert out.strip() == '{"polynomial":[1,1]}'
    assert "warning" in err


def test_cache_misses_records_of_other_code(capsys, tmp_path):
    # a record written before the zero-inner-dimension fix of FqMatrix.mul,
    # under the same version number, holds a level set of 0 for this input
    kron2 = kronecker_quiver(2)
    quiver_file = tmp_path / "kron2.json"
    quiver_file.write_text(serialize_quiver(kron2))
    cache = str(tmp_path / "cache.jsonl")
    params = {"d": [1, 0], "eta": [0, 1], "q": 2}
    stale = {"level_set": 0, "q": 2, "trace_obstruction_ok": True}
    cache_store(cache, kron2.content_hash(), "moduli-level", params, cli.__version__, stale)
    argv = ["moduli", "--quiver", str(quiver_file), "--d", "1,0", "--eta", "0,1", "--q", "2",
            "--cache", cache]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["level_set"] == 1
    assert "cached" not in err
    code, out, err = run_cli(capsys, argv)
    assert json.loads(out)["level_set"] == 1
    assert "(cached)" in err


def test_doubled_file_gives_the_plain_level_set(capsys, tmp_path):
    outputs = []
    for name, quiver in (("plain", kronecker_quiver(2)), ("doubled", kronecker_quiver(2).double())):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_quiver(quiver))
        code, out, _ = run_cli(
            capsys, ["moduli", "--quiver", str(path), "--d", "1,1", "--eta", "-1,1", "--q", "3"]
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["level_set"] == 24


@pytest.mark.parametrize(
    "star_pairing",
    [["a1", "a1*"], {"a1": 1, "a1*": "a1"}, {"a1": "a1*"}, {"a1": "a2", "a2": "a1"}],
)
def test_malformed_star_pairing_is_a_validation_error(capsys, tmp_path, star_pairing):
    data = json.loads(KRON2_TEXT)
    data["arrows"].append({"id": "a1*", "tail": "2", "head": "1"})
    data["star_pairing"] = star_pairing
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, ["forms", "--quiver", str(path), "--d", "1,1"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "ValidationError"


def test_verify_command(capsys, kron2_file):
    code, out, err = run_cli(capsys, ["verify", "--suite", "small"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["criteria"]) == 10
    assert err.count("PASS") >= 10
