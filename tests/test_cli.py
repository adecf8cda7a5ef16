"""End-to-end CLI behavior: JSON shape against the shipped schema, exit
code classes, determinism modulo the header timestamp, and batch isolation.
The report writer is checked byte for byte against json's own encoder.
"""

import contextlib
import importlib.resources
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import character_oracle as oracle

import ringlab
from ringlab import cli, rings
from ringlab.cli import parse_element_set
from ringlab.errors import ParseError, WorkGuardExceeded
from ringlab.paley import build_paley, spectrum
from ringlab.polynomials import parse_poly_literal
from ringlab.rings import make_ring

# The child imports the same ringlab as the tests, installed or not.
_PYTHONPATH = os.pathsep.join(
    filter(None, [str(Path(ringlab.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "ringlab.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _PYTHONPATH, **(env or {})},
    )


@pytest.fixture(scope="module")
def validator():
    schema = json.loads(
        importlib.resources.files("ringlab")
        .joinpath("schemas/reports.schema.json")
        .read_text()
    )
    return jsonschema.Draft202012Validator(schema)


GOOD_COMMANDS = [
    ("ring", "info", "Z/360"),
    ("poly", "ddeg", "--ring", "Z/4", "--poly", "0,0,0,0,1"),
    ("subgroup", "--ring", "PQ(q=2;g=0,0,1)", "--poly", "0,0,1"),
    ("expsum", "--ring", "Z/13", "--poly", "0,0,1", "--table"),
    ("tebound", "--ring", "GF(9)", "--poly", "0,0,1", "--random", "5", "--seed", "7"),
    ("vdc", "--ring", "Z/8", "--subgroup", "0,4", "--k", "2", "--random", "5"),
    ("rootcount", "--ring", "Z/12", "--coeffs", "[0,6]"),
    ("sarkozy", "--ring", "Z/13", "--poly", "0,0,1", "--sets", "squares", "0,1,2"),
    ("intersective", "--family", "INTEGERS", "--poly=-2,0,1", "--bound", "20"),
    ("paley", "--ring", "Z/13", "--d", "2", "--sets", "structured"),
]


@pytest.mark.parametrize("args", GOOD_COMMANDS, ids=lambda a: a[0])
def test_reports_validate_against_schema(args, validator):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    validator.validate(doc)
    assert doc["header"]["tool"] == "ringlab"


def test_ring_info_values():
    proc = run_cli("ring", "info", "Z/360")
    doc = json.loads(proc.stdout)
    assert doc["result"]["lpf"] == 2
    assert doc["result"]["prime_profile"] == [[2, 3], [3, 2], [5, 1]]


def test_parse_error_exit_2():
    proc = run_cli("ring", "info", "Z/billion")
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "ParseError"
    assert err["error"]["exit_code"] == 2
    assert proc.stdout == ""


BAD_INPUTS = [
    ("vdc", "--ring", "Z/8", "--subgroup", "full", "--k", "0"),
    ("vdc", "--ring", "Z/8", "--subgroup", "full", "--random", "0"),
    ("paley", "--ring", "Z/13", "--d", "2", "--sets", "sampled:x:1"),
    ("expsum", "--ring", "Z/12", "--poly", "0,0,1", "--char", "1,2"),
    ("sarkozy", "--ring", "Z/13", "--poly", "0,0,1", "--measured", "-5"),
    ("sarkozy", "--ring", "Z/13", "--poly", "0,0,1", "--measured", "14"),
    ("tebound", "--ring", "Z/8", "--poly", "0,0,1", "--seed", "-1"),
    ("vdc", "--ring", "Z/8", "--subgroup", "full", "--seed", "-1"),
    ("sarkozy", "--ring", "Z/13", "--poly", "0,0,1", "--seed", "-1"),
    ("paley", "--ring", "Z/13", "--d", "2", "--seed", "-1"),
    ("sarkozy", "--ring", "Z/13", "--poly", "0,0,1", "--sets", "squares", "random:3:-1"),
    ("paley", "--ring", "Z/13", "--d", "2", "--sets", "sampled:3:-1"),
    ("intersective", "--family", "FPT(x)", "--poly", "1,1", "--bound", "2"),
    ("intersective", "--family", "FPT()", "--poly", "1,1", "--bound", "2"),
    ("rootcount", "--ring", "Z/7", "--coeffs", "[1.5,1]"),
    ("rootcount", "--ring", "Z/7", "--coeffs", "[true,1]"),
    ("rootcount", "--ring", "Z/7", "--coeffs", "[99999999999999999999999,1]"),
    ("rootcount", "--ring", "Z/7", "--coeffs", "1e400"),
    ("vdc", "--ring", "Z/8", "--subgroup", "trivial", "--k", "11"),
    ("vdc", "--ring", "Z/8", "--subgroup", "trivial", "--k", "12"),
    ("vdc", "--ring", "Z/8", "--subgroup", "trivial", "--k", "990"),
    ("sarkozy", "--ring", "Z/13", "--poly=0,0,1", "--measured", "3", "--sets", "coset:0,1:x", "1"),
    ("vdc", "--ring", "Z/12", "--subgroup", "gen:coset:0,1:zz", "--k", "1", "--random", "2"),
    ("paley", "--ring", "Z/13", "--d", "2", "--seed", "5"),
    # An integer is -?[0-9]+ wherever it is written: int() also read each
    # of these, as 3, 9, 2, 10, +3 or a digit of another script.
    ("ring", "info", "Z/\u0663"),
    ("ring", "info", "GF(\u0669;h=\u0662,\u0662,\u0661)"),
    ("expsum", "--ring", "Z/13", "--poly=\u0661,\u0662"),
    ("expsum", "--ring", "Z/13", "--poly=1_0,1"),
    ("expsum", "--ring", "Z/13", "--poly=#\u0661"),
    ("expsum", "--ring", "Z/13", "--poly=+3,1"),
    ("paley", "--ring", "Z/13", "--d", "\u0662"),
    ("sarkozy", "--ring", "Z/13", "--poly=0,0,1", "--measured", "1_0"),
    ("tebound", "--ring", "Z/8", "--poly=0,0,1", "--seed", "\u0661"),
    ("intersective", "--family", "FPT(\u0663)", "--poly=0,0,1", "--bound", "2"),
    ("intersective", "--family", "INTEGERS", "--poly=\u0662,0,1", "--bound", "20"),
    ("expsum", "--ring", "Z/13", "--poly=0,0,1", "--char", "\u0661"),
    ("sarkozy", "--ring", "Z/13", "--poly=0,0,1", "--measured", "3", "--sets", "\u0661,2", "1"),
    ("sarkozy", "--ring", "Z/13", "--poly=0,0,1", "--measured", "3", "--sets", "random:1_0:1", "1"),
    ("sarkozy", "--ring", "Z/13", "--poly=0,0,1", "--measured", "3", "--sets", "coset:0,1:\u0663", "1"),
    ("paley", "--ring", "Z/13", "--d", "2", "--sets", "sampled:\u0663:1"),
]
BAD_INPUT_IDS = [
    "vdc-k0", "vdc-random0", "paley-sampled", "expsum-char", "sarkozy-measured",
    "sarkozy-measured-above-order",
    "tebound-seed", "vdc-seed", "sarkozy-seed", "paley-seed", "random-seed", "sampled-seed",
    "fpt-not-a-number", "fpt-empty", "rootcount-float", "rootcount-bool",
    "rootcount-beyond-int64", "rootcount-infinity", "vdc-k11", "vdc-k12", "vdc-k990",
    "sarkozy-coset-shift", "vdc-coset-shift", "paley-has-no-seed",
    "z-arabic-digit", "gf-arabic-digits", "poly-arabic-digits", "poly-underscore", "poly-raw-arabic",
    "poly-plus-sign", "paley-d-arabic", "sarkozy-measured-underscore", "tebound-seed-arabic",
    "fpt-arabic", "intersective-poly-arabic", "expsum-char-arabic", "explicit-set-arabic",
    "random-size-underscore", "coset-shift-arabic", "sampled-count-arabic",
]


@pytest.mark.parametrize("args", BAD_INPUTS, ids=BAD_INPUT_IDS)
def test_bad_inputs_exit_2(args):
    """Malformed values are refused with a structured error, never a
    traceback and never silently reinterpreted."""
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "ParseError"
    assert err["error"]["exit_code"] == 2
    assert proc.stdout == ""


def test_deeply_nested_spec_exit_2():
    """A spec nested 1,500 deep used to end in a RecursionError traceback
    with exit 1; one nested a few levels deep still parses."""
    proc = run_cli("ring", "info", "prod(" * 1500 + "Z/2" + ")" * 1500)
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "ParseError"
    ring = make_ring("prod(" * 5 + "prod(Z/3;GF(4))" + ")" * 5)
    assert ring.order == 12 and ring.additive_orders() == (3, 2, 2)


@pytest.mark.parametrize(
    "args",
    [
        ("vdc", "--ring", "Z/1048576", "--subgroup", "poly:0,0,1", "--k", "0"),
        ("vdc", "--ring", "Z/1048576", "--subgroup", "poly:0,0,1", "--random", "0"),
        ("tebound", "--ring", "Z/1048576", "--poly", "0,0,1", "--random", "0"),
    ],
    ids=["vdc-k", "vdc-random", "tebound-random"],
)
def test_count_flags_refused_before_setup(args, monkeypatch, capsys):
    """--k and --random are checked before the ring is built and the
    subgroup closed (vdc --k 0 took 0.4 s and 117 MB before its exit 2)."""

    def no_ring(spec):
        raise AssertionError(f"make_ring({spec!r}) ran before the flags were checked")

    monkeypatch.setattr(cli, "make_ring", no_ring)
    assert cli.main(list(args)) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ParseError"


# Inputs whose allocation passes the default work guard: each is refused
# before anything is allocated or sampled. They used to end in a
# MemoryError or OverflowError traceback, or run for minutes.
GUARD_INPUTS = [
    ("vdc", "--ring", "Z/64", "--subgroup", "full", "--k", "1", "--random", "1000000"),
    ("tebound", "--ring", "Z/1024", "--poly=0,0,1", "--random", "100000000"),
    ("paley", "--ring", "Z/13", "--d", "4294967296"),
    ("paley", "--ring", "Z/13", "--d", "99999999999999999999"),
    ("paley", "--ring", "Z/13", "--d", "2", "--sets", "sampled:99999999999:1"),
    ("sarkozy", "--ring", "Z/1048576", "--poly=0,0,1", "--search", "greedy"),
]


@pytest.mark.parametrize(
    "args", GUARD_INPUTS,
    ids=[
        "vdc-random", "tebound-random", "paley-d-2to32", "paley-d-1e20", "paley-sampled-count",
        "sarkozy-greedy-2to20",
    ],
)
def test_guard_inputs_exit_3(args, capsys):
    from ringlab.cli import main

    start = time.perf_counter()
    assert main(list(args)) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    error = json.loads(err)["error"]
    assert error["type"] == "WorkGuardExceeded" and error["exit_code"] == 3
    assert out == ""


def test_ragged_rootcount_coefficients_name_the_row_rule(capsys):
    from ringlab.cli import main

    assert main(["rootcount", "--ring", "Z/12", "--coeffs", "[[0,1],[1]]"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == "every row of a level must have the same length"


def test_search_jobs_do_not_import_numpy_ma():
    """np.unique and np.union1d import numpy.ma on first use, about 10 ms
    of one job per process; the sorted-distinct helper does not."""
    script = (
        "import contextlib, io, sys\n"
        "from ringlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['paley', '--ring', 'Z/7', '--d', '2', '--sets', 'exhaustive']),\n"
        "             main(['sarkozy', '--ring', 'Z/64', '--poly=0,0,1', '--search', 'greedy',\n"
        "                   '--sets', 'squares', 'random:5:1'])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": _PYTHONPATH},
    )
    assert proc.stdout.split() == ["[0,", "0]", "False"], proc.stderr


X_1100 = ",".join(["0"] * 1100 + ["1"])


@pytest.mark.parametrize(
    "args",
    [
        ("expsum", "--ring", "Z/9", "--poly", X_1100, "--mode", "bound"),
        ("tebound", "--ring", "Z/9", "--poly", X_1100, "--mode", "bound", "--random", "1"),
        ("sarkozy", "--ring", "Z/9", "--poly", X_1100, "--measured", "3"),
        ("paley", "--ring", "Z/25", "--d", "1100"),
    ],
    ids=["expsum", "tebound", "sarkozy", "paley"],
)
def test_exponent_2_to_the_k_beyond_float_range(args, validator):
    """k = 1100 puts 2^(k-1) past the float range; the bounds that raise
    to the power 2^(k-1) or its reciprocal still report."""
    proc = run_cli(*args)
    assert proc.returncode in (0, 4), proc.stderr
    doc = json.loads(proc.stdout)
    validator.validate(doc)
    assert doc["kind"] == args[0]


def _paley_file(tmp_path, pairs):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(pairs))
    return run_cli("paley", "--ring", "Z/13", "--d", "2", "--sets", f"file:{path}")


def test_paley_file_sets_follow_the_element_set_rule(tmp_path, validator):
    """A JSON array of [A, B] pairs; a repeated index counts once, as in
    every other element-set argument."""
    proc = _paley_file(tmp_path, [[[1, 2, 3], [4, 5]], [[0], []]])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    validator.validate(doc)
    uni = doc["result"]["uniformity"]
    assert uni["mode"] == "explicit" and uni["pairs_examined"] == 2
    assert uni["witness_a"] == [1, 2, 3]
    again = _paley_file(tmp_path, [[[3, 1, 2, 1, 3], [5, 4, 4]], [[0, 0], []]])
    assert json.loads(again.stdout)["result"]["uniformity"] == uni


@pytest.mark.parametrize(
    "pairs",
    [[[[1, 13], [2]]], [[[1], [-1]]], [[[-13], [2]]], [[[1, 2**70], [2]]]],
    ids=["past-the-end", "negative", "negative-wraps-to-0", "beyond-int64"],
)
def test_paley_file_bad_index_exit_2(tmp_path, pairs):
    proc = _paley_file(tmp_path, pairs)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)["error"]
    assert err["type"] == "ParseError" and err["exit_code"] == 2
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "pairs",
    [[[[1.7, 2], [3]]], [[[1, True], [2]]], [[[1], ["2"]]]],
    ids=["float", "bool", "digit-string"],
)
def test_paley_file_non_integer_entry_exit_2(tmp_path, pairs):
    """Only JSON integers name elements; [[[1.7, true], [2]]] used to run
    as A = {1}."""
    proc = _paley_file(tmp_path, pairs)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)["error"]
    assert err["type"] == "ParseError" and err["exit_code"] == 2
    assert proc.stdout == ""


def test_unknown_flag_exit_2():
    proc = run_cli("ring", "info", "Z/12", "--frobnicate")
    assert proc.returncode == 2


def test_order_guard_exit_3():
    proc = run_cli("ring", "info", "Z/1048577")
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "OrderTooLarge"


_NINES = "9" * 5000
HUGE_SPECS = [
    ("GF(2305843009213693951)", 3),
    ("GR(2305843009213693951,1,1)", 3),
    ("Z/2305843009213693951", 3),
    ("GF(99999999999999999999999)", 3),
    ("PQ(q=99999999999999999999999;g=0,1)", 3),
    ("GR(2,3000,3000)", 3),
    ("GR(2,100000,100000)", 3),
    (f"Z/{_NINES}", 3),
    (f"GF({_NINES})", 3),
    (f"GR({_NINES},1,1)", 3),
    (f"GR(2,1,{_NINES})", 3),
    (f"prod(Z/2;GF({_NINES}))", 3),
    ("prod(" + ";".join(["Z/1048576"] * 1000) + ")", 3),
    (f"GF(4;h={_NINES},1,1)", 2),
    ("GR(1,3000,3000)", 2),
]


@pytest.mark.parametrize(
    "spec, code", HUGE_SPECS,
    ids=[
        "gf-2to61", "gr-2to61", "z-2to61", "gf-1e23", "pq-1e23", "gr-2to9e6", "gr-2to1e10",
        "z-5000-digits", "gf-5000-digits", "gr-p-5000-digits", "gr-r-5000-digits",
        "prod-5000-digits", "prod-1000-factors", "gf-h-5000-digits", "gr-p-1-huge-power",
    ],
)
def test_huge_spec_integers_refused_fast(spec, code, capsys):
    """Each number of a ring spec is compared with the order guard before
    it is factored, powered, formatted or read past Python's int digit
    limit, and an order past the guard is named by its bit length. These
    hung in trial division, ran out of memory forming p^(n r), or ended in
    a ValueError traceback."""
    start = time.perf_counter()
    assert cli.main(["ring", "info", spec]) == code
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    error = json.loads(err)["error"]
    assert error["type"] == ("OrderTooLarge" if code == 3 else "ParseError")
    assert error["exit_code"] == code and out == ""



@pytest.mark.parametrize(
    "spec, error",
    [
        ("GF(4;h=1,1,3)", "GF(4): defining polynomial coefficients must lie in 0..1"),
        ("GR(2,2,2;f=-1,1,1)", "GR(2,2,2): f coefficients must lie in 0..3"),
        ("GF(9;h=-1,0,1)", "GF(9): defining polynomial coefficients must lie in 0..2"),
        ("PQ(q=2;g=1,1,3)", "PQ: modulus coefficients must be base field indices"),
    ],
    ids=["gf-lead-3", "gr-minus-1", "gf-minus-1", "pq-lead-3"],
)
def test_modulus_coefficients_are_base_indices(spec, error, capsys):
    """A coefficient of GF's h, GR's f or PQ's g outside 0..|base| - 1 is
    refused, not read mod |base|: GF(4;h=1,1,3) printed GF(4), and
    GF(9;h=-1,0,1) was refused about [2, 0, 1], which no one wrote."""
    assert cli.main(["ring", "info", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == {
        "exit_code": 2, "message": error, "type": "ParseError"}


_PQ_ZEROS = "PQ(q=2;g=" + ",".join(["0"] * 31)


@pytest.mark.parametrize(
    "spec, code, want",
    [
        (_PQ_ZEROS + ")", 2, "NotMonic"),
        (_PQ_ZEROS + ",1)", 3, "OrderTooLarge"),
        ("GR(99999,99,99)", 3, "order 99999^9801 exceeds"),
        ("prod(Z/1024;Z/1024;Z/2)", 3, "OrderTooLarge"),
        ("GF(2;h=1,1)", 0, "GF(2;h=1,1)"),
    ],
    ids=["pq-modulus-before-order", "pq-order", "gr-order-before-power", "prod-order",
         "gf2-pinned"],
)
def test_spec_checks_run_in_order(spec, code, want, capsys):
    """The builder's checks in their order: PQ's modulus before its order,
    so a non-monic g of degree 30 is NotMonic although 2^30 is past the
    guard; GR's order before p^(n r) is formed; a product's order after its
    factors'; and a pinned modulus of GF(2) is printed back."""
    start = time.perf_counter()
    assert cli.main(["ring", "info", spec]) == code
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    if code:
        assert out == "" and want in err
    else:
        assert err == "" and json.loads(out)["result"]["spec"] == want


@pytest.mark.parametrize(
    "spec, error",
    [
        ("PQ(q=1048576;g=5)", ("ParseError", "PQ: modulus must have degree at least 1")),
        ("PQ(q=2097152;g=5)", ("ParseError", "PQ: modulus must have degree at least 1")),
        ("PQ(q=6;g=5)", ("ParseError", "PQ: modulus must have degree at least 1")),
        ("PQ(q=9;g=1,9,1)", ("ParseError", "PQ: modulus coefficients must be base field indices")),
        ("PQ(q=9;g=1,0,2)", ("NotMonic", "PQ: modulus must be monic")),
    ],
    ids=["degree-at-guard", "degree-past-guard", "degree-not-prime-power", "range", "monic"],
)
def test_pq_modulus_is_checked_before_its_base(spec, error, capsys):
    """PQ's modulus is checked before GF(q) is built: a refused spec
    interns no base field, and its modulus error comes before the base's
    own. PQ(q=1048576;g=5) searched for GF(2^20)'s canonical modulus
    first; PQ(q=2097152;g=5) exited 3 for the order of its base and
    PQ(q=6;g=5) was refused as 6 is not a prime power."""
    assert cli.main(["ring", "info", spec]) == 2
    out, err = capsys.readouterr()
    got = json.loads(err)["error"]
    assert out == "" and (got["type"], got["message"]) == error
    assert not [key for key in rings._RINGS if key[0].startswith("GF(")]


def test_exact_ddeg_work_guard_exit_3():
    """The difference search of a ring of prime-power characteristic stops
    at the guard: Z/128 needs more than 300 work for x^2."""
    proc = run_cli(
        "poly", "ddeg", "--ring", "Z/128", "--poly", "0,0,1", "--mode", "exact",
        env={"RINGLAB_WORK_GUARD": "300"},
    )
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "WorkGuardExceeded"
    assert err["error"]["exit_code"] == 3
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args, guard, why",
    [
        pytest.param("poly ddeg --ring Z/128 --poly 0,0,1", 300, "exact derivational degree", id="poly ddeg"),
        pytest.param("expsum --ring Z/128 --poly 0,0,1", 300, "exact derivational degree", id="expsum"),
        pytest.param("paley --ring GR(2,2,3) --d 3", 100, "needs 192 work", id="paley"),
    ],
)
def test_auto_mode_reports_why_it_fell_back(args, guard, why, validator, monkeypatch, capsys):
    """Auto mode keeps the guard's message when the exact degree gives up,
    and reports null when the exact degree is found; paley reports it in
    its verdict."""
    from ringlab.cli import main

    def fallback_reason():
        assert main(args.split()) == 0
        doc = json.loads(capsys.readouterr().out)
        validator.validate(doc)
        return doc["result"].get("verdict", doc["result"])["fallback_reason"]

    assert fallback_reason() is None
    monkeypatch.setenv("RINGLAB_WORK_GUARD", str(guard))
    reason = fallback_reason()
    assert why in reason and str(guard) in reason


def test_value_table_is_charged_before_horner_runs(monkeypatch, capsys):
    """P's value table charges deg P x order before it evaluates, so a
    high-degree monomial under the work guard never reaches Horner: auto
    mode falls back to the bound and says why (paley --d 10^7 on Z/13 used
    to evaluate for 28 s). On a field the degree reads only P's
    coefficients, so the paley verdict on Z/13 is certified at the same
    guard without evaluating anything."""
    from ringlab.cli import main
    from ringlab.rings import Ring

    evaluated = []
    eval_poly_vec = Ring.eval_poly_vec
    monkeypatch.setattr(
        Ring, "eval_poly_vec",
        lambda ring, coeffs, xs: evaluated.append(len(coeffs)) or eval_poly_vec(ring, coeffs, xs),
    )
    monomial = ",".join(["0"] * 1000 + ["1"])
    monkeypatch.setenv("RINGLAB_WORK_GUARD", str(1000 * 128 - 1))
    assert main(["poly", "ddeg", "--ring", "Z/128", "--poly", monomial]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["method"] != "exact"
    assert "evaluating a degree-1000 polynomial on Z/128 needs 128000 work" in result["fallback_reason"]
    # d is odd on Z/128: the verdict is refused where 2 divides d.
    assert main(["paley", "--ring", "Z/128", "--d", "1001"]) == 0
    verdict = json.loads(capsys.readouterr().out)["result"]["verdict"]
    assert "needs 128128 work" in verdict["fallback_reason"]
    assert main(["paley", "--ring", "Z/13", "--d", "1000"]) == 0
    verdict = json.loads(capsys.readouterr().out)["result"]["verdict"]
    assert (verdict["k"], verdict["k_certified"], verdict["fallback_reason"]) == (4, True, None)
    assert evaluated == []
    monkeypatch.setenv("RINGLAB_WORK_GUARD", str(1001 * 128))
    assert main(["paley", "--ring", "Z/128", "--d", "1001"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["verdict"]["fallback_reason"] is None
    assert evaluated == [1002]


@pytest.mark.parametrize(
    "family, poly, bound",
    [("INTEGERS", "-2,0,1", "100000"), ("FPT(2)", "0,0,1", "14")],
)
def test_intersective_norm_cap_work_guard_exit_3(family, poly, bound):
    """B^2 past the work guard is refused before the climb starts; both
    commands used to run until a timeout stopped them."""
    start = time.perf_counter()
    proc = run_cli("intersective", "--family", family, f"--poly={poly}", "--bound", bound)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)["error"]
    assert err["type"] == "WorkGuardExceeded" and err["exit_code"] == 3
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "poly, status", [("0,0,1", "INTERSECTIVE_UP_TO_BOUND"), ("-2,0,1", "WITNESS_FOUND")]
)
def test_intersective_fpt_base_field_skips_the_order_guard(poly, status):
    """Z/p is built only for the witness quotient, after the B^2 charge and
    past the order guard, as the INTEGERS quotient is; FPT(101) used to
    exit 3 with OrderTooLarge under an order guard of 100. 2 is no square
    mod 101, so x^2 - 2 has its witness at g = t, of quotient order 101."""
    proc = run_cli("intersective", "--family", "FPT(101)", f"--poly={poly}", "--bound", "1",
                   env={"RINGLAB_ORDER_GUARD": "100"})
    assert proc.returncode == 0, proc.stderr
    r = json.loads(proc.stdout)["result"]
    assert r["status"] == status
    if r["witness"] is not None:
        assert r["witness"] == {"g": [0, 1], "exponent": 1, "quotient_order": 101}
        assert r["witness_verified"] is True


def test_intersective_fpt_large_prime_is_refused_by_the_climb_charge():
    """FPT(1000000007) at bound 1 charges B^2 = p^2 and is refused by the
    work guard; it used to be refused by the order guard on Z/p."""
    proc = run_cli("intersective", "--family", "FPT(1000000007)", "--poly=0,0,1", "--bound", "1")
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)["error"]
    assert err["type"] == "WorkGuardExceeded"
    assert err["message"].startswith("the climb to B^2 = 1000000007^2 needs")


@pytest.mark.parametrize("spec", ["GF(2305843009213693951)", "Z/2305843009213693951"])
def test_trial_division_past_work_guard_exit_3(spec):
    """Factoring the Mersenne prime 2^61 - 1 under a raised order guard is
    refused once a trial divisor passes the work guard; both commands used
    to run until a timeout stopped them."""
    start = time.perf_counter()
    proc = run_cli("ring", "info", spec,
                   env={"RINGLAB_ORDER_GUARD": str(10**21), "RINGLAB_WORK_GUARD": "10000"})
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)["error"]
    assert err["type"] == "WorkGuardExceeded" and err["exit_code"] == 3
    assert "budget 10000" in err["message"] and proc.stdout == ""


def test_trial_division_charges_only_the_divisors_it_reaches(monkeypatch):
    """The guard is charged as the divisor doubles past 2^10, not by
    isqrt(n) up front: under a work guard of 2, Z/2^60 factors at once and
    the prime Z/1048573 (divisors below 2^10) builds, while the prime
    Z/4194301 (divisors to 2047) is refused."""
    monkeypatch.setenv("RINGLAB_ORDER_GUARD", str(1 << 61))
    monkeypatch.setenv("RINGLAB_WORK_GUARD", "2")
    assert make_ring(f"Z/{1 << 60}").prime_ideal_profile() == [(2, 60)]
    assert make_ring("Z/1048573").prime_ideal_profile() == [(1048573, 1)]
    with pytest.raises(WorkGuardExceeded, match="trial division of 4194301 needs 1025 work, budget 2"):
        make_ring("Z/4194301")


@pytest.mark.parametrize("value", ["abc", "0", "-5", "١٦", "1_6", "+16"])
@pytest.mark.parametrize(
    "name, args",
    [
        ("RINGLAB_ORDER_GUARD", ("ring", "info", "Z/12")),
        ("RINGLAB_WORK_GUARD", ("poly", "ddeg", "--ring", "Z/12", "--poly", "0,0,1")),
    ],
)
def test_bad_guard_value_exit_2(name, args, value):
    """A guard variable that is not a positive integer is refused, not read
    as the default."""
    proc = run_cli(*args, env={name: value})
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "ParseError"
    assert name in err["error"]["message"]
    assert proc.stdout == ""


def test_greedy_sarkozy_at_order_4096(validator):
    proc = run_cli("sarkozy", "--ring", "Z/4096", "--poly=0,0,1", "--search", "greedy")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    validator.validate(doc)
    free = doc["result"]["difference_free"]
    assert free["verified"] and free["size"] == len(free["witness"])


def test_non_subgroup_exit_3():
    proc = run_cli("vdc", "--ring", "Z/8", "--subgroup", "0,4,5", "--k", "1")
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "NotASubgroup"


def test_hypothesis_unmet_exit_3():
    proc = run_cli("sarkozy", "--ring", "PQ(q=2;g=0,0,1)", "--poly", "#2,0,1")
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "HypothesisUnmet"


@pytest.mark.parametrize("search", ["exact", "greedy"])
@pytest.mark.parametrize(
    "poly, message",
    [
        ("--poly=3", "the size bound needs a nonconstant polynomial"),
        ("--poly=1,2", "P has no root and P(0) is outside the value subgroup"),
    ],
)
def test_hypothesis_unmet_exits_before_the_search(monkeypatch, capsys, search, poly, message):
    """A constant P, and 1 + 2x on Z/64 (odd values, so no root, and 1 is
    outside the subgroup 2 Z/64 that 2x generates), fail the size bound's
    hypotheses: the job exits 3 without running the search."""
    from ringlab import combinatorics

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(combinatorics, "difference_free_max", no_search)
    assert cli.main(["sarkozy", "--ring", "Z/64", poly, "--search", search]) == 3
    captured = capsys.readouterr()
    err = json.loads(captured.err)["error"]
    assert captured.out == ""
    assert err["type"] == "HypothesisUnmet" and err["message"].startswith(message)


def test_false_external_claim_exit_4():
    """An externally measured set size that violates the bound is exactly
    what exit 4 exists for: the bound for x^2 on Z/13 is 5.61, and a set
    of all 13 elements is a size a subset can have."""
    proc = run_cli("sarkozy", "--ring", "Z/13", "--poly", "0,0,1", "--measured", "13")
    assert proc.returncode == 4
    doc = json.loads(proc.stdout)
    assert not doc["result"]["bound_check"]["satisfied"]


def test_determinism_modulo_header():
    args = ("tebound", "--ring", "Z/8", "--poly", "0,0,1", "--random", "3", "--seed", "5")
    a = json.loads(run_cli(*args).stdout)
    b = json.loads(run_cli(*args).stdout)
    a.pop("header")
    b.pop("header")
    assert a == b


def test_tebound_reports_the_sampled_check(capsys):
    """Each function row carries its sample gap, and the summary the sample
    size and the largest gap, on a ring with several cyclic factors."""
    from ringlab.cli import main

    args = ["tebound", "--ring", "GR(2,2,3)", "--poly", "0,1,1", "--random", "3", "--seed", "2"]
    assert main(args) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    gaps = [row["sample_gap"] for row in result["functions"]]
    assert result["sample_rows"] == 16
    assert result["max_sample_gap"] == max(gaps) < 1e-8


def test_tebound_exits_4_when_its_routes_disagree(monkeypatch, capsys):
    """A convolution 1e-4 too large leaves every bound satisfied, but the
    transform route no longer matches the Parseval route or the sampled
    check, and the command says so with exit 4."""
    from ringlab import harmonics
    from ringlab.cli import main

    convolve = harmonics.convolve
    monkeypatch.setattr(harmonics, "convolve", lambda *a: convolve(*a) * (1 + 1e-4))
    args = ["tebound", "--ring", "Z/13", "--poly", "0,0,1", "--random", "2"]
    assert main(args) == 4
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["all_satisfied"] is True
    assert result["max_route_gap"] >= harmonics.ROUTE_TOL
    assert result["max_sample_gap"] >= harmonics.ROUTE_TOL


def test_sarkozy_exits_4_when_its_routes_disagree(monkeypatch, capsys):
    """A Fourier count off by 1 leaves the bound satisfied, but the two
    routes to the configuration count no longer match, so the command
    exits 4."""
    from ringlab import combinatorics, harmonics
    from ringlab.cli import main

    fourier = combinatorics.config_count_fourier
    monkeypatch.setattr(combinatorics, "config_count_fourier", lambda *a: fourier(*a) + 1)
    args = ["sarkozy", "--ring", "Z/13", "--poly=0,0,1", "--measured", "3", "--sets", "squares", "1,2,3"]
    assert main(args) == 4
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["bound_check"]["satisfied"] is True
    assert result["config"]["fourier_gap"] >= harmonics.ROUTE_TOL
    monkeypatch.setattr(combinatorics, "config_count_fourier", fourier)
    assert main(args) == 0


def _exit_4_report(args, validator, capsys) -> dict:
    """Run args in-process, expect exit 4 with a schema-valid report on
    stdout, and return its result."""
    assert cli.main(list(args)) == 4
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    validator.validate(doc)
    return doc["result"]


@pytest.mark.parametrize(
    "args,verdict",
    [
        (("expsum", "--ring", "Z/13", "--poly=0,0,1"), "bound_satisfied"),
        (("tebound", "--ring", "Z/13", "--poly=0,0,1", "--random", "2"), "all_satisfied"),
        (("vdc", "--ring", "Z/8", "--subgroup", "0,4", "--random", "2"), "satisfied"),
        (("rootcount", "--ring", "Z/12", "--coeffs", "[0,6]"), "satisfied"),
    ],
    ids=lambda a: a[0] if isinstance(a, tuple) else a,
)
def test_a_bound_no_tolerance_meets_exits_4(args, verdict, monkeypatch, capsys, validator):
    """With a tolerance of -inf every checked bound fails, and each command
    prints its verdict false and exits 4, its route gaps untouched."""
    from ringlab import harmonics

    monkeypatch.setattr(harmonics, "BOUND_TOL", -math.inf)
    result = _exit_4_report(args, validator, capsys)
    assert result[verdict] is False
    for gap in cli._GAPS & result.keys():
        assert result[gap] < harmonics.ROUTE_TOL, gap


def test_expsum_exits_4_when_the_annihilator_sums_drift(monkeypatch, capsys, validator):
    """Character sums 1e-6 too large keep the power bound, but the sum over
    the annihilator of the value subgroup is no longer exactly 1."""
    from ringlab import harmonics

    sums = harmonics.all_char_sums
    monkeypatch.setattr(harmonics, "all_char_sums", lambda *a: sums(*a) * (1 + 1e-6))
    result = _exit_4_report(("expsum", "--ring", "Z/13", "--poly=0,0,0,1"), validator, capsys)
    assert result["bound_satisfied"] is True
    assert result["annihilator_max_error"] >= harmonics.ROUTE_TOL


def test_vdc_exits_4_at_a_sample_gap_of_route_tol(monkeypatch, capsys, validator):
    """No single computation moves the sampled check alone, so the report
    itself carries a sample gap of exactly ROUTE_TOL, the first gap that
    fails; just below it the command exits 0."""
    import dataclasses

    from ringlab import harmonics

    check = harmonics.vdc_check
    args = ("vdc", "--ring", "Z/8", "--subgroup", "0,4", "--random", "2")
    for gap, code in ((harmonics.ROUTE_TOL, 4), (0.99 * harmonics.ROUTE_TOL, 0)):
        monkeypatch.setattr(
            harmonics, "vdc_check", lambda *a: dataclasses.replace(check(*a), sample_gap=gap)
        )
        assert cli.main(list(args)) == code
        doc = json.loads(capsys.readouterr().out)
        validator.validate(doc)
        assert doc["result"]["satisfied"] is True
        assert doc["result"]["sample_gap"] == gap


def test_a_nan_route_gap_exits_4(monkeypatch, capsys, validator):
    """A NaN gap is not below ROUTE_TOL: a Fourier count of NaN fails the
    configuration check rather than passing it."""
    from ringlab import combinatorics

    monkeypatch.setattr(combinatorics, "config_count_fourier", lambda *a: complex(math.nan, 0))
    args = ["sarkozy", "--ring", "Z/13", "--poly=0,0,1", "--measured", "3", "--sets", "squares", "1,2,3"]
    result = _exit_4_report(args, validator, capsys)
    assert result["bound_check"]["satisfied"] is True
    assert math.isnan(result["config"]["fourier_gap"])


def test_sarkozy_exits_4_on_a_witness_that_is_not_difference_free(monkeypatch, capsys, validator):
    from ringlab import combinatorics

    monkeypatch.setattr(combinatorics, "verify_difference_free", lambda *a: False)
    result = _exit_4_report(("sarkozy", "--ring", "Z/13", "--poly=0,0,1"), validator, capsys)
    assert result["difference_free"]["verified"] is False
    assert result["bound_check"]["satisfied"] is True


def test_paley_exits_4_when_a_pair_breaks_the_mixing_certificate(monkeypatch, capsys, validator):
    from ringlab import paley

    deviation = paley._pair_deviation
    monkeypatch.setattr(paley, "_pair_deviation", lambda *a: (deviation(*a)[0], 1.0))
    args = ("paley", "--ring", "Z/13", "--d", "2", "--sets", "structured")
    result = _exit_4_report(args, validator, capsys)
    assert result["uniformity"]["mixing_all_satisfied"] is False


def test_intersective_exits_4_when_the_rescan_rejects_the_witness(monkeypatch, capsys, validator):
    """The Hensel climb and the ring-kernel re-scan of O/pi^j are two routes
    to one witness: when they disagree the report says so and exits 4. No
    witness at all (witness_verified null) asserts nothing and exits 0."""
    from ringlab import combinatorics

    args = ["intersective", "--family", "INTEGERS", "--poly=-2,0,1", "--bound", "40"]
    assert cli.main(args) == 0
    assert json.loads(capsys.readouterr().out)["result"]["witness_verified"] is True
    monkeypatch.setattr(combinatorics, "_witness_has_no_root", lambda *a: False)
    result = _exit_4_report(args, validator, capsys)
    assert result["status"] == "WITNESS_FOUND"
    assert result["witness_verified"] is False
    assert cli.main(["intersective", "--family", "INTEGERS", "--poly=0,0,1", "--bound", "40"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["witness_verified"] is None


def test_batch_exits_with_its_printed_overall_exit(tmp_path, capsys, validator):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "jobs": [
            {"label": "ok", "args": ["ring", "info", "Z/12"]},
            {"label": "bound", "args": ["sarkozy", "--ring", "Z/13", "--poly=0,0,1", "--measured", "13"]},
        ],
    }))
    result = _exit_4_report(["batch", str(path)], validator, capsys)
    assert result["overall_exit"] == 4
    assert [job["exit_code"] for job in result["jobs"]] == [0, 4]


@pytest.mark.parametrize(
    "args,field",
    [
        (("poly", "ddeg", "--ring", "Z/8", "--poly=0,0,0,1", "--mode", "bound"), "certified"),
        (("subgroup", "--ring", "Z/8", "--poly", "0,2"), "is_full"),
    ],
    ids=lambda a: a[0] if isinstance(a, tuple) else a,
)
def test_false_fields_that_are_no_verdict_exit_0(args, field, capsys):
    assert cli.main(list(args)) == 0
    assert json.loads(capsys.readouterr().out)["result"][field] is False


def test_schema_declares_every_field_exit_4_reads(validator):
    """A report field renamed in the schema cannot drop out of the rule
    unnoticed: each name the rule reads is a declared property."""
    declared, stack = set(), [validator.schema]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            declared.update(node.get("required", ()))
            declared.update(node.get("properties", {}))
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    assert cli._VERDICTS | cli._GAPS <= declared


def test_seed_changes_functions():
    base = ("tebound", "--ring", "Z/8", "--poly", "0,0,1", "--random", "3")
    a = json.loads(run_cli(*base, "--seed", "1").stdout)
    b = json.loads(run_cli(*base, "--seed", "2").stdout)
    assert a["result"]["functions"] != b["result"]["functions"]


def test_paley_edges_plain_text():
    proc = run_cli("paley", "--ring", "Z/5", "--d", "2", "--edges")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines == ["0 1", "0 4", "1 2", "2 3", "3 4"]


def test_paley_edges_cut_off_by_its_reader_exits_0():
    """A reader that closes stdout after one line (`| head -n 1`) ends the
    edge list quietly: no traceback, exit 0. It used to end in a
    BrokenPipeError traceback and exit 1."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "ringlab.cli", "paley", "--ring", "Z/4096", "--d", "2", "--edges"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": _PYTHONPATH},
    )
    assert proc.stdout.readline() == "0 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert err == ""


def test_paley_edges_with_sets_exit_2():
    """The edge list replaces the report, so a sweep asked for beside it is
    refused; it used to be dropped without a word."""
    proc = run_cli("paley", "--ring", "Z/5", "--d", "2", "--edges", "--sets", "exhaustive")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not allowed with argument" in proc.stderr


def test_paley_char_divides_degree_warns_instead_of_failing():
    proc = run_cli("paley", "--ring", "GF(4)", "--d", "2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["verdict"] is None
    assert "characteristic divides" in doc["result"]["warning"]


def test_expsum_single_character():
    proc = run_cli("expsum", "--ring", "Z/5", "--poly", "0,0,1", "--char", "1")
    doc = json.loads(proc.stdout)
    single = doc["result"]["single_character"]
    assert single["modulus"] == pytest.approx(5**-0.5, abs=1e-9)


@pytest.mark.parametrize(
    "spec, poly, coeffs",
    [
        ("Z/12", "0,0,1", "5"),
        ("GF(9)", "0,1,0,1", "1,2"),
        ("GR(2,2,2)", "0,1,1", "1,3"),
        ("PQ(q=3;g=0,1,1)", "1,0,1", "2,1"),
        ("prod(Z/4;GF(4))", "0,1,1", "3,1,1"),
    ],
)
def test_expsum_char_matches_angle_histogram(spec, poly, coeffs, capsys):
    """--char reads its sum from the transform that --table prints; the
    angle-histogram oracle, which shares no arithmetic with it, agrees."""
    assert cli.main(["expsum", "--ring", spec, f"--poly={poly}", "--char", coeffs, "--table"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    ring = make_ring(spec)
    position = oracle.coeff_tuples(ring).index(tuple(int(c) for c in coeffs.split(",")))
    want = oracle.char_sum(ring, position, parse_poly_literal(ring, poly).values()) / ring.order
    single = result["single_character"]
    assert abs(single["re"] - want.real) < 1e-12 and abs(single["im"] - want.imag) < 1e-12
    row = result["characters"][position]
    assert (row["re"], row["im"], row["modulus"]) == (single["re"], single["im"], single["modulus"])


def test_dumps_turns_numpy_values_into_json():
    """Arrays become lists and numpy scalars plain numbers or bools; any
    other type json cannot encode is still a TypeError."""
    doc = {"a": np.arange(3), "f": np.float64(0.5), "i": np.int64(7), "b": np.bool_(True)}
    assert json.loads(cli._dumps(doc)) == {"a": [0, 1, 2], "f": 0.5, "i": 7, "b": True}
    with pytest.raises(TypeError, match="set"):
        cli._dumps({"s": {1, 2}})


def _stdlib_dumps(doc) -> str:
    """The oracle for cli._dumps: json's own indenting encoder."""
    return json.dumps(doc, indent=2, sort_keys=True, default=cli._numpy_to_json)


_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324])
_NUMBERS = st.integers() | st.sampled_from([2**63, -(2**64), 3**50]) | _FLOATS | st.booleans()
_TEXT = st.lists(
    st.characters() | st.sampled_from(['"', "\\", ", ", "[", "{", "\u00e9", "\u2028", "\U0001f600"])
).map("".join)
_ARRAYS = st.sampled_from([np.int64, np.float64, np.float32, np.bool_]).flatmap(
    lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4))
)
_NUMPY_SCALARS = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
_LEAVES = st.one_of(
    _NUMBERS, st.none(), _TEXT, _ARRAYS, _NUMPY_SCALARS, st.lists(_NUMBERS, min_size=1, max_size=6)
)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_dumps_matches_the_stdlib_encoder_byte_for_byte(doc):
    """The writer prints exactly what json's indenting encoder prints: key
    order and escapes, float spellings, big ints, numpy values, and lists
    of numbers mixed or not with other values."""
    assert cli._dumps(doc) == _stdlib_dumps(doc)


def test_dumps_refuses_what_the_stdlib_encoder_refuses():
    for doc in ({"s": {1, 2}}, {"c": np.array([1 + 2j, 3j])}, [1, {1, 2}]):
        for dumps in (cli._dumps, _stdlib_dumps):
            with pytest.raises(TypeError):
                dumps(doc)


def test_added_keys_stay_off_memoised_reports(capsys):
    """paley prints its ring's memoised spectrum through a copy of the
    report's fields, so a job leaves the report as it found it."""
    graph = build_paley(make_ring("Z/13"), 2)
    fields = cli._fields(spectrum(graph))
    fields["extra"] = 1
    assert "extra" not in vars(spectrum(graph))
    assert cli.main(["paley", "--ring", "Z/13", "--d", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["spectrum"] == json.loads(
        cli._dumps(vars(spectrum(graph)))
    )


def test_batch_isolation(tmp_path, validator):
    manifest = {
        "seed": 9,
        "jobs": [
            {"label": "ok", "args": ["ring", "info", "Z/12"]},
            {"label": "toolarge", "args": ["ring", "info", "Z/1048577"]},
            {"label": "hugeprime", "args": ["ring", "info", "GF(2305843009213693951)"]},
            {"label": "te", "args": ["tebound", "--ring", "Z/8", "--poly", "0,0,1", "--random", "2"]},
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    proc = run_cli("batch", str(path))
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    validator.validate(doc)
    jobs = {j["label"]: j for j in doc["result"]["jobs"]}
    assert jobs["ok"]["exit_code"] == 0
    assert jobs["toolarge"]["exit_code"] == 3
    assert jobs["toolarge"]["error"]["type"] == "OrderTooLarge"
    assert jobs["hugeprime"]["exit_code"] == 3
    assert jobs["hugeprime"]["error"]["type"] == "OrderTooLarge"
    assert jobs["te"]["exit_code"] == 0
    assert "--seed" in jobs["te"]["args"]
    assert doc["result"]["overall_exit"] == 3


def test_batch_job_error_does_not_stop_manifest(tmp_path, validator):
    """A job whose handler raises becomes an error row; the jobs around it
    still report."""
    manifest = {
        "jobs": [
            {"label": "ok", "args": ["ring", "info", "Z/12"]},
            {"label": "bad", "args": ["paley", "--ring", "Z/13", "--d", "2", "--sets", "sampled:3:-1"]},
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    proc = run_cli("batch", str(path))
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    validator.validate(doc)
    jobs = {j["label"]: j for j in doc["result"]["jobs"]}
    assert jobs["ok"]["exit_code"] == 0
    assert jobs["ok"]["result"]["order"] == 12
    assert jobs["bad"]["exit_code"] == 2
    assert jobs["bad"]["error"]["type"] == "ParseError"
    assert jobs["bad"]["error"]["exit_code"] == 2


def test_batch_refuses_jobs_that_print(tmp_path, capsys, validator):
    """A job that would print to stdout itself, an edge list or argparse's
    help, is a ParseError row that prints nothing, so stdout stays one
    JSON envelope (both used to print before it, with exit 0)."""
    manifest = {
        "jobs": [
            {"label": "edges", "args": ["paley", "--ring", "Z/5", "--d", "2", "--edges"]},
            {"label": "help", "args": ["expsum", "--help"]},
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert cli.main(["batch", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    validator.validate(doc)
    assert doc["result"]["overall_exit"] == 2
    for row in doc["result"]["jobs"]:
        assert row["exit_code"] == 2 and "result" not in row, row["label"]
        assert row["error"]["type"] == "ParseError"
        assert "batch job" in row["error"]["message"]


def test_batch_refuses_a_batch_job(tmp_path):
    """A manifest that names itself used to recurse until a RecursionError
    traceback with exit 1; a batch job is now a ParseError row."""
    path = tmp_path / "self.json"
    path.write_text(json.dumps({"jobs": [{"args": ["batch", str(path)]}]}))
    proc = run_cli("batch", str(path))
    assert proc.returncode == 2 and proc.stderr == ""
    (row,) = json.loads(proc.stdout)["result"]["jobs"]
    assert row["exit_code"] == 2 and row["error"]["type"] == "ParseError"


def test_batch_empty_manifest(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"jobs": []}))
    proc = run_cli("batch", str(path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["job_count"] == 0


def test_batch_output_dir(tmp_path):
    manifest = {
        "jobs": [{"label": "ring8", "args": ["ring", "info", "Z/8"]}],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "reports"
    proc = run_cli("batch", str(path), "--output-dir", str(out))
    assert proc.returncode == 0
    written = json.loads((out / "ring8.json").read_text())
    assert written["result"]["order"] == 8


def test_batch_malformed_manifest_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    proc = run_cli("batch", str(path))
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "manifest",
    [
        {"jobs": [1]},
        {"jobs": [{"args": 5}]},
        {"jobs": [{"args": ["ring", "info", "Z/4"]}, "ring info Z/4"]},
    ],
    ids=["job-not-object", "args-not-list", "second-job-not-object"],
)
def test_batch_malformed_job_exit_2(tmp_path, capsys, manifest):
    """Every job is checked before any runs: a malformed one is a
    structured ParseError, not a traceback, and nothing is written."""
    from ringlab.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**manifest, "output_dir": str(tmp_path / "out")}))
    assert main(["batch", str(path)]) == 2
    out, err = capsys.readouterr()
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError"
    assert "args array" in error["message"]
    assert out == ""
    assert not (tmp_path / "out").exists()


def _run_bad_batch(tmp_path, capsys, manifest):
    """Run a manifest that must be refused: exit 2 with a ParseError and no
    file written anywhere under tmp_path but the manifest itself."""
    from ringlab.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(manifest))
    assert main(["batch", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert list(tmp_path.rglob("*")) == [path]
    return json.loads(err)["error"]


@pytest.mark.parametrize(
    "label", [5, None, "", ".", "..", "../../esc", "a/b", "a/../b", "a\\b", "nul\0"],
)
def test_batch_label_not_a_file_name_exit_2(tmp_path, capsys, label):
    """A label names a report file inside the output directory; one that
    could name a file elsewhere is refused before the first job runs (a
    label of ../../esc used to write its report two directories up)."""
    out_dir = tmp_path / "a" / "b" / "out"
    error = _run_bad_batch(tmp_path, capsys, {
        "jobs": [{"args": ["ring", "info", "Z/4"], "label": "ok"},
                 {"args": ["ring", "info", "Z/4"], "label": label}],
        "output_dir": str(out_dir),
    })
    assert error["type"] == "ParseError" and "job 1" in error["message"]


@pytest.mark.parametrize("labels", [("a", "a"), (None, "job0"), ("job1", None)])
def test_batch_repeated_label_exit_2(tmp_path, capsys, labels):
    """Labels name the report files, so a label that an earlier job has
    too, explicit or the default job<i>, is refused before the first job
    runs; the later report used to overwrite the earlier one."""
    jobs = [{"args": ["ring", "info", f"Z/{4 + i}"]} for i in range(2)]
    for job, label in zip(jobs, labels):
        if label is not None:
            job["label"] = label
    error = _run_bad_batch(tmp_path, capsys, {"jobs": jobs, "output_dir": str(tmp_path / "out")})
    assert error["type"] == "ParseError" and "job 1" in error["message"]


@pytest.mark.parametrize("own", [("--seed", "5"), ("--seed=5",), ("--see", "5"), ()],
                         ids=["separate", "equals", "prefix", "none"])
def test_batch_seed_goes_only_to_jobs_without_their_own(tmp_path, capsys, own):
    """A seeded job that pins its seed in any spelling argparse reads keeps
    it; the manifest seed used to override --seed=5 and --see 5. A job
    without one runs with the manifest seed, appended to its args."""
    job = ["vdc", "--ring", "Z/8", "--subgroup", "full", "--random", "2", *own]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"seed": 7, "jobs": [{"label": "j", "args": job}]}))
    assert cli.main(["batch", str(path)]) == 0
    (row,) = json.loads(capsys.readouterr().out)["result"]["jobs"]
    assert row["args"] == (job if own else [*job, "--seed", "7"])
    assert cli.main([*job[:7], "--seed", "5" if own else "7"]) == 0
    assert row["result"] == json.loads(capsys.readouterr().out)["result"]


@pytest.mark.parametrize("seed", ["x", 1.5, True, -3])
def test_batch_seed_not_a_nonnegative_integer_exit_2(tmp_path, capsys, seed):
    """The manifest seed lands in the header, whose schema wants an integer
    or null, and in every seeded job as --seed: "x" and 1.5 used to exit 0,
    and true or -3 reached each seeded job as a bad --seed."""
    error = _run_bad_batch(tmp_path, capsys, {
        "seed": seed,
        "jobs": [{"args": ["ring", "info", "Z/4"]},
                 {"args": ["tebound", "--ring", "Z/8", "--poly", "0,0,1", "--random", "1"]}],
    })
    assert error["type"] == "ParseError" and "seed" in error["message"]


@pytest.mark.parametrize("out_dir", [5, ["o1"], {"dir": "o1"}, True])
def test_batch_output_dir_not_a_string_exit_2(tmp_path, capsys, out_dir):
    """A non-string output_dir is a ParseError before any job runs, not a
    TypeError traceback after the first one."""
    error = _run_bad_batch(tmp_path, capsys, {
        "jobs": [{"args": ["ring", "info", "Z/4"]}], "output_dir": out_dir,
    })
    assert error["type"] == "ParseError" and "output_dir" in error["message"]


@pytest.mark.parametrize(
    "text", ["1,13", "-1", "1,99999999999999999999999", "-99999999999999999999999"]
)
def test_explicit_set_bad_index_message(text):
    """The explicit-index branch follows the element-set rule of the library,
    with its message, for indices of any size."""
    with pytest.raises(ParseError, match="set elements must be valid element indices"):
        parse_element_set(make_ring("Z/13"), text)
    assert parse_element_set(make_ring("Z/13"), " 3,1,,1 ").tolist() == [1, 3]


def test_set_families():
    proc = run_cli(
        "sarkozy", "--ring", "Z/13", "--poly", "0,0,1",
        "--sets", "coset:0,0,1:1", "random:4:9",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["config"]["size_b"] == 4


@pytest.mark.parametrize(
    "args,code",
    [(("--help",), 0), (("expsum", "-h"), 0), (("expsum", "--bogus"), 2)],
    ids=["help", "expsum-help", "bogus-flag"],
)
def test_help_exits_0_and_usage_errors_exit_2(args, code):
    proc = run_cli(*args)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stdout.startswith("usage: ringlab")


#: Every subcommand parser, by the argv path that selects it.
LEAF_PATHS = [("ring", "info"), ("poly", "ddeg"), ("subgroup",), ("expsum",), ("tebound",),
              ("vdc",), ("rootcount",), ("sarkozy",), ("intersective",), ("paley",), ("batch",)]


def test_every_leaf_prints_the_help_of_its_tree_subcommand(capsys):
    """The parser of each subcommand that `_parse` runs alone is the one the
    whole tree prints the help of for that path."""
    parser = cli.build_parser()
    assert sorted(parser.leaves) == sorted(LEAF_PATHS)
    for path, leaf in parser.leaves.items():
        with pytest.raises(SystemExit):
            parser.parse_args([*path, "--help"])
        assert capsys.readouterr().out == leaf.format_help(), path


def _parse_outcome(parse, argv):
    """What parse(argv) did: its exit code or ParseError message, or the
    namespace it returned, with what it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = parse(list(argv))
            outcome = {k: v for k, v in vars(ns).items() if not k.endswith("command")}
        except SystemExit as exc:
            outcome = ("exit", exc.code)
        except ParseError as exc:
            outcome = ("ParseError", str(exc))
    return outcome, out.getvalue(), err.getvalue()


TE = ("tebound", "--ring", "Z/5", "--poly", "0,1")


@pytest.mark.parametrize("argv", [
    (*TE, "--bogus"),
    (*TE, "stray"),
    ("ring", "info", "Z/5", "stray", "--bogus"),
    ("tebound", "--rin", "Z/5", "--poly", "0,1"),
    ("tebound", "--r", "Z/5", "--poly", "0,1"),
    (*TE, "--mode", "fast"),
    ("poly", "ddeg", "--ring", "Z/5", "--poly", "0,1", "--mode", "fast"),
    (*TE, "--random", "x"),
    (*TE, "--seed", "-1"),
    (*TE, "--seed"),
    ("expsum", "--ring"),
    ("ring", "info"),
    ("paley", "--ring", "Z/5", "--d", "2", "--sets", "structured", "--edges"),
    (*TE, "--", "--seed", "3"),
    (*TE, "--seed=3", "--see", "4"),
    ("-h",), ("--help",), ("ring", "-h"), ("ring", "info", "-h"), ("poly", "--help"),
    ("poly", "ddeg", "-h"), ("expsum", "-h"), (*TE, "--help", "--bogus"), ("batch", "-h"),
    (), ("bogus",), ("--ring", "Z/5"), ("ring",), ("poly",), ("ring", "ddeg"), ("poly", "info"),
], ids=repr)
def test_leaf_parse_matches_the_tree(argv):
    """Through `_parse`, which runs a subcommand's own parser alone, an
    argv gives what the whole tree's parse_args gives: the same namespace,
    or the same exit code or ParseError message, with the same output."""
    tree = _parse_outcome(cli.build_parser().parse_args, argv)
    assert _parse_outcome(cli._parse, argv) == tree


def _result(text):
    doc = json.loads(text)
    doc.pop("header")
    return doc


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    """main builds its parser once per process; consecutive calls with other
    subcommands and flags still report what a fresh process reports, and a
    failing batch job is still isolated."""
    from ringlab.cli import main

    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "jobs": [
            {"label": "bad", "args": ["vdc", "--ring", "Z/8", "--subgroup", "0,4,5"]},
            {"label": "ok", "args": ["subgroup", "--ring", "Z/12", "--poly", "0,0,1"]},
        ],
    }))
    runs = [
        (("expsum", "--ring", "Z/13", "--poly", "0,0,1", "--table"), 0),
        (("paley", "--ring", "Z/13", "--d", "2", "--sets", "structured"), 0),
        (("subgroup", "--ring", "GF(9)", "--poly", "0,0,1", "--raw-values"), 0),
        (("expsum", "--ring", "GF(9)", "--poly", "0,0,1"), 0),
        (("batch", str(manifest)), 3),
    ]
    for args, code in runs:
        assert main(list(args)) == code
        in_process = capsys.readouterr().out
        fresh = run_cli(*args)
        assert fresh.returncode == code
        assert _result(in_process) == _result(fresh.stdout)
    jobs = {j["label"]: j for j in _result(in_process)["result"]["jobs"]}
    assert jobs["bad"]["error"]["type"] == "NotASubgroup"
    assert jobs["ok"]["exit_code"] == 0


@pytest.mark.parametrize(
    "spec,poly",
    [("GR(2,2,8)", "0,0,0,1"), ("Z/65536", "0,0,1")],
)
def test_expsum_bound_at_order_2_16(spec, poly, validator):
    """Character sums and the value-subgroup closure stay near O(n) in time
    and memory at order 2^16, where n x n tables do not fit."""
    proc = run_cli("expsum", "--ring", spec, f"--poly={poly}", "--mode", "bound")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    validator.validate(doc)
    result = doc["result"]
    assert result["bound_satisfied"]
    assert result["annihilator_size"] * result["subgroup_size"] == 65536
