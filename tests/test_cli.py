"""End-to-end CLI behavior: JSON shape against the shipped schema, exit
code classes, determinism modulo the header timestamp, and batch isolation.
"""

import importlib.resources
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import ringlab
from ringlab.cli import parse_element_set
from ringlab.errors import ParseError
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
]
BAD_INPUT_IDS = [
    "vdc-k0", "vdc-random0", "paley-sampled", "expsum-char", "sarkozy-measured",
    "tebound-seed", "vdc-seed", "sarkozy-seed", "paley-seed", "random-seed", "sampled-seed",
    "fpt-not-a-number", "fpt-empty", "rootcount-float", "rootcount-bool",
    "rootcount-beyond-int64", "rootcount-infinity", "vdc-k11", "vdc-k12", "vdc-k990",
    "sarkozy-coset-shift", "vdc-coset-shift",
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


def test_exact_ddeg_work_guard_exit_3():
    proc = run_cli(
        "poly", "ddeg", "--ring", "Z/97", "--poly", "0,0,1", "--mode", "exact",
        env={"RINGLAB_WORK_GUARD": "200"},
    )
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "WorkGuardExceeded"
    assert err["error"]["exit_code"] == 3
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["poly ddeg", "expsum"])
def test_auto_mode_reports_why_it_fell_back(command, validator, monkeypatch, capsys):
    """Auto mode keeps the guard's message when the exact degree gives up,
    and reports null when the exact degree is found."""
    from ringlab.cli import main

    args = [*command.split(), "--ring", "Z/97", "--poly", "0,0,1"]
    assert main(args) == 0
    exact = json.loads(capsys.readouterr().out)
    validator.validate(exact)
    assert exact["result"]["fallback_reason"] is None
    monkeypatch.setenv("RINGLAB_WORK_GUARD", "200")
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    validator.validate(doc)
    reason = doc["result"]["fallback_reason"]
    assert "exact derivational degree" in reason and "200" in reason


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


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
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


def test_false_external_claim_exit_4():
    """An externally measured set size that violates the bound is exactly
    what exit 4 exists for."""
    proc = run_cli("sarkozy", "--ring", "Z/13", "--poly", "0,0,1", "--measured", "1000")
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


def test_batch_isolation(tmp_path, validator):
    manifest = {
        "seed": 9,
        "jobs": [
            {"label": "ok", "args": ["ring", "info", "Z/12"]},
            {"label": "toolarge", "args": ["ring", "info", "Z/1048577"]},
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


@pytest.mark.parametrize(
    "text", ["1,13", "-1", "1,99999999999999999999999", "-99999999999999999999999"]
)
def test_explicit_set_bad_index_message(text):
    """The explicit-index branch follows the element-set rule of the library,
    with its message, for indices of any size."""
    with pytest.raises(ParseError, match="set elements must be valid element indices"):
        parse_element_set(make_ring("Z/13"), text)
    assert parse_element_set(make_ring("Z/13"), " 3,1,,1 ") == [1, 3]


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
        (("paley", "--ring", "Z/13", "--d", "2", "--sets", "structured", "--seed", "3"), 0),
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
