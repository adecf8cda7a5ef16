"""Self-test of the benchmark's output checks and manifests.

    python3 perfbench/selftest.py

Runs a few real jobs of each workload through `ringlab.cli.main`, confirms
that checks.check_job accepts them, and then confirms that it rejects each
report after one deliberate tampering: a broken inequality, a drifted
route-independent number, a schema violation, a wrong exit code, a
difference-free witness that is not. It also replays jobs through a
written `ringlab batch` manifest and compares them with the direct runs.
Exits 1 if any case behaves otherwise.
"""

from __future__ import annotations

import copy
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from ringlab.cli import main as cli_main  # noqa: E402

JOBS = {
    "expsum": ("catalog", "expsum --ring Z/13 --poly=0,0,1"),
    "ddeg": ("catalog", "poly ddeg --ring GF(9) --poly=0,0,0,1"),
    "paley": ("catalog", "paley --ring Z/13 --d 2"),
    "tebound": ("ladder", "tebound --ring Z/256 --poly=0,0,0,1 --mode bound --random 1 --seed 1"),
    "vdc": ("ladder", "vdc --ring Z/256 --subgroup gen:64 --k 1 --random 4 --seed 1"),
    "table": ("batch", "expsum --ring Z/8 --poly=0,0,0,1 --table"),
    "sarkozy": (
        "batch",
        "sarkozy --ring GF(8) --poly=0,1,1 --search exact --seed 1 --sets squares random:3:1",
    ),
    "ring": ("batch", "ring info Z/12"),
    "rootcount": ("batch", "rootcount --ring Z/8 --coeffs [0,1]"),
    "intersective": ("batch", "intersective --family INTEGERS --poly=-2,0,1 --bound 40"),
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _set(doc: dict, path: str, fn) -> dict:
    doc = copy.deepcopy(doc)
    *head, last = path.split(".")
    node = doc["result"]
    for key in head:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if isinstance(node, list):
        node[int(last)] = fn(node[int(last)])
    else:
        node[last] = fn(node[last])
    return doc


def _drop(doc: dict, key: str) -> dict:
    doc = copy.deepcopy(doc)
    del doc["result"][key]
    return doc


def _add_conflict(doc: dict, ref: dict) -> dict:
    """Replace the witness's second element by its first plus a nonzero
    value of P, so that the two differ by a forbidden difference while the
    reported size stays the same. The job's ring is GF(8), whose addition
    is XOR on element indices."""
    doc = copy.deepcopy(doc)
    witness = doc["result"]["difference_free"]["witness"]
    value = next(v for v in ref["values"] if v)
    witness[1] = witness[0] ^ value
    return doc


TAMPERS = {
    "expsum": [
        ("modulus above the power bound", lambda d, ref: _set(d, "max_checked_modulus", lambda v: 0.9)),
        ("drifted max_nontrivial_modulus", lambda d, ref: _set(d, "max_nontrivial_modulus", lambda v: v * (1 - 1e-6))),
        ("annihilator size", lambda d, ref: _set(d, "annihilator_size", lambda v: v + 1)),
    ],
    "ddeg": [("certified k above reference", lambda d, ref: _set(d, "k", lambda v: v + 1))],
    "paley": [
        ("eigenvalue moved", lambda d, ref: _set(d, "spectrum.eigenvalues.3", lambda v: v + 0.5)),
        ("lambda2", lambda d, ref: _set(d, "spectrum.lambda2", lambda v: v + 1e-3)),
    ],
    "tebound": [
        ("lhs above rhs", lambda d, ref: _set(d, "functions.0.lhs", lambda v: 10.0)),
        ("route gap", lambda d, ref: _set(d, "functions.0.route_gap", lambda v: 1e-6)),
    ],
    "vdc": [
        ("lhs above rhs", lambda d, ref: _set(d, "lhs.2", lambda v: 5.0)),
        ("drifted rhs", lambda d, ref: _set(d, "rhs.0", lambda v: v * (1 + 1e-6))),
    ],
    "table": [
        ("table row modulus", lambda d, ref: _set(d, "characters.3.modulus", lambda v: v + 1e-3)),
        ("schema: missing k", lambda d, ref: _drop(d, "k")),
    ],
    "sarkozy": [("witness not difference-free", _add_conflict)],
    "ring": [("unit count", lambda d, ref: _set(d, "units", lambda v: v - 1))],
    "rootcount": [("count above bound", lambda d, ref: _set(d, "count", lambda v: 10**6))],
    "intersective": [("witness modulus has a root", lambda d, ref: _set(d, "witness.modulus", lambda v: 1))],
}


def main() -> int:
    refs = {w: json.loads((HERE / "reference" / f"{w}.json").read_text()) for w in workloads.WORKLOADS}
    validator = checks.make_validator(checks.load_schema(HERE.parent))
    bad = 0

    def verdict(name: str, problems: list[str], want_reject: bool) -> None:
        nonlocal bad
        ok = bool(problems) == want_reject
        bad += not ok
        shown = problems[0] if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {shown}")

    for case, (workload, key) in JOBS.items():
        argv = key.split(" ")
        ref, rings = refs[workload]["jobs"][key], refs[workload]["rings"]
        code, out, err = _run(argv)
        verdict(f"{case} as produced", checks.check_job(argv, code, out, err, ref, rings, validator), False)
        doc = json.loads(out)
        for label, tamper in TAMPERS[case]:
            text = json.dumps(tamper(doc, ref))
            problems = checks.check_job(argv, code, text, err, ref, rings, validator)
            verdict(f"{case} tampered: {label}", problems, True)
        verdict(f"{case} with exit 3", checks.check_job(argv, 3, "", "", ref, rings, validator), True)
        verdict(f"{case} with exit 4", checks.check_job(argv, 4, out, err, ref, rings, validator), True)

    with tempfile.TemporaryDirectory() as tmp:
        jobs = [{"label": case, "args": key.split(" ")} for case, (_, key) in JOBS.items()]
        manifest = Path(tmp) / "manifest.json"
        manifest.write_text(json.dumps({"jobs": jobs}))
        code, out, _ = _run(["batch", str(manifest)])
        rows = json.loads(out)["result"]["jobs"]
        for job, row in zip(jobs, rows):
            _, direct, _ = _run(job["args"])
            direct_doc = json.loads(direct)
            same = checks.compare_fingerprints(
                checks.fingerprint(direct_doc["kind"], row["result"]),
                checks.fingerprint(direct_doc["kind"], direct_doc["result"]),
            )
            verdict(f"manifest replay of {job['label']}", same, False)
    print(f"{'all cases behaved' if not bad else f'{bad} cases misbehaved'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
