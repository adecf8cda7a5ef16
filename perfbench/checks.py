"""Output checks for every job the benchmark runs.

A job passes when its envelope

* exits 0 and validates against the program's own `reports.schema.json`,
  or exits 3 with a structured error exactly where the seed reference
  refused as well;
* satisfies the inequality it reports, re-checked here from its own
  numbers (power bound, TE lhs <= rhs, Paley trace identities, a pairwise
  rescan of difference-free witnesses, ...);
* matches the seed-commit reference on every route-independent field:
  integers, strings and flags exactly, floats to 1e-9 relative to
  max(1, |reference|). Fields that depend on how the program got its
  answer (derivational-degree route, tie-breaks among equal maxima,
  rounding residues) are held to the inequalities only; a certified
  derivational degree may never exceed the reference degree.

`check_job` returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

TOL = 1e-9
ROUTE_TOL = 1e-8
SHORT_LIST = 8

# Dotted result paths whose value may change with the route the program
# takes to the same mathematics.
ROUTE_DEPENDENT = {
    "expsum": {
        "k", "k_method", "k_certified", "functional_ddeg", "b_const",
        "power_bound", "margin", "bound_satisfied", "flags", "max_checked_coeffs",
    },
    "poly-ddeg": {"k", "method", "certified"},
    "tebound": {
        "k", "all_satisfied", "max_route_gap", "max_ratio", "functions.rhs",
        "functions.ratio", "functions.route_gap", "functions.satisfied",
    },
    "vdc": {"rhs_imag_max"},
    "subgroup": {"generators_sample"},
    "sarkozy": {
        "difference_free.witness", "bound_check.bound", "bound_check.satisfied",
        "bound_check.constant_c", "bound_check.k", "bound_check.k_certified",
        "config.fourier_gap",
    },
    "intersective": {"witness", "moduli_resolved", "unresolved"},
    "paley": {
        "spectrum.lambda2_witness", "spectrum.imag_residue_max", "verdict.k",
        "verdict.k_certified", "verdict.b_const", "verdict.sufficient_epsilon",
        "verdict.notes", "uniformity.witness_a", "uniformity.witness_b",
    },
}
# A greedy search may find another maximal set of another size.
GREEDY_DEPENDENT = {"difference_free.size", "bound_check.measured_size"}


def load_schema(root: Path) -> dict:
    path = root / "src" / "ringlab" / "schemas" / "reports.schema.json"
    return json.loads(path.read_text())


def make_validator(schema: dict):
    import jsonschema

    return jsonschema.Draft202012Validator(schema)


# -- fingerprints of route-independent fields ------------------------------


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _flat(values):
    for v in values:
        if isinstance(v, list):
            yield from _flat(v)
        else:
            yield v


def _reduce(values: list):
    """Short lists verbatim; long numeric ones as order-sensitive moments."""
    if len(values) <= SHORT_LIST:
        return values
    flat = list(_flat(values))
    if not all(_is_number(v) for v in flat):
        return values
    return {
        "n": len(flat),
        "sum": sum(flat),
        "sumsq": sum(v * v for v in flat),
        "wsum": sum(i * v for i, v in enumerate(flat)),
        "min": min(flat) if flat else None,
        "max": max(flat) if flat else None,
    }


def fingerprint(kind: str, result: dict) -> dict:
    skip = set(ROUTE_DEPENDENT.get(kind, ()))
    if kind == "sarkozy" and result.get("measured_source") == "greedy":
        skip |= GREEDY_DEPENDENT
    out: dict = {}

    def walk(value, path: str) -> None:
        if path in skip:
            return
        if isinstance(value, dict):
            for key in sorted(value):
                walk(value[key], f"{path}.{key}" if path else key)
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            for key in sorted(set().union(*value)):
                walk([v.get(key) for v in value], f"{path}.{key}")
        elif isinstance(value, list):
            out[path] = _reduce(value)
        else:
            out[path] = value

    walk(result, "")
    return out


def _same(got, want) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if _is_number(want) and _is_number(got):
        if isinstance(want, int) and isinstance(got, int):
            return got == want
        return abs(got - want) <= TOL * max(1.0, abs(want))
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    return got == want


def compare_fingerprints(got: dict, want: dict) -> list[str]:
    problems = []
    for key, value in want.items():
        if key not in got:
            problems.append(f"reference field {key!r} missing")
        elif not _same(got[key], value):
            problems.append(f"{key}: got {got[key]!r}, reference {value!r}")
    return problems


# -- inequalities re-checked from each report's own numbers ----------------


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b), scale)


def _check_expsum(r: dict, ring: dict, ref: dict) -> list[str]:
    out = []
    n = ring["order"]
    k = r["k"]
    power = r["power_bound"]
    m = r["max_checked_modulus"]
    if r["checked_characters"] > 0:
        lhs = m ** (2 ** (k - 1)) if k >= 1 else m
        if not lhs <= power + TOL:
            out.append(f"|S|^(2^(k-1)) = {lhs} exceeds power bound {power}")
        if not _close(r["margin"], power - lhs):
            out.append("margin is not power_bound - max^(2^(k-1))")
    expected_power = r["b_const"] * (k - 1) / r["lpf"] if k > 1 else 0.0
    if not _close(power, expected_power):
        out.append(f"power_bound {power} is not B (k-1)/lpf = {expected_power}")
    if r["bound_satisfied"] is not True:
        out.append("bound_satisfied is not true")
    if r["annihilator_size"] + r["checked_characters"] != n:
        out.append("annihilator and checked characters do not partition the dual")
    if r["annihilator_size"] * r["subgroup_size"] != n:
        out.append("|annihilator| |H| != |R|")
    if not r["annihilator_max_error"] < ROUTE_TOL:
        out.append("annihilating characters do not sum to 1")
    if not m <= r["max_nontrivial_modulus"] + TOL <= 1 + 2 * TOL:
        out.append("max_checked <= max_nontrivial <= 1 fails")
    if ("CONSERVATIVE" in r["flags"]) == bool(r["k_certified"]):
        out.append("CONSERVATIVE flag disagrees with k_certified")
    if r["k_certified"] and k > ref["k"]:
        out.append(f"certified k {k} exceeds reference k {ref['k']}")
    if r["k_certified"] and ref["certified"] and k != ref["k"]:
        out.append(f"certified k {k} differs from certified reference {ref['k']}")
    rows = r.get("characters")
    if rows is not None:
        if len(rows) != n:
            out.append("character table has the wrong number of rows")
        elif not _close(rows[0]["modulus"], 1.0):
            out.append("trivial character sum is not 1")
        else:
            if any(not _close(row["modulus"], math.hypot(row["re"], row["im"])) for row in rows):
                out.append("a table modulus is not |re + i im|")
            top = max(row["modulus"] for row in rows[1:]) if n > 1 else 0.0
            if not _close(top, r["max_nontrivial_modulus"]):
                out.append("table maximum disagrees with max_nontrivial_modulus")
    return out


def _check_ddeg(r: dict, ring: dict, ref: dict) -> list[str]:
    out = []
    k, certified = r["k"], r["certified"]
    if not 0 <= k <= max(r["degree"], 0):
        out.append(f"k = {k} outside [0, deg P]")
    if r["method"] == "exact" and not certified:
        out.append("exact method reported as uncertified")
    if certified and k > ref["k"]:
        out.append(f"certified k {k} exceeds reference k {ref['k']}")
    if ref["certified"] and k < ref["k"]:
        out.append(f"k {k} is below the certified reference k {ref['k']}")
    if ref["certified"] and certified and k != ref["k"]:
        out.append(f"certified k {k} differs from certified reference {ref['k']}")
    return out


def _check_tebound(r: dict, ring: dict, ref: dict) -> list[str]:
    out = []
    rows = r["functions"]
    if r["count"] != len(rows):
        out.append("count disagrees with the function rows")
    for i, row in enumerate(rows):
        if not row["lhs"] <= row["rhs"] + TOL:
            out.append(f"function {i}: lhs {row['lhs']} > rhs {row['rhs']}")
        if not row["route_gap"] < ROUTE_TOL:
            out.append(f"function {i}: route gap {row['route_gap']} >= {ROUTE_TOL}")
        if row["rhs"] > 0 and not _close(row["ratio"], row["lhs"] / row["rhs"]):
            out.append(f"function {i}: ratio is not lhs/rhs")
        if row["satisfied"] is not True:
            out.append(f"function {i}: not satisfied")
    if rows:
        if not _close(r["max_route_gap"], max(x["route_gap"] for x in rows)):
            out.append("max_route_gap is not the maximum gap")
        if not _close(r["max_ratio"], max(x["ratio"] for x in rows)):
            out.append("max_ratio is not the maximum ratio")
    if r["all_satisfied"] is not True:
        out.append("all_satisfied is not true")
    return out


def _check_vdc(r: dict, ring: dict, ref: dict) -> list[str]:
    out = []
    lhs, rhs = r["lhs"], r["rhs"]
    if not len(lhs) == len(rhs) == r["count"]:
        out.append("lhs/rhs lengths disagree with count")
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        if not 0 <= a <= b + TOL:
            out.append(f"function {i}: |E f|^(2^k) = {a} exceeds {b}")
    if not r["rhs_imag_max"] < TOL:
        out.append(f"rhs imaginary residue {r['rhs_imag_max']}")
    if ring["order"] % r["subgroup_size"]:
        out.append("subgroup size does not divide |R|")
    if r["satisfied"] is not True:
        out.append("satisfied is not true")
    return out


def _check_rootcount(r: dict, ring: dict, ref: dict) -> list[str]:
    out = []
    bound = sum(r["degrees"]) * ring["order"] ** r["variables"] / ring["lpf"]
    if not _close(r["bound"], bound):
        out.append(f"bound {r['bound']} is not (sum d_i) |R|^l / lpf = {bound}")
    if not 0 <= r["count"] <= r["bound"] + TOL:
        out.append(f"root count {r['count']} exceeds bound {r['bound']}")
    if r["satisfied"] is not True:
        out.append("satisfied is not true")
    return out


def _check_ring_info(r: dict, ring: dict, ref: dict) -> list[str]:
    out = []
    order = r["order"]
    if math.prod(r["additive_invariants"]) != order:
        out.append("additive invariants do not multiply to the order")
    if math.prod(size**mult for size, mult in r["prime_profile"]) != order:
        out.append("prime profile does not multiply to the order")
    units = order
    for size, _ in r["prime_profile"]:
        units = units // size * (size - 1)
    if r["units"] != units:
        out.append("unit count disagrees with the prime profile")
    if r["lpf"] != min(size for size, _ in r["prime_profile"]):
        out.append("lpf is not the smallest residue field")
    return out


def _check_subgroup(r: dict, ring: dict, ref: dict) -> list[str]:
    out = []
    if r["size"] * r["index"] != ring["order"]:
        out.append("size x index != |R|")
    if r["is_full"] != (r["index"] == 1):
        out.append("is_full disagrees with the index")
    return out


def _digits(x: int, radices: list[int]) -> list[int]:
    out = []
    for m in radices:
        x, d = divmod(x, m)
        out.append(d)
    return out


def _sub(a: int, b: int, radices: list[int]) -> int:
    """a - b in the mixed-radix additive group, independent of ringlab."""
    x, place = 0, 1
    for da, db, m in zip(_digits(a, radices), _digits(b, radices), radices):
        x += ((da - db) % m) * place
        place *= m
    return x


def poly_literal(argv: list[str]) -> str:
    return next(a for a in argv if a.startswith("--poly="))[len("--poly="):]


def _zn_values(argv: list[str], n: int) -> list[int]:
    """Values of the job's polynomial over Z/n, straight from its literal."""
    coeffs = [int(c) for c in poly_literal(argv).split(",")]
    return sorted({sum(c * pow(x, i, n) for i, c in enumerate(coeffs)) % n for x in range(n)})


def _check_sarkozy(r: dict, ring: dict, ref: dict) -> list[str]:
    out = []
    bound = r["bound_check"]
    if not bound["measured_size"] <= bound["bound"] + TOL:
        out.append(f"size {bound['measured_size']} exceeds bound {bound['bound']}")
    if bound["satisfied"] is not True:
        out.append("bound_check.satisfied is not true")
    free = r.get("difference_free")
    if free is not None:
        witness = free["witness"]
        if not free["size"] == len(witness) == bound["measured_size"]:
            out.append("witness size disagrees with the reported size")
        if free["verified"] is not True:
            out.append("witness not verified by the program")
        values = set(ref["values"])
        radices = ring["radices"]
        for a in witness:
            for b in witness:
                if a != b and _sub(b, a, radices) in values:
                    out.append(f"witness elements {a}, {b} differ by a value of P")
                    return out
    config = r.get("config")
    if config is not None:
        if config["expectation"] != config["size_a"] * config["size_b"]:
            out.append("config expectation is not |A||B|")
        if config["deviation"] != abs(config["count"] - config["expectation"]):
            out.append("config deviation is not |count - expectation|")
        if "fourier_gap" in config and not config["fourier_gap"] < 0.5:
            out.append(f"Fourier count is {config['fourier_gap']} away from the count")
    return out


def _check_intersective(r: dict, ring: dict, ref: dict) -> list[str]:
    out = []
    if r["status"] == "WITNESS_FOUND":
        if r["witness_verified"] is not True:
            out.append("witness not verified by the program")
        if r["family"] == "INTEGERS":
            m = r["witness"]["modulus"]
            coeffs = r["poly"]
            for x in range(m):
                if sum(c * pow(x, i, m) for i, c in enumerate(coeffs)) % m == 0:
                    out.append(f"P has the root {x} modulo witness {m}")
                    break
    elif r["status"] != "INTERSECTIVE_UP_TO_BOUND" or r["witness"] is not None:
        out.append(f"unexpected status {r['status']!r}")
    return out


def _check_paley(r: dict, ring: dict, ref: dict) -> list[str]:
    out = []
    n = ring["order"]
    graph, spec = r["graph"], r["spectrum"]
    rr = graph["r"]
    if not rr == spec["r"] == len(graph["connection_set"]):
        out.append("degree r disagrees with the connection set")
    evals = spec["eigenvalues"]
    if len(evals) != n:
        out.append("one eigenvalue per character expected")
        return out
    scale = n * max(rr, 1)
    if not abs(sum(evals)) <= TOL * scale:
        out.append(f"trace {sum(evals)} is not 0")
    if not _close(spec["trace"], sum(evals), scale):
        out.append("reported trace is not the eigenvalue sum")
    if not _close(spec["trace_squared"], float(n * rr), scale):
        out.append(f"trace of A^2 = {spec['trace_squared']} is not n r = {n * rr}")
    if not _close(evals[0], float(rr)):
        out.append("trivial character eigenvalue is not r")
    lam2 = max(abs(v) for v in evals[1:]) if n > 1 else 0.0
    if not _close(spec["lambda2"], lam2):
        out.append("lambda2 is not the largest nontrivial |eigenvalue|")
    if rr and not _close(spec["epsilon_star"], spec["lambda2"] / (8 * rr)):
        out.append("epsilon_star is not lambda2 / 8r")
    if not spec["imag_residue_max"] < TOL:
        out.append("eigenvalues are not real")
    verdict = r["verdict"]
    if graph["char_divides_degree"]:
        if verdict is not None or "warning" not in r:
            out.append("verdict asserted although char(R) divides d")
    elif verdict is None:
        out.append("verdict missing")
    elif not (
        _close(verdict["spectral_epsilon_floor"], spec["epsilon_star"])
        and _close(verdict["lambda2"], spec["lambda2"])
        and verdict["r"] == rr
    ):
        out.append("verdict disagrees with the spectrum")
    uni = r.get("uniformity")
    if uni is not None:
        if uni["mixing_all_satisfied"] is not True or not uni["mixing_worst_slack"] <= TOL:
            out.append("expander mixing certificate fails")
        if not 0 <= uni["max_normalized_deviation"] <= 1:
            out.append("normalized deviation outside [0, 1]")
        if uni["epsilon_lower_bound"] != uni["max_normalized_deviation"]:
            out.append("epsilon lower bound is not the maximum deviation")
    return out


INEQUALITIES = {
    "expsum": _check_expsum,
    "poly-ddeg": _check_ddeg,
    "tebound": _check_tebound,
    "vdc": _check_vdc,
    "rootcount": _check_rootcount,
    "ring-info": _check_ring_info,
    "subgroup": _check_subgroup,
    "sarkozy": _check_sarkozy,
    "intersective": _check_intersective,
    "paley": _check_paley,
}


def ring_of(argv: list[str]) -> str | None:
    if argv[:2] == ["ring", "info"]:
        return argv[2]
    if "--ring" in argv:
        return argv[argv.index("--ring") + 1]
    return None


def check_job(argv, code, stdout, stderr, ref, rings, validator) -> list[str]:
    """Problems with one job's outcome; [] when it passes."""
    if ref is None:
        return ["no seed-commit reference for this job"]
    if code == 3:
        if ref["exit"] != 3:
            return ["refused with exit 3 where the reference succeeded"]
        try:
            err = json.loads(stderr)["error"]
        except (ValueError, KeyError, TypeError):
            return ["exit 3 without a structured error on stderr"]
        return [] if err.get("exit_code") == 3 else ["error document lacks exit_code 3"]
    if code != 0:
        return [f"exit code {code}"]
    if ref["exit"] != 0:
        return [f"exit 0 where the reference exited {ref['exit']}"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    error = next(iter(validator.iter_errors(doc)), None)
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path)
        return [f"schema: {error.message} at {where or 'top level'}"]
    kind, result = doc["kind"], doc["result"]
    spec = ring_of(argv) or ""
    ring = rings.get(spec, {})
    if kind == "sarkozy" and spec.startswith("Z/"):
        ref = dict(ref, values=_zn_values(argv, ring["order"]))
    try:
        problems = INEQUALITIES[kind](result, ring, ref)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        problems = [f"malformed {kind} report: {type(exc).__name__}: {exc}"]
    return problems + compare_fingerprints(fingerprint(kind, result), ref["fp"])
