"""Command line interface.

One subcommand per computation, each argv parsed by that subcommand's own
parser (`_parse`), JSON reports on stdout, structured errors on stderr.
Exit codes separate failure classes so CI can gate on them:

    0  success
    2  malformed input (ring spec, polynomial literal, set, manifest)
    3  guard refusal (order or work budget, unmet hypothesis, non-subgroup)
    4  a printed verdict is false (bound_satisfied, satisfied, all_satisfied,
       verified, witness_verified, mixing_all_satisfied) or a printed route
       gap (annihilator_max_error, max_route_gap, max_sample_gap,
       sample_gap, fourier_gap) is not below harmonics.ROUTE_TOL = 1e-8

Code 4 existing at all is the point of the tool: it should never fire, and
when it does the report names the ring, polynomial, and character.

Reports are deterministic for fixed inputs and seeds; the only varying
field is the timestamp, isolated in the header. A report is printed by its
dataclass fields (`_fields`), numpy arrays and scalars as JSON lists and
numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from . import combinatorics, harmonics, paley, polynomials, subgroups
from .budget import parse_int
from .characters import character_group
from .errors import ParseError, RingLabError
from .polynomials import RingPoly, parse_poly_literal
from .rings import Ring, element_set, make_ring, parse_int_list

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_BOUND = 4

#: subcommands whose randomness honors --seed; batch injects its global
#: seed into these when a job does not choose its own
_SEEDED = {"tebound", "vdc", "sarkozy"}


def _header(seed: int | None) -> dict:
    return {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "tool": "ringlab",
        "version": __version__,
        "seed": seed,
    }


def _envelope(kind: str, result: dict, seed: int | None = None) -> dict:
    return {"header": _header(seed), "kind": kind, "result": result}


def _fields(report) -> dict:
    """A report dataclass's fields as a new dict, so that the keys a
    command adds never land on the report, which may be memoised."""
    return dict(vars(report))


def parse_element_set(ring: Ring, text: str) -> np.ndarray:
    """Element sets (`rings.element_set`): explicit indices `1,2,3`, or the
    named families `squares`, `coset:<poly>[:<shift>]`, `random:<k>:<seed>`."""
    text = text.strip()
    if text == "squares":
        return element_set(ring, RingPoly.make(ring, (0, 0, ring.one)).values())
    if text.startswith("coset:"):
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ParseError(f"bad coset family {text!r}")
        P = parse_poly_literal(ring, parts[1])
        shift = parse_int(parts[2], "coset shift") if len(parts) == 3 else 0
        if not 0 <= shift < ring.order:
            raise ParseError(f"coset shift {shift} out of range")
        return subgroups.value_subgroup(ring, P).coset(shift)
    if text.startswith("random:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseError(f"bad random family {text!r}, want random:<k>:<seed>")
        k, seed = (parse_int(part, "random family") for part in parts[1:])
        if not 0 <= k <= ring.order:
            raise ParseError(f"random family size {k} out of range")
        if seed < 0:
            raise ParseError(f"random family seed {seed} is negative")
        rng = np.random.default_rng(seed)
        return element_set(ring, rng.choice(ring.order, size=k, replace=False))
    tokens = [parse_int(tok, "element") for tok in text.split(",") if tok.strip() != ""]
    return element_set(ring, tokens)


def _only_json_integers(value) -> bool:
    """Whether every leaf of the nested lists in value is a JSON integer:
    1.7, true, "2" and null are refused, not truncated or converted."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif type(item) is not int:
            return False
    return True


def _parse_subgroup(ring: Ring, text: str) -> subgroups.SubgroupSet:
    text = text.strip()
    if text == "full":
        return subgroups.full_subgroup(ring)
    if text == "trivial":
        return subgroups.trivial_subgroup(ring)
    if text.startswith("poly:"):
        P = parse_poly_literal(ring, text[5:])
        return subgroups.value_subgroup(ring, P)
    if text.startswith("gen:"):
        gens = parse_element_set(ring, text[4:])
        return subgroups.from_generators(ring, gens)
    elements = parse_element_set(ring, text)
    return subgroups.from_elements(ring, elements)


def _cmd_ring(args) -> dict:
    ring = make_ring(args.spec)
    return _envelope("ring-info", ring.info_dict())


def _cmd_ddeg(args) -> dict:
    ring = make_ring(args.ring)
    P = parse_poly_literal(ring, args.poly)
    res = polynomials.derivational_degree(ring, P, mode=args.mode)
    result = {
        "ring_spec": ring.spec_string(),
        "poly": str(P),
        "coeffs": list(P.coeffs),
        "degree": P.degree,
        "k": res.k,
        "method": res.method,
        "certified": res.certified,
        "fallback_reason": res.fallback_reason,
    }
    return _envelope("poly-ddeg", result)


def _cmd_subgroup(args) -> dict:
    ring = make_ring(args.ring)
    P = parse_poly_literal(ring, args.poly)
    H = subgroups.value_subgroup(ring, P, subtract_constant=not args.raw_values)
    result = H.info_dict(
        {
            "ring_spec": ring.spec_string(),
            "poly": str(P),
            "contains_constant": subgroups.constant_in_subgroup(ring, P),
        }
    )
    return _envelope("subgroup", result)


def _character_row(coeffs: list, s: complex) -> dict:
    # abs of the scalar: np.abs over the whole array can differ in the last bit.
    return {"coeffs": coeffs, "re": float(s.real), "im": float(s.imag), "modulus": float(abs(s))}


def _cmd_expsum(args) -> dict:
    ring = make_ring(args.ring)
    P = parse_poly_literal(ring, args.poly)
    report = harmonics.character_bound_check(ring, P, ddeg_mode=args.mode)
    result = _fields(report)
    if args.char is not None or args.table:
        S = harmonics.exp_sums_all(ring, P)
    if args.char is not None:
        coeffs = parse_int_list(args.char, "character coefficient")
        try:
            position = character_group(ring).position(coeffs)
        except ValueError as exc:
            raise ParseError(f"bad character coefficients {args.char!r}: {exc}") from exc
        result["single_character"] = _character_row(list(coeffs), S[position])
    if args.table:
        coeff_rows = character_group(ring).coeffs(np.arange(len(S))).tolist()
        result["characters"] = [_character_row(coeff_rows[i], S[i]) for i in range(len(S))]
    return _envelope("expsum", result)


def _cmd_tebound(args) -> dict:
    if args.random < 1:
        raise ParseError("--random must be at least 1")
    ring = make_ring(args.ring)
    P = parse_poly_literal(ring, args.poly)
    fs = harmonics.random_functions(ring, args.random, args.seed)
    rep = harmonics.te_estimate(ring, P, fs, ddeg_mode=args.mode, seed=args.seed)
    rows = [
        {
            "lhs": float(rep.lhs[i]),
            "rhs": float(rep.rhs[i]),
            "ratio": float(rep.ratio[i]),
            "route_gap": float(rep.route_gap[i]),
            "sample_gap": float(rep.sample_gap[i]),
            "satisfied": bool(rep.satisfied[i]),
        }
        for i in range(args.random)
    ]
    summary = {
        "ring_spec": ring.spec_string(),
        "poly": str(P),
        "count": args.random,
        "k": rep.k,
        "all_satisfied": bool(rep.satisfied.all()),
        "max_route_gap": float(rep.route_gap.max()),
        "sample_rows": rep.sample_rows,
        "max_sample_gap": float(rep.sample_gap.max()),
        "max_ratio": float(rep.ratio.max()),
        "functions": rows,
    }
    return _envelope("tebound", summary, seed=args.seed)


def _cmd_vdc(args) -> dict:
    if not 1 <= args.k <= harmonics.VDC_MAX_K:
        raise ParseError(f"--k must be between 1 and {harmonics.VDC_MAX_K}")
    if args.random < 1:
        raise ParseError("--random must be at least 1")
    ring = make_ring(args.ring)
    H = _parse_subgroup(ring, args.subgroup)
    fs = harmonics.random_functions(ring, args.random, args.seed)
    report = harmonics.vdc_check(ring, H, fs, args.k)
    result = _fields(report)
    result["count"] = args.random
    return _envelope("vdc", result, seed=args.seed)


def _cmd_rootcount(args) -> dict:
    ring = make_ring(args.ring)
    try:
        coeffs = json.loads(args.coeffs)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"coefficients must be a JSON array: {exc}") from exc
    if not _only_json_integers(coeffs):
        raise ParseError("coefficients must be JSON integers")
    try:
        report = harmonics.root_count_bound_check(ring, coeffs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return _envelope("rootcount", _fields(report))


def _cmd_sarkozy(args) -> dict:
    ring = make_ring(args.ring)
    P = parse_poly_literal(ring, args.poly)
    result: dict = {"ring_spec": ring.spec_string(), "poly": str(P)}
    if args.measured is not None:
        if not 0 <= args.measured <= ring.order:
            raise ParseError(f"--measured must be a set size from 0 to {ring.order}")
        size = args.measured
        result["measured_source"] = "external"
    else:
        # The bound's hypotheses are decided first, so a job that fails them
        # exits before it pays for the search.
        combinatorics.sarkozy_hypothesis(ring, P)
        free = combinatorics.difference_free_max(
            ring, P, mode=args.search, seed=args.seed
        )
        result["difference_free"] = _fields(free)
        size = free.size
        result["measured_source"] = args.search
    bound = combinatorics.sarkozy_bound_check(ring, P, size)
    result["bound_check"] = _fields(bound)
    if args.sets is not None:
        A = parse_element_set(ring, args.sets[0])
        B = parse_element_set(ring, args.sets[1])
        config = combinatorics.config_count(ring, P, A, B)
        result["config"] = _fields(config)
        if ring.order <= 256:
            fourier = combinatorics.config_count_fourier(ring, P, A, B)
            result["config"]["fourier_re"] = fourier.real
            result["config"]["fourier_gap"] = abs(config.count - fourier)
    return _envelope("sarkozy", result, seed=args.seed)


def _cmd_intersective(args) -> dict:
    coeffs = parse_int_list(args.poly, "coefficient")
    verdict = combinatorics.intersectivity_oracle(args.family, coeffs, args.bound)
    return _envelope("intersective", _fields(verdict))


def _cmd_paley(args) -> dict:
    ring = make_ring(args.ring)
    graph = paley.build_paley(ring, args.d)
    if args.edges:
        sys.stdout.writelines(paley.edge_lines(graph))
        return {}
    fields = _fields(graph)
    result: dict = {"graph": {"ring_spec": fields.pop("ring").spec_string(), **fields},
                    "spectrum": _fields(paley.spectrum(graph))}
    if graph.char_divides_degree:
        result["verdict"] = None
        result["warning"] = (
            "characteristic divides d: the graph may be disconnected and "
            "no quasirandomness verdict is asserted"
        )
    else:
        result["verdict"] = _fields(paley.quasirandomness_verdict(graph))
    if args.sets is not None:
        spec = args.sets
        if spec in ("exhaustive", "structured"):
            uni = paley.uniformity_measure(graph, mode=spec)
        elif spec.startswith("sampled:"):
            parts = spec.split(":")
            if len(parts) != 3:
                raise ParseError("want sampled:<count>:<seed>")
            count, seed = (parse_int(part, "sampled uniformity") for part in parts[1:])
            if count < 1:
                raise ParseError("sampled uniformity needs a count of at least 1")
            if seed < 0:
                raise ParseError(f"sampled uniformity seed {seed} is negative")
            uni = paley.uniformity_measure(graph, mode="sampled", count=count, seed=seed)
        elif spec.startswith("file:"):
            try:
                payload = json.loads(Path(spec[5:]).read_text())
                pairs = [(list(a), list(b)) for a, b in payload]
            except (OSError, ValueError, TypeError) as exc:
                raise ParseError(f"cannot read pair file: {exc}") from exc
            uni = paley.uniformity_measure(graph, mode="explicit", pairs=pairs)
        else:
            raise ParseError(f"unknown set source {spec!r}")
        result["uniformity"] = _fields(uni)
    return _envelope("paley", result)


def _cmd_batch(args) -> dict:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read manifest: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("jobs", []), list):
        raise ParseError("manifest must be an object with a jobs array")
    seed = manifest.get("seed")
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ParseError(f"manifest seed {seed!r} is not a nonnegative integer")
    jobs = manifest.get("jobs", [])
    labels: set[str] = set()
    for i, job in enumerate(jobs):
        if not isinstance(job, dict) or not isinstance(job.get("args", []), list):
            raise ParseError(f"manifest job {i} must be an object with an args array")
        label = job.get("label", f"job{i}")
        # The label names the job's report file inside the output directory.
        if not isinstance(label, str) or label in ("", ".", "..") or any(
            c in label for c in ("/", "\\", "\0")
        ):
            raise ParseError(f"manifest job {i}: label {label!r} is not a plain file name")
        if label in labels:
            raise ParseError(f"manifest job {i}: label {label!r} names an earlier job too")
        labels.add(label)
    out_dir = manifest.get("output_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ParseError(f"manifest output_dir {out_dir!r} is not a string")
    if args.output_dir is not None:
        out_dir = args.output_dir
    rows = []
    overall = EXIT_OK
    for i, job in enumerate(jobs):
        argv = [str(a) for a in job.get("args", [])]
        label = job.get("label", f"job{i}")
        doc, code = _run(argv, parse=functools.partial(_parse_job, seed=seed))
        overall = max(overall, code)
        row = {"label": label, "args": argv, "exit_code": code}
        if "error" in doc:
            row["error"] = doc["error"]
        if out_dir is not None and "error" not in doc:
            path = Path(out_dir) / f"{label}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(_dumps(doc) + "\n")
            row["output"] = str(path)
        elif "result" in doc:
            row["result"] = doc["result"]
        rows.append(row)
    summary = {"jobs": rows, "overall_exit": overall, "job_count": len(rows)}
    return _envelope("batch", summary, seed=seed)


def _run(argv: list[str] | None, parse=None) -> tuple[dict, int]:
    """Parse argv (by `parse` if given) and run its subcommand. A RingLabError
    from either step becomes a structured error document: exit 2 for a
    ParseError, which every usage error is, and 3 for any other (guard)
    error. --help returns an empty document; argparse has printed the help.
    A report exits 4 iff it `_fails`; a batch exits with its overall_exit."""
    try:
        ns = (parse or _parse)(argv)
        doc = ns.handler(ns)
    except SystemExit as exc:
        return {}, int(exc.code or 0)
    except RingLabError as exc:
        code = EXIT_PARSE if isinstance(exc, ParseError) else EXIT_GUARD
        return _error_doc(exc, code), code
    result = doc.get("result", {})
    return doc, result.get("overall_exit", EXIT_BOUND if _fails(result) else EXIT_OK)


#: The printed fields that exit 4 reads: verdicts, and gaps between two
#: routes to one number.
_VERDICTS = frozenset({"bound_satisfied", "satisfied", "all_satisfied", "verified",
                       "witness_verified", "mixing_all_satisfied"})
_GAPS = frozenset({"annihilator_max_error", "max_route_gap", "max_sample_gap", "sample_gap",
                   "fourier_gap"})


def _fails(report: dict) -> bool:
    """Whether report, or a dict nested in it, holds a verdict that is
    false (null is no verdict) or a gap that is not below ROUTE_TOL, NaN
    included. Lists are not walked: their rows are summarised beside them."""
    return any(
        _fails(value) if isinstance(value, dict)
        else key in _VERDICTS and value is not None and not value
        or key in _GAPS and not value < harmonics.ROUTE_TOL
        for key, value in report.items()
    )


def _parse(argv: list[str] | None, namespace=None) -> argparse.Namespace:
    """build_parser().parse_args(argv, namespace), with the same results,
    messages and exits, paying only for the subcommand's own parser when
    argv starts with the path of one (`ring info`, `expsum`, ...)."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    for path in (tuple(argv[:2]), tuple(argv[:1])):
        if path in parser.leaves:
            ns, extras = parser.leaves[path].parse_known_args(argv[len(path):], namespace)
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            return ns
    return parser.parse_args(argv, namespace)


def _parse_job(argv: list[str], seed: int | None = None) -> argparse.Namespace:
    """Parse a batch job's argv. A batch prints only its envelope, so a job
    that would print itself is a ParseError before it runs: --help, whose
    text is dropped, and paley --edges, whose n r / 2 lines are not kept.
    So is a batch, since a manifest that names itself would never end. A
    seeded job with no --seed of its own, in any spelling, gets a given
    seed, and `--seed <seed>` is appended to argv, which its row prints."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            ns = _parse(argv, argparse.Namespace(seed=None) if seed is not None else None)
    except SystemExit:
        raise ParseError("--help prints no report and cannot be a batch job") from None
    if getattr(ns, "edges", False):
        raise ParseError("paley --edges prints no report and cannot be a batch job")
    if ns.handler is _cmd_batch:
        raise ParseError("a batch cannot be a batch job")
    if seed is not None and argv[0] in _SEEDED and ns.seed is None:
        ns.seed = seed
        argv += ["--seed", str(seed)]
    return ns


def _integer(text: str) -> int:
    """argparse type of every integer flag: `parse_int`'s rule, refused
    through argparse, whose message names the flag."""
    try:
        return parse_int(text, "value")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed(text: str) -> int:
    """argparse type of every --seed flag: a nonnegative integer."""
    seed = _integer(text)
    if seed < 0:
        raise ParseError(f"--seed {seed} is negative")
    return seed


def _error_doc(exc: Exception, code: int) -> dict:
    return {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }
    }


def _numpy_to_json(value):
    """json's fallback for what it cannot encode: a numpy array becomes a
    list and a numpy scalar a Python number or bool; any other type is
    still a TypeError."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# json's C encoder runs only without indent; _dumps hands it each list of
# plain numbers whole and re-spaces its ", " separators.
_encode_flat = json.JSONEncoder(default=_numpy_to_json).encode
_PLAIN_NUMBERS = frozenset((int, float, bool))


def _dumps(doc: dict) -> str:
    """The bytes of json.dumps(doc, indent=2, sort_keys=True,
    default=_numpy_to_json), written with one C encoder call per list of
    plain numbers instead of json's pure-Python indenting encoder. Dict
    keys must be str."""
    return _encode(doc, "\n")


def _encode(value, newline: str) -> str:
    """value as json spells it; `newline` is a newline and the indent of
    the line that holds value, so its items go one indent deeper."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else _encode_flat(value)
    if not isinstance(value, (dict, list, tuple)):
        return _encode(_numpy_to_json(value), newline)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + "  "
    if isinstance(value, dict):
        # encode_basestring_ascii raises TypeError on a key that is not a str.
        items = [
            f"{encode_basestring_ascii(key)}: {_encode(value[key], inner)}" for key in sorted(value)
        ]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if set(map(type, value)) <= _PLAIN_NUMBERS:
        body = _encode_flat(value)[1:-1].replace(", ", "," + inner)
    else:
        body = ("," + inner).join([_encode(item, inner) for item in value])
    return f"[{inner}{body}{newline}]"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ParseErrors, so that they
    leave as structured errors with exit 2 like every other bad input."""

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so main and every batch job share it. `leaves` maps the path
    of each subcommand to its own parser, which `_parse` runs alone."""
    parser = _Parser(
        prog="ringlab",
        description="finite principal ideal rings and their exponential sum, "
        "difference set, and quasirandomness certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ring = sub.add_parser("ring", help="ring constructions")
    ring_sub = p_ring.add_subparsers(dest="ring_command", required=True)
    p_info = ring_sub.add_parser("info", help="order, characteristic, lpf, units")
    p_info.add_argument("spec", help="ring spec, e.g. Z/12, GF(9), GR(3,2,2)")
    p_info.set_defaults(handler=_cmd_ring)

    p_poly = sub.add_parser("poly", help="polynomial statistics")
    poly_sub = p_poly.add_subparsers(dest="poly_command", required=True)
    p_ddeg = poly_sub.add_parser("ddeg", help="derivational degree")
    p_ddeg.add_argument("--ring", required=True)
    p_ddeg.add_argument("--poly", required=True, help="coefficients c0,c1,...")
    p_ddeg.add_argument("--mode", choices=("auto", "exact", "bound"), default="auto")
    p_ddeg.set_defaults(handler=_cmd_ddeg)

    p_sub = sub.add_parser("subgroup", help="value-generated subgroup")
    p_sub.add_argument("--ring", required=True)
    p_sub.add_argument("--poly", required=True)
    p_sub.add_argument(
        "--raw-values",
        action="store_true",
        help="generate from the values themselves instead of values minus P(0)",
    )
    p_sub.set_defaults(handler=_cmd_subgroup)

    p_exp = sub.add_parser("expsum", help="character sums and the power bound")
    p_exp.add_argument("--ring", required=True)
    p_exp.add_argument("--poly", required=True)
    p_exp.add_argument("--char", help="single character coefficients c1,c2,...")
    p_exp.add_argument("--table", action="store_true", help="emit every character row")
    p_exp.add_argument("--mode", choices=("auto", "exact", "bound"), default="auto")
    p_exp.set_defaults(handler=_cmd_expsum)

    p_te = sub.add_parser("tebound", help="total ergodicity estimate on random f")
    p_te.add_argument("--ring", required=True)
    p_te.add_argument("--poly", required=True)
    p_te.add_argument("--random", type=_integer, default=20, help="number of test functions")
    p_te.add_argument("--seed", type=_seed, default=0)
    p_te.add_argument("--mode", choices=("auto", "exact", "bound"), default="auto")
    p_te.set_defaults(handler=_cmd_tebound)

    p_vdc = sub.add_parser("vdc", help="van der Corput along a subgroup")
    p_vdc.add_argument("--ring", required=True)
    p_vdc.add_argument(
        "--subgroup",
        required=True,
        help="full | trivial | poly:<literal> | gen:<elems> | explicit elements",
    )
    p_vdc.add_argument("--k", type=_integer, default=1)
    p_vdc.add_argument("--random", type=_integer, default=20)
    p_vdc.add_argument("--seed", type=_seed, default=0)
    p_vdc.set_defaults(handler=_cmd_vdc)

    p_rc = sub.add_parser("rootcount", help="root count against the degree bound")
    p_rc.add_argument("--ring", required=True)
    p_rc.add_argument(
        "--coeffs",
        required=True,
        help="JSON nested array of element indices, one nesting level per variable",
    )
    p_rc.set_defaults(handler=_cmd_rootcount)

    p_sk = sub.add_parser("sarkozy", help="difference-free sets and the size bound")
    p_sk.add_argument("--ring", required=True)
    p_sk.add_argument("--poly", required=True)
    p_sk.add_argument("--search", choices=("exact", "greedy"), default="exact")
    p_sk.add_argument("--seed", type=_seed, default=0)
    p_sk.add_argument(
        "--measured",
        type=_integer,
        help="check an externally measured size instead of searching",
    )
    p_sk.add_argument(
        "--sets",
        nargs=2,
        metavar=("A", "B"),
        help="also count configurations between two element sets",
    )
    p_sk.set_defaults(handler=_cmd_sarkozy)

    p_int = sub.add_parser("intersective", help="bounded intersectivity oracle")
    p_int.add_argument("--family", required=True, help="INTEGERS or FPT(p)")
    p_int.add_argument("--poly", required=True, help="integer coefficients c0,c1,...")
    p_int.add_argument("--bound", type=_integer, required=True)
    p_int.set_defaults(handler=_cmd_intersective)

    p_pal = sub.add_parser("paley", help="Paley-type graph spectrum and verdicts")
    p_pal.add_argument("--ring", required=True)
    p_pal.add_argument("--d", type=_integer, required=True)
    # The edge list replaces the report, so it cannot carry a sweep.
    pal_output = p_pal.add_mutually_exclusive_group()
    pal_output.add_argument(
        "--sets",
        help="uniformity sweep: exhaustive | structured | sampled:<n>:<seed> | file:<path>",
    )
    pal_output.add_argument(
        "--edges", action="store_true", help="print the edge list (u v per line) and exit"
    )
    p_pal.set_defaults(handler=_cmd_paley)

    p_batch = sub.add_parser("batch", help="run a manifest of jobs")
    p_batch.add_argument("manifest", help="JSON manifest with a jobs array")
    p_batch.add_argument("--output-dir", help="write one JSON file per job")
    p_batch.set_defaults(handler=_cmd_batch)

    parser.leaves = {("ring", "info"): p_info, ("poly", "ddeg"): p_ddeg, **{
        (name,): leaf for name, leaf in sub.choices.items() if leaf not in (p_ring, p_poly)}}
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run argv, print its document and return its exit code. A reader that
    closes stdout early (`| head`) cuts the output short, not the job: the
    rest goes to devnull, as the `signal` docs advise for SIGPIPE, and the
    job's code stands (0 for `paley --edges`, whose lines are its output)."""
    code = EXIT_OK
    try:
        doc, code = _run(argv)
        if "error" in doc:
            print(_dumps(doc), file=sys.stderr)
        elif doc:
            print(_dumps(doc))
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
