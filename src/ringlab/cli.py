"""Command line interface.

One subcommand per computation, JSON reports on stdout, structured errors
on stderr. Exit codes separate failure classes so CI can gate on them:

    0  success
    2  malformed input (ring spec, polynomial literal, set, manifest)
    3  guard refusal (order or work budget, unmet hypothesis, non-subgroup)
    4  a checked inequality failed numerically

Code 4 existing at all is the point of the tool: it should never fire, and
when it does the report names the ring, polynomial, and character.

Reports are deterministic for fixed inputs and seeds; the only varying
field is the timestamp, isolated in the header.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import combinatorics, harmonics, paley, polynomials, subgroups
from .characters import character_group
from .errors import ParseError, RingLabError
from .polynomials import RingPoly, parse_poly_literal
from .rings import Ring, distinct, make_ring

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_BOUND = 4

#: subcommands whose randomness honors --seed; batch injects its global
#: seed into these when a job does not choose its own
_SEEDED = {"tebound", "vdc", "sarkozy", "paley"}


def _header(seed: int | None) -> dict:
    return {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "tool": "ringlab",
        "version": __version__,
        "seed": seed,
    }


def _envelope(kind: str, result: dict, seed: int | None = None) -> dict:
    return {"header": _header(seed), "kind": kind, "result": result}


def parse_element_set(ring: Ring, text: str) -> list[int]:
    """Element sets: explicit indices `1,2,3`, or the named families
    `squares`, `coset:<poly>[:<shift>]`, `random:<k>:<seed>`."""
    text = text.strip()
    if text == "squares":
        P = RingPoly.make(ring, (0, 0, ring.one))
        return distinct(P.values()).tolist()
    if text.startswith("coset:"):
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ParseError(f"bad coset family {text!r}")
        P = parse_poly_literal(ring, parts[1])
        try:
            shift = int(parts[2]) if len(parts) == 3 else 0
        except ValueError as exc:
            raise ParseError(f"bad coset shift in {text!r}") from exc
        if not 0 <= shift < ring.order:
            raise ParseError(f"coset shift {shift} out of range")
        H = subgroups.value_subgroup(ring, P)
        return [int(v) for v in H.coset(shift)]
    if text.startswith("random:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseError(f"bad random family {text!r}, want random:<k>:<seed>")
        try:
            k, seed = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad random family {text!r}") from exc
        if not 0 <= k <= ring.order:
            raise ParseError(f"random family size {k} out of range")
        if seed < 0:
            raise ParseError(f"random family seed {seed} is negative")
        rng = np.random.default_rng(seed)
        return sorted(int(v) for v in rng.choice(ring.order, size=k, replace=False))
    try:
        tokens = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"bad element set {text!r}") from exc
    return combinatorics._element_set(ring, tokens).tolist()


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


def _cmd_ring(args) -> tuple[dict, int]:
    ring = make_ring(args.spec)
    return _envelope("ring-info", ring.info_dict()), EXIT_OK


def _cmd_ddeg(args) -> tuple[dict, int]:
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
    return _envelope("poly-ddeg", result), EXIT_OK


def _cmd_subgroup(args) -> tuple[dict, int]:
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
    return _envelope("subgroup", result), EXIT_OK


def _cmd_expsum(args) -> tuple[dict, int]:
    ring = make_ring(args.ring)
    P = parse_poly_literal(ring, args.poly)
    report = harmonics.character_bound_check(ring, P, ddeg_mode=args.mode)
    result = report.to_dict()
    if args.char is not None:
        try:
            coeffs = tuple(int(c) for c in args.char.split(","))
            position = character_group(ring).position(coeffs)
        except ValueError as exc:
            raise ParseError(f"bad character coefficients {args.char!r}: {exc}") from exc
        value = harmonics.exp_sum(ring, P, position)
        result["single_character"] = {
            "coeffs": list(coeffs),
            "re": value.real,
            "im": value.imag,
            "modulus": abs(value),
        }
    if args.table:
        S = harmonics.exp_sums_all(ring, P)
        coeff_rows = character_group(ring).coeffs(np.arange(len(S))).tolist()
        result["characters"] = [
            {
                "coeffs": coeff_rows[i],
                "re": float(S[i].real),
                "im": float(S[i].imag),
                "modulus": float(abs(S[i])),
            }
            for i in range(len(S))
        ]
    code = EXIT_OK if report.bound_satisfied else EXIT_BOUND
    return _envelope("expsum", result), code


def _cmd_tebound(args) -> tuple[dict, int]:
    ring = make_ring(args.ring)
    P = parse_poly_literal(ring, args.poly)
    if args.random < 1:
        raise ParseError("--random must be at least 1")
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
    all_ok = bool(rep.satisfied.all())
    summary = {
        "ring_spec": ring.spec_string(),
        "poly": str(P),
        "count": args.random,
        "k": rep.k,
        "all_satisfied": all_ok,
        "max_route_gap": float(rep.route_gap.max()),
        "sample_rows": rep.sample_rows,
        "max_sample_gap": float(rep.sample_gap.max()),
        "max_ratio": float(rep.ratio.max()),
        "functions": rows,
    }
    return _envelope("tebound", summary, seed=args.seed), EXIT_OK if all_ok else EXIT_BOUND


def _cmd_vdc(args) -> tuple[dict, int]:
    ring = make_ring(args.ring)
    H = _parse_subgroup(ring, args.subgroup)
    if not 1 <= args.k <= harmonics.VDC_MAX_K:
        raise ParseError(f"--k must be between 1 and {harmonics.VDC_MAX_K}")
    if args.random < 1:
        raise ParseError("--random must be at least 1")
    fs = harmonics.random_functions(ring, args.random, args.seed)
    report = harmonics.vdc_check(ring, H, fs, args.k)
    result = report.to_dict()
    result["count"] = args.random
    code = EXIT_OK if report.satisfied else EXIT_BOUND
    return _envelope("vdc", result, seed=args.seed), code


def _cmd_rootcount(args) -> tuple[dict, int]:
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
    code = EXIT_OK if report.satisfied else EXIT_BOUND
    return _envelope("rootcount", report.to_dict()), code


def _cmd_sarkozy(args) -> tuple[dict, int]:
    ring = make_ring(args.ring)
    P = parse_poly_literal(ring, args.poly)
    result: dict = {"ring_spec": ring.spec_string(), "poly": str(P)}
    code = EXIT_OK
    if args.measured is not None:
        if args.measured < 0:
            raise ParseError("--measured must be a nonnegative set size")
        size = args.measured
        result["measured_source"] = "external"
    else:
        free = combinatorics.difference_free_max(
            ring, P, mode=args.search, seed=args.seed
        )
        result["difference_free"] = free.to_dict()
        size = free.size
        result["measured_source"] = args.search
        if not free.verified:
            code = EXIT_BOUND
    bound = combinatorics.sarkozy_bound_check(ring, P, size)
    result["bound_check"] = bound.to_dict()
    if not bound.satisfied:
        code = EXIT_BOUND
    if args.sets is not None:
        A = parse_element_set(ring, args.sets[0])
        B = parse_element_set(ring, args.sets[1])
        config = combinatorics.config_count(ring, P, A, B)
        result["config"] = config.to_dict()
        if ring.order <= 256:
            fourier = combinatorics.config_count_fourier(ring, P, A, B)
            result["config"]["fourier_re"] = fourier.real
            result["config"]["fourier_gap"] = abs(config.count - fourier)
    return _envelope("sarkozy", result, seed=args.seed), code


def _cmd_intersective(args) -> tuple[dict, int]:
    try:
        coeffs = [int(tok) for tok in args.poly.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad coefficient list {args.poly!r}") from exc
    verdict = combinatorics.intersectivity_oracle(args.family, coeffs, args.bound)
    return _envelope("intersective", verdict.to_dict()), EXIT_OK


def _cmd_paley(args) -> tuple[dict, int]:
    ring = make_ring(args.ring)
    graph = paley.build_paley(ring, args.d)
    if args.edges:
        sys.stdout.writelines(paley.edge_lines(graph))
        return {}, EXIT_OK
    result: dict = {"graph": graph.spec_dict()}
    spec_report = paley.spectrum(graph)
    result["spectrum"] = spec_report.to_dict()
    code = EXIT_OK
    if graph.char_divides_degree:
        result["verdict"] = None
        result["warning"] = (
            "characteristic divides d: the graph may be disconnected and "
            "no quasirandomness verdict is asserted"
        )
    else:
        result["verdict"] = paley.quasirandomness_verdict(graph).to_dict()
    if args.sets is not None:
        spec = args.sets
        if spec == "exhaustive":
            uni = paley.uniformity_measure(graph, mode="exhaustive")
        elif spec == "structured":
            uni = paley.uniformity_measure(graph, mode="structured")
        elif spec.startswith("sampled:"):
            try:
                _, count, seed = spec.split(":")
                count, seed = int(count), int(seed)
            except ValueError as exc:
                raise ParseError("want sampled:<count>:<seed>") from exc
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
            if not _only_json_integers(pairs):
                raise ParseError("pair file entries must be JSON integers")
            uni = paley.uniformity_measure(graph, mode="explicit", pairs=pairs)
        else:
            raise ParseError(f"unknown set source {spec!r}")
        result["uniformity"] = uni.to_dict()
        if not uni.mixing_all_satisfied:
            code = EXIT_BOUND
    return _envelope("paley", result, seed=args.seed), code


def _cmd_batch(args) -> tuple[dict, int]:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read manifest: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("jobs", []), list):
        raise ParseError("manifest must be an object with a jobs array")
    seed = manifest.get("seed")
    jobs = manifest.get("jobs", [])
    for i, job in enumerate(jobs):
        if not isinstance(job, dict) or not isinstance(job.get("args", []), list):
            raise ParseError(f"manifest job {i} must be an object with an args array")
    out_dir = manifest.get("output_dir")
    if args.output_dir is not None:
        out_dir = args.output_dir
    rows = []
    overall = EXIT_OK
    for i, job in enumerate(jobs):
        argv = [str(a) for a in job.get("args", [])]
        label = job.get("label", f"job{i}")
        if seed is not None and argv and argv[0] in _SEEDED and "--seed" not in argv:
            argv = argv + ["--seed", str(seed)]
        doc, code = _run(argv)
        if not doc and code != EXIT_OK:
            doc = {"error": {"type": "ArgumentError", "args": argv}}
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
    return _envelope("batch", summary, seed=seed), overall


def _run(argv: list[str] | None) -> tuple[dict, int]:
    """Parse argv and run its subcommand. A RingLabError, raised while
    parsing or running, becomes a structured error document: exit 2 for a
    ParseError, 3 for every other (guard) error. An argparse usage error
    returns an empty document; argparse has already printed the usage."""
    try:
        ns = build_parser().parse_args(argv)
        return ns.handler(ns)
    except SystemExit as exc:
        return {}, EXIT_PARSE if exc.code is None else int(exc.code)
    except RingLabError as exc:
        code = EXIT_PARSE if isinstance(exc, ParseError) else EXIT_GUARD
        return _error_doc(exc, code), code


def _seed(text: str) -> int:
    """argparse type of every --seed flag: a nonnegative integer."""
    seed = int(text)
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


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so main and every batch job share it."""
    parser = argparse.ArgumentParser(
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
    p_te.add_argument("--random", type=int, default=20, help="number of test functions")
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
    p_vdc.add_argument("--k", type=int, default=1)
    p_vdc.add_argument("--random", type=int, default=20)
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
        type=int,
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
    p_int.add_argument("--bound", type=int, required=True)
    p_int.set_defaults(handler=_cmd_intersective)

    p_pal = sub.add_parser("paley", help="Paley-type graph spectrum and verdicts")
    p_pal.add_argument("--ring", required=True)
    p_pal.add_argument("--d", type=int, required=True)
    p_pal.add_argument(
        "--sets",
        help="uniformity sweep: exhaustive | structured | sampled:<n>:<seed> | file:<path>",
    )
    p_pal.add_argument("--seed", type=_seed, default=0)
    p_pal.add_argument(
        "--edges", action="store_true", help="print the edge list (u v per line) and exit"
    )
    p_pal.set_defaults(handler=_cmd_paley)

    p_batch = sub.add_parser("batch", help="run a manifest of jobs")
    p_batch.add_argument("manifest", help="JSON manifest with a jobs array")
    p_batch.add_argument("--output-dir", help="write one JSON file per job")
    p_batch.set_defaults(handler=_cmd_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    doc, code = _run(argv)
    if "error" in doc:
        print(_dumps(doc), file=sys.stderr)
    elif doc:
        print(_dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
