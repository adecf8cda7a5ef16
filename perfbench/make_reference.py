"""Regenerate reference/<workload>.json from the program in this checkout.

The references hold, for every job a workload can emit, the exit code and
the route-independent fields of its report (see checks.fingerprint), plus
the facts the checks need about each ring. They are meant to be made once,
at the commit that defines the benchmark, and then left alone: later
commits are checked against them.

    python3 perfbench/make_reference.py [workload ...]
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from ringlab import __version__, make_ring, parse_poly_literal  # noqa: E402
from ringlab.cli import main as cli_main  # noqa: E402


def reference_entry(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    entry: dict = {"exit": code}
    if code != 0:
        return entry
    doc = json.loads(out.getvalue())
    kind, result = doc["kind"], doc["result"]
    entry["fp"] = checks.fingerprint(kind, result)
    if kind == "poly-ddeg":
        entry.update(k=result["k"], certified=result["certified"])
    elif kind == "expsum":
        entry.update(k=result["k"], certified=result["k_certified"])
    elif kind == "sarkozy" and not checks.ring_of(argv).startswith("Z/"):
        ring = make_ring(checks.ring_of(argv))
        values = parse_poly_literal(ring, checks.poly_literal(argv)).values()
        entry["values"] = sorted({int(v) for v in values})
    return _rounded(entry)


def _rounded(value):
    """Floats to 12 significant digits, far inside the 1e-9 tolerance."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def ring_facts(spec: str) -> dict:
    ring = make_ring(spec)
    return {"order": ring.order, "radices": list(ring.additive_orders()), "lpf": ring.lpf()}


def build(workload: str) -> dict:
    jobs = {}
    rings = {}
    t0 = time.perf_counter()
    for i, argv in enumerate(workloads.pool(workload)):
        jobs[workloads.job_key(argv)] = reference_entry(argv)
        spec = checks.ring_of(argv)
        if spec is not None and spec not in rings:
            rings[spec] = ring_facts(spec)
        if i % 200 == 0:
            print(f"{workload}: {i} jobs, {time.perf_counter() - t0:.0f}s", file=sys.stderr)
    return {"ringlab_version": __version__, "workload": workload, "rings": rings, "jobs": jobs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    for workload in args.workloads:
        ref = build(workload)
        refused = [k for k, v in ref["jobs"].items() if v["exit"] != 0]
        path = HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"{workload}: {len(ref['jobs'])} jobs, {len(refused)} not exit 0 -> {path}")
        for key in refused:
            print(f"  exit {ref['jobs'][key]['exit']}: {key}")


if __name__ == "__main__":
    main()
