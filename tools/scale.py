"""Run every check that CI runs after the Tier-1 tests: the smoke checks on rings up to order 2^20
and the benchmark's own checks.

    python tools/scale.py

Each cell of `CELLS` names one check, says why it exists and lists its steps. Every command runs in
its own child process with PYTHONPATH=src; a timeout, or an exit code or report value other than the
step expects, fails the cell. Prints each cell's wall seconds, the peak RSS of its largest child and
ok or FAIL with the reason, and exits 1 if any cell failed.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CLI = ("-m", "ringlab.cli")


class Fail(Exception):
    """A check that did not hold; the message says which."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Fail(what)


class Below(float):
    """An expected value that a field must be below."""

    def __repr__(self) -> str:
        return f"below {float(self)}"


def match(got, want, where: str) -> None:
    """got holds want: a dict key by key, a Below as a ceiling, any other value equal and of its
    type, so that true is not 1."""
    if isinstance(want, dict):
        for key, value in want.items():
            match(got.get(key) if isinstance(got, dict) else None, value, f"{where} {key}")
        return
    ok = isinstance(got, float) and got < want if isinstance(want, Below) else (
        type(got) is type(want) and got == want)
    expect(ok, f"{where} = {got!r}, want {want!r}")


class Children:
    """The child processes of one cell, and the largest peak RSS among them in MB."""

    def __init__(self) -> None:
        self.peak_mb = 0.0

    def start(self, argv: tuple[str, ...], stdout, stderr) -> subprocess.Popen:
        return subprocess.Popen([sys.executable, *argv], cwd=ROOT, stdout=stdout, stderr=stderr,
                                env={**os.environ, "PYTHONPATH": str(ROOT / "src")})

    def wait(self, proc: subprocess.Popen, timeout: float | None) -> int:
        """proc's exit code, reaped by os.wait4 for its peak RSS. Past timeout seconds (None: no
        limit) proc is killed, which fails."""
        end = time.monotonic() + (math.inf if timeout is None else timeout)
        while not (done := os.wait4(proc.pid, os.WNOHANG))[0] and time.monotonic() < end:
            time.sleep(0.01)
        if not done[0]:  # os.kill, as Popen.kill may reap proc before wait4 reads its peak
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = done if done[0] else os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_mb = max(self.peak_mb, usage.ru_maxrss / 1024)
        expect(done[0], f"python {' '.join(proc.args[1:])}: killed at its timeout of {timeout} s")
        return proc.returncode

    def run(self, *argv: str, timeout: float | None = 60, code: int = 0) -> str:
        """The stdout of `python argv`, which must exit with code."""
        with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
            got = self.wait(self.start(argv, out, err), timeout)
            out.seek(0), err.seek(0)
            stderr = " ".join(err.read().decode().split())
            expect(got == code, f"python {' '.join(argv)}: exit {got}, want {code} {stderr[-300:]}".rstrip())
            return out.read().decode()

    def result(self, *args: str, timeout: float = 60, **want) -> dict:
        """The result of the CLI report of args, which must exit 0 and hold want."""
        result = json.loads(self.run(*CLI, *args, timeout=timeout))["result"]
        match(result, want, " ".join(args) + ":")
        return result


Step = Callable[[Children], object]


# 60 s is the timeout of every CLI command but the three that give theirs.
def report(*args: str, timeout: float = 60, **want) -> Step:
    return lambda run: run.result(*args, timeout=timeout, **want)


def refused(code: int, *args: str, timeout: float = 60) -> Step:
    return lambda run: run.run(*CLI, *args, timeout=timeout, code=code)


def peak_below(mb: float) -> Step:
    """The largest child of the cell so far peaked below mb MB."""
    return lambda run: expect(run.peak_mb < mb, f"peak RSS {run.peak_mb:.0f} MB, want below {mb}")


def agree(specs: list[str], pick: Callable[[dict], object], *args: str) -> Step:
    """The reports of args and then each spec are equal as pick reads them."""
    def step(run: Children) -> None:
        rows = [pick(run.result(*args, spec)) for spec in specs]
        expect(all(row == rows[0] for row in rows), f"{' '.join(args)} differs between {specs}")
    return step


class Cell(NamedTuple):
    name: str
    why: str
    steps: list[Step]


def run_cell(steps: list[Step]) -> tuple[str, float]:
    """The cell's status, ok or FAIL and the reason, and the peak RSS in MB of its largest child.
    A child's peak RSS as os.wait4 reads it starts from that of the process that started it, so
    each cell runs in a process forked for it alone: no report parsed by an earlier cell raises
    the peak of a later cell's children."""
    read, write = os.pipe()
    if (pid := os.fork()) == 0:
        try:
            run, status = Children(), "ok"
            try:
                for step in steps:
                    step(run)
            except Exception as exc:  # any error of one cell is its FAIL line
                status = f"FAIL {exc}" if isinstance(exc, Fail) else f"FAIL {type(exc).__name__}: {exc}"
            os.write(write, json.dumps([status, run.peak_mb]).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as inp:
        line = inp.read()
    os.waitpid(pid, 0)
    return json.loads(line) if line else ("FAIL the cell's process ended without a status", 0.0)


def run_cells(cells: list[Cell]) -> int:
    """Run each cell and print its line; 1 if any failed, else 0."""
    failed = 0
    for cell in cells:
        t0 = time.perf_counter()
        status, peak_mb = run_cell(cell.steps)
        failed += status != "ok"
        print(f"{cell.name:34} {time.perf_counter() - t0:5.1f} s {peak_mb:5.0f} MB  {status}", flush=True)
    print(f"{len(cells)} cells, {failed} failed")
    return 1 if failed else 0


def paley_report(run: Children) -> None:
    s = run.result("paley", "--ring", "GF(1048576)", "--d", "3")["spectrum"]
    ev, r, n = s["eigenvalues"], s["r"], 1048576
    squares = math.fsum(x * x for x in ev)
    expect(len(ev) == n and ev[0] == r, f"{len(ev)} eigenvalues from {ev[0]}, want {n} from r = {r}")
    expect(abs(squares - n * r) <= 1e-9 * n * r, f"sum of squares {squares}, want n r = {n * r}")


def direct_count(run: Children) -> None:
    config = run.result("sarkozy", "--ring", "Z/65536", "--poly=0,0,1", "--measured", "10",
                        "--sets", "random:100:1", "random:100:2")["config"]
    import numpy as np  # here alone: the runner starts no thread before it forks

    n = 65536
    A = np.random.default_rng(1).choice(n, size=100, replace=False)
    B = np.random.default_rng(2).choice(n, size=100, replace=False)
    in_b = np.zeros(n, dtype=bool)
    in_b[B] = True
    y = np.arange(n, dtype=np.int64)
    direct = int(sum(in_b[(a + y * y) % n].sum() for a in A.tolist()))
    expect(config["count"] == direct == 9832, f"count {config['count']}, direct {direct}, want 9832")


def eight_rings(run: Children) -> None:
    specs = ["Z/1048576", "Z/1048573", "GF(1048576)", "GR(2,2,10)", "GR(2,4,5)", "PQ(q=1024;g=0,0,1)",
             "prod(GF(1024);GF(1024))", "prod(Z/1024;GF(1024))"]
    jobs = [{"label": f"r{i}", "args": ["subgroup", "--ring", s, "--poly", "0,0,0,1"]}
            for i, s in enumerate(specs)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rings.json"
        path.write_text(json.dumps({"jobs": jobs}))
        codes = [row["exit_code"] for row in run.result("batch", str(path), timeout=120)["jobs"]]
    expect(codes == [0] * 8, f"job exit codes {codes}, want eight 0s")


def broken_pipe(run: Children) -> None:
    with tempfile.TemporaryFile() as err:
        proc = run.start((*CLI, "paley", "--ring", "Z/4096", "--d", "2", "--edges"), subprocess.PIPE, err)
        proc.stdout.readline()
        proc.stdout.close()
        code = run.wait(proc, 60)
        err.seek(0)
        stderr = err.read().decode()
    expect(code == 0 and stderr == "", f"exit {code}, want 0; stderr {stderr[-300:]!r}")


def bench_smoke(trace: str) -> list[Step]:
    def step(workload: str) -> Step:
        argv = ("perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace)
        return lambda run: match(json.loads(run.run(*argv, timeout=None).splitlines()[-1]),
                                 {"correct": True}, workload)
    return [step(w) for w in ("catalog", "ladder", "batch")]


GF20, X3, BOUND = "GF(1048576)", "--poly=0,0,0,1", "INTERSECTIVE_UP_TO_BOUND"
PQ20 = "PQ(q=2;g=1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,1)"
PINNED = "GF(1048576;h=1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1)"
TRIPLE = ["GF(65536)", "PQ(q=256;g=1,7,1)", "PQ(q=2;g=1,0,0,0,0,0,0,0,0,0,0,1,0,1,0,1,1)"]
MAX_2_20 = 0.001953125  # 2^-9, the largest nontrivial |S| / n of x^3 on GF(2^20)
GAPS = {"max_route_gap": Below(1e-8), "max_sample_gap": Below(1e-8)}
SUMS = ["k", "k_certified", "subgroup_size", "annihilator_size", "max_nontrivial_modulus", "power_bound",
        "bound_satisfied"]

CELLS = [
    Cell("GF(2^20) expsum smoke", "The log tables at 2^20, which every field over Z/p reads whatever its "
         "spelling: their build and every product of an expsum job, which must finish and hold. The values "
         "of x^3 generate all of R, so its annihilator is read from |H| alone and is the trivial character: "
         "all 2^20 - 1 others are checked, and the worst of them is the largest nontrivial modulus. x + x^2 "
         "is additive in characteristic 2 with a kernel {0, 1}, so |H| = 2^19, and the angle route must "
         "find the 2 characters that kill H, each with a sum of 1. Its 19 generators take one block of "
         "the angle cube each, so both jobs peak near 125 MB (2-vCPU VM); a cube of all 19 at once adds "
         "152 MB, above the 170 MB ceiling.",
         [report("expsum", "--ring", GF20, X3, bound_satisfied=True, checked_characters=1048575,
                 max_checked_modulus=MAX_2_20, max_nontrivial_modulus=MAX_2_20),
          report("expsum", "--ring", GF20, "--poly=0,1,1", subgroup_size=524288, annihilator_size=2,
                 annihilator_max_error=Below(1e-8), bound_satisfied=True),
          peak_below(170)]),
    Cell("PQ over GF(2^10) expsum smoke", "The one check at 2^20 of PQ's field route: each product takes "
         "the schoolbook over its coefficients through GF(1024)'s log tables. The exact degree of x^3 is "
         "certified at k = 2, and its values generate all of (R, +).",
         [report("expsum", "--ring", "PQ(q=1024;g=0,0,1)", X3, bound_satisfied=True),
          report("poly", "ddeg", "--ring", "PQ(q=1024;g=0,0,1)", X3, certified=True, k=2),
          report("subgroup", "--ring", "PQ(q=1024;g=0,0,1)", "--poly", "0,0,0,1", is_full=True,
                 size=1048576)]),
    Cell("PQ over GF(2) at 2^20 smoke", "The profile rule on a modulus of degree 20, and the route picked "
         "by structure, not spelling: g = t^20 + t^17 + 1 is the canonical irreducible of degree 20, so "
         "this PQ and GR(2,1,20) are GF(2^20) spelled otherwise. Both read the field's log tables, and "
         "each must print GF(1048576)'s expsum result apart from ring_spec. The values of x^3 generate all "
         "of the ring. The digit kernel at 2^20 is reached by GR(2,2,10) and GR(2,4,5) in the Paley "
         "census and eight-ring batch cells.",
         [report("ring", "info", PQ20, prime_profile=[[1048576, 1]], units=1048575),
          report("subgroup", "--ring", PQ20, "--poly", "0,0,0,1", is_full=True, size=1048576),
          agree([GF20, PQ20, "GR(2,1,20)"], lambda r: {**r, "ring_spec": None}, "expsum", X3, "--ring")]),
    Cell("Pinned modulus at 2^20", "The one build of a pinned modulus at 2^20: h = 1 + u^3 + u^20 is "
         "irreducible but not the canonical 1 + u^17 + u^20, so the spec prints h back, and expsum of x^3 "
         "must print GF(1048576)'s values. A coefficient outside 0..p-1 is refused, not read mod p.",
         [report("expsum", "--ring", PINNED, X3, ring_spec=PINNED, bound_satisfied=True, k=2,
                 subgroup_size=1048576, max_nontrivial_modulus=MAX_2_20),
          refused(2, "ring", "info", "GF(4;h=1,1,3)")]),
    Cell("2^16 isomorphic triple", "GF(65536), PQ(q=256;g=1,7,1) and PQ over GF(2) modulo the canonical "
         "degree-16 irreducible are one field under three specs, multiplied by two kernels: the log "
         "tables, and the coefficient product through GF(256)'s tables. All three must print the same "
         "ring invariants, the same expsum fields for x^3, x + x^2 and x^2 + x^5, and the same sorted "
         "Paley spectrum, r and lambda2.",
         [agree(TRIPLE, lambda r: [r[k] for k in ("order", "characteristic", "lpf", "units",
                                                  "prime_profile")], "ring", "info"),
          *(agree(TRIPLE, lambda r: [r[k] for k in SUMS], "expsum", "--poly=" + p, "--ring")
            for p in ("0,0,0,1", "0,1,1", "0,0,1,0,0,1")),
          agree(TRIPLE, lambda r: [sorted(r["spectrum"]["eigenvalues"]), r["spectrum"]["r"],
                                   r["spectrum"]["lambda2"]], "paley", "--d", "3", "--ring")]),
    Cell("2^20 derivational degree smoke", "The one check at 2^20 of the field and product rules of the "
         "exact degree. x^3 reads only its coefficients on a field, so GF(1048576) and "
         "prod(GF(1024);GF(1024)) certify k = 2 without a value table. The other three run factor by "
         "factor, the search only on the local factors Z/1024, GR(2,2,5) and Z/25 of 1048575 = 3 5^2 11 "
         "31 41, and certify k = 3.",
         [report("poly", "ddeg", "--ring", ring, X3, certified=True, k=k)
          for ring, k in [(GF20, 2), ("prod(GF(1024);GF(1024))", 2), ("prod(Z/1024;GF(1024))", 3),
                          ("prod(GR(2,2,5);GF(1024))", 3), ("Z/1048575", 3)]]),
    Cell("GR(2,2,10) Paley census smoke", "The one check at 2^20 of the verdict's residue-field census: "
         "the residue field GF(1024) of GR(2,2,10) is decided by its size alone.",
         [report("paley", "--ring", "GR(2,2,10)", "--d", "3", verdict={"bad_prime_sizes": [1024]})]),
    Cell("2^20 Paley report smoke", "The one check at scale of the report writer: a 20 MiB report whose "
         "2^20 eigenvalues it prints as one run of numbers. They must parse back whole, start at the "
         "degree r and have trace(A^2) = n r as their sum of squares.",
         [paley_report]),
    Cell("GF(3^12) subgroup smoke", "The one check at 3^12 of the place-by-place additive kernel: the "
         "closure of the values of x^2 adds arrays that grow to the whole ring, and those values generate "
         "all of (GF(531441), +).",
         [report("subgroup", "--ring", "GF(531441)", "--poly", "0,0,1", is_full=True)]),
    Cell("Z/2^20 subgroup smoke", "The one check at 2^20 of the closure's element arrays: the values of "
         "x^3 on Z/1048576 include 1, so they generate the whole ring.",
         [report("subgroup", "--ring", "Z/1048576", "--poly", "0,0,0,1", size=1048576, is_full=True)]),
    Cell("GF(2^16) tebound smoke", "The one check at 2^16 of the length-2 butterflies inside convolve "
         "and inside the batched character sums: the sampled exact check sums translates and reads "
         "character-table columns, with no transform, so both gaps stay small only if the butterflies "
         "hold.",
         [report("tebound", "--ring", "GF(65536)", X3, "--random", "4", "--seed", "1", all_satisfied=True,
                 **GAPS)]),
    Cell("GF(2^20) tebound smoke", "The one check at 2^20 of the outer-sum character-table columns that "
         "the sampled check reads, one character per block. The values of x^3 generate all of R, so the "
         "Parseval route drops the trivial character alone and builds no annihilator mask; the GF(2^20) "
         "expsum smoke checks that mask on a proper H. The job peaks near 315 MB (2-vCPU VM), below the "
         "360 MB ceiling, which the 16 columns at once (256 MB of table) would pass.",
         [report("tebound", "--ring", GF20, X3, "--random", "2", "--seed", "1", all_satisfied=True, **GAPS),
          peak_below(360)]),
    Cell("Translate counts at scale", "Ring.translate_counts at orders where its translates take many "
         "blocks: the Paley degrees over r = 1365 shifts of GF(4096) (22 blocks per set), and a "
         "configuration count on Z/2^16 that a direct numpy count over the same two seeded sets must "
         "match.",
         [report("paley", "--ring", "GF(4096)", "--d", "3", "--sets", "sampled:8:1",
                 uniformity={"mixing_all_satisfied": True, "pairs_examined": 8}),
          direct_count]),
    Cell("Three-variable rootcount smoke", "The one check of nested Horner on a full 3-D grid of 101^3 "
         "points: xyz vanishes unless all three coordinates are nonzero, so it has exactly "
         "101^3 - 100^3 = 30301 roots.",
         [report("rootcount", "--ring", "Z/101", "--coeffs", "[[[0,0],[0,0]],[[0,0],[0,1]]]", count=30301)]),
    Cell("Eight 2^20 rings in one batch", "One process interns eight distinct rings of order 2^20 (or "
         "the prime 1048573), all five constructors, and keeps their memos under budget.CACHE_BYTES: "
         "every job exits 0 and the batch peaks below 700 MB (336 MB measured on a 2-vCPU VM; 286 MB "
         "when no ring was kept past its job).",
         [eight_rings, peak_below(700)]),
    Cell("Hensel climb at the work guard", "The one check at scale of the intersectivity climb and its "
         "settle tests. For FPT(2) at bound 12, B^2 = 2^24 is exactly the default work guard, so bound 13 "
         "exits 3 before any prime is enumerated; FPT(3) at bound 7 (B^2 = 3^14) runs seven degree "
         "classes below it.",
         [report("intersective", "--family", "FPT(2)", "--poly=0,0,1", "--bound", "12", status=BOUND,
                 moduli_resolved=747, witness=None),
          report("intersective", "--family", "FPT(5)", "--poly=0,1,1", "--bound", "5", status=BOUND,
                 moduli_resolved=829, witness=None),
          report("intersective", "--family", "FPT(3)", "--poly=0,0,1", "--bound", "7", status=BOUND,
                 moduli_resolved=508, witness=None),
          report("intersective", "--family", "INTEGERS", "--poly=1,0,1", "--bound", "4096",
                 status="WITNESS_FOUND", moduli_resolved=276, witness={"prime": 3}, witness_verified=True),
          refused(3, "intersective", "--family", "FPT(2)", "--poly=0,0,1", "--bound", "13")]),
    Cell("Broken pipe smoke", "A reader that stops after one line cuts the edge list of about two "
         "million lines short. The CLI must end quietly: nothing on stderr, and the exit code of the "
         "job, 0.",
         [broken_pipe]),
    Cell("Greedy search at scale", "The one check at scale of the greedy's block draws: P = 131072 x on "
         "Z/262144 has D = {131072}, a perfect matching, so every tie list starts with 262144 or 131072 "
         "entries, and the witness keeps one end of each edge. A constant P fails the size bound's "
         "hypotheses, so its job must exit 3 before the search.",
         [report("sarkozy", "--ring", "Z/262144", "--poly=0,131072", "--search", "greedy", "--seed", "1",
                 timeout=20, difference_free={"verified": True, "size": 131072}),
          refused(3, "sarkozy", "--ring", "Z/65536", "--poly=3", "--search", "greedy", timeout=2)]),
    Cell("Benchmark self-test", "Replays real jobs and the written batch manifests through the "
         "benchmark's report checks, so a change of report shape fails here.",
         [lambda run: run.run("perfbench/selftest.py", timeout=None)]),
    Cell("Untraced benchmark smoke", "One short run per workload on the timed path that the benchmark's "
         "figures come from: the setup probes, the three passes and the check that every pass printed "
         "the same reports. Any failed check makes the run incorrect.",
         bench_smoke("0")),
    Cell("Traced benchmark smoke", "One short traced run per workload. A traced function that was "
         "renamed away, or a named layer with zero calls, makes the run incorrect, and so does any "
         "failed report check.",
         bench_smoke("1")),
    Cell("Benchmark pool replay", "Every distinct job of catalog, ladder and batch (3,245 of them, 1.4 s "
         "on a 2-vCPU box), each checked against its reference report; the traced smoke reaches only the "
         "jobs its one-second runs draw.",
         [lambda run: run.run("tools/replay_pools.py", timeout=None)]),
]


if __name__ == "__main__":
    sys.exit(run_cells(CELLS))
