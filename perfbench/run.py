"""Desk-scale benchmark of the ringlab CLI.

    python3 perfbench/run.py --workload catalog|ladder|batch --seed N \
        [--seconds 30] [--trace 0|1]

One client waits for each result before asking for the next (a closed loop),
the way a desk user runs jobs. Every pass over the jobs is a fresh child
process, so ringlab's caches are as cold as a user's are, with BLAS limited
to `nproc` threads. The child drives seeded jobs through
`ringlab.cli.main(argv)` with stdout captured (see workloads.py); this
process checks every report (checks.py) before it reports any number.

--trace 0 makes three timed passes over the same jobs. A pass holds
max(100, r x seconds / 3) jobs, where r is the workload's nominal job rate
(workloads.JOBS_PER_SECOND), so the jobs of a run follow from its seed and
--seconds alone. Job wall times are scaled to a reference machine speed: each
pass times a fixed calibration kernel (no ringlab code) before every fourth
job, and its times are multiplied by CAL_REF_S over the median calibration
time; setup times likewise. Each job's time is then its median over the
passes, which keeps one stalled pass from moving the figures. It prints the
end-to-end metrics, with the unscaled figures beside them: jobs_per_s (jobs
over the sum of their times), job_ms_p50 and job_ms_p90 (percentiles of the
job times), peak_rss_mb (median of the passes' max RSS) and setup_s (median
over five process starts, from spawn to first job ready), plus fail_ratio
(failed / attempted jobs, which must be 0).

--trace 1 makes one untraced pass and repeats its jobs in a second child with
span tracing patched into ringlab's public functions (tracing.py). It prints
per-layer self times and the tracing overhead and reports the per-layer
metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Artifacts go to perfbench/out/: the jobs of each run as a `ringlab
batch` manifest, and for traced runs the span file and the layer table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_JOBS = 100  # keeps ten samples above p90
# Calibration kernel time at the reference speed (about its median on the
# 2-vCPU machine that defined the benchmark). Shared machines drift between
# speed states for seconds to minutes; scaling by the kernel's median over
# the same pass removes that common-mode drift, and no ringlab change can
# move the kernel.
CAL_REF_S = 0.004
PASSES = 3  # timed passes per run; each job's time is its median over them
SETUP_STARTS = 5  # setup_s is the median over this many process starts
RUN_BUDGET_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_UNITS = {"calls": "count", "self_s": "s", "elems": "count", "exact_share": "share"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("RINGLAB_ORDER_GUARD", "RINGLAB_WORK_GUARD"):
        env.pop(key, None)
    for key in BLAS_VARS:
        env[key] = str(nproc())
    env["PYTHONHASHSEED"] = "0"
    return env


class Pass(NamedTuple):
    """One child process: its report, setup seconds and peak RSS in MB."""

    report: dict
    setup_s: float
    rss_mb: float


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def spawn(self, mode: str, *extra: str) -> Pass:
        out = OUT / f".{self.workload}-{self.seed}-{mode}-{os.getpid()}.json"
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--mode", mode, "--out", str(out), *extra,
        ]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                if time.monotonic() > self.deadline:
                    raise BenchError(f"{mode} child passed the {RUN_BUDGET_S:.0f} s budget")
                time.sleep(0.02)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with code {proc.returncode}")
        try:
            report = json.loads(out.read_text())
        finally:
            out.unlink(missing_ok=True)
        return Pass(report, report["ready"] - t_spawn, usage.ru_maxrss / 1024.0)


def load_reference(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise BenchError(f"cannot read the reference {path}: {exc}") from exc


def check_records(records, ref, validator) -> dict[int, list[str]]:
    """Problems per job index, for the jobs that fail a check."""
    failures = {}
    for i, (argv, code, stdout, stderr, _) in enumerate(records):
        entry = ref["jobs"].get(workloads.job_key(argv))
        problems = checks.check_job(argv, code, stdout, stderr, entry, ref["rings"], validator)
        if problems:
            failures[i] = problems
    return failures


def _without_timestamp(stdout: str) -> str:
    return "\n".join(line for line in stdout.splitlines() if '"generated_at":' not in line)


def compare_passes(first, other) -> dict[int, list[str]]:
    """Reports are deterministic: a repeated pass must run the same jobs and
    print the same reports, apart from the header timestamp, with the same
    exit codes."""
    failures = {}
    for i, a in enumerate(first):
        b = other[i] if i < len(other) else None
        if b is None or (a[0], a[1], a[3]) != (b[0], b[1], b[3]):
            failures[i] = ["job or exit code differs between passes"]
        elif _without_timestamp(a[2]) != _without_timestamp(b[2]):
            failures[i] = ["report differs between passes"]
    return failures


def write_manifest(workload: str, seed: int, records) -> Path:
    path = OUT / f"{workload}-seed{seed}.manifest.json"
    jobs = [
        {"label": f"{i:05d}-{argv[0]}", "args": argv}
        for i, (argv, *_rest) in enumerate(records)
    ]
    path.write_text(json.dumps({"jobs": jobs}, indent=1) + "\n")
    return path


def speed_scale(report: dict) -> float:
    """Factor that takes a child's times to the reference machine speed."""
    return CAL_REF_S / statistics.median(report["calibration"])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_line(numpy_version: str) -> str:
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (
        f"machine: nproc={nproc()} ram={ram:.1f}GiB python={platform.python_version()} "
        f"numpy={numpy_version} blas_threads={nproc()}"
    )


def layer_table(workload: str, metrics: dict, modules: dict) -> list[str]:
    total = modules["total_job_s"] or 1.0
    lines = [
        f"per-layer time on {workload} (of {modules['total_job_s']:.3f} s inside jobs):",
        f"  {'layer':<14}{'self_s':>10}{'self%':>8}{'incl_s':>10}{'incl%':>8}",
    ]
    for layer in tracing.LAYERS:
        row = modules[layer]
        lines.append(
            f"  {layer:<14}{row['self_s']:>10.3f}{100 * row['self_s'] / total:>7.1f}%"
            f"{row['inclusive_s']:>10.3f}{100 * row['inclusive_s'] / total:>7.1f}%"
        )
    lines.append(
        "  polynomials.derivational_degree with its children: "
        f"{modules['ddeg_inclusive_s']:.3f} s = {100 * modules['ddeg_inclusive_s'] / total:.1f}%"
    )
    lines.append(f"  {'function':<42}{'calls':>10}{'self_s':>10}{'elems':>14}")
    for layer, functions in tracing.LAYERS.items():
        for fn in functions:
            base = f"{layer}.{fn}"
            elems = metrics.get(f"{base}.elems")
            lines.append(
                f"  {base:<42}{metrics[base + '.calls']:>10}{metrics[base + '.self_s']:>10.4f}"
                f"{'' if elems is None else elems:>14}"
            )
    share = metrics["polynomials.derivational_degree.exact_share"]
    lines.append(f"  polynomials.derivational_degree.exact_share = {share:.3f} (auto-mode calls)")
    lines.append(
        "  wait time: none to report; ringlab is single-threaded, so no layer waits on another"
    )
    return lines


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "ringlab" / "cli.py").is_file():
        raise BenchError(f"no ringlab sources under {ROOT / 'src'}")
    ref = load_reference(workload)
    try:
        validator = checks.make_validator(checks.load_schema(ROOT))
    except (OSError, ImportError) as exc:
        raise BenchError(f"cannot load the report schema: {exc}") from exc
    OUT.mkdir(exist_ok=True)
    runner = Runner(workload, seed)

    probes = [] if trace else [runner.spawn("setup") for _ in range(SETUP_STARTS - PASSES)]
    count = max(MIN_JOBS, math.ceil(workloads.JOBS_PER_SECOND[workload] * seconds / PASSES))
    first = runner.spawn("run", "--jobs", str(count))
    records = first.report["jobs"]
    count = len(records)
    manifest = write_manifest(workload, seed, records)
    failures = check_records(records, ref, validator)
    lines = [
        f"perfbench {workload} seed={seed}: {count} jobs per pass "
        "(closed loop, one client, fresh process per pass)",
        machine_line(first.report["numpy"]),
        f"manifest: {manifest.relative_to(ROOT)} (replay with `ringlab batch`)",
    ]
    coverage_gaps: list[str] = []
    if trace:
        spans = OUT / f"{workload}-spans.npz"
        traced = runner.spawn("run", "--jobs", str(count), "--spans", str(spans)).report
        failures = {**compare_passes(records, traced["jobs"]), **failures}
        layer, modules = tracing.layer_metrics(spans)
        coverage_gaps = [
            name for name in workloads.NAMED_LAYERS[workload] if layer[f"{name}.calls"] == 0
        ]
        untraced_rate = count / first.report["elapsed"]
        traced_rate = len(traced["jobs"]) / traced["elapsed"]
        table = layer_table(workload, layer, modules)
        table.append(
            f"tracing overhead: traced {traced_rate:.3f} jobs/s against untraced "
            f"{untraced_rate:.3f} jobs/s ({untraced_rate / traced_rate:.2f}x slower, "
            f"{count} jobs each)"
        )
        table.append(f"spans: {spans.relative_to(ROOT)}")
        (OUT / f"{workload}-layers.txt").write_text("\n".join(table) + "\n")
        lines += table
        for name in coverage_gaps:
            lines.append(f"COVERAGE: {name} has zero calls on {workload}")
        metrics = {
            name: {"value": value, "unit": LAYER_UNITS[name.rpartition(".")[2]]}
            for name, value in layer.items()
        }
    else:
        passes = [first] + [runner.spawn("run", "--jobs", str(count)) for _ in range(PASSES - 1)]
        for later in passes[1:]:
            failures = {**compare_passes(records, later.report["jobs"]), **failures}
        scales = [speed_scale(p.report) for p in passes]
        starts = probes + passes
        setups = [p.setup_s * speed_scale(p.report) for p in starts]

        def job_times(scaled: bool) -> list[float]:
            return [
                1000.0 * statistics.median(
                    p.report["jobs"][i][4] * (scale if scaled else 1.0)
                    for p, scale in zip(passes, scales)
                )
                for i in range(count)
            ]

        times_ms, raw_ms = job_times(True), job_times(False)
        values = {
            "jobs_per_s": 1000.0 * count / sum(times_ms),
            "job_ms_p50": percentile(times_ms, 50),
            "job_ms_p90": percentile(times_ms, 90),
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
            "setup_s": statistics.median(setups),
        }
        above = sum(t > values["job_ms_p90"] for t in times_ms)
        notes = {
            "jobs_per_s": f"{count} jobs; unscaled {1000.0 * count / sum(raw_ms):.4f}",
            "job_ms_p50": f"{count} jobs, median of {PASSES} passes each; "
            f"unscaled {percentile(raw_ms, 50):.4f}",
            "job_ms_p90": f"{count} jobs, {above} above; unscaled {percentile(raw_ms, 90):.4f}",
            "peak_rss_mb": f"median of {PASSES} passes' max RSS",
            "setup_s": f"median of {len(setups)} process starts; "
            f"unscaled {statistics.median(p.setup_s for p in starts):.4f}",
        }
        lines.append(
            "  speed scale per pass (reference / calibration median): "
            + " ".join(f"{scale:.3f}" for scale in scales)
        )
        for name, unit in END_TO_END.items():
            lines.append(f"  {name:<12} {values[name]:>12.4f} {unit:<4} ({notes[name]})")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    failed = len(failures)
    lines.append(f"  fail_ratio   {failed}/{count} = {failed / count:.4f}")
    for i in sorted(failures)[:10]:
        key = workloads.job_key(records[i][0])
        lines.append(f"FAILED job {i}: {key}: {'; '.join(failures[i][:3])}")
    print("\n".join(lines))
    return {
        "correct": failed == 0 and not coverage_gaps,
        "attempted": count,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="ringlab desk-scale benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
