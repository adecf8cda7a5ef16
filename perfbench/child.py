"""One benchmark process: a single desk user running a workload's jobs.

Started by run.py, never by hand. It imports ringlab from the checkout's
`src`, generates the workload's job sequence, and then, by mode:

* `setup` stops as soon as the first job is ready;
* `run`   runs the first `--jobs` jobs back to back (closed loop, one
          client) through `ringlab.cli.main(argv)` with stdout captured.
          With `--spans` it first patches span tracing into ringlab and
          saves the spans there at the end.

Before every fourth job, outside that job's timing, it times a fixed
calibration kernel that runs no ringlab code (in `setup` mode, a few times
after the first job is ready); run.py uses these samples to scale times to
a reference machine speed.

It writes what it saw to `--out` as JSON: the monotonic time at which the
first job was ready, the calibration samples, and per job its argv, exit
code, stdout, stderr and wall time.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Stop a pass that cannot reach its job count, so that all passes of a run
# stay inside the 180 s limit.
HARD_CAP_S = 40.0
# One speed-calibration sample per this many jobs.
CAL_EVERY = 4


def calibrate(np) -> float:
    """Seconds for a fixed interpreter loop plus a numpy pass over 200k
    integers: a probe of the machine's current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    a = np.arange(200000)
    int((a * 7 % 13).sum())
    return time.perf_counter() - t0


def run_job(cli, argv: list[str], tracer, job_id: int) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(list(argv))
            else:
                code = tracer.run_job(job_id, cli.main, list(argv))
        except Exception:  # a traceback is a failed job, not a failed run
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--jobs", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, str(HERE.parent / "src"))
    from ringlab import cli

    import workloads

    sequence = workloads.jobs(args.workload, args.seed)
    argv = next(sequence)
    ready = time.monotonic()
    report: dict = {"ready": ready}
    import numpy

    if args.mode == "setup":
        report["calibration"] = [calibrate(numpy) for _ in range(CAL_EVERY)]
        Path(args.out).write_text(json.dumps(report))
        return

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    records = []
    calibration = []
    t_start = time.perf_counter()
    while True:
        if len(records) % CAL_EVERY == 0:
            calibration.append(calibrate(numpy))
        code, out, err, dt = run_job(cli, argv, tracer, len(records))
        records.append([argv, code, out, err, dt])
        elapsed = time.perf_counter() - t_start
        if len(records) >= args.jobs or elapsed >= HARD_CAP_S:
            break
        argv = next(sequence)
    report.update(
        elapsed=elapsed, jobs=records, calibration=calibration, numpy=numpy.__version__
    )
    if tracer is not None:
        tracer.save(Path(args.spans))
    Path(args.out).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
