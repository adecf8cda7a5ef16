"""Replay every distinct pool job of the benchmark's workloads through its
report checks.

    python3 tools/replay_pools.py

For each workload (catalog, ladder, batch), every argv that
`perfbench/workloads.pool` lists is run once through `ringlab.cli.main`
in this process, and `perfbench/checks.check_job` compares its exit code
and report with `perfbench/reference/<workload>.json`. Prints one line per
failing job and a count per workload; exits 1 if any job has a problem.
The benchmark's traced smoke reaches only the jobs its short run draws;
this reaches all of them.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from ringlab.cli import main as cli_main  # noqa: E402


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    validator = checks.make_validator(checks.load_schema(ROOT))
    total = 0
    for workload in workloads.WORKLOADS:
        ref = json.loads((ROOT / "perfbench" / "reference" / f"{workload}.json").read_text())
        jobs = workloads.pool(workload)
        t0 = time.perf_counter()
        failed = 0
        for argv in jobs:
            code, stdout, stderr = run(argv)
            entry = ref["jobs"].get(workloads.job_key(argv))
            problems = checks.check_job(argv, code, stdout, stderr, entry, ref["rings"], validator)
            if problems:
                failed += 1
                print(f"{workload}: {workloads.job_key(argv)}: {'; '.join(problems)}")
        total += failed
        print(f"{workload}: {len(jobs)} jobs, {failed} with problems, "
              f"{time.perf_counter() - t0:.1f} s")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
