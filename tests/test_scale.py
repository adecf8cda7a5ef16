"""tools/scale.py, the one list of the checks that CI runs after these
tests: its cells are named once and say why they exist, and its runner
fails a cell on a false expectation, a timeout or a wrong exit code."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("scale", ROOT / "tools" / "scale.py")
scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale)


def test_cells_are_named_once_and_give_their_reason():
    names = [cell.name for cell in scale.CELLS]
    assert len(names) == len(set(names)) == 22
    assert all(cell.why.strip() and cell.steps for cell in scale.CELLS)


@pytest.mark.parametrize("step, reason", [
    (scale.report("ring", "info", "Z/4", order=5), "ring info Z/4: order = 4, want 5"),
    (scale.report("ring", "info", "Z/4", timeout=0.001),
     "python -m ringlab.cli ring info Z/4: killed at its timeout of 0.001 s"),
    (scale.refused(2, "ring", "info", "Z/4"), "python -m ringlab.cli ring info Z/4: exit 0, want 2"),
], ids=["false-expectation", "timeout", "wrong-exit-code"])
def test_runner_fails_a_cell_whose_check_does_not_hold(step, reason, capsys):
    holds = scale.report("ring", "info", "Z/4", order=4, units=2, prime_profile=[[2, 2]])
    cells = [scale.Cell("holds", "a true report", [holds]), scale.Cell("breaks", "one false step", [holds, step])]
    assert scale.run_cells(cells) == 1
    first, second, total = capsys.readouterr().out.splitlines()
    assert first.startswith("holds ") and first.endswith(" MB  ok")
    assert second.startswith("breaks ") and second.endswith(f" MB  FAIL {reason}")
    assert total == "2 cells, 1 failed"


def test_a_peak_ceiling_fails_its_cell_above_it(capsys):
    """peak_below reads the largest child of the cell so far: a ceiling of
    1 MB fails after any CLI job, one of 10,000 MB holds."""
    holds = scale.report("ring", "info", "Z/4", order=4)
    cells = [scale.Cell("roomy", "a high ceiling", [holds, scale.peak_below(10_000)]),
             scale.Cell("tight", "a ceiling below any job", [holds, scale.peak_below(1)])]
    assert scale.run_cells(cells) == 1
    first, second, _ = capsys.readouterr().out.splitlines()
    assert first.endswith(" MB  ok")
    assert "MB  FAIL peak RSS " in second and second.endswith(" MB, want below 1")


def test_ci_runs_the_cli_only_through_the_harness():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert "ringlab.cli" not in workflow
    assert workflow.count("- name:") == 3 and "run: python tools/scale.py" in workflow
