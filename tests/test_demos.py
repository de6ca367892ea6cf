"""Every demo runs to its end under the suite's warning filters.

The demos are run in-process through ``runpy``, so the ``filterwarnings``
of ``pyproject.toml`` apply to them: a dropped imaginary part or a
rank-deficient fit fails a demo here as it fails the rest of the suite.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
