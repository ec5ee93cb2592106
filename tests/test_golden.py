"""Fixed sweeps and graphs against their checked-in outputs (``tests/golden``).

Everything but ``rmse`` and ``mmd2`` must match exactly: fields, row order,
failures, each model's ``best_epoch`` and the dump names. The two metrics
may move by a relative 1e-9, so the test holds on a BLAS that rounds
differently; byte identity of the files is checked by regenerating the
goldens (``python -m tests.golden.regenerate``), which reports changed dumps.
The graph golden holds no floats and is compared exactly, field by field:
CPDAG, MPDAG, critical sets, ancestral relations and IFair features.
"""
import json

import pytest

from .golden.regenerate import GOLDENS, GRAPHS, compare, graph_records, run_golden

TOLERANCE = 1e-9


@pytest.mark.parametrize("name", GOLDENS)
def test_sweep_matches_its_golden(name, tmp_path):
    runs = run_golden(name, tmp_path)
    problems, worst, where = compare(name, tmp_path, runs)
    assert not problems
    assert worst <= TOLERANCE, f"largest relative deviation {worst:.3g} at {where}"


def test_graphs_match_their_golden():
    want = json.loads(GRAPHS.read_text())
    got = graph_records()
    assert len(got) == len(want)
    for w, g in zip(want, got):
        differs = sorted(k for k in w.keys() | g.keys() if w.get(k) != g.get(k))
        assert not differs, f"graph d={w['d']} seed={w['seed']} differs in {differs}"
