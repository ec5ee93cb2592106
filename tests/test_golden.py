"""Fixed sweeps and graphs against their checked-in outputs (``tests/golden``).

Everything but ``rmse`` and ``mmd2`` must match exactly: fields, row order,
failures, each model's ``best_epoch`` and the dump names. The two metrics
may move by a relative 1e-9, so the test holds on a BLAS that rounds
differently; byte identity of the files is checked by regenerating the
goldens with ``--check`` (``python -m tests.golden.regenerate --check``),
which reports every changed file, dump hash and graph record and writes
nothing.
The graph golden holds no floats and is compared exactly, field by field:
CPDAG, MPDAG, critical sets, ancestral relations, IFair features and, for
the ``unidentifiable_mode`` graphs, the candidate MPDAGs.
"""
import json

import pytest

from .golden import regenerate
from .golden.regenerate import (
    GOLDENS,
    GRAPHS,
    TOLERANCE,
    compare,
    graph_changes,
    graph_records,
    main,
    run_golden,
)


@pytest.mark.parametrize("name", GOLDENS)
def test_sweep_matches_its_golden(name, tmp_path):
    runs = run_golden(name, tmp_path)
    problems, worst, where = compare(name, tmp_path, runs)
    assert not problems
    assert worst <= TOLERANCE, f"largest relative deviation {worst:.3g} at {where}"


def test_graphs_match_their_golden():
    assert not graph_changes(json.loads(GRAPHS.read_text()), graph_records())


def test_check_mode_exit_status_on_the_graph_golden(tmp_path, monkeypatch, capsys):
    assert main(["--check", "graphs"]) == 0
    assert "graphs: unchanged" in capsys.readouterr().out
    text = GRAPHS.read_text()
    moved = json.loads(text)
    moved[-1]["candidates"] = moved[-1]["candidates"][::-1]
    monkeypatch.setattr(regenerate, "graph_records", lambda: moved)
    assert main(["--check", "graphs"]) == 1
    out = capsys.readouterr().out
    assert "graph d=10 seed=17 unidentifiable differs in ['candidates']" in out
    assert GRAPHS.read_text() == text
