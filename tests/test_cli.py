import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairmpdag
from fairmpdag import ancestry
from fairmpdag.cli import main

from .conftest import BK_DEMO_DAG, NINE_BUCKETS


@pytest.fixture
def demo_files(tmp_path):
    dag = tmp_path / "demo.graph"
    dag.write_text(BK_DEMO_DAG)
    bk = tmp_path / "bk.txt"
    bk.write_text("A -> B\nA -> C\nA -> D\nA -> N\n")
    nine = tmp_path / "nine.graph"
    nine.write_text(NINE_BUCKETS)
    return dag, bk, nine


def test_cpdag_output(demo_files, capsys):
    dag, _, _ = demo_files
    assert main(["cpdag", str(dag)]) == 0
    out = capsys.readouterr().out
    assert "A -- B" in out and "A -- N" in out and "C -> M" in out
    assert "A -> B" not in out


def test_mpdag_output(demo_files, capsys):
    dag, bk, _ = demo_files
    cpdag_path = dag.parent / "cpdag.graph"
    main(["cpdag", str(dag)])
    cpdag_path.write_text(capsys.readouterr().out)
    assert main(["mpdag", str(cpdag_path), str(bk)]) == 0
    out = capsys.readouterr().out
    assert "A -> B" in out and "B -> F" in out and "C -- N" in out


def test_pco_golden_line(demo_files, capsys):
    _, _, nine = demo_files
    assert main(["pco", str(nine)]) == 0
    assert capsys.readouterr().out.strip() == "{B,C} < {A,E} < {M,L} < {D} < {R} < {N}"


def test_identify_golden_formula(demo_files, capsys):
    _, _, nine = demo_files
    assert main(["identify", str(nine), "--do", "A", "E"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "f(n|a,m,l,r) f(r|e) f(d|b,e) f(m,l) f(b,c)"
    assert out[1] == "identifiable"


def test_identify_unidentifiable_counts(tmp_path, capsys):
    g = tmp_path / "pair.graph"
    g.write_text("A -- X\n")
    assert main(["identify", str(g), "--do", "A"]) == 0
    assert "not identifiable: 2 candidate MPDAGs" in capsys.readouterr().out


@pytest.mark.parametrize("n, count", [(7, "64"), (12, "more than 64")])
def test_identify_stops_past_the_candidate_cap(tmp_path, capsys, n, count):
    # do(V0) on the complete undirected graph has 2^(n-1) candidates: 64 at
    # n = 7, the sweep's default cap, and 2,048 at n = 12, which the search
    # stops counting after the 65th
    names = [f"V{i}" for i in range(n)]
    g = tmp_path / "complete.graph"
    g.write_text("".join(f"{a} -- {b}\n" for i, a in enumerate(names) for b in names[i + 1:]))
    assert main(["identify", str(g), "--do", "V0"]) == 0
    assert capsys.readouterr().out == f"not identifiable: {count} candidate MPDAGs\n"


CYCLE = "A -- B\nB -- C\nC -- D\nD -- A\n"
CYCLE_ERROR = "no consistent extension: none of A, B, C, D can come last"


def test_identify_without_consistent_extension_exits_with_one_line(tmp_path):
    # the chordless 4-cycle is its own Meek closure but has no DAG in its
    # class; the load-time check rejects it before the candidate search
    g = tmp_path / "cycle.graph"
    g.write_text(CYCLE)
    done = run_cli(["identify", str(g), "--do", "A"])
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"{g}: {CYCLE_ERROR}\n"


@pytest.mark.parametrize("command", [["pco"], ["relations", "--sensitive", "A"],
                                     ["mpdag", "bk"]])
def test_graph_without_consistent_extension_exits_with_one_line(tmp_path, command):
    # relations called C a definite descendant of A, pco printed one bucket,
    # and mpdag blamed the background-knowledge file for the cycle
    g = tmp_path / "cycle.graph"
    g.write_text(CYCLE)
    (tmp_path / "bk").write_text("A -> B\n")
    args = [command[0], str(g)] + [str(tmp_path / a) if a == "bk" else a for a in command[1:]]
    done = run_cli(args)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"{g}: {CYCLE_ERROR}\n"


def run_cli(args):
    """The CLI in a fresh interpreter, for its exit code and streams."""
    src = str(Path(fairmpdag.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "fairmpdag.cli", *args],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command", [["identify", "--do", "B"], ["pco"],
                                     ["relations", "--sensitive", "A"], ["mpdag", "bk"]])
def test_graph_not_its_own_closure_exits_with_one_line(tmp_path, capsys, command):
    # R1 orients B -> C; on the closed graph do(B) is identifiable, and the
    # "candidate" C -> B would add the unshielded collider A -> B <- C
    g = tmp_path / "unclosed.graph"
    g.write_text("A -> B\nB -- C\n")
    (tmp_path / "bk").write_text("A -> B\n")
    args = [command[0], str(g)] + [str(tmp_path / a) if a == "bk" else a for a in command[1:]]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert str(exc.value) == f"{g}: not closed under Meek's rules: they orient B -> C"
    assert capsys.readouterr().out == ""
    if command[0] == "identify":
        done = run_cli(args)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"{exc.value}\n"


def test_relations_output(demo_files, capsys):
    dag, bk, _ = demo_files
    cpdag_path = dag.parent / "cpdag.graph"
    main(["cpdag", str(dag)])
    cpdag_path.write_text(capsys.readouterr().out)
    mpdag_path = dag.parent / "mpdag.graph"
    main(["mpdag", str(cpdag_path), str(bk)])
    mpdag_path.write_text(capsys.readouterr().out)
    assert main(["relations", str(mpdag_path), "--sensitive", "A"]) == 0
    out = capsys.readouterr().out
    assert "definite_non_descendant: E" in out


def test_relations_makes_one_critical_set_search(demo_files, capsys, monkeypatch):
    _, _, nine = demo_files
    sources = []
    search = ancestry.critical_sets

    def spy(g, s):
        sources.append(s)
        return search(g, s)

    monkeypatch.setattr(ancestry, "critical_sets", spy)
    assert main(["relations", str(nine), "--sensitive", "A"]) == 0
    assert sources == ["A"]
    assert capsys.readouterr().out == (
        "definite_descendant: N\ndefinite_non_descendant: B,C,M,L\npossible_descendant: D,E,R\n"
    )


def test_parse_error_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("A -> B\nA => C\n")
    with pytest.raises(SystemExit) as exc:
        main(["cpdag", str(bad)])
    assert str(exc.value) == f"{bad}:2: unknown token in 'A => C'"


def test_experiment_end_to_end(tmp_path, capsys):
    config = {
        "graph_settings": [{"d": 4, "s": 4, "count": 1}],
        "seed": 7,
        "sample_n": 200,
        "interventional_n": 150,
        "train": {"epochs": 30, "patience": 15, "lambda_grid": [0.0, 5.0]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    code = main(["experiment", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    tradeoff = (out_dir / "tradeoff.csv").read_text()
    assert tradeoff.splitlines()[0] == "setting,graph_id,model,lambda,seed,rmse,mmd2"
    # 3 baselines + 2 lambda values, one graph, one seed
    assert len(tradeoff.splitlines()) == 1 + 5
    assert (out_dir / "failures.csv").read_text().strip() == (
        "setting,graph_id,model,lambda,seed,stage,error"
    )
    # byte-identical rerun
    out2 = tmp_path / "out2"
    main(["experiment", str(cfg_path), "--out", str(out2)])
    assert (out2 / "tradeoff.csv").read_bytes() == (out_dir / "tradeoff.csv").read_bytes()
    preds = sorted((out_dir / "predictions").iterdir())
    assert len(preds) == 5
    assert preds[0].read_text().splitlines()[0] == "sensitive_value,prediction"


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"graph_settings": [{"d": 4, "s": 3, "count": 1}], "train": {"epoch": 3}}',
         "train: unknown key 'epoch'"),
        ('{"graph_settings": [{"d": 4, "s": 9, "count": 1}]}', "graph_settings[0]: s must be"),
        ('{"graph_settings": [', "line 1 column 21"),
        ('{"graph_settings": [{"d": 4, "s": 3, "count": 1}], "seed": 1, "seed": 2}',
         "config: repeated key 'seed'"),
    ],
)
def test_experiment_bad_config_names_file(tmp_path, text, named):
    config = tmp_path / "bad.json"
    config.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["experiment", str(config), "--out", str(tmp_path / "out")])
    message = str(exc.value)
    assert message.startswith(f"{config}: ") and named in message
    assert not (tmp_path / "out").exists()  # rejected before the sweep starts


def test_experiment_diverged_runs_are_train_failures(tmp_path):
    # the objective overflows at these lambdas; such a run stops and writes nothing
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "graph_settings": [{"d": 6, "s": 6, "count": 1}],
        "train": {"lambda_grid": [1e300, 1e308], "epochs": 50},
    }))
    out = tmp_path / "out"
    assert main(["experiment", str(config), "--out", str(out)]) == 2
    rows = list(csv.DictReader((out / "tradeoff.csv").read_text().splitlines()))
    assert [r["model"] for r in rows] == ["full", "unaware", "ifair"]
    failures = list(csv.DictReader((out / "failures.csv").read_text().splitlines()))
    assert [(f["model"], f["lambda"], f["stage"], f["error"]) for f in failures] == [
        ("eps_ifair", lam, "train", "validation objective is inf at epoch 1")
        for lam in ("1e+300", "1e+308")
    ]
    assert not list(out.glob("*/*eps_ifair*"))


def test_missing_file_names_file(tmp_path):
    with pytest.raises(SystemExit, match="none.graph: "):
        main(["cpdag", str(tmp_path / "none.graph")])


def test_experiment_missing_cpdag_file_names_path(tmp_path):
    (tmp_path / "learned").mkdir()
    (tmp_path / "learned" / "4nodes3edges_g0.graph").write_text("A -> B\n")
    for cpdag_dir, missing in (
        ("none", "none"),
        ("learned", "learned/4nodes3edges_g1.graph"),
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "graph_settings": [{"d": 4, "s": 3, "count": 2}],
            "cpdag_dir": str(tmp_path / cpdag_dir),
        }))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", str(config), "--out", str(tmp_path / "out")])
        assert str(exc.value) == (
            f"{config}: config: cpdag_dir: no such file or directory '{tmp_path / missing}'"
        )
        assert not (tmp_path / "out").exists()


def test_experiment_out_that_is_not_a_directory_exits_with_one_line(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"graph_settings": [{"d": 4, "s": 3, "count": 1}]}')
    out = tmp_path / "notadir"
    out.write_text("a file\n")
    done = run_cli(["experiment", str(config), "--out", str(out)])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith(f"{out}: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert out.read_text() == "a file\n"


def test_cold_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy alone would double the start-up time
    src = str(Path(fairmpdag.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, fairmpdag, fairmpdag.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
