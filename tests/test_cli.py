import json

import pytest

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


def test_parse_error_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("A -> B\nA => C\n")
    with pytest.raises(SystemExit) as exc:
        main(["cpdag", str(bad)])
    assert "bad.graph:2" in str(exc.value)


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


def test_missing_file_names_file(tmp_path):
    with pytest.raises(SystemExit, match="none.graph: "):
        main(["cpdag", str(tmp_path / "none.graph")])
