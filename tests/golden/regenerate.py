"""Golden sweep outputs and graphs: write them, and compare fresh ones with them.

Each folder next to this file (``A``, ``B``, ``C``) holds a sweep's
``config.json`` and what ``run_experiment`` made from it: ``tradeoff.csv``,
``failures.csv`` and ``runs.json``, which maps every prediction dump to its
sha256 and every run's model file to its ``best_epoch``. ``C`` is the one
with a nonlinear model and background knowledge (``scm_kind`` nonlinear,
``bk_fraction`` 0.5). ``tests/test_golden.py`` reruns the sweeps and
compares them with ``compare``.

``graphs.json`` holds the graph layer's answers on twelve ``build_case``
graphs shaped like the benchmark's graph-scale workload (d = 30, 60, 120,
s = 3d/2, two admissible vertices, ``bk_fraction`` 0.5, config seeds 0-3):
the true DAG's CPDAG, the MPDAG, the sensitive vertex's critical set and
ancestral relation for every other vertex, and the IFair feature set. Five
more graphs are built in ``unidentifiable_mode`` with no extra background
knowledge (d = 30, s = 45, two admissible vertices, seeds 0, 2 and 9;
d = 10, s = 15, none admissible, seeds 11 and 17): their sensitive vertex
has possible descendants, and their records also hold the candidate MPDAGs,
which ``construct_mpdag`` builds one orientation at a time.
``tests/test_golden.py`` compares ``graph_records()`` with it exactly.

``criterion8.json`` holds the 90 runs of acceptance criterion 8's sweep (ten
d = 10, s = 20 graphs, config seed 2024, default training; each graph's runs
seeded by its graph id): graph id, model, lambda, best epoch, rmse and mmd2.
``tests/test_acceptance.py`` compares its ``tradeoff_sweep`` fixture's runs
with it by the rule of ``compare_rows``.

Rewrite every golden after a change that moves numbers, from the repository
root::

    PYTHONPATH=src python -m tests.golden.regenerate

It prints, per golden, the largest relative deviation of ``rmse`` and
``mmd2`` from the old files, and how many dumps changed bytes. To check
that a change leaves every golden byte for byte as it is, without writing
anything::

    PYTHONPATH=src python -m tests.golden.regenerate --check

It prints each file, dump hash, best epoch or graph record that moved and
exits with status 1 if any did. Either form takes golden names (``A``,
``B``, ``C``, ``graphs``, ``criterion8``) to do only those.
"""
from __future__ import annotations

import csv
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from fairmpdag.ancestry import ancestral_relations, critical_sets
from fairmpdag.fair_train import TrainConfig, Variant, feature_set
from fairmpdag.harness import (
    ExperimentConfig,
    GraphSetting,
    build_case,
    run_case,
    run_experiment,
    run_plan,
)
from fairmpdag.meek_engine import cpdag_from_dag

HERE = Path(__file__).parent
GOLDENS = ("A", "B", "C")
FLOAT_FIELDS = ("rmse", "mmd2")
TOLERANCE = 1e-9  # largest relative deviation of a float metric that still matches
GRAPHS = HERE / "graphs.json"
CRITERION8 = HERE / "criterion8.json"


def run_golden(name: str, out: Path) -> dict:
    """Run golden ``name``'s config into ``out``; returns its ``runs.json`` record."""
    cfg = ExperimentConfig.from_json((HERE / name / "config.json").read_text())
    result = run_experiment(cfg, out)
    dumps = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((out / "predictions").glob("*.csv"))
    }
    epochs = {}
    for row in result.rows:
        run = f"{row['setting']}_g{row['graph_id']}_{row['model']}_lam{row['lambda']}_s{row['seed']}"
        model = json.loads((out / "models" / f"{run}.json").read_text())
        epochs[f"models/{run}.json"] = model["best_epoch"]
    return {"dump_sha256": dumps, "best_epoch": epochs}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def compare_rows(label: str, want: list[dict], got: list[dict]) -> tuple[list[str], float, str]:
    """Compare rows ``got`` with golden rows ``want``: every field but
    ``rmse`` and ``mmd2`` must be equal, row by row.

    Returns the mismatches, the largest relative deviation of ``rmse`` and
    ``mmd2``, and where it was.
    """
    problems = []
    worst, where = 0.0, "no rows"
    if len(want) != len(got):
        problems.append(f"{label}: {len(got)} rows, golden has {len(want)}")
    for i, (w, g) in enumerate(zip(want, got)):
        fixed = {k: v for k, v in w.items() if k not in FLOAT_FIELDS}
        if fixed != {k: v for k, v in g.items() if k not in FLOAT_FIELDS}:
            problems.append(f"{label} row {i}: {g} != golden {w}")
            continue
        for key in FLOAT_FIELDS:
            a, b = float(g[key]), float(w[key])
            dev = abs(a - b) / abs(b) if b else abs(a)
            if dev >= worst:
                worst, where = dev, f"row {i} {key}: {a!r} vs golden {b!r}"
    return problems, worst, where


def compare(name: str, out: Path, runs: dict) -> tuple[list[str], float, str]:
    """Compare a fresh sweep in ``out`` (with its ``runs.json`` record ``runs``)
    with golden ``name``.

    Returns the mismatches of anything but a float metric (fields, row order,
    failures, best epochs, dump names), the largest relative deviation of
    ``rmse`` and ``mmd2``, and where it was.
    """
    golden = HERE / name
    problems, worst, where = compare_rows(
        "tradeoff.csv", _rows(golden / "tradeoff.csv"), _rows(out / "tradeoff.csv")
    )
    if (out / "failures.csv").read_text() != (golden / "failures.csv").read_text():
        problems.append("failures.csv differs")
    old = json.loads((golden / "runs.json").read_text())
    if runs["best_epoch"] != old["best_epoch"]:
        moved = sorted(k for k in old["best_epoch"] | runs["best_epoch"]
                       if old["best_epoch"].get(k) != runs["best_epoch"].get(k))
        problems.append(f"best_epoch differs for {moved}")
    if sorted(runs["dump_sha256"]) != sorted(old["dump_sha256"]):
        problems.append("the prediction dumps have other names")
    return problems, worst, where


def regenerate(name: str) -> None:
    """Rewrite golden ``name`` and print how far it moved."""
    golden = HERE / name
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        runs = run_golden(name, out)
        if (golden / "runs.json").exists():
            problems, worst, where = compare(name, out, runs)
            old = json.loads((golden / "runs.json").read_text())["dump_sha256"]
            changed = sum(old.get(k) != v for k, v in runs["dump_sha256"].items())
            print(f"{name}: largest relative deviation {worst:.3g} ({where}); "
                  f"{changed} of {len(runs['dump_sha256'])} dumps changed bytes")
            for problem in problems:
                print(f"{name}: {problem}")
        else:
            print(f"{name}: no earlier golden")
        for csv_name in ("tradeoff.csv", "failures.csv"):
            shutil.copyfile(out / csv_name, golden / csv_name)
    (golden / "runs.json").write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")


def _graph_configs():
    for d in (30, 60, 120):
        for seed in range(4):
            yield ExperimentConfig((GraphSetting(d, 3 * d // 2, 1, 2),), seed=seed, bk_fraction=0.5)
    for setting, seeds in ((GraphSetting(30, 45, 1, 2), (0, 2, 9)), (GraphSetting(10, 15, 1, 0), (11, 17))):
        for seed in seeds:
            yield ExperimentConfig((setting,), seed=seed, unidentifiable_mode=True)


def graph_records() -> list[dict]:
    """The graph layer's answers on the graph-golden cases, in ``graphs.json``'s form."""
    records = []
    for cfg in _graph_configs():
        case = build_case(cfg, 0, 0)
        g, s = case.mpdag, case.sensitive
        record = {
            "d": cfg.graph_settings[0].d,
            "seed": cfg.seed,
            "sensitive": s,
            "cpdag": cpdag_from_dag(case.scm.dag.induced_subgraph(g.names)).to_text(),
            "mpdag": g.to_text(),
            "critical_sets": {t: list(crit) for t, crit in critical_sets(g, s).items()},
            "relations": {t: kind.value for t, kind in ancestral_relations(g, s).items()},
            "ifair_features": list(feature_set(Variant.IFAIR, g, s, case.admissible)),
        }
        if cfg.unidentifiable_mode:
            record["unidentifiable_mode"] = True
            record["candidates"] = [c.to_text() for c in case.candidates]
        records.append(record)
    return records


def graph_label(record: dict) -> str:
    mode = " unidentifiable" if record.get("unidentifiable_mode") else ""
    return f"graph d={record['d']} seed={record['seed']}{mode}"


def graph_changes(old: list[dict], new: list[dict]) -> list[str]:
    """Each graph record of ``new`` that differs from ``old``, with its fields."""
    changes = [f"graphs: {len(new)} records, golden has {len(old)}"] if len(old) != len(new) else []
    for w, g in zip(old, new):
        differs = sorted(k for k in w.keys() | g.keys() if w.get(k) != g.get(k))
        if differs:
            changes.append(f"{graph_label(w)} differs in {differs}")
    return changes


def regenerate_graphs() -> None:
    """Rewrite ``graphs.json`` and print how many graphs changed."""
    records = graph_records()
    if GRAPHS.exists():
        old = json.loads(GRAPHS.read_text())
        changed = sum(a != b for a, b in zip(old, records)) + abs(len(old) - len(records))
        print(f"graphs: {changed} of {len(records)} graphs changed")
    else:
        print("graphs: no earlier golden")
    GRAPHS.write_text(json.dumps(records, indent=1) + "\n")


def criterion8_config() -> ExperimentConfig:
    """Acceptance criterion 8's sweep: ten 10-node/20-edge graphs, default training."""
    return ExperimentConfig(
        graph_settings=(GraphSetting(d=10, s=20, count=10),),
        seed=2024,
        sample_n=1000,
        interventional_n=1000,
        train=TrainConfig(),
    )


def criterion8_sweep(cfg: ExperimentConfig) -> tuple[list, list]:
    """Every graph's case, and every planned run as (graph id, variant, lambda,
    record, model). A graph's runs are seeded by its graph id, not by the
    per-run seeds ``run_graph`` derives."""
    cases, rows = [], []
    for gid in range(cfg.graph_settings[0].count):
        case = build_case(cfg, 0, gid)
        cases.append(case)
        for variant, lam in run_plan(cfg):
            record, model = run_case(cfg, case, variant, lam, gid)
            rows.append((gid, variant, lam, record, model))
    return cases, rows


def criterion8_records(rows) -> list[dict]:
    """The runs of ``criterion8_sweep`` in ``criterion8.json``'s form."""
    return [
        {"graph_id": gid, "model": variant.value, "lambda": lam,
         "best_epoch": model.best_epoch, "rmse": record.rmse, "mmd2": record.mmd2}
        for gid, variant, lam, record, model in rows
    ]


def regenerate_criterion8() -> None:
    """Rewrite ``criterion8.json`` and print how far it moved."""
    records = criterion8_records(criterion8_sweep(criterion8_config())[1])
    if CRITERION8.exists():
        problems, worst, where = compare_rows(
            "criterion8.json", json.loads(CRITERION8.read_text()), records
        )
        print(f"criterion8: largest relative deviation {worst:.3g} ({where})")
        for problem in problems:
            print(f"criterion8: {problem}")
    else:
        print("criterion8: no earlier golden")
    CRITERION8.write_text(json.dumps(records, indent=1) + "\n")


def check(name: str) -> list[str]:
    """What of golden ``name`` a fresh run does not reproduce byte for byte."""
    if name == "graphs":
        return graph_changes(json.loads(GRAPHS.read_text()), graph_records())
    if name == "criterion8":
        records = criterion8_records(criterion8_sweep(criterion8_config())[1])
        text = json.dumps(records, indent=1) + "\n"
        return [] if text == CRITERION8.read_text() else ["criterion8.json differs"]
    golden = HERE / name
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        runs = run_golden(name, out)
        moved = [f"{name}/{f} differs" for f in ("tradeoff.csv", "failures.csv")
                 if (out / f).read_bytes() != (golden / f).read_bytes()]
    old = json.loads((golden / "runs.json").read_text())
    for key in ("dump_sha256", "best_epoch"):
        moved += [f"{name}: {key} of {k} differs" for k in sorted(old[key].keys() | runs[key].keys())
                  if old[key].get(k) != runs[key].get(k)]
    return moved


def main(argv: list[str]) -> int:
    """Regenerate, or with ``--check`` compare, the named goldens (default all)."""
    checking = "--check" in argv
    names = [a for a in argv if a != "--check"] or [*GOLDENS, "graphs", "criterion8"]
    moved = 0
    for name in names:
        if checking:
            changes = check(name)
            for change in changes:
                print(change)
            print(f"{name}: {'moved' if changes else 'unchanged'}")
            moved += bool(changes)
        elif name == "graphs":
            regenerate_graphs()
        elif name == "criterion8":
            regenerate_criterion8()
        else:
            regenerate(name)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
