"""The three workloads: inputs drawn from the seed, one timed pass each.

A pass is the unit the benchmark repeats until its time is up. Every pass
draws fresh graphs from the seed's stream, but always of the same kinds
(strata), so two runs with different seeds do the same amount of work and
their timings can be compared. Only the calls into the program are timed;
screening, checks and reading outputs back are not.

Training runs use the default ``TrainConfig`` and lambda grid except for
``epochs``: it is capped at ``EPOCHS``, below the default patience, so early
stopping never fires and every run trains exactly ``EPOCHS`` epochs. That
keeps one pass within a few seconds on two cores and keeps the number of
epochs per pass fixed; the per-epoch work is that of the full sweep.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import tempfile
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from fairmpdag import cli, fair_train, harness
from fairmpdag.fair_train import Variant
from fairmpdag.harness import ExperimentConfig
from fairmpdag.scm_lab import derive_seed

from checks import finite

EPOCHS = 10


@dataclass
class PassResult:
    seconds: float = 0.0  # time spent inside the program
    cases: int = 0
    attempted: int = 0
    records: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # failed output checks

    def fail(self, count: int, **failure) -> None:
        """``count`` planned runs that failed for one reason."""
        self.attempted += count
        self.failures.extend([failure] * count)


def _config_seed(workload: str, seed: int, k: int) -> int:
    """Config seed of the ``k``-th graph drawn for ``workload`` under ``seed``."""
    key = [zlib.crc32(workload.encode()), seed, k]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _config(d: int, s: int, seed: int, admissible: int = 0, **extra) -> dict:
    return {
        "graph_settings": [{"d": d, "s": s, "count": 1, "admissible_count": admissible}],
        "seed": seed,
        "sample_n": 1000,
        "interventional_n": 1000,
        "bk_fraction": 0.0,
        "scm_kind": "linear",
        "unidentifiable_mode": False,
        "train": {"epochs": EPOCHS},
    } | extra


def load_config(conf: dict) -> ExperimentConfig:
    return ExperimentConfig.from_json(json.dumps(conf))


class _Screened:
    """Draws graphs from the seed's stream and files each under its stratum.

    A graph whose build fails is not skipped silently: it is returned as a
    failure of the next pass, with its exception type.
    """

    name: str
    settings: tuple[tuple[int, int], ...]
    strata: tuple[str, ...]

    def __init__(self, seed: int, workdir: Path, probe) -> None:
        self.seed = seed
        self.workdir = workdir
        self.probe = probe
        self.drawn = 0
        self.queues = {stratum: deque() for stratum in self.strata}
        self.build_failures: list[dict] = []

    def config(self, k: int) -> dict:
        d, s = self.settings[k % len(self.settings)]
        return _config(d, s, _config_seed(self.name, self.seed, k))

    def stratum(self, case) -> str | None:
        raise NotImplementedError

    def first_config(self) -> dict:
        return self.config(0)

    def next_inputs(self) -> dict:
        while not all(self.queues.values()):
            conf = self.config(self.drawn)
            self.drawn += 1
            try:
                case = harness.build_case(load_config(conf), 0, 0)
            except Exception as exc:  # noqa: BLE001 - counted as a failed graph
                self.build_failures.append((_plan_size(conf), _failure("build", conf, exc)))
                continue
            stratum = self.stratum(case)
            if stratum is not None:
                self.queues[stratum].append(conf)
        failures, self.build_failures = self.build_failures, []
        jobs = [(s, self.queues[s].popleft()) for s in self.strata]
        return {"jobs": jobs, "failures": failures}


def _plan_size(conf: dict) -> int:
    return len(harness.run_plan(load_config(conf)))


def _failure(stage: str, conf: dict, exc: BaseException, **extra) -> dict:
    return {
        "stage": stage,
        "graph": conf["seed"],
        "type": type(exc).__name__,
        "error": str(exc)[:200],
    } | extra


class SweepId(_Screened):
    """Criterion-8 shape through ``fairmpdag experiment``: one 2-level and one
    3-level graph per pass, d=10, s=20, all nine plan entries each."""

    name = "sweep-id"
    settings = ((10, 20),)
    strata = ("2-level", "3-level")

    def stratum(self, case) -> str | None:
        return f"{len(case.levels)}-level"

    def run_pass(self, inputs: dict) -> PassResult:
        result = PassResult()
        for count, failure in inputs["failures"]:
            result.fail(count, **failure)
        for stratum, conf in inputs["jobs"]:
            out = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.workdir))
            try:
                config_path = out / "config.json"
                config_path.write_text(json.dumps(conf))
                self.probe.errors.clear()
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                        io.StringIO()
                    ):
                        cli.main(["experiment", str(config_path), "--out", str(out)])
                except SystemExit as exc:
                    result.seconds += time.perf_counter() - start
                    result.fail(_plan_size(conf), **_failure("experiment", conf, exc))
                    continue
                result.seconds += time.perf_counter() - start
                result.cases += 1
                self._collect(stratum, conf, out, result)
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return result

    def _collect(self, stratum: str, conf: dict, out: Path, result: PassResult) -> None:
        planned = _plan_size(conf)
        rows = _read_csv(out / "tradeoff.csv")
        failed = _read_csv(out / "failures.csv")
        # failures.csv keeps only the message; the probe saw the exception itself
        types = [error["type"] for error in self.probe.errors]
        if len(types) != len(failed):
            result.problems.append(
                f"graph {conf['seed']}: failures.csv lists {len(failed)} failures, "
                f"{len(types)} exceptions were raised"
            )
        types += ["unknown"] * len(failed)
        for row, kind in zip(failed, types):
            result.fail(
                planned if row["stage"] == "build" else 1,
                stage=row["stage"],
                graph=conf["seed"],
                model=row["model"],
                **{"lambda": row["lambda"]},
                type=kind,
                error=row["error"][:200],
            )
        for row in rows:
            record = {
                "graph": conf["seed"],
                "stratum": stratum,
                "model": row["model"],
                "lambda": float(row["lambda"]),
                "rmse": float(row["rmse"]),
                "mmd2": float(row["mmd2"]),
            }
            _add_run(result, record, conf)
        accounted = len(rows) + sum(planned if r["stage"] == "build" else 1 for r in failed)
        if accounted != planned:
            result.problems.append(
                f"graph {conf['seed']}: {accounted} of {planned} planned runs accounted for"
            )


def _add_run(result: PassResult, record: dict, conf: dict) -> None:
    """One planned run: a finite row, or a failure when rmse or mmd2 is not."""
    result.attempted += 1
    result.records.append(record)
    if not finite(record["rmse"], record["mmd2"]):
        result.failures.append(
            {
                "stage": "evaluate",
                "graph": conf["seed"],
                "model": record["model"],
                "lambda": record["lambda"],
                "type": "NonFiniteMetric",
                "error": f"rmse={record['rmse']!r} mmd2={record['mmd2']!r}",
            }
        )


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class SweepUnid(_Screened):
    """Candidate-averaged mode: sparse graphs whose effect is not identifiable,
    one with two and one with three candidate graphs per pass, both with a
    2-level sensitive vertex, run through ``harness.run_case``."""

    name = "sweep-unid"
    settings = ((10, 12), (11, 13), (12, 14))
    strata = ("2-candidates", "3-candidates")

    def config(self, k: int) -> dict:
        return super().config(k) | {"unidentifiable_mode": True}

    def stratum(self, case) -> str | None:
        if len(case.levels) != 2 or len(case.candidates) not in (2, 3):
            return None
        return f"{len(case.candidates)}-candidates"

    def run_pass(self, inputs: dict) -> PassResult:
        result = PassResult()
        for count, failure in inputs["failures"]:
            result.fail(count, **failure)
        for stratum, conf in inputs["jobs"]:
            cfg = load_config(conf)
            start = time.perf_counter()
            try:
                case = harness.build_case(cfg, 0, 0)
            except Exception as exc:  # noqa: BLE001 - counted
                result.seconds += time.perf_counter() - start
                result.fail(_plan_size(conf), **_failure("build", conf, exc))
                continue
            run_seed = derive_seed(cfg.seed, 5, 0, 0, 0)
            for variant, lam in harness.run_plan(cfg):
                try:
                    record, _ = harness.run_case(cfg, case, variant, lam, run_seed)
                except Exception as exc:  # noqa: BLE001 - counted
                    result.fail(
                        1, **_failure("train", conf, exc, model=variant.value, **{"lambda": lam})
                    )
                    continue
                _add_run(
                    result,
                    {
                        "graph": conf["seed"],
                        "stratum": stratum,
                        "model": variant.value,
                        "lambda": lam,
                        "rmse": record.rmse,
                        "mmd2": record.mmd2,
                    },
                    conf,
                )
            result.seconds += time.perf_counter() - start
            result.cases += 1
        return result


class GraphScale:
    """No training: one case at each of d=30, 60 and 120 per pass, built
    through ``harness.build_case``, plus the IFair feature set."""

    sizes = (30, 60, 120)

    def __init__(self, seed: int, workdir: Path, probe) -> None:
        self.seed = seed
        self.drawn = 0

    def first_config(self) -> dict:
        return self.next_inputs()["jobs"][0][1]

    def next_inputs(self) -> dict:
        jobs = []
        for d in self.sizes:
            seed = _config_seed("graph-scale", self.seed, self.drawn)
            jobs.append((f"d={d}", _config(d, 3 * d // 2, seed, admissible=2, bk_fraction=0.5)))
            self.drawn += 1
        return {"jobs": jobs, "failures": []}

    def run_pass(self, inputs: dict) -> PassResult:
        result = PassResult()
        for stratum, conf in inputs["jobs"]:
            cfg = load_config(conf)
            result.attempted += 1
            start = time.perf_counter()
            try:
                case = harness.build_case(cfg, 0, 0)
                features = fair_train.feature_set(
                    Variant.IFAIR, case.mpdag, case.sensitive, case.admissible
                )
            except Exception as exc:  # noqa: BLE001 - counted
                result.seconds += time.perf_counter() - start
                result.failures.append(_failure("build", conf, exc))
                continue
            result.seconds += time.perf_counter() - start
            result.cases += 1
            result.records.append(
                {
                    "graph": conf["seed"],
                    "stratum": stratum,
                    "levels": len(case.levels),
                    "ifair_features": len(features),
                }
            )
        return result


WORKLOADS = {"sweep-id": SweepId, "sweep-unid": SweepUnid, "graph-scale": GraphScale}
