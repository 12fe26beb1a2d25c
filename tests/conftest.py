"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.cost.annotator import SimulatedAnnotator
from repro.cost.model import CostModel
from repro.generators.datasets import LabelledKG, make_movie_like, make_nell_like, make_yago_like
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.labels.oracle import LabelOracle

GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current trajectories "
        "instead of comparing against them",
    )


@pytest.fixture(autouse=True)
def _hermetic_planner_profile(tmp_path, monkeypatch) -> None:
    """Point the planner's calibration profile at the test's tmp dir.

    Setting ``REPRO_PLANNER_PROFILE`` names a profile, so multi-shard
    ``evaluate`` runs fold their wall-clock into it and save it; the
    per-test path keeps one test's timing from steering a later test's plan,
    and no test reads the developer's ``~/.cache/repro/planner.json``.
    Subprocesses started by a test inherit the redirect.
    """
    monkeypatch.setenv("REPRO_PLANNER_PROFILE", str(tmp_path / "planner.json"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item: pytest.Item):
    """Enforce ``@pytest.mark.timeout(N)`` as a hard SIGALRM deadline.

    The RPC suite talks to real subprocesses over real sockets; a protocol
    bug must fail the test, not hang the whole run.  POSIX-only (SIGALRM);
    elsewhere the marker is a no-op.
    """
    marker = item.get_closest_marker("timeout")
    if marker is None or not hasattr(signal, "SIGALRM"):
        return (yield)
    seconds = int(marker.args[0]) if marker.args else 60

    def _expired(signum, frame):
        raise TimeoutError(f"{item.nodeid} exceeded its hard {seconds}s timeout")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class GoldenStore:
    """Compare a payload against a checked-in golden JSON file.

    ``check(name, payload)`` asserts exact equality (floats survive the JSON
    round-trip bit-for-bit via ``repr``-based serialisation) against
    ``tests/golden/<name>.json``.  With ``--update-golden`` the file is
    rewritten instead — review the diff before committing it: every change
    is an intentional trajectory shift.
    """

    def __init__(self, update: bool) -> None:
        self.update = update

    def check(self, name: str, payload) -> None:
        path = GOLDEN_DIR / f"{name}.json"
        if self.update:
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            return
        if not path.is_file():
            pytest.fail(
                f"golden file {path} is missing; run "
                f"`pytest {Path(__file__).parent.name} --update-golden` and commit it"
            )
        recorded = json.loads(path.read_text())
        assert payload == recorded, (
            f"trajectory diverged from {path.name}; if the change is intentional, "
            "regenerate with --update-golden and review the diff"
        )


@pytest.fixture()
def golden(request: pytest.FixtureRequest) -> GoldenStore:
    """Golden-file comparator honouring the ``--update-golden`` flag."""
    return GoldenStore(request.config.getoption("--update-golden"))


def build_toy_kg() -> tuple[KnowledgeGraph, LabelOracle]:
    """A small handcrafted KG with exactly known cluster structure and labels.

    Layout (entity: sizes / correct counts):

    * ``athlete_1``: 4 triples, 3 correct (accuracy 0.75)
    * ``athlete_2``: 2 triples, 2 correct (accuracy 1.0)
    * ``movie_1``:   6 triples, 3 correct (accuracy 0.5)
    * ``city_1``:    1 triple, 0 correct (accuracy 0.0)

    Total: 13 triples, 8 correct → overall accuracy 8/13 ≈ 0.6154.
    """
    spec = {
        "athlete_1": [True, True, True, False],
        "athlete_2": [True, True],
        "movie_1": [True, False, True, False, True, False],
        "city_1": [False],
    }
    graph = KnowledgeGraph(name="toy")
    labels: dict[Triple, bool] = {}
    for entity, flags in spec.items():
        for index, flag in enumerate(flags):
            triple = Triple(entity, f"predicate_{index}", f"object_{entity}_{index}")
            graph.add(triple)
            labels[triple] = flag
    return graph, LabelOracle(labels)


@pytest.fixture()
def toy_kg() -> tuple[KnowledgeGraph, LabelOracle]:
    """Fresh toy KG and oracle for each test."""
    return build_toy_kg()


@pytest.fixture()
def toy_graph(toy_kg) -> KnowledgeGraph:
    return toy_kg[0]


@pytest.fixture()
def toy_oracle(toy_kg) -> LabelOracle:
    return toy_kg[1]


@pytest.fixture()
def toy_annotator(toy_oracle) -> SimulatedAnnotator:
    """Deterministic annotator (no timing noise) over the toy oracle."""
    return SimulatedAnnotator(toy_oracle, cost_model=CostModel(), seed=0)


@pytest.fixture(scope="session")
def nell() -> LabelledKG:
    """Session-scoped NELL-like dataset (≈1 800 triples)."""
    return make_nell_like(seed=0)


@pytest.fixture(scope="session")
def yago() -> LabelledKG:
    """Session-scoped YAGO-like dataset (≈1 400 triples, 99% accurate)."""
    return make_yago_like(seed=0)


@pytest.fixture(scope="session")
def movie_small() -> LabelledKG:
    """Session-scoped, heavily scaled MOVIE-like dataset (fast tests)."""
    return make_movie_like(seed=0, scale=0.005)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic random generator."""
    return np.random.default_rng(1234)
