"""Shared infrastructure for the figure-reproduction benches.

Figure results are memoised per session: several benches consume the
same figure (e.g. the §6.1 claims bench aggregates Figs 2-5), and each
figure is a multi-minute simulation at full scale.

Figures and every other bench simulation run as SimJobs through the
parallel execution layer (:mod:`repro.harness.parallel`), so they get
the result cache and the ``REPRO_*`` gates.  ``REPRO_BENCH_JOBS`` sets
the worker count (default 1 — sequential, the reference configuration)
and ``REPRO_BENCH_CACHE=1`` enables the on-disk result cache so a
repeated bench session under an unchanged model is nearly free.

Every bench writes its paper-style text report to
``benchmarks/results/<name>.txt`` *and* prints it, so the regenerated
rows/series are inspectable regardless of pytest's capture settings.
"""

from __future__ import annotations

import pathlib
from typing import Dict

import pytest

from repro.harness import (
    FIGURES,
    ParallelRunner,
    env_flag,
    env_int,
    run_figure,
)
from repro.harness.experiments import FigureResult, figure7_specs

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_figure_cache: Dict[str, FigureResult] = {}


def bench_jobs() -> int:
    """Worker count for bench figure runs (``REPRO_BENCH_JOBS``).

    A malformed value (``"four"``, ``"-2"``) warns and falls back to
    the sequential default instead of being silently swallowed.
    """
    return env_int("REPRO_BENCH_JOBS", 1)


def bench_cache() -> bool:
    """Whether bench runs use the on-disk cache (``REPRO_BENCH_CACHE``).

    Accepts the same boolean spellings as every other harness flag
    (``1/0``, ``true/false``, ``yes/no``, ``on/off``); a malformed
    value warns and reads as disabled rather than silently disagreeing
    with how the harness treats the variable elsewhere.
    """
    return env_flag("REPRO_BENCH_CACHE", False)


def bench_runner() -> ParallelRunner:
    """The runner every bench simulates through: ``REPRO_BENCH_JOBS``
    workers, and the on-disk cache when ``REPRO_BENCH_CACHE`` is set."""
    return ParallelRunner(jobs=bench_jobs(), use_cache=bench_cache())


def get_figure(figure_id: str) -> FigureResult:
    """Run (or fetch the memoised run of) one figure at bench scale."""
    if figure_id not in _figure_cache:
        kwargs = dict(runner=bench_runner())
        if figure_id.startswith("fig7"):
            for spec in figure7_specs():
                if spec.figure_id == figure_id:
                    _figure_cache[figure_id] = run_figure(spec, **kwargs)
                    break
            else:  # pragma: no cover - registry bug guard
                raise KeyError(figure_id)
        else:
            _figure_cache[figure_id] = run_figure(
                FIGURES[figure_id](), **kwargs
            )
    return _figure_cache[figure_id]


def publish(name: str, text: str) -> None:
    """Write a report file and echo it for the console log."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture(scope="session")
def figure():
    """Accessor fixture: ``figure('fig2')`` -> FigureResult."""
    return get_figure
