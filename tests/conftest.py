"""Shared fixtures: hand-checked small instances and random pools.

Also a per-test hang guard: a test still running after
:data:`TEST_DEADLINE_S` seconds ends the whole run with every thread's
stack on stderr, instead of hanging until an outer timeout kills it
without a trace.
"""

from __future__ import annotations

import faulthandler
import os

import numpy as np
import pytest

from repro.core.problem import SchedulingProblem
from repro.graph.generator import DagParams
from repro.graph.taskgraph import TaskGraph
from repro.platform.platform import Platform
from repro.platform.uncertainty import UncertaintyModel, UncertaintyParams

#: Seconds one test (setup, call and teardown) may run.
TEST_DEADLINE_S = 300

#: A copy of the real stderr, taken between tests while output capture
#: is suspended; during a test, fd 2 points into the capture.
_stderr_fd: list[int] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not _stderr_fd:
        _stderr_fd.append(os.dup(2))
    faulthandler.dump_traceback_later(
        TEST_DEADLINE_S, exit=True, file=_stderr_fd[0]
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def diamond_graph() -> TaskGraph:
    """0 -> {1, 2} -> 3 with hand-picked data sizes."""
    return TaskGraph(
        4,
        [(0, 1), (0, 2), (1, 3), (2, 3)],
        [10.0, 20.0, 10.0, 10.0],
        name="diamond",
    )


@pytest.fixture
def diamond_problem(diamond_graph: TaskGraph) -> SchedulingProblem:
    """Deterministic 2-processor diamond with hand-computable schedules.

    Times (task x proc)::

        t0: [2, 3]   t1: [4, 5]   t2: [6, 4]   t3: [3, 3]
    """
    times = np.array(
        [
            [2.0, 3.0],
            [4.0, 5.0],
            [6.0, 4.0],
            [3.0, 3.0],
        ]
    )
    return SchedulingProblem.deterministic(diamond_graph, times, name="diamond")


@pytest.fixture
def chain_problem() -> SchedulingProblem:
    """3-task chain 0 -> 1 -> 2 on two processors, unit data."""
    graph = TaskGraph(3, [(0, 1), (1, 2)], [5.0, 5.0], name="chain")
    times = np.array([[2.0, 4.0], [3.0, 1.0], [2.0, 2.0]])
    return SchedulingProblem.deterministic(graph, times, name="chain")


@pytest.fixture
def single_task_problem() -> SchedulingProblem:
    """Degenerate single-task instance (edge cases)."""
    graph = TaskGraph(1, [], name="single")
    return SchedulingProblem.deterministic(graph, np.array([[7.0, 9.0]]))


@pytest.fixture
def small_random_problem() -> SchedulingProblem:
    """A 16-task random instance with real uncertainty (UL = 3)."""
    return SchedulingProblem.random(
        m=3,
        dag_params=DagParams(n=16, alpha=1.0, cc=20.0, ccr=0.5),
        uncertainty_params=UncertaintyParams(mean_ul=3.0),
        rng=1234,
        name="small-random",
    )


@pytest.fixture
def uncertain_diamond(diamond_graph: TaskGraph) -> SchedulingProblem:
    """Diamond with genuine uncertainty (UL = 2 everywhere)."""
    bcet = np.array(
        [
            [2.0, 3.0],
            [4.0, 5.0],
            [6.0, 4.0],
            [3.0, 3.0],
        ]
    )
    ul = np.full((4, 2), 2.0)
    return SchedulingProblem(
        graph=diamond_graph,
        platform=Platform(2),
        uncertainty=UncertaintyModel(bcet, ul),
        name="uncertain-diamond",
    )


def make_random_problem(
    seed: int, n: int = 12, m: int = 3, mean_ul: float = 2.0
) -> SchedulingProblem:
    """Helper for tests that need many distinct random instances."""
    return SchedulingProblem.random(
        m=m,
        dag_params=DagParams(n=n, alpha=1.0, cc=20.0, ccr=0.3),
        uncertainty_params=UncertaintyParams(mean_ul=mean_ul),
        rng=seed,
    )
