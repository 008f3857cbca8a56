"""Regression: a worker pool starts cleanly after an in-process native GA.

A GA solved in the parent process starts the native kernel's OpenMP
thread pool.  Workers *forked* from that process inherit the pool's
locks but not its threads, and block forever on their first parallel
region — the parent then waits on them forever too.  The pool must start
its workers from a clean process (:data:`repro.cluster.scheduler.START_METHOD`).

The scenario runs in a fresh interpreter under a hard deadline, so a
regression fails this test instead of hanging the suite.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

#: Seconds the whole scenario may take; it needs a few seconds when the
#: pool starts (two interpreters importing the package), and never ends
#: when it does not.
DEADLINE_S = 120

SCENARIO = textwrap.dedent(
    """
    import json

    from repro.cluster import ClusterConfig, Scheduler, TaskSpec
    from repro.core.problem import SchedulingProblem
    from repro.graph._native import has_openmp
    from repro.graph.generator import DagParams
    from repro.io import problem_to_dict
    from repro.service.solvers import execute_payload

    problem = problem_to_dict(
        SchedulingProblem.random(m=4, dag_params=DagParams(n=30), rng=5)
    )

    def request(seed):
        return {
            "problem": problem, "solver": "ga", "epsilon": 1.2,
            "seed": seed, "n_realizations": 50,
            "ga": {"population_size": 16, "max_iterations": 8},
        }

    # In-process first: this starts the OpenMP pool when the kernel has one.
    serial = [execute_payload(request(seed)) for seed in (1, 2)]
    outcomes = Scheduler(ClusterConfig(n_workers=2)).run(
        TaskSpec(key=f"ga-{seed}", fn=execute_payload, args=(request(seed),))
        for seed in (1, 2)
    )
    pooled = [outcomes[f"ga-{seed}"].result for seed in (1, 2)]
    print(json.dumps({"openmp": has_openmp(), "identical": serial == pooled}))
    """
)


def test_cluster_ga_after_in_process_native_ga_finishes():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    # Own process group: on a timeout, stuck workers die with the parent.
    proc = subprocess.Popen(
        [sys.executable, "-c", SCENARIO],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(
            f"a 2-worker cluster GA after an in-process GA did not finish "
            f"within {DEADLINE_S}s"
        )
    assert proc.returncode == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["identical"], "pooled GA differs from the in-process GA"
