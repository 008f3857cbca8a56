"""A shed GA request gets the same envelope from a coordinator as from a node.

A single node sheds at its own admission; a coordinator passes the
request through and the shard sheds it.  The client must not be able to
tell the two apart, and the coordinator must not cache the degraded HEFT
stand-in under the GA request's key (a later GA solve would be served
the HEFT schedule).

The GA slot is marked busy directly (``_ga_inflight``) with a queue limit
of 0, so admission sheds every GA request without a race.
"""

from __future__ import annotations

import asyncio

from repro.core.problem import SchedulingProblem
from repro.graph.generator import DagParams
from repro.io import problem_fingerprint, problem_to_dict
from repro.platform.uncertainty import UncertaintyParams
from repro.service import (
    Coordinator,
    CoordinatorConfig,
    SchedulerService,
    ServiceConfig,
)
from repro.service.cache import cache_key
from repro.service.comm import connect
from repro.service.protocol import normalize_request
from repro.service.solvers import solve_params

PROBLEM = SchedulingProblem.random(
    m=3,
    dag_params=DagParams(n=16),
    uncertainty_params=UncertaintyParams(mean_ul=4.0),
    rng=3,
)
REQUEST = {
    "op": "solve",
    "id": "shed-me",
    "solver": "ga",
    "epsilon": 1.2,
    "seed": 7,
    "n_realizations": 50,
    "ga": {"max_iterations": 5},
    "problem": problem_to_dict(PROBLEM),
}


async def _send_twice(service, address: str, admitting_node) -> list[dict]:
    """Start *service*, then send REQUEST twice while the GA slot of the
    node that runs admission (``admitting_node(service)``) is busy."""
    await service.start()
    try:
        node = admitting_node(service)
        node._ga_inflight = 1
        comm = await connect(address)
        replies = []
        for _ in range(2):
            await comm.send(REQUEST)
            replies.append(await comm.recv())
        await comm.aclose()
        node._ga_inflight = 0
    finally:
        await service.aclose()
    return replies


def _envelope(reply: dict) -> dict:
    return {k: v for k, v in reply.items() if k != "elapsed_s"}


def test_shed_envelope_matches_single_node_and_is_not_cached():
    node = SchedulerService(
        ServiceConfig(listen="inproc://shed-node", ga_queue_limit=0)
    )
    node_replies = asyncio.run(
        _send_twice(node, "inproc://shed-node", lambda service: service)
    )
    coordinator = Coordinator(
        CoordinatorConfig(
            shards=1, listen="inproc://shed-coordinator", ga_queue_limit=0
        )
    )
    coord_replies = asyncio.run(
        _send_twice(
            coordinator,
            "inproc://shed-coordinator",
            lambda service: service._shards["shard-0"].service,
        )
    )

    first, repeat = node_replies
    assert first["ok"] and first["degraded"]
    assert first["requested_solver"] == "ga"
    assert first["solver"] == "heft"
    assert "queue full" in first["degraded_reason"]
    assert not first["cached"] and repeat["cached"] and repeat["degraded"]
    # Same envelope, field for field: degraded, requested_solver,
    # degraded_reason, cached, and the HEFT core itself.
    assert [_envelope(r) for r in coord_replies] == [
        _envelope(r) for r in node_replies
    ]

    # The degraded core is not in the coordinator's cache under the GA key
    # (nor anywhere else in it).
    ga_key = cache_key(
        problem_fingerprint(PROBLEM),
        "ga",
        **solve_params(normalize_request(REQUEST)),
    )
    assert coordinator.cache.get(ga_key) is None
    assert len(coordinator.cache) == 0
    # The node counts every shed; the coordinator only the fresh one (the
    # repeat was a hit in the shard's cache).
    assert node.counters["degraded"] == 2
    assert coordinator.counters["degraded"] == 1
