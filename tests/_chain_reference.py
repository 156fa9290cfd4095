"""Independent reference for the relay chain: a scalar event-driven
simulation of FCFS servers in series with per-link erasures.

It takes the same random numbers as ``backhaul_sim.run``: each node has
a generator for the service times of the packets that reach it and one
for a uniform each on a lossy link, spawned from the chain seed by node.
It hands them out as events happen: a packet takes its node's next
service time when it starts service and the next uniform when it leaves
the node.  Kept deliberately separate from the package so the chunked
waiting-time scan has a second opinion.
"""
import heapq
from collections import deque

import numpy as np

_ARRIVE, _DEPART = 0, 1


def node_generators(seed, node):
    """The service and erasure generators of ``node`` (0-based): children
    (node, 0) and (node, 1) of the chain seed, whatever the hop count."""
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    return [np.random.default_rng(np.random.SeedSequence(
        root.entropy, spawn_key=root.spawn_key + (node, kind)))
        for kind in (0, 1)]


def _draws(n, service_rates, link_erasures, seed):
    services, survives = [], []
    for node, (mu, eps) in enumerate(zip(service_rates, link_erasures)):
        service_rng, erasure_rng = node_generators(seed, node)
        services.append(deque(service_rng.exponential(1.0 / mu,
                                                      size=n).tolist()))
        keep = (erasure_rng.random(n) >= eps if eps > 0.0
                else np.ones(n, dtype=bool))
        survives.append(deque(keep.tolist()))
        n = int(keep.sum())
    return services, survives


def reference_chain(arrival_times, service_rates, link_erasures, seed):
    """Return (delivery_times, drop_node): the delivery times in delivery
    order and, per offered packet, the 1-based node whose outgoing link
    erased it (0 = delivered)."""
    n = len(arrival_times)
    hops = len(service_rates)
    services, survives = _draws(n, service_rates, link_erasures, seed)
    events = []          # (time, sequence, kind, node, packet)
    seq = 0

    def push(t, kind, node, packet):
        nonlocal seq
        heapq.heappush(events, (t, seq, kind, node, packet))
        seq += 1

    queues = [deque() for _ in range(hops)]
    busy = [False] * hops

    def start(node, t):
        packet = queues[node].popleft()
        busy[node] = True
        push(t + services[node].popleft(), _DEPART, node, packet)

    for i, a in enumerate(arrival_times):
        push(float(a), _ARRIVE, 0, i)
    drop_node = np.zeros(n, dtype=np.int64)
    deliveries = []
    while events:
        t, _, kind, node, packet = heapq.heappop(events)
        if kind == _ARRIVE:
            queues[node].append(packet)
            if not busy[node]:
                start(node, t)
            continue
        busy[node] = False
        if not survives[node].popleft():
            drop_node[packet] = node + 1
        elif node + 1 < hops:
            push(t, _ARRIVE, node + 1, packet)
        else:
            deliveries.append(t)
        if queues[node]:
            start(node, t)
    return np.array(deliveries), drop_node
