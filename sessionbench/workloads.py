"""The benchmark's three workloads, driven through the public client API.

Every workload is an open loop of seeded Poisson arrivals on the sim
clock; each session is a closed loop over its own steps (connect, stage,
upload code, run, poll until complete, close).  A :class:`Plan` holds
everything the seed decides: dataset sizes and content seeds, arrival
times, which dataset and parameters each session uses.  Building the
site from a plan and running its sessions is repeatable: the same plan
gives the same sim-clock results and the same merged trees.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import cuts, higgs
from repro.client import IPAClient
from repro.core import GridSite, SiteConfig
from repro.federation import FederatedClient, Federation

#: A session iteration that has not completed after this many simulated
#: seconds counts as timed out.
ITERATION_TIMEOUT_S = 3600.0
#: Whole-round sim-clock guard: sessions still open then count as timed out.
ROUND_LIMIT_S = 100_000.0


@dataclass(frozen=True)
class DatasetSpec:
    dataset_id: str
    size_mb: float
    n_events: int
    content_seed: int


@dataclass(frozen=True)
class SessionSpec:
    index: int
    arrival: float
    dataset: str
    #: Delay from ``run()`` to the first poll of each iteration; later
    #: polls follow every ``poll_s``.  Users do not poll in lockstep.
    poll_phase: float
    #: ``min_energy`` of each iteration (``cuts.SOURCE``); empty = one
    #: plain run of ``higgs.SOURCE``.
    params: Tuple[float, ...] = ()


@dataclass
class Plan:
    workload: "Workload"
    seed: int
    datasets: List[DatasetSpec]
    sessions: List[SessionSpec]
    #: Reference keys ``(dataset, min_energy or None)`` whose merged tree
    #: every session using them must reproduce exactly.
    reference_keys: List[Tuple[str, Optional[float]]]

    def dataset(self, dataset_id: str) -> DatasetSpec:
        for spec in self.datasets:
            if spec.dataset_id == dataset_id:
                return spec
        raise KeyError(dataset_id)


@dataclass
class SessionRecord:
    spec: SessionSpec
    session_s: Optional[float] = None
    stage_s: Optional[float] = None
    polls: List[float] = field(default_factory=list)
    iterations: List[float] = field(default_factory=list)
    #: ``(reference key, merged tree, events processed)`` per iteration.
    results: List[tuple] = field(default_factory=list)
    error: Optional[str] = None


def tree_digest(tree: dict) -> str:
    blob = json.dumps(tree, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def _arrivals(rng: random.Random, count: int, rate: float) -> List[float]:
    out, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        out.append(now)
    return out


def _phases(rng: random.Random, count: int, poll_s: float) -> List[float]:
    return [poll_s - rng.uniform(0.0, poll_s) for _ in range(count)]


def _complete(progress, n_engines: int) -> bool:
    expected = (
        progress.expected_engines
        if progress.expected_engines is not None
        else n_engines
    )
    return progress.complete and progress.engines_reporting >= expected


@dataclass(frozen=True)
class Workload:
    """One workload: its shape, how to plan it and how to build its world."""

    name: str
    sessions: int
    engines: int
    poll_s: float
    arrival_rate: float
    plan_fn: Callable[["Workload", int, int], Plan]
    build_fn: Callable[[Plan], "World"]
    #: ``SiteConfig`` fields of the workload's sites (and of the
    #: lone-session site its reference trees come from).
    site_config: Dict[str, object] = field(default_factory=dict)
    #: Modules a user of this workload imports (timed in ``setup_s``).
    imports: Tuple[str, ...] = (
        "repro.core.site",
        "repro.client",
        "repro.analysis.higgs",
        "repro.analysis.cuts",
    )

    def plan(self, seed: int, sessions: Optional[int] = None) -> Plan:
        return self.plan_fn(self, seed, sessions or self.sessions)


class World:
    """A built site (or federation) ready for the timed sessions."""

    def __init__(self, env, new_client: Callable[[int], object]) -> None:
        self.env = env
        self.new_client = new_client


# -- the session loop ----------------------------------------------------------


def run_session(world: World, plan: Plan, spec: SessionSpec, out: list):
    """Generator: one user's session, recorded into *out*."""
    env = world.env
    workload = plan.workload
    yield env.timeout(spec.arrival)
    record = SessionRecord(spec)
    out.append(record)
    try:
        client = world.new_client(spec.index)
        if isinstance(client, FederatedClient):
            yield from client.connect(
                n_engines=workload.engines, dataset_hint=spec.dataset
            )
        else:
            client.obtain_proxy()
            yield from client.connect(
                workload.engines,
                dataset_hint=spec.dataset if spec.params else None,
            )
        started = env.now
        yield from client.select_dataset(spec.dataset)
        record.stage_s = env.now - started
        if spec.params:
            yield from client.upload_code(
                cuts.SOURCE, parameters={"min_energy": 0.0}
            )
            iterations = [(p, True) for p in spec.params]
        else:
            yield from client.upload_code(higgs.SOURCE)
            iterations = [(None, False)]
        for param, reload in iterations:
            started = env.now
            if reload:
                yield from client.reload_code(
                    parameters={"min_energy": param}
                )
                yield from client.rewind()
            yield from client.run()
            wait = spec.poll_phase
            while True:
                yield env.timeout(wait)
                wait = workload.poll_s
                asked = env.now
                result = yield from client.poll()
                record.polls.append(env.now - asked)
                if _complete(result.progress, workload.engines):
                    break
                if env.now - started > ITERATION_TIMEOUT_S:
                    raise TimeoutError(
                        f"iteration not complete after {ITERATION_TIMEOUT_S} s"
                    )
            record.iterations.append(env.now - started)
            # The tree is converted to a dict after the timed phase.
            record.results.append(
                (
                    (spec.dataset, param),
                    result.tree,
                    result.progress.events_processed,
                )
            )
        yield from client.close()
        record.session_s = env.now - spec.arrival
    except Exception as exc:  # a failed session is counted, never dropped
        record.error = f"{type(exc).__name__}: {exc}"


def lone_session_tree(workload: Workload, plan: Plan, key) -> dict:
    """Merged tree of one session alone on a fresh site (the reference)."""
    dataset, param = key
    spec = SessionSpec(
        index=0,
        arrival=0.0,
        dataset=dataset,
        poll_phase=workload.poll_s,
        params=() if param is None else (param,),
    )
    single = Plan(
        workload=workload,
        seed=plan.seed,
        datasets=[plan.dataset(dataset)],
        sessions=[spec],
        reference_keys=[],
    )
    _, world = _build_site(single, n_workers=workload.engines)
    out: list = []
    world.env.run(until=world.env.process(run_session(world, single, spec, out)))
    (record,) = out
    if record.error is not None:
        raise RuntimeError(f"reference session failed: {record.error}")
    return record.results[-1][1].to_dict()


# -- site assembly ---------------------------------------------------------------


def _register(target, spec: DatasetSpec, **extra) -> None:
    target.register_dataset(
        spec.dataset_id,
        f"/bench/{spec.dataset_id}",
        size_mb=spec.size_mb,
        n_events=spec.n_events,
        metadata={"experiment": "ilc"},
        content={"kind": "ilc", "seed": spec.content_seed},
        **extra,
    )


def _build_site(plan: Plan, n_workers: int) -> Tuple[GridSite, World]:
    site = GridSite(SiteConfig(n_workers=n_workers, **plan.workload.site_config))
    for spec in plan.datasets:
        _register(site, spec)
    credentials = [
        site.enroll_user(f"/O=ILC/CN=analyst-{s.index}") for s in plan.sessions
    ]
    world = World(site.env, lambda index: IPAClient(site, credentials[index]))
    return site, world


# -- cold-fanout -----------------------------------------------------------------


def _plan_cold(workload: Workload, seed: int, sessions: int) -> Plan:
    rng = random.Random(f"cold-fanout:{seed}")
    datasets = []
    for index in range(sessions):
        size_mb = round(rng.uniform(16.0, 24.0), 3)
        datasets.append(
            DatasetSpec(
                f"cold-{index}",
                size_mb,
                int(size_mb * 50),
                rng.randrange(1, 2**31),
            )
        )
    arrivals = _arrivals(rng, sessions, workload.arrival_rate)
    phases = _phases(rng, sessions, workload.poll_s)
    specs = [
        SessionSpec(i, arrivals[i], datasets[i].dataset_id, phases[i])
        for i in range(sessions)
    ]
    sample = sorted(rng.sample(range(sessions), min(8, sessions)))
    return Plan(
        workload,
        seed,
        datasets,
        specs,
        [(datasets[i].dataset_id, None) for i in sample],
    )


def _build_cold(plan: Plan) -> World:
    _, world = _build_site(
        plan, n_workers=plan.workload.engines * len(plan.sessions)
    )
    return world


# -- warm-interactive ------------------------------------------------------------

WARM_DATASET = "warm-shared"


def _plan_warm(workload: Workload, seed: int, sessions: int) -> Plan:
    rng = random.Random(f"warm-interactive:{seed}")
    size_mb = round(rng.uniform(9.0, 11.0), 3)
    dataset = DatasetSpec(
        WARM_DATASET, size_mb, int(size_mb * 100), rng.randrange(1, 2**31)
    )
    pool = sorted(round(rng.uniform(0.0, 480.0), 1) for _ in range(4))
    arrivals = _arrivals(rng, sessions, workload.arrival_rate)
    phases = _phases(rng, sessions, workload.poll_s)
    specs = [
        SessionSpec(
            i, arrivals[i], WARM_DATASET, phases[i], tuple(rng.sample(pool, 3))
        )
        for i in range(sessions)
    ]
    return Plan(
        workload, seed, [dataset], specs, [(WARM_DATASET, p) for p in pool]
    )


def _build_warm(plan: Plan) -> World:
    site, world = _build_site(
        plan, n_workers=plan.workload.engines * len(plan.sessions) // 2
    )
    # Warm-up: one session stages the shared dataset, then leaves.
    warm = IPAClient(site, site.enroll_user("/O=ILC/CN=warm-up"))

    def warm_up():
        warm.obtain_proxy()
        yield from warm.connect(plan.workload.engines, dataset_hint=WARM_DATASET)
        yield from warm.select_dataset(WARM_DATASET)
        yield from warm.close()

    site.env.run(until=site.env.process(warm_up()))
    return world


# -- federation-spill ------------------------------------------------------------

FED_DATASETS = 4


def _plan_fed(workload: Workload, seed: int, sessions: int) -> Plan:
    rng = random.Random(f"federation-spill:{seed}")
    datasets = []
    for index in range(FED_DATASETS):
        size_mb = round(rng.uniform(1.9, 2.1), 3)
        datasets.append(
            DatasetSpec(
                f"fed-{index}", size_mb, int(size_mb * 50),
                rng.randrange(1, 2**31),
            )
        )
    arrivals = _arrivals(rng, sessions, workload.arrival_rate)
    phases = _phases(rng, sessions, workload.poll_s)
    specs = [
        SessionSpec(i, arrivals[i], rng.choice(datasets).dataset_id, phases[i])
        for i in range(sessions)
    ]
    return Plan(
        workload, seed, datasets, specs, [(d.dataset_id, None) for d in datasets]
    )


def _build_fed(plan: Plan) -> World:
    fed = Federation(
        n_sites=2,
        site_config=SiteConfig(
            n_workers=plan.workload.engines * len(plan.sessions) // 2,
            enable_observability=True,
        ),
    )
    for spec in plan.datasets:
        _register(fed, spec, home="site1")
    credentials = [
        fed.enroll_user(f"/O=ILC/CN=analyst-{s.index}") for s in plan.sessions
    ]
    return World(fed.env, lambda index: FederatedClient(fed, credentials[index]))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cold-fanout",
            sessions=150,
            engines=2,
            poll_s=5.0,
            arrival_rate=0.15,
            plan_fn=_plan_cold,
            build_fn=_build_cold,
        ),
        Workload(
            name="warm-interactive",
            sessions=100,
            engines=4,
            poll_s=1.0,
            arrival_rate=1.0,
            plan_fn=_plan_warm,
            build_fn=_build_warm,
            site_config={"merge_fan_in": 2, "service_concurrency": 8},
        ),
        Workload(
            name="federation-spill",
            sessions=128,
            engines=2,
            poll_s=5.0,
            arrival_rate=1.0,
            plan_fn=_plan_fed,
            build_fn=_build_fed,
            imports=(
                "repro.core.site",
                "repro.federation",
                "repro.analysis.higgs",
            ),
        ),
    )
}
