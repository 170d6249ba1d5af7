"""Multi-instance workflow execution engine.

Simulates the runtime of the paper's Figure 2: many concurrently active
workflow instances advance step by step in a seeded random interleaving,
and every activity execution appends one log record — with the activity's
input and output attribute maps — to a single global log.

Logs produced here are well-formed by construction (Definition 2): each
instance starts with ``START``, instance-specific sequence numbers are
consecutive, and completed instances end with ``END``.  ``Log`` validation
is still run once at the end as a safety net.

Example
-------
>>> from repro.workflow import WorkflowEngine, SimulationConfig
>>> from repro.workflow.models import clinic_referral_workflow
>>> engine = WorkflowEngine(clinic_referral_workflow())
>>> log = engine.run(SimulationConfig(instances=3, seed=42))
>>> log.wids
(1, 2, 3)
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.errors import WorkflowRuntimeError
from repro.core.model import END, START, Log, LogRecord
from repro.workflow.spec import WorkflowSpec

__all__ = ["SimulationConfig", "WorkflowEngine"]


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation run.

    Attributes
    ----------
    instances:
        Number of workflow instances to run.
    seed:
        RNG seed; runs are fully deterministic given a seed.
    arrival_stagger:
        Number of global steps between consecutive instance launches
        (0 = all instances start eligible immediately).  Staggering makes
        logs where early instances finish before late ones start, like
        real multi-tenant logs.
    complete_probability:
        Probability that an instance that exhausts its control flow writes
        an ``END`` record.  Below 1.0, some instances remain incomplete —
        the paper notes logs may contain unfinished instances.
    max_steps:
        Safety bound on total simulated steps.
    """

    instances: int = 10
    seed: int | None = None
    arrival_stagger: int = 0
    complete_probability: float = 1.0
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ValueError("need at least one instance")
        if self.arrival_stagger < 0:
            raise ValueError("arrival_stagger must be >= 0")
        if not 0.0 <= self.complete_probability <= 1.0:
            raise ValueError("complete_probability must be in [0, 1]")


class _InstanceRun:
    """Mutable execution state of one workflow instance."""

    __slots__ = ("wid", "pending", "cursor", "state", "is_lsn")

    def __init__(self, wid: int, pending: list[str], state: dict):
        self.wid = wid
        self.pending = pending  # remaining activity names
        self.cursor = 0
        self.state = state  # current attribute values
        self.is_lsn = 0

    @property
    def has_work(self) -> bool:
        return self.cursor < len(self.pending)


class WorkflowEngine:
    """Executes a :class:`~repro.workflow.spec.WorkflowSpec` and produces a
    :class:`~repro.core.model.Log`.

    Parameters
    ----------
    spec:
        The workflow model to run.  At every step a uniformly random ready
        instance executes next, which is how instance records interleave
        in the global log (the ``wid`` column pattern of Figure 3).
    """

    def __init__(self, spec: WorkflowSpec):
        self.spec = spec

    def run(self, config: SimulationConfig | None = None, **kwargs) -> Log:
        """Simulate and return the resulting log.

        ``kwargs`` are shorthand for :class:`SimulationConfig` fields:
        ``engine.run(instances=50, seed=7)``.
        """
        if config is None:
            config = SimulationConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a SimulationConfig or field kwargs")
        rng = random.Random(config.seed)

        runs: dict[int, _InstanceRun] = {}
        # wids with work left, ascending (launch order is wid order)
        ready: list[int] = []
        records: list[LogRecord] = []
        next_lsn = 1
        steps = 0
        launched = 0

        def launch(wid: int) -> None:
            nonlocal next_lsn
            trace = list(self.spec.root.unfold(rng))
            run = _InstanceRun(wid, trace, self.spec.initial_attrs())
            runs[wid] = run
            if run.has_work:
                ready.append(wid)
            run.is_lsn += 1
            records.append(
                LogRecord(
                    lsn=next_lsn,
                    wid=wid,
                    is_lsn=run.is_lsn,
                    activity=START,
                )
            )
            next_lsn += 1

        while True:
            steps += 1
            if steps > config.max_steps:
                raise WorkflowRuntimeError(
                    f"simulation exceeded max_steps={config.max_steps}"
                )
            # launch instances per the arrival process
            if launched < config.instances and (
                launched == 0
                or config.arrival_stagger == 0
                or steps % (config.arrival_stagger + 1) == 0
            ):
                if config.arrival_stagger == 0:
                    while launched < config.instances:
                        launched += 1
                        launch(launched)
                else:
                    launched += 1
                    launch(launched)

            if not ready:
                if launched >= config.instances:
                    break
                continue

            wid = rng.choice(ready)
            run = runs[wid]
            next_lsn = self._execute_one(run, records, next_lsn, rng)

            if not run.has_work:
                ready.remove(wid)
                if rng.random() < config.complete_probability:
                    run.is_lsn += 1
                    records.append(
                        LogRecord(
                            lsn=next_lsn,
                            wid=wid,
                            is_lsn=run.is_lsn,
                            activity=END,
                        )
                    )
                    next_lsn += 1

        return Log(records)

    def _execute_one(
        self,
        run: _InstanceRun,
        records: list[LogRecord],
        next_lsn: int,
        rng: random.Random,
    ) -> int:
        """Execute ``run``'s next activity, appending its log record."""
        activity_name = run.pending[run.cursor]
        run.cursor += 1
        definition = self.spec.definition(activity_name)

        attrs_in = {
            name: run.state[name] for name in definition.reads if name in run.state
        }
        written = dict(definition.effect(dict(run.state), rng))
        illegal = set(written) - set(definition.writes)
        if illegal:
            raise WorkflowRuntimeError(
                f"activity {activity_name!r} wrote undeclared attributes "
                f"{sorted(illegal)}"
            )
        run.state.update(written)

        run.is_lsn += 1
        records.append(
            LogRecord(
                lsn=next_lsn,
                wid=run.wid,
                is_lsn=run.is_lsn,
                activity=activity_name,
                attrs_in=attrs_in,
                attrs_out=written,
            )
        )
        return next_lsn + 1
