"""The four workloads, their request scripts and the ``NaiveEngine`` oracle."""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.eval.naive import NaiveEngine
from repro.core.parser import parse

from .store import BATCH_ACTIVITIES, LOG_NAME, batch_log, batch_records

QUERY_PATH = "/v1/query"
APPEND_PATH = f"/v1/logs/{LOG_NAME}/records"

#: One of each operator family: ``->`` chains, ``;``, ``->[k]``, ``!a``,
#: ``&`` and ``|``.  Chosen on the reference store so that no pattern
#: costs more than 3x the pool median with the cache off (README, "Pools").
POOL = (
    "GetRefer -> CheckIn -> SeeDoctor",
    "SeeDoctor ; PayTreatment ; TakeTreatment",
    "PayTreatment ->[2] SeeDoctor",
    "!SeeDoctor ; GetReimburse",
    "UpdateRefer & TakeTreatment",
    "(UpdateRefer | TerminateRefer) -> CompleteRefer",
)

#: Patterns with 3 k - 9 k incidents on the 2 000-instance store, i.e.
#: 0.35 - 0.9 MB ``mode: incidents`` replies; together they fit the
#: default 32 MiB result cache, so after warm-up every request is a hit.
FAT_POOL = (
    "SeeDoctor -> PayTreatment",
    "SeeDoctor -> PayTreatment -> GetReimburse",
    "CheckIn -> SeeDoctor -> PayTreatment",
    "SeeDoctor & PayTreatment",
    "GetRefer -> CheckIn -> SeeDoctor",
    "SeeDoctor ; PayTreatment",
)

#: Queries after each append batch in ``live_mixed``.
QUERIES_PER_CYCLE = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    connections: int
    mode: str  # wire ``mode`` of the measured queries
    cache: bool
    pool: tuple[str, ...]
    live: bool = False  # append batches between the queries

    @property
    def warmup_ops(self) -> int:
        """Untimed operations per connection after the oracle pass: enough
        for caches, the allocator and the kernel's delayed-ACK state to
        reach what the window will see.  A count, not a duration, so that
        ``setup_s`` moves when a change makes cold requests dearer."""
        if self.live:
            return 3 * (1 + QUERIES_PER_CYCLE)
        return 2 * len(self.pool)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "warm_point",
            "result-cache hits with ~150-byte replies: only fixed per-request "
            "overhead (wire, schema, snapshot, telemetry) works; an engine "
            "speed-up must show no change here",
            connections=1,
            mode="count",
            cache=True,
            pool=POOL,
        ),
        Workload(
            "cold_join",
            "cache off, mode instances: index build, join evaluation and "
            "incident materialisation do most of the work; wire and cache "
            "changes should barely move it",
            connections=1,
            mode="instances",
            cache=False,
            pool=POOL,
        ),
        Workload(
            "fat_result",
            "two connections on cached joins with 0.35-0.9 MB incident replies: "
            "to_rows, JSON encoding and socket bytes dominate (~0 in warm_point), "
            "and the two requests contend for the interpreter lock",
            connections=2,
            mode="incidents",
            cache=True,
            pool=FAT_POOL,
        ),
        Workload(
            "live_mixed",
            "one connection cycling a 10-record append batch and 5 instance "
            "queries: each batch bumps the epoch, the first query after it "
            "pays snapshot and re-evaluation, the next four hit",
            connections=1,
            mode="instances",
            cache=True,
            pool=POOL,
            live=True,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One request and what its reply must say."""

    kind: str  # "query" | "query_after_append" | "append"
    path: str
    body: bytes
    expect: int  # query: incident count; append: activities appended
    #: a window may end before this operation: ``live_mixed`` stops only
    #: between cycles, which keeps its per-cycle ratios (one evaluation and
    #: one miss in five queries) exact
    boundary: bool = True


def query_body(workload: Workload, pattern: str, *, mode: str | None = None) -> bytes:
    doc: dict = {"log": LOG_NAME, "pattern": pattern, "mode": mode or workload.mode}
    if not workload.cache:
        doc["options"] = {"cache": False}
    return json.dumps(doc).encode()


def script(
    workload: Workload, oracle: "Oracle", connection: int, first_wid: int
) -> Iterator[Op]:
    """The endless request sequence of one connection to one fresh daemon.

    Connections walk the pool round-robin, offset from each other so they
    do not ask for the same pattern in lock-step.  In ``live_mixed`` cycle
    ``c`` appends instance ``first_wid + c`` and then asks
    :data:`QUERIES_PER_CYCLE` times for pattern ``c`` of the rotation, so
    every expected count is known in advance.
    """
    pool = workload.pool
    if not workload.live:
        offset = connection * len(pool) // workload.connections
        ops = [
            Op("query", QUERY_PATH, query_body(workload, p), oracle.count(p))
            for p in pool
        ]
        k = offset
        while True:
            yield ops[k % len(ops)]
            k += 1
    cycle = 0
    while True:
        records = batch_records(first_wid + cycle)
        yield Op(
            "append",
            APPEND_PATH,
            json.dumps({"records": records}).encode(),
            len(BATCH_ACTIVITIES),
        )
        pattern = pool[cycle % len(pool)]
        body = query_body(workload, pattern)
        expect = oracle.count(pattern, appended=cycle + 1)
        yield Op("query_after_append", QUERY_PATH, body, expect, boundary=False)
        for _ in range(QUERIES_PER_CYCLE - 1):
            yield Op("query", QUERY_PATH, body, expect, boundary=False)
        cycle += 1


@dataclass(frozen=True)
class Answer:
    count: int
    wids: frozenset[int]
    lsn_sets: frozenset[frozenset[int]]


class Oracle:
    """``NaiveEngine`` (Algorithms 1-2 verbatim) answers on the same store."""

    def __init__(self, log, patterns: tuple[str, ...]) -> None:
        engine = NaiveEngine()
        single = batch_log()
        self.answers: dict[str, Answer] = {}
        self.per_batch: dict[str, int] = {}
        for text in patterns:
            pattern = parse(text)
            incidents = engine.evaluate(log, pattern)
            self.answers[text] = Answer(
                len(incidents), frozenset(incidents.wids()), incidents.lsn_sets()
            )
            self.per_batch[text] = len(engine.evaluate(single, pattern))

    def count(self, pattern: str, appended: int = 0) -> int:
        """Expected incident count once ``appended`` batches were applied."""
        return self.answers[pattern].count + appended * self.per_batch[pattern]
