"""The benchmark's inputs: a seeded clinic store and the fixed append batch.

The program only ever sees the generated JSONL file (through
``repro serve --store``) and the wire records of :func:`batch_records`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.logstore import LogStore
from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.models import clinic_referral_workflow

#: Name the daemon serves the store under.
LOG_NAME = "clinic"

#: ``WorkflowEngine.run`` re-sorts every live instance at every step, so
#: its cost grows with the square of ``instances`` (0.3 s at 500, 3.8 s at
#: 2 000, 18 s at 4 000 on the reference host).  The store is therefore
#: simulated in blocks of this many instances, renumbered end to end:
#: instances are independent, so every per-instance statistic the queries
#: depend on is the same as in one big simulation, and set-up stays
#: linear in the store size.
CHUNK_INSTANCES = 500

#: Store sizes: the measured one and the ``--quick`` smoke one.
FULL_INSTANCES = 2000
QUICK_INSTANCES = 200

#: The instance every ``live_mixed`` append batch writes (between its
#: ``START`` and ``END`` sentinels): one complete referral.
BATCH_ACTIVITIES = (
    "GetRefer",
    "CheckIn",
    "SeeDoctor",
    "PayTreatment",
    "TakeTreatment",
    "UpdateRefer",
    "GetReimburse",
    "CompleteRefer",
)


@dataclass(frozen=True)
class StoreInfo:
    path: Path
    instances: int
    records: int
    simulate_s: float  # time inside WorkflowEngine.run only
    generate_s: float  # simulate + renumber + write


def generate(seed: int, instances: int, path: Path) -> StoreInfo:
    """Simulate ``instances`` clinic referrals from ``seed`` into ``path``."""
    started = time.perf_counter()
    simulate_s = 0.0
    records = 0
    done = 0
    with open(path, "w", encoding="utf-8") as out:
        while done < instances:
            size = min(CHUNK_INSTANCES, instances - done)
            t0 = time.perf_counter()
            log = WorkflowEngine(clinic_referral_workflow()).run(
                SimulationConfig(instances=size, seed=seed * 1000 + done // CHUNK_INSTANCES)
            )
            simulate_s += time.perf_counter() - t0
            for record in log.records:
                row = record.to_dict()
                row["lsn"] += records
                row["wid"] += done
                out.write(json.dumps(row, sort_keys=True) + "\n")
            records += len(log.records)
            done += size
    return StoreInfo(
        path=path,
        instances=instances,
        records=records,
        simulate_s=simulate_s,
        generate_s=time.perf_counter() - started,
    )


def batch_records(wid: int) -> list[dict]:
    """Wire records of one append batch: a whole fresh instance ``wid``."""
    names = ("START", *BATCH_ACTIVITIES, "END")
    return [{"activity": name, "wid": wid} for name in names]


def batch_log():
    """The append batch as a one-instance log (for the oracle's per-batch
    increment: incidents never span instances, so counts add)."""
    store = LogStore()
    wid = store.open_instance()
    for name in BATCH_ACTIVITIES:
        store.append(wid, name)
    store.close_instance(wid)
    return store.snapshot()
