"""Closed-loop load generator: stock ``http.client``, keep-alive, one thread
per connection; each connection sends its next request only when the
previous reply has been read to its last byte."""

from __future__ import annotations

import http.client
import json
import re
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .daemon import HOST
from .workloads import Op

_HEADERS = {"Content-Type": "application/json"}
#: The reply's top-level incident count.  Matched on the bytes so that a
#: megabyte reply is not JSON-decoded on the thread that times the other
#: connection's replies.
_COUNT = re.compile(rb'"count":\s*(\d+)')


@dataclass(frozen=True)
class Sample:
    kind: str
    latency_s: float  # first request byte written -> last response byte read
    status: int  # 0: transport error
    correct: bool
    ended: float  # perf_counter() when the last byte was read


def reply_correct(op: Op, status: int, data: bytes) -> bool:
    if status != 200:
        return False
    if op.kind == "append":
        try:
            return json.loads(data).get("appended") == op.expect
        except ValueError:
            return False
    match = _COUNT.search(data)
    return match is not None and int(match.group(1)) == op.expect


class Connection:
    """One keep-alive connection and the script it plays."""

    def __init__(self, port: int, ops: Iterator[Op]) -> None:
        self.port = port
        self.ops = ops
        self.conn = http.client.HTTPConnection(HOST, port, timeout=60)
        self.samples: list[Sample] = []
        self._next = next(ops)

    def play(self, *, count: int | None = None, until: float | None = None) -> None:
        """Send ``count`` requests, or requests until the clock passes
        ``until``; either way stop only where the script allows it."""
        sent = 0
        while True:
            op = self._next
            spent = (count is not None and sent >= count) or (
                until is not None and time.perf_counter() >= until
            )
            if spent and op.boundary:
                return
            self._next = next(self.ops)
            sent += 1
            started = time.perf_counter()
            try:
                self.conn.request("POST", op.path, body=op.body, headers=_HEADERS)
                response = self.conn.getresponse()
                data = response.read()
                ended = time.perf_counter()
                status = response.status
            except (OSError, http.client.HTTPException):
                ended = time.perf_counter()
                status, data = 0, b""
                self.conn.close()  # reconnects on the next request
                time.sleep(0.05)  # a dead daemon must not turn this into a busy loop
            self.samples.append(
                Sample(op.kind, ended - started, status, reply_correct(op, status, data), ended)
            )

    def close(self) -> None:
        self.conn.close()


def play_all(
    connections: list[Connection],
    *,
    count: int | None = None,
    seconds: float | None = None,
    probe: Callable[[], float] | None = None,
    slices: int = 1,
) -> tuple[list[Sample], list[tuple[float, float]]]:
    """Play every connection at once, ``count`` requests each or for
    ``seconds``.  Returns the new samples and ``(clock, probe())`` marks:
    one at the common start, one at each of the ``slices`` equal slice
    ends of a timed run, and one when the last reply has been read."""
    before = [len(c.samples) for c in connections]
    barrier = threading.Barrier(len(connections) + 1)
    errors: list[BaseException] = []
    start = [0.0]

    def work(connection: Connection) -> None:
        barrier.wait()
        try:
            until = None if seconds is None else start[0] + seconds
            connection.play(count=count, until=until)
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    def mark() -> tuple[float, float]:
        return time.perf_counter(), probe() if probe is not None else 0.0

    threads = [threading.Thread(target=work, args=(c,)) for c in connections]
    for thread in threads:
        thread.start()
    # the barrier releases only after start[0] is set: every worker reads it
    marks = [mark()]
    start[0] = marks[0][0]
    barrier.wait()
    if seconds is not None:
        for k in range(1, slices):
            time.sleep(max(0.0, start[0] + seconds * k / slices - time.perf_counter()))
            marks.append(mark())
    for thread in threads:
        thread.join()
    marks.append(mark())
    if errors:
        raise errors[0]
    samples = [s for c, n in zip(connections, before) for s in c.samples[n:]]
    return samples, marks
