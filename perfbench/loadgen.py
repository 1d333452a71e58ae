"""Open-loop HTTP load over a fixed number of keep-alive connections.

Requests are due on a seeded schedule regardless of how the server is
doing.  Each connection's thread takes the next request in due order as
soon as it is free, waits for its due time if early, and sends it.  A
request is timed from its *due* time, so a stall that holds up later
requests counts against them too.  How late the generator itself ran is
``sent - max(due, picked)``: the time between a request being both due
and taken by a free connection and the moment it went out.

A run stops taking requests once one is picked more than ``backlog_s``
after its due time: the backlog is growing, the rung has failed, and the
rest of its schedule is abandoned (not attempted).  Standard library
only.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException
from typing import List, Optional, Sequence, Tuple


@dataclass
class Outcome:
    """One request as the generator saw it (monotonic seconds)."""

    index: int
    due: float
    picked: float
    sent: float
    done: float
    status: Optional[int]
    data: bytes = b""
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from the due time to the complete response."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """Seconds from the send to the complete response."""
        return self.done - self.sent

    @property
    def lag(self) -> float:
        """How late the generator sent a request it was free to send."""
        return self.sent - max(self.due, self.picked)


@dataclass
class LoadResult:
    outcomes: List[Outcome]
    abandoned: int
    start: float


def run_open_loop(host: str, port: int,
                  requests: Sequence[Tuple[float, bytes]],
                  connections: int = 2, backlog_s: float = 1.0,
                  path: str = "/v1/predict", timeout_s: float = 30.0,
                  start_delay_s: float = 0.05) -> LoadResult:
    """Send ``requests`` (``(due offset in seconds, body)`` in due order)
    over ``connections`` keep-alive connections."""
    lock = threading.Lock()
    cursor = [0]
    stop = [False]
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    start = time.monotonic() + start_delay_s
    headers = {"Content-Type": "application/json"}

    def worker() -> None:
        conn = HTTPConnection(host, port, timeout=timeout_s)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    if stop[0] or i >= len(requests):
                        return
                    due = start + requests[i][0]
                    picked = time.monotonic()
                    if picked - due > backlog_s:
                        stop[0] = True
                        return
                    cursor[0] = i + 1
                if due > picked:
                    time.sleep(due - picked)
                sent = time.monotonic()
                status, data, error = None, b"", None
                try:
                    conn.request("POST", path, body=requests[i][1],
                                 headers=headers)
                    response = conn.getresponse()
                    data = response.read()
                    status = response.status
                except (OSError, HTTPException) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = HTTPConnection(host, port, timeout=timeout_s)
                outcomes[i] = Outcome(i, due, picked, sent,
                                      time.monotonic(), status, data, error)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    done = [o for o in outcomes if o is not None]
    return LoadResult(outcomes=done, abandoned=len(requests) - len(done),
                      start=start)
