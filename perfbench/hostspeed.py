"""Host-speed calibration of end-to-end timings.

The benchmark shares a few cores of a machine with other tenants, and
that machine's speed for this program shifts between minutes: one
ten-run set of ``table4-cold`` ran at 130-160 scenarios/s for its first
four runs and 220-270 for the last six. A run therefore times a fixed
reference loop in a child process, between its units (the child is
idle while a unit runs), and scales every end-to-end timing by
``factor() = REFERENCE_S / median sample``.

The reference has the program's shape: it allocates tens of thousands
of small dicts and lists (megabytes of fresh memory, as a sweep does),
orders them on a heap and walks them. Over 12 windows of 35 s beside
a fixed cold sweep, unit times spread 0.18 and their ratio to this
loop 0.036, the ratio staying within ±4 % while the host's speed moved
by 1.3x. A tight loop that allocates little tracked far worse (it sped
up 1.7x when the program sped up 1.2-1.5x). The reference runs no code
under ``src/``, so a faster or slower program moves the scaled figures
in full. It must never change: a different reference redefines every
scaled metric.
"""

from __future__ import annotations

import gc
import heapq
import os
import statistics
import subprocess
import sys
import time

#: Nominal seconds of one ``reference()``: a run whose reference median
#: is exactly this keeps its raw timings. On the host whose facts are in
#: ``baseline.json`` it measured 0.08-0.105 s.
REFERENCE_S = 0.09

#: ``reference()``'s result; a different value means a broken interpreter.
EXPECTED = 1439055

#: Loop time per reference sample in the timed loop: one sample is a
#: noisy 0.1 s, so long units are followed by several.
SAMPLE_EVERY_S = 0.5
#: Most samples between two units (a unit of 2.5 s or more).
MAX_DUE = 5


def reference(records: int = 30000) -> int:
    """A fixed amount of allocation and heap work; returns its checksum."""
    table = [{"ue": i & 63, "at": (i * 7919) % 1009, "payload": [i, i + 1]}
             for i in range(records)]
    heap = [(record["at"], i) for i, record in enumerate(table)]
    heapq.heapify(heap)
    checksum = 0
    while heap:
        _, i = heapq.heappop(heap)
        checksum += table[i]["payload"][0] % 97
    return checksum


class Calibration:
    """Reference samples taken through one run, in a child process.

    The reference allocates megabytes; in the benchmark process that
    memory would show in ``peak_rss_mb``. The child is only waited for
    in :meth:`close`, so read the peak RSS of children before closing.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = 0.0
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def sample(self, repeats: int = 1) -> None:
        self.proc.stdin.write(f"{repeats}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited "
                               f"({self.proc.wait(timeout=30)})")
        self.samples.extend(float(value) for value in line.split())
        self.last = time.perf_counter()

    def sample_due(self) -> None:
        """One sample per SAMPLE_EVERY_S since the last, up to MAX_DUE."""
        due = int((time.perf_counter() - self.last) / SAMPLE_EVERY_S)
        if due:
            self.sample(min(due, MAX_DUE))

    def factor(self) -> float:
        """Scale for this run's timings (< 1 on a host slower than the
        nominal one): multiply a duration by it, divide a rate."""
        return REFERENCE_S / statistics.median(self.samples)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)


def serve() -> int:
    """Child side: for each count read from stdin, time that many
    references and print their durations on one line."""
    # With the collector on, a sample would also pay for collections
    # triggered by the reference's own allocations at varying points.
    gc.disable()
    for line in sys.stdin:
        durations = []
        for _ in range(int(line)):
            started = time.perf_counter()
            checksum = reference()
            durations.append(time.perf_counter() - started)
            if checksum != EXPECTED:
                print(f"reference loop returned {checksum}, expected "
                      f"{EXPECTED}", file=sys.stderr)
                return 1
        print(" ".join(f"{d!r}" for d in durations), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve())
