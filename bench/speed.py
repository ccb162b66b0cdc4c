"""Timing at a reference speed: the host's own speed, sampled while the
program runs, is divided out of every time the benchmark reports.

The shared 2-vCPU host the benchmark was written on runs the same
pure-Python loop at anywhere between one and two times its fastest speed,
changing within seconds, so raw times measure the neighbours as much as the
program.  A *probe* is a fixed piece of pure-Python `Fraction` elimination,
the kind of work zonoforge spends its time on, that takes about 1 ms.  A
`Sampler` runs one probe before the timed code, one every `PERIOD_S` of wall
time while it runs (from a SIGALRM handler), and one after.  The time the
code took, minus the probes run inside it, is then scaled by the mean of
`REFERENCE_PROBE_S / probe time` over those probes: the seconds the code
would have taken on a machine where one probe takes exactly
`REFERENCE_PROBE_S`.

The probe is the benchmark's own code and never calls the program under
test, so a faster program reads faster at every host speed.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.025
REFERENCE_PROBE_S = 0.001
PROBE_MATRIX = (
    (3, -7, 1, 8, -2),
    (-5, 4, 9, -1, 6),
    (2, 8, -6, 7, -3),
    (9, -1, 4, -8, 5),
    (-4, 6, 2, 3, -9),
)
PROBE_REPEATS = 3


def _eliminate() -> int:
    rows = [[Fraction(x) for x in row] for row in PROBE_MATRIX]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def probe() -> float:
    """Seconds one probe takes now."""
    start = perf_counter()
    for _ in range(PROBE_REPEATS):
        _eliminate()
    return perf_counter() - start


def scale(probes) -> float:
    """Reference seconds per second of the host's time while `probes` were
    taken: the mean of REFERENCE_PROBE_S / probe time."""
    return sum(REFERENCE_PROBE_S / p for p in probes) / len(probes)


class Sampler:
    """Probes around and during a stretch of code; one per process at a time.

        sampler = Sampler()
        sampler.start()
        ...               # the code to time
        sampler.stop()
        sampler.inside    # seconds of the probes run inside that code
        sampler.probes    # every probe taken, before, during and after
    """

    def __init__(self) -> None:
        self.probes: list = []
        self.inside = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:   # a late alarm while a probe runs: skip it
            return
        self._busy = True
        p = probe()
        self.probes.append(p)
        self.inside += p
        self._busy = False

    def start(self) -> None:
        self.probes.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probes.append(probe())
