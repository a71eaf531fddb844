"""Wall time corrected for a shared core's changing speed.

On a small shared box the same work can take 30-50% longer for tens of
seconds while a neighbour loads the other hyperthread; one measured run can
sit wholly inside such a phase.  Best-of-N repetitions cannot undo a phase
that outlasts the run, so every timed phase here also times a fixed probe --
dict and list work plus small and medium numpy calls, the mix the program
itself runs -- between its slices (:class:`Timer`).  Each slice is scaled by
``REFERENCE_S / probe time``: it reads as seconds on the box at the probe's
reference speed.  Raw times are kept in the run record beside the corrected
ones.

The probe never touches the program, so a change that makes the program
faster moves the corrected time exactly as it moves the raw time.

Importing this module loads nothing heavy: :func:`python_probe` times a
process's start before numpy is imported.
"""

from __future__ import annotations

import time

#: probe durations on an uncontended core of the reference box (2 vCPU
#: x86-64, Python 3.11, numpy 2.4); they only set the scale of corrected times
REFERENCE_S = 0.0045
REFERENCE_PY_S = 0.0030

_PY_KEYS = [(i * 2654435761) % 4099 for i in range(12000)]


def python_probe() -> float:
    """Seconds a fixed pure-Python probe takes now (usable before numpy loads)."""
    t0 = time.perf_counter()
    table: dict = {}
    for key in _PY_KEYS:
        table[key] = table.get(key, 0) + 1
    len(sorted(_PY_KEYS))
    return time.perf_counter() - t0


class Clock:
    """Times the fixed probe; build once per process."""

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 4096, 8000).tolist()
        self._small = rng.random(64)
        self._large = rng.random(1 << 15)

    def probe(self) -> float:
        """Seconds one run of the fixed probe takes now."""
        np = self._np
        t0 = time.perf_counter()
        table: dict = {}
        for key in self._keys:
            table[key] = table.get(key, 0) + 1
        acc = 0.0
        for _ in range(480):
            cum = np.cumsum(self._small)
            acc += float(np.searchsorted(cum, 0.5 * cum[-1]))
        acc += float(np.cumsum(self._large)[-1]) + len(sorted(self._keys))
        return time.perf_counter() - t0


class Timer:
    """Times one phase in slices, probing the box's speed between slices.

    ``start`` and ``stop`` bracket the phase and ``tick`` ends one slice (a
    chunk of a stream, a window of the live loop).  A probe runs at each of
    them, outside any slice, and each slice is scaled by the mean of the two
    probes around it: contention shifts within a run, and a per-slice scale
    follows it where one scale per run does not.  On one seed replayed ten
    times, per-slice scaling cut the quartile spread of the stream's wall time
    from 0.18 to 0.05; one median scale per run left it at 0.18.
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.raw = 0.0
        self.corrected = 0.0
        self._probe = 0.0
        self._mark = 0.0

    def start(self) -> None:
        """Probe, then open the first slice."""
        self._probe = self.clock.probe()
        self._mark = time.perf_counter()

    def tick(self) -> None:
        """Close the current slice, probe, and open the next."""
        elapsed = time.perf_counter() - self._mark
        probe = self.clock.probe()
        self.raw += elapsed
        self.corrected += elapsed * REFERENCE_S / (0.5 * (self._probe + probe))
        self._probe = probe
        self._mark = time.perf_counter()

    def stop(self) -> None:
        """Close the last slice."""
        self.tick()

    @property
    def factor(self) -> float:
        """Overall scale from raw seconds to seconds at the reference speed."""
        return self.corrected / self.raw if self.raw else 1.0
