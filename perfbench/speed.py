"""How fast the benchmark's CPU ran, sampled while commands run on it.

On a shared host, a neighbour on the same physical core can slow this
machine's CPU by up to ~1.6x for seconds to minutes at a time. The same
``teams`` pass took 16 s and 27 s ten minutes apart. That drift is larger
than the regressions the benchmark must catch, and repeating a pass within
a run does not average it out.

So the benchmark pins itself, and with it every command it starts, to one
CPU. A :class:`SpeedSampler` thread on that CPU times a fixed unit of
interpreter work every ``INTERVAL_S``, in thread CPU time. A unit takes
longer only when the CPU itself runs slower. Time spent waiting for the
CPU, or for the interpreter lock, does not count. An interval's slowdown is
its mean unit time over ``UNIT_REFERENCE_S``. Time metrics are reported at
reference speed: measured seconds divided by the slowdown.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

UNIT_REFERENCE_S = 0.0006
INTERVAL_S = 0.05
_WORDS = "fixed the logout bug in the session handler and added unit tests for it".split()


def pin_to_one_cpu() -> int:
    """Restrict this process, and the children it starts later, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def work_unit() -> int:
    """A fixed amount of dict and string work, the kind teamscope spends its time on."""
    counts: dict[str, int] = {}
    for i in range(3000):
        word = _WORDS[i % len(_WORDS)]
        counts[word] = counts.get(word, 0) + len(word)
    return len(counts)


class SpeedSampler:
    """Background thread timing :func:`work_unit` until the ``with`` block ends."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, unit CPU seconds)
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._halt.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._halt.wait(INTERVAL_S):
            start = time.thread_time()
            work_unit()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def slowdown(self, start: float, end: float) -> float:
        """Mean unit time between two ``perf_counter`` readings, over the reference.

        An interval shorter than the sampling period takes the sample nearest
        to its end.
        """
        samples = self.samples[:]
        if not samples:
            raise RuntimeError("speed sampler has no samples yet")
        units = [unit for at, unit in samples if start <= at <= end]
        if not units:
            units = [min(samples, key=lambda s: abs(s[0] - end))[1]]
        return statistics.fmean(units) / UNIT_REFERENCE_S
