"""Host speed, read from a fixed piece of reference work.

The benchmark shares a few CPUs of a virtual machine with other tenants,
and the host switches those CPUs between a fast and a slow state that
lasts from a fraction of a second to minutes (about 1.6x apart on the
2-vCPU Xeon where the benchmark was written).  Every timing is therefore
taken together with the time of `reference_work` run right before and
right after it on the same thread, and scaled to the speed at which that
work takes REFERENCE_S.  The reference work is the benchmark's own code,
so a change to holodiff cannot move it.
"""

from __future__ import annotations

from time import perf_counter

# Close to the reference work's time in the fast state of the machine
# above, so scaled times there read close to wall-clock times.
REFERENCE_S = 0.3e-3


def reference_work() -> int:
    """Interpreter-bound work of fixed size: integer arithmetic, calls and a dict."""
    acc = 0
    counts = {}
    for i in range(1800):
        acc = (acc * 31 + i) % 1000003
        key = i % 17
        counts[key] = counts.get(key, 0) + (acc & 7)
    return acc + sum(counts.values())


def reference_seconds() -> float:
    """Wall time of the reference work, run once untimed to warm it first."""
    reference_work()
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, given the reference times around it.

    The faster of the two reference readings is used.  When the machine
    changed state during the timed work, that overstates the scaled time
    rather than understating it, so a best-of-several taken over scaled
    times picks a run with no change of state.
    """
    return seconds * REFERENCE_S / min(before, after)
