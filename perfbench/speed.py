"""Correction of the benchmark's timings for the machine's current speed.

On a shared machine the same work can take 1.5 times as long from one
minute to the next, because other tenants load the cores.  While a timed
phase runs, a SIGALRM handler in the main thread times a fixed reference
loop at a fixed period.  The phase's time in reference seconds is the
measured time with the reference loop's share removed, multiplied by the
mean of REFERENCE_S / (reference loop's time): the seconds the phase would
take on a machine that runs the reference loop in REFERENCE_S.
"""

import signal
from time import thread_time

# Typical duration of reference() on 2 shared cores with Python 3.11; it
# only sets the scale of a reference second.
REFERENCE_S = 0.0007


def reference():
    """Fixed pure-Python work: dict updates, integer arithmetic and str()."""
    table = {}
    acc = 0
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0) + i
        acc += len(str(i)) * (i & 7)
    return acc + sum(table.values())


def reference_time():
    """CPU seconds of one reference() call, so time the thread waits for a core does not count."""
    t0 = thread_time()
    reference()
    return thread_time() - t0


def speed_factor(samples):
    """Reference seconds per measured second, from reference-loop durations."""
    return sum(REFERENCE_S / r for r in samples) / len(samples)


class SpeedSampler:
    """Context manager that times reference() every ``period_s`` seconds while active.

    Only for the main thread of a process; pool workers forked meanwhile
    inherit no timer.  The period should leave the reference loop a few
    percent of the time and give at least ten samples per phase.
    """

    def __init__(self, period_s):
        self.period_s = period_s
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(reference_time())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # A phase shorter than one period still gets a sample.
        self.samples.append(reference_time())
        return False

    def busy(self):
        """Seconds the samples taken inside the phase spent in the reference loop."""
        return sum(self.samples[:-1])

    def reference_seconds(self, measured_s):
        """Convert a measured duration that contained the sampling into reference seconds."""
        return (measured_s - self.busy()) * speed_factor(self.samples)
