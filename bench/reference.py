"""Probes of the machine's speed, timed alongside the benchmark's ops.

Shared virtual machines change speed a lot over time, within
runs and between them.  On a shared 2-vCPU VM (Python 3.11), the same
code's median solve time moved by 60% between runs ten minutes apart.  Each
timed run therefore also times a probe that never touches the library, and
scales every timing by ``nominal / (the probe's recent median time)``.  A
result then reads as it would at the machine's usual speed.  ``run.py``
prints the raw figures beside the scaled ones.

Each probe is matched to the work it scales.  ``compute_ns`` is
pure-Python arithmetic and scales in-process solves and the computing part
of set-up.  ``import_ns`` starts an interpreter that imports numpy; it
scales CLI ops, which are processes of the same kind, and the rest of
set-up, which starts an interpreter and imports the library and numpy.  On that VM, ten runs' median CLI latencies spread over
22-25% of their median (quartile distance) when scaled by a bare
interpreter (``python -S -c pass``), and over 6% when scaled by the numpy
import.
"""

import subprocess
import sys
import time
from fractions import Fraction

#: The probes' median times at the usual speed of the machine the benchmark
#: was tuned on (a shared 2-vCPU VM).  Only ratios to them matter; they fix
#: the scale of results.
NOMINAL_COMPUTE_NS = 430_000
NOMINAL_IMPORT_NS = 150_000_000


def compute_ns() -> int:
    """Time an exact harmonic sum with ``fractions`` (about 0.43 ms)."""
    start = time.perf_counter_ns()
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i)
    return time.perf_counter_ns() - start


def import_ns() -> int:
    """Time the start of an interpreter that imports numpy and exits."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter_ns() - start
