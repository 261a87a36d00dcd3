"""A fixed pure-Python reference loop that measures the host's speed.

The speed of this machine drifts by up to 1.8x over seconds to minutes,
with the process on the CPU the whole time (no waiting, no steal), so
every timing of a pass is scaled to reference speed: multiplied by
``NOMINAL_S`` over the mean time of this loop, timed between the jobs of
the same pass.  Over ten runs this cut the quartile spread of
``fiber-verify``'s pass time from 0.15 to 0.04 of its median.  The loop
does what the package's hot paths do (Fraction arithmetic in sparse
dict-of-rows elimination) and never touches the package, so a change to
the package cannot move it.
"""

import random
import time
from fractions import Fraction

# the loop's time on the machine the baseline was recorded on (Intel Xeon
# under KVM, Python 3.11) at its fast state, so scaled times read as
# seconds there
NOMINAL_S = 0.022


def _eliminate() -> int:
    rng = random.Random(12345)
    n, band = 90, 6
    rows = [{j: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
             for j in range(i, min(n, i + band))} for i in range(n)]
    rows.reverse()
    pivots = {}
    for row in rows:
        while row:
            c = min(row)
            if c not in pivots:
                inv = 1 / row[c]
                pivots[c] = {k: v * inv for k, v in row.items()}
                break
            f = row.pop(c)
            for k, v in pivots[c].items():
                if k != c:
                    x = row.get(k, 0) - f * v
                    if x:
                        row[k] = x
                    else:
                        row.pop(k, None)
    return len(pivots)


def timed() -> float:
    """Seconds taken by one run of the reference loop."""
    t0 = time.perf_counter()
    for _ in range(10):
        _eliminate()
    return time.perf_counter() - t0
