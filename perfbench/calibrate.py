"""Machine speed, measured with a frozen copy of the package.

The benchmark gets a few cores of a shared host, and the speed those
cores give drifts by up to 40% over tens of seconds, unevenly across
kinds of code. On a 2-vCPU Intel Xeon VM a fixed interpreter loop took
17 ms at some moments and 25 ms at others, and a pair-study pass took
0.66 s in one run and 1.08 s in the next while a fixed interpreter and
numpy loop timed between its sections did not move. Raw times then say
more about the neighbours than about the program, and a generic loop
does not track the drift.

So every timed section is bracketed by a *calibration*: the same kind
of work on a small fixed input, run by ``frozen/risnoma_seed``, a copy
of the package as it was when the benchmark was written. The section's
time is reported at reference speed:

    reference seconds = raw seconds * ref / calibration seconds

where ``ref`` is the calibration's median time on the machine above and
the calibration seconds are the mean of the two brackets. A slower host
stretches the section and the calibration alike and cancels; a change
to the package moves only the section, because the frozen copy never
changes. Edit nothing under ``frozen/``.
"""

import os
import sys

FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen")


def frozen_package():
    """The frozen copy, imported as ``risnoma_seed``: not under the
    ``risnoma`` name, so the tracer never wraps it."""
    if FROZEN not in sys.path:
        sys.path.append(FROZEN)
    import risnoma_seed.cli  # noqa: F401  (imports experiments and tables too)

    return sys.modules["risnoma_seed"]


def scale(ref: float, before: float, after: float) -> float:
    """Factor from raw to reference seconds for a section that ran between
    two calibrations taking ``before`` and ``after`` seconds."""
    return ref / (0.5 * (before + after))
