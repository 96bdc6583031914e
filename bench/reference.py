"""Fixed pure-Python work that times the host, not the program.

Each CLI sample divides its own times by the time of ``reference``, taken
in the same child process just before ``import steinalg.cli`` and just
after the CLI returns.  The host's speed on this kind of VM moves by up to
2x in bursts of seconds and by up to 1.8x in phases of minutes; the
quotient cancels what the two terms share.  Nothing here comes from
steinalg, so no change to the program moves the reference.
"""

from __future__ import annotations

import gc
import time

GENERATORS = (1, -1, 2, -2)
RADIUS = 9


def _reduced_product(u: tuple, v: tuple) -> tuple:
    i = 0
    n = min(len(u), len(v))
    while i < n and u[-1 - i] == -v[i]:
        i += 1
    return u[: len(u) - i] + v[i:]


def reference() -> int:
    """Multiply every word of the ball of radius 9 of the free group on two
    letters by every word of the sphere of radius 2, and look the product up
    in the ball: tuple words and a dict index, the kind of work the CLI
    does, in about 10 MB.  Returns the number of products inside the ball
    (157,452), so the work cannot be skipped."""
    words = frontier = [()]
    for _ in range(RADIUS):
        frontier = [w + (g,) for w in frontier for g in GENERATORS if not w or w[-1] != -g]
        words = words + frontier
    index = {w: i for i, w in enumerate(words)}
    sphere2 = [w for w in words if len(w) == 2]
    inside = 0
    for u in words:
        for s in sphere2:
            inside += _reduced_product(u, s) in index
    return inside


def timed() -> tuple[float, float]:
    """Wall and CPU seconds of one ``reference`` call.  The collector is
    off, so the time does not depend on the objects the CLI left behind."""
    gc.disable()
    try:
        cpu0, t0 = time.process_time(), time.perf_counter()
        reference()
        return time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        gc.enable()
