"""Host-speed calibration: fixed kernels timed next to every pass.

The host's speed drifts by tens of percent over minutes, longer than a run,
so a best-of or median of raw times cannot remove it.  Each reading times
four fixed kernels that share no code with latentprox and resemble its hot
paths: small matvecs with Python glue, small-array numpy calls with input
checks, plain Python arithmetic and dict access, and a 256x32 matvec plus a
sort.  A reading is the geometric mean of the four median times.  Dividing a
pass's time by the mean reading around it and multiplying by ``REF_S`` gives
the time the pass would take on a host whose reading is ``REF_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.004     # nominal reading of a quiet 2-core host of this class
MIN_REPS = 3
# a reading after a call lasts this share of the call, so that it samples
# the host's speed over a comparable stretch of time
COVERAGE = 0.1


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((64, 16))
        self.B = rng.standard_normal((256, 32))
        self.z0 = rng.standard_normal(16)
        self.w0 = rng.standard_normal(32)

    def _matvec_loop(self):
        z, acc = self.z0.copy(), 0.0
        for i in range(2000):
            x = self.A @ z
            acc += float(x[i & 63])
            z = 0.5 * z + 0.01 * x[:16]
        return acc

    def _checked_calls(self):
        z, acc = self.z0.copy(), 0.0
        for _ in range(700):
            x = np.asarray(self.A @ z, dtype=float)
            if not np.isfinite(x).all():
                break
            acc += float(np.linalg.norm(np.clip(x, -1.0, 1.0)))
            z = z - 0.01 * (x[:16] - z)
        return acc

    @staticmethod
    def _python_loop():
        acc, d = 0.0, {}
        for i in range(6000):
            v = (i * 0.5 + 1.0) / 3.0
            d[i & 31] = v
            acc += d[(i + 7) & 31] if (i + 7) & 31 in d else v
        return acc

    def _wide_matvec(self):
        w, acc = self.w0.copy(), 0.0
        for _ in range(400):
            x = self.B @ w
            acc += float(np.sort(x)[77])
            w = 0.9 * w + 0.01 * x[:32]
        return acc

    def reading(self, after_s: float = 0.0) -> float:
        """Geometric mean over the kernels of their median seconds.

        The kernels run in turn, at least MIN_REPS times each and until
        COVERAGE x ``after_s`` seconds have gone by.
        """
        kernels = (self._matvec_loop, self._checked_calls,
                   self._python_loop, self._wide_matvec)
        times = [[] for _ in kernels]
        t_start = time.perf_counter()
        while len(times[0]) < MIN_REPS or \
                time.perf_counter() - t_start < COVERAGE * after_s:
            for kernel, out in zip(kernels, times):
                t0 = time.perf_counter()
                kernel()
                out.append(time.perf_counter() - t0)
        return float(np.exp(np.mean([np.log(statistics.median(t))
                                     for t in times])))


def scale(raw_s: float, readings) -> float:
    """Raw seconds expressed at the reference host speed."""
    return raw_s * REF_S / float(np.exp(np.mean(np.log(readings))))
