"""Host speed, sampled during the jobs it is used to judge.

The shared 2-vCPU host this benchmark was tuned on changes speed by up to
1.6x, in phases that last from a few seconds to many minutes, and numpy,
scipy and plain Python code slow down and speed up together.  A job's wall
time alone therefore says as much about the host as about the program, and
so does a reference computation timed only between jobs: it catches one
phase, while a 25-second job spans many.

HostSampler runs small fixed kernels that share no code with gark from a
SIGALRM handler, one kernel every INTERVAL_S seconds, in turn, for as long
as it is entered.  The samples taken inside a job cover the same phases as
the job; ``claim`` keeps them and returns the time the handler took, which
the caller takes out of the job's time.  ``reference`` is the sum over the
kernels of their trimmed mean sample time, and a job's time divided by it
is the job's length in units of the host's current speed.

The kernels cover what the workloads spend their time on: sparse LU
solves on a small and on a bsvd-sized grid, assembly of small sparse block
matrices (as in a Jacobian), small numpy operations and plain interpreter
work.  Together they take about 5% of a job's time.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

INTERVAL_S = 0.1
TRIM = 0.1          # share of samples dropped at each end of a kernel's list


def _shifted_laplacian(n):
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    return (sp.identity(n * n) + 0.5 * sp.kronsum(line, line)).tocsc()


def _sparse_kernel(n, rounds):
    matrix = _shifted_laplacian(n)
    lu = spla.splu(matrix)
    matrix = matrix.tocsr()

    def kernel():
        x = np.ones(matrix.shape[0])
        for _ in range(rounds):
            x = lu.solve(x)
            x = matrix @ (x / np.linalg.norm(x) + 0.1 * np.sin(x))
    return kernel


def _sparse_assembly_kernel():
    values = np.linspace(0.1, 1.0, 121)
    x0 = np.ones(2 * values.size)

    def kernel():
        x = x0
        for _ in range(5):
            block = sp.bmat([[sp.diags(-values * values), sp.diags(-values)],
                             [sp.diags(values * values),
                              sp.diags(values - 0.1)]], format="csr")
            x = block.T @ x
    return kernel


def _numpy_small_kernel():
    base = np.linspace(0.0, 1.0, 200)

    def kernel():
        x = base
        for _ in range(500):
            x = 0.5 * (x + base) - 0.01 * np.sin(x)
    return kernel


def _python_kernel():
    def kernel():
        total, table = 0.0, {}
        for i in range(20000):
            total += (i * 0.5) % 7.0
            table[i & 63] = total
    return kernel


def trimmed_mean(values) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


class HostSampler:
    """Samples host speed from a SIGALRM handler while entered."""

    def __init__(self):
        self.names = ["sparse_lu_small", "sparse_lu_large", "sparse_assembly",
                      "numpy_small", "python"]
        self.kernels = [_sparse_kernel(40, 12), _sparse_kernel(130, 1),
                        _sparse_assembly_kernel(), _numpy_small_kernel(),
                        _python_kernel()]
        for kernel in self.kernels:
            kernel()             # so that its memory is resident from now on
        self.samples = [[] for _ in self.kernels]
        self.pending = []        # (entered, kernel index, seconds, left)
        self.turn = 0
        self.inside = False
        self.previous = None

    def _time(self, index) -> float:
        start = time.perf_counter()
        self.kernels[index]()
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        if self.inside:
            return
        self.inside = True
        collecting = gc.isenabled()
        # A collection the handler set off would be the job's work.
        gc.disable()
        try:
            entered = time.perf_counter()
            index = self.turn % len(self.kernels)
            self.turn += 1
            seconds = self._time(index)
            self.pending.append((entered, index, seconds,
                                 time.perf_counter()))
        finally:
            if collecting:
                gc.enable()
            self.inside = False

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self.previous)
        return False

    def claim(self, start, end) -> float:
        """Keep the samples taken between ``start`` and ``end``, drop those
        taken outside, and return the seconds the handler took inside."""
        pending, self.pending = self.pending, []
        taken = 0.0
        for entered, index, seconds, left in pending:
            if start <= entered and left <= end:
                self.samples[index].append(seconds)
                taken += left - entered
        return taken

    def reference(self) -> float:
        """Summed trimmed mean time of the kernels, in seconds.  A kernel
        no job sampled (only jobs far shorter than a second leave one out)
        is timed once here."""
        for index, samples in enumerate(self.samples):
            if not samples:
                samples.append(self._time(index))
        return sum(trimmed_mean(samples) for samples in self.samples)

    def breakdown(self) -> dict:
        """Trimmed mean milliseconds and sample count of each kernel."""
        return {name: f"{1e3 * trimmed_mean(samples):.4g} ms "
                      f"x {len(samples)}"
                for name, samples in zip(self.names, self.samples)
                if samples}

    def count(self) -> int:
        return sum(len(samples) for samples in self.samples)
