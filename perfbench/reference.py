"""Host-speed reference for the bounded timing metric.

The benchmark runs on a few cores of a shared host whose speed changes from
second to second: a fixed pure-Python loop takes anywhere between 1 and 2
times its fastest time, and every operation of the program slows with it.
So each timed step of an operation is bracketed by runs of a fixed
reference kernel, and a run's total operation wall time is divided by the
sum over its operations of the mean time of the kernel runs around each.
Both sides slow together, so the quotient (the cost of an operation in
units of the reference kernel, unit ``ref``) is far steadier than either
time.  The kernels are fixed code in this directory: a change to ``oamqkd``
moves the quotient exactly as it moves the step's wall time.

One kernel per kind of work a workload does:

* ``small_ops``: a Python loop of 8x8 complex mat-vecs, Born probabilities,
  PRNG draws and dict updates, like protocol rounds (engine workloads and
  ``cli_d4_transcript``, run in the worker around each CLI process);
* ``array_ops``: elementwise complex exponentials and polynomials on a
  512 x 512 grid, like one ``mode_field`` evaluation (``modes_gram``).
"""

from __future__ import annotations

import functools
import time

import numpy as np

SMALL_OPS_ROUNDS = 1500
_RNG = np.random.default_rng(20040917)
_MATRIX = _RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8))


def small_ops() -> float:
    rng = np.random.default_rng(7)
    state = np.ones(8, dtype=complex)
    counts: dict[int, int] = {}
    acc = 0.0
    for _ in range(SMALL_OPS_ROUNDS):
        out = _MATRIX @ state
        probs = np.abs(out) ** 2
        k = int(rng.integers(8))
        acc += float(probs[k] / probs.sum())
        counts[k] = counts.get(k, 0) + 1
    return acc


@functools.cache
def _grid() -> tuple[np.ndarray, np.ndarray]:
    axis = np.linspace(-3.0, 3.0, 512)
    return tuple(np.meshgrid(axis, axis))


def array_ops() -> float:
    x, y = _grid()
    r2 = x * x + y * y
    field = np.exp(-r2 + 0.5j * r2) * (4.0 * x * x - 2.0) * y
    return float(np.vdot(field, field).real)


class Clock:
    """Times the steps of one operation with the reference run around each.

    ``start()`` runs the reference and starts the first step; ``tick()``
    ends a step, runs the reference and starts the next; ``stop()`` ends the
    last step.  ``wall_s`` is the sum of the step times (the reference runs
    are not in it) and ``ref_s`` the mean time of the reference runs.
    """

    def __init__(self, reference) -> None:
        self.reference = reference
        self.steps: list[float] = []
        self.refs: list[float] = []

    def _reference(self) -> None:
        start = time.perf_counter()
        self.reference()
        self.refs.append(time.perf_counter() - start)
        self._step_start = time.perf_counter()

    def start(self) -> None:
        self.steps, self.refs = [], []
        self._reference()

    def tick(self) -> None:
        self.steps.append(time.perf_counter() - self._step_start)
        self._reference()

    stop = tick

    @property
    def wall_s(self) -> float:
        return sum(self.steps)

    @property
    def ref_s(self) -> float:
        return sum(self.refs) / len(self.refs)
