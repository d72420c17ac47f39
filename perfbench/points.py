"""Seeded working points written as qcycle config documents.

The recipe mirrors the one the test suite uses for its random ensemble, but
lives here so the benchmark never imports from ``tests/``:

* generic points put the end gaps in the sign regime where
  sign(beta2*E_N - beta1*E_1) = sign(E_N - E_1), so the signed efficiency
  ratio equals 1 - E_1/E_N and a report's ``eta`` is defined;
* matched points sit on the line beta1*E_1 = beta2*E_N, where the hot-side
  heat vanishes (``eta`` is null) and the fixed point has a closed form.

The program only ever sees the JSON documents these functions return.
"""

from __future__ import annotations

import numpy as np


def _couplings(rng: np.random.Generator, count: int) -> list:
    """Nonzero couplings of either sign, bounded away from zero."""
    signs = rng.choice([-1.0, 1.0], size=count)
    return [float(x) for x in signs * rng.uniform(0.2, 0.8, size=count)]


def _document(rng, n, e_first, e_last, beta1, beta2) -> dict:
    fields = [float(x) for x in rng.uniform(0.5, 2.0, size=n)]
    fields[0], fields[-1] = float(e_first), float(e_last)
    return {
        "chain": {"n": n, "E": fields, "J": _couplings(rng, n - 1),
                  "K": _couplings(rng, n - 1), "F": _couplings(rng, n - 1)},
        "cycle": {"beta1": float(beta1), "beta2": float(beta2),
                  "tau1": float(rng.uniform(0.3, 2.0)), "tau2": float(rng.uniform(0.3, 2.0))},
        "seed": int(rng.integers(0, 2**31)),
    }


def generic_point(rng: np.random.Generator, n: int) -> dict:
    """A random point with beta1 in [0.5, 3], beta2 in [0.2, 1] and a defined eta."""
    beta1, beta2 = rng.uniform(0.5, 3.0), rng.uniform(0.2, 1.0)
    e_first = rng.uniform(0.5, 1.2)
    crossover = beta1 * e_first / beta2  # E_N at which the hot-side heat flips sign
    if crossover <= 5.0:
        e_last = max(e_first, crossover) * rng.uniform(1.15, 1.6)
    else:
        e_last = min(e_first, crossover) * rng.uniform(0.5, 0.85)
    return _document(rng, n, e_first, e_last, beta1, beta2)


def matched_point(rng: np.random.Generator, n: int) -> dict:
    """A random point exactly on the matched-bath line beta1*E_1 = beta2*E_N."""
    e_first, e_last = rng.uniform(0.6, 1.2), rng.uniform(1.4, 2.4)
    beta1 = rng.uniform(0.6, 1.5)
    return _document(rng, n, e_first, e_last, beta1, beta1 * e_first / e_last)


def decoupled_point() -> dict:
    """Zero couplings and stroke times: the channel has a degenerate fixed point."""
    return {
        "chain": {"n": 3, "E": [1.0, 1.3, 2.0], "J": [0.0, 0.0], "K": [0.0, 0.0],
                  "F": [0.0, 0.0]},
        "cycle": {"beta1": 1.0, "beta2": 0.75, "tau1": 0.0, "tau2": 0.0},
        "seed": 0,
    }

