"""Limit-cycle thermodynamic reporting and the matched-bath ansatz.

At a converged limit cycle the spin symmetry of the chain forces the two
bath-side heats into the ratio q_c/E_1 = -q_h/E_N, which turns the ledger
work into w = q_h (1 - E_1/E_N) and the efficiency ratio |w|/q_h into
1 - E_1/E_N. When the baths satisfy beta1 E_1 = beta2 E_N the fixed point
has the closed form e^{-kappa S_Z}/Z with kappa = beta1 E_1, and the
efficiency prediction coincides with the classical reversible bound
1 - beta2/beta1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .chain import ChainSpec
from .engine import CycleLedger, CycleParams
from .limitcycle import CLOSURE_FACTOR, DEFAULT_TOL
from .linalg import popcounts, trace_distance

CRITERIA_ATOL = 1e-9   # |beta1 E_1 - beta2 E_N| below this counts as matched baths


@dataclass
class LimitCycleReport:
    """Flat thermodynamic summary of a converged limit cycle.

    ``w_star_paper`` is the four-term per-stroke coupling sum; its first-law
    residual is reported, not enforced. ``w_star_ledger`` is the
    switch-instant bookkeeping, which closes the first law identically and
    feeds the efficiency ratio ``eta``. ``eta`` is NaN when the hot-side
    heat vanishes. ``ansatz_distance`` is present only when the matched-bath
    criteria hold.
    """

    q_c_star: float
    q_h_star: float
    w_star_paper: float
    w_star_ledger: float
    eta: float
    eta_predicted: float
    carnot_eta: float
    eq18_residual: float
    first_law_residual: float
    spectral_gap: float
    ansatz_distance: float | None = None

    def to_dict(self) -> dict:
        """The fields in order, an absent ``ansatz_distance`` left out (a NaN ``eta`` kept)."""
        return {key: val for key, val in asdict(self).items() if val is not None}


def magnetization_gibbs(n: int, kappa: float) -> np.ndarray:
    """The product state e^{-kappa S_Z} / Z on n qubits."""
    sz = n / 2 - popcounts(2**n)  # diagonal; |0> is S^Z = +1/2
    w = np.exp(-kappa * sz)
    w /= w.sum()
    return np.diag(w).astype(complex)


def bath_criteria_mismatch(spec: ChainSpec, params: CycleParams) -> float:
    """|beta1 E_1 - beta2 E_N|, the distance from the matched-bath regime."""
    return abs(params.beta1 * spec.E[0] - params.beta2 * spec.E[-1])


def limit_cycle_report(x: np.ndarray, z: np.ndarray, ledger: CycleLedger, spec: ChainSpec,
                       params: CycleParams, gap: float, tol: float = DEFAULT_TOL) -> LimitCycleReport:
    """Thermodynamic report at a converged limit cycle.

    ``(x, z)`` are the limit cycle's CB and AC states
    (:func:`~qcycle.limitcycle.limit_cycle_states`), read through the point's
    :func:`~qcycle.engine.cycle_ledger` as the closed cycle rho0 = rho4, and
    ``tol`` the tolerance the fixed point was solved and closed at. ``eta`` is NaN when
    |q_h| <= ``CLOSURE_FACTOR`` tol |E_N|: closure accepts a state within
    trace distance ``CLOSURE_FACTOR`` tol, and a state within delta moves
    q_h by at most delta |E_N|, since the hot-side site Hamiltonian has norm
    |E_N| / 2. Where the baths match within ``CRITERIA_ATOL``, ``ansatz_distance`` is x's
    trace distance from the closed form, kappa = beta1 E_1 being forced by matching the A
    factor to its bath Gibbs state.
    """
    rec, _ = ledger.record(x, z)
    e_1, e_n = spec.E[0], spec.E[-1]
    zero_heat = CLOSURE_FACTOR * tol * abs(e_n)

    ansatz_distance = None
    if bath_criteria_mismatch(spec, params) <= CRITERIA_ATOL:
        # the ansatz is a product state, so its CB marginal is the same state on n - 1 qubits
        ansatz_cb = magnetization_gibbs(spec.n - 1, params.beta1 * spec.E[0])
        ansatz_distance = trace_distance(x, ansatz_cb)

    return LimitCycleReport(
        q_c_star=rec.q_c,
        q_h_star=rec.q_h,
        w_star_paper=rec.w_total,
        w_star_ledger=rec.w_ledger,
        eta=abs(rec.w_ledger) / rec.q_h if abs(rec.q_h) > zero_heat else float("nan"),
        eta_predicted=1.0 - e_1 / e_n,
        carnot_eta=1.0 - params.beta2 / params.beta1,
        eq18_residual=abs(rec.q_c / e_1 + rec.q_h / e_n),
        first_law_residual=rec.first_law_residual_ledger,
        spectral_gap=gap,
        ansatz_distance=ansatz_distance,
    )
