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

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, HamiltonianParts, total_magnetization
from .engine import CycleOperators, CycleParams, CycleState, cycle_record
from .errors import CriteriaViolatedError
from .limitcycle import DEFAULT_TOL
from .linalg import partial_trace, trace_distance

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
        doc = {
            "q_c_star": self.q_c_star,
            "q_h_star": self.q_h_star,
            "w_star_paper": self.w_star_paper,
            "w_star_ledger": self.w_star_ledger,
            "eta": self.eta,
            "eta_predicted": self.eta_predicted,
            "carnot_eta": self.carnot_eta,
            "eq18_residual": self.eq18_residual,
            "first_law_residual": self.first_law_residual,
            "spectral_gap": self.spectral_gap,
        }
        if self.ansatz_distance is not None:
            doc["ansatz_distance"] = self.ansatz_distance
        return doc


def magnetization_gibbs(n: int, kappa: float) -> np.ndarray:
    """The product state e^{-kappa S_Z} / Z on n qubits."""
    sz = total_magnetization(n)
    w = np.exp(-kappa * np.diag(sz).real)
    w /= w.sum()
    return np.diag(w).astype(complex)


def bath_criteria_mismatch(spec: ChainSpec, params: CycleParams) -> float:
    """|beta1 E_1 - beta2 E_N|, the distance from the matched-bath regime."""
    return abs(params.beta1 * spec.E[0] - params.beta2 * spec.E[-1])


def ansatz_state(spec: ChainSpec, params: CycleParams) -> np.ndarray:
    """Closed-form full-chain fixed point in the matched-bath regime.

    Valid only when beta1 E_1 = beta2 E_N (within 1e-9); the exponent
    kappa = beta1 E_1 is forced by matching the A factor to its bath Gibbs
    state. Outside the regime raises :class:`CriteriaViolatedError`.
    """
    mismatch = bath_criteria_mismatch(spec, params)
    if mismatch > CRITERIA_ATOL:
        raise CriteriaViolatedError(mismatch)
    return magnetization_gibbs(spec.n, params.beta1 * spec.E[0])


def limit_cycle_report(cycle: CycleState, parts: HamiltonianParts, spec: ChainSpec,
                       params: CycleParams, gap: float, ops: CycleOperators,
                       tol: float = DEFAULT_TOL) -> LimitCycleReport:
    """Thermodynamic report at a converged limit cycle.

    ``ops`` are the point's :func:`~qcycle.engine.cycle_operators` and
    ``tol`` the tolerance the fixed point was solved and closed at
    (:func:`~qcycle.limitcycle.limit_cycle_states`). ``eta`` is NaN when
    |q_h| <= 10 tol |E_N|: closure accepts a state within trace distance
    10 tol, and a state within delta moves q_h by at most delta |E_N|,
    since the hot-side site Hamiltonian has norm |E_N| / 2.
    """
    rec = cycle_record(cycle, parts, ops)
    e_1, e_n = spec.E[0], spec.E[-1]
    zero_heat = 10.0 * tol * abs(e_n)

    ansatz_distance = None
    if bath_criteria_mismatch(spec, params) <= CRITERIA_ATOL:
        dims = [2] * spec.n
        ansatz_cb = partial_trace(ansatz_state(spec, params), range(1, spec.n), dims)
        rho_cb_star = partial_trace(cycle.rho1, range(1, spec.n), dims)
        ansatz_distance = trace_distance(rho_cb_star, ansatz_cb)

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
