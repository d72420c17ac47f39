"""Output checks, one per CLI operation; each returns a list of problems.

Thresholds are the ones the acceptance tests use. An empty list means the
operation's output is correct.
"""

from __future__ import annotations

import math

REPORT_EQ18 = 1e-8          # |q_c/E_1 + q_h/E_N|
REPORT_FIRST_LAW = 1e-9     # ledger first-law residual
REPORT_ETA = 1e-8           # |eta - (1 - E_1/E_N)|
REPORT_ANSATZ = 1e-9        # distance to exp(-kappa S_Z)/Z on matched baths
SPECTRUM_GAP = 1e-8         # spectral gap against the report's, the AC channel's and the reference
REVERSE_RESIDUAL = 1e-10    # TP, completeness and reconstruction residuals
REVERSE_CERTIFICATE = 1e-9  # reversed fixed-point distance, detailed-balance violation
SIMULATE_FIRST_LAW = 1e-9   # ledger residual on the final cycle

EXIT_OK = 0
EXIT_DEGENERATE = 3  # the decoupled sweep point's expected status


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _small(doc: dict, key: str, bound: float, where: str) -> list:
    value = doc.get(key)
    if not _number(value) or abs(value) >= bound:
        return [f"{where}{key} = {value!r}, want |x| < {bound:g}"]
    return []


def report(status, doc, matched: bool) -> list:
    """``report`` on one point: certificate residuals and the efficiency identity."""
    if status != EXIT_OK or not isinstance(doc, dict):
        return [f"report exit status {status!r}, want {EXIT_OK} with a document"]
    problems = (_small(doc, "eq18_residual", REPORT_EQ18, "")
                + _small(doc, "first_law_residual", REPORT_FIRST_LAW, ""))
    if matched:
        if doc.get("eta") is not None:
            problems.append(f"eta = {doc.get('eta')!r} on a matched-bath point, want null")
        problems += _small(doc, "ansatz_distance", REPORT_ANSATZ, "")
    else:
        eta, predicted = doc.get("eta"), doc.get("eta_predicted")
        if not _number(eta) or not _number(predicted):
            problems.append(f"eta = {eta!r}, eta_predicted = {predicted!r}, want numbers")
        elif abs(eta - predicted) >= REPORT_ETA:
            problems.append(f"|eta - eta_predicted| = {abs(eta - predicted):.3e}")
        if "ansatz_distance" in doc:
            problems.append("ansatz_distance present off the matched-bath line")
    return problems


def spectrum(status, doc, dim: int, report_gap, reference) -> list:
    """``spectrum`` on one point.

    The CB gap must match the gap the report's spectral solver found, the AC
    channel (a cyclic reordering of the same strokes) must share it, neither
    channel may be degenerate, and where a reference recorded at the seed
    commit exists for this config, gap and degeneracy must match it.
    """
    if status != EXIT_OK or not isinstance(doc, dict):
        return [f"spectrum exit status {status!r}, want {EXIT_OK} with a document"]
    problems = []
    gaps = {}
    for side in ("cb", "ac"):
        part = doc.get(side)
        if not isinstance(part, dict):
            problems.append(f"spectrum has no {side} section")
            continue
        gap = part.get("spectral_gap")
        if part.get("dim") != dim:
            problems.append(f"{side}.dim = {part.get('dim')!r}, want {dim}")
        if part.get("degenerate") is not False:
            problems.append(f"{side}.degenerate = {part.get('degenerate')!r}, want false")
        if not _number(gap) or not 0.0 < gap <= 1.0:
            problems.append(f"{side}.spectral_gap = {gap!r}, want in (0, 1]")
            continue
        gaps[side] = gap
        if reference is not None:
            if abs(gap - reference[f"{side}_gap"]) >= SPECTRUM_GAP:
                problems.append(f"{side}.spectral_gap {gap!r} vs reference {reference[f'{side}_gap']!r}")
            if part.get("degenerate") != reference[f"{side}_degenerate"]:
                problems.append(f"{side}.degenerate differs from the reference")
    if "cb" in gaps and "ac" in gaps and abs(gaps["cb"] - gaps["ac"]) >= SPECTRUM_GAP:
        problems.append(f"cb gap {gaps['cb']!r} and ac gap {gaps['ac']!r} differ")
    if "cb" in gaps and report_gap is not None and abs(gaps["cb"] - report_gap) >= SPECTRUM_GAP:
        problems.append(f"cb gap {gaps['cb']!r} differs from the report's {report_gap!r}")
    return problems


def reverse(status, doc, dim: int) -> list:
    """``reverse`` on one point: both channels' reversal certificates."""
    if status != EXIT_OK or not isinstance(doc, dict):
        return [f"reverse exit status {status!r}, want {EXIT_OK} with a document"]
    problems = []
    for side in ("cb", "ac"):
        part = doc.get(side)
        if not isinstance(part, dict):
            problems.append(f"reverse has no {side} section")
            continue
        if part.get("dim") != dim:
            problems.append(f"{side}.dim = {part.get('dim')!r}, want {dim}")
        count = part.get("kraus_count")
        if not isinstance(count, int) or not 1 <= count <= dim * dim:
            problems.append(f"{side}.kraus_count = {count!r}")
        for key in ("choi_output_trace_residual", "completeness_residual",
                    "reversed_completeness_residual", "reconstruction_residual"):
            problems += _small(part, key, REVERSE_RESIDUAL, f"{side}.")
        for key in ("reversed_fixed_point_distance", "max_detailed_balance_violation"):
            problems += _small(part, key, REVERSE_CERTIFICATE, f"{side}.")
    return problems


def simulate(status, text, tol: float):
    """``simulate`` to convergence; returns (problems, cycles run)."""
    lines = text.strip().splitlines() if isinstance(text, str) else []
    cycles = max(len(lines) - 1, 0)
    if status != EXIT_OK or cycles == 0:
        return [f"simulate exit status {status!r} with {cycles} cycles, want {EXIT_OK}"], cycles
    columns = lines[0].split(",")
    if not {"cycle", "delta_prev", "first_law_residual_ledger"} <= set(columns):
        return [f"simulate header {lines[0]!r}"], cycles
    last = dict(zip(columns, lines[-1].split(",")))
    problems = []
    residual = float(last["first_law_residual_ledger"])
    if not residual < SIMULATE_FIRST_LAW:
        problems.append(f"final first_law_residual_ledger = {residual!r}")
    delta = float(last["delta_prev"])
    if not delta < tol:
        problems.append(f"final delta_prev = {delta!r}, want < {tol:g}")
    if int(last["cycle"]) != cycles:
        problems.append(f"final cycle index {last['cycle']} with {cycles} rows")
    return problems, cycles


def sweep(status, entries, configs, expected) -> list:
    """``report --sweep`` over generic points: one list of problems per config, in order.

    Each entry must carry the expected exit status; an entry that exits 0
    must also pass the single-point report check.
    """
    if not isinstance(entries, list) or len(entries) != len(configs):
        return [[f"sweep exit status {status!r}, document is not one entry per config"]
                for _ in configs]
    problems = []
    for entry, path, want in zip(entries, configs, expected):
        if not isinstance(entry, dict) or entry.get("config") != path:
            problems.append([f"entry {entry!r:.80} is not the document of {path!r}"])
        elif entry.get("status") != want:
            problems.append([f"{path}: status {entry.get('status')!r}, want {want}"])
        elif want == EXIT_OK:
            problems.append(report(EXIT_OK, entry.get("document"), matched=False))
        else:
            problems.append([])
    if status != max(expected):
        problems[0] = problems[0] + [f"sweep exit status {status!r}, want {max(expected)}"]
    return problems
