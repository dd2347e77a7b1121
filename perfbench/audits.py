"""Correctness audits behind the benchmark's ``failed`` count.

Each function returns a list of failure messages; an empty list means the
audited output is correct.  None of them pins a seed-specific realisation,
so they hold for any workload seed and for any engine change that keeps
the protocol's outcome distribution.
"""

from __future__ import annotations

import math

import numpy as np

FLOAT_SLACK = 1e-9   # round-off allowed on exact invariants
ORACLE_TOL = 1e-2    # criterion 9's tolerance on the average state
CLI_TOL = 1e-6       # CSV value against its recorded reference
BAND_SIGMAS = 5.0    # half-width of the run-mean distance band


def _codebook_size(n: int, rate: float) -> int:
    return 1 << max(0, math.ceil(n * rate - 1e-9))


def trace_failures(t, p_joint: np.ndarray, limits: dict,
                   criterion6: bool = False) -> list:
    """Per-trial invariants of one simulation trace.

    ``limits`` maps each index field (``ell``, ``ell_hat``, ``m12`` and,
    for cascades, ``ell2``, ``ell_hat2``, ``ell_tilde2``, ``m23``) to its
    exclusive upper bound.

    The block bound checked on every trial is the one that always holds:
    rho - tau = sum_{a,u} (f(a,u) - f(a) p(u|a)) A_a x B_u, so
    (1/2)||rho - tau||_1 <= TV(f, p) + TV(f_X, p_X) <= 2 TV(f, p), with f
    the trial's joint type.  Criterion 6's sharper form, <= gamma on
    gamma-typical trials, is an empirical property of the regime the
    acceptance suite checks it in (Example 1, delta = 0.02); at n <= 6 and
    gamma = 0.8 correct runs exceed it (0.803 was seen), so it is checked
    only where ``criterion6`` says that regime applies.
    """
    out = []
    total = float(np.sum(t.joint_counts))
    if abs(total - t.n) > FLOAT_SLACK:
        out.append(f"trial {t.trial}: joint counts sum to {total}, not {t.n}")
    for field, bound in limits.items():
        value = getattr(t, field)
        if not 0 <= value < bound:
            out.append(f"trial {t.trial}: {field}={value} outside [0, {bound})")
    for field in ("distance_to_target", "distance_to_tau"):
        d = getattr(t, field)
        if not -FLOAT_SLACK <= d <= 1.0 + FLOAT_SLACK:
            out.append(f"trial {t.trial}: {field}={d} outside [0, 1]")
    freq = np.asarray(t.joint_counts, dtype=float) / t.n
    tv = 0.5 * float(np.abs(freq - p_joint).sum())
    if t.distance_to_tau > 2 * tv + FLOAT_SLACK:
        out.append(f"trial {t.trial}: (1/2)||rho - tau||_1 = "
                   f"{t.distance_to_tau} > 2 TV(type, p) = {2 * tv}")
    if criterion6 and tv < t.gamma_radius \
            and t.distance_to_tau > t.gamma_radius:
        out.append(f"trial {t.trial}: gamma-typical but (1/2)||rho - tau||_1 "
                   f"= {t.distance_to_tau} > gamma = {t.gamma_radius}")
    return out


def two_node_limits(t) -> dict:
    """Index bounds of a two-node trace, from its own rates."""
    l0 = _codebook_size(t.n, t.codeword_rate)
    return {"ell": l0, "ell_hat": l0, "m12": _codebook_size(t.n, t.rate)}


def cascade_limits(t, codeword_rate_z: float) -> dict:
    """Index bounds of a cascade trace; Alice-to-Bob bins carry R12 - R23."""
    l0_y = _codebook_size(t.n, t.codeword_rate)
    l0_z = _codebook_size(t.n, codeword_rate_z)
    return {"ell": l0_y, "ell_hat": l0_y,
            "m12": _codebook_size(t.n, t.rate - t.rate23),
            "ell2": l0_z, "ell_hat2": l0_z, "ell_tilde2": l0_z,
            "m23": _codebook_size(t.n, t.rate23)}


def converse_failures(report, label: str) -> list:
    """The measurement-side converse inequalities must all hold."""
    return [f"{label}: converse inequality {iq.name} fails "
            f"(margin {iq.margin:.3e})"
            for iq in report.inequalities if not iq.passed]


def oracle_failures(mc_sum: np.ndarray, oracle_sum: np.ndarray,
                    weight: float, label: str, tol: float = ORACLE_TOL) -> list:
    """Pooled Monte-Carlo average state against the exact oracle state.

    Both sums are weighted by the trials of each codebook, so their ratio
    to ``weight`` is the mean over every trial of the run.
    """
    diff = (np.asarray(mc_sum) - np.asarray(oracle_sum)) / weight
    dist = 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
    if dist > tol:
        return [f"{label}: MC average state is {dist:.3e} from the exact "
                f"oracle (tolerance {tol:g})"]
    return []


def cli_failures(exit_code: int, values: list, references: list,
                 label: str) -> list:
    """A CLI solve must exit 0, be feasible and match its reference value."""
    if exit_code != 0:
        return [f"{label}: exit code {exit_code}"]
    if len(values) != len(references):
        return [f"{label}: {len(values)} result rows, expected "
                f"{len(references)}"]
    out = []
    for got, want in zip(values, references):
        if not math.isfinite(got):
            out.append(f"{label}: infeasible value {got}")
        elif abs(got - want) > CLI_TOL:
            out.append(f"{label}: value {got!r} differs from reference "
                       f"{want!r}")
    return out


def band_failures(distances, reference: dict, label: str) -> list:
    """Run-mean distance_to_target within a Monte-Carlo band of the reference.

    ``reference`` holds the per-trial mean, standard deviation and the
    number of trials it was measured on.
    """
    d = np.asarray(distances, dtype=float)
    if d.size == 0:
        return [f"{label}: no trials to audit"]
    sd = reference["sd"]
    half = BAND_SIGMAS * math.sqrt(sd ** 2 / d.size
                                   + sd ** 2 / reference["trials"])
    mean = float(d.mean())
    if abs(mean - reference["mean"]) > half:
        return [f"{label}: mean distance_to_target {mean:.5f} outside "
                f"{reference['mean']:.5f} +- {half:.5f}"]
    return []
