"""Pointwise Hamiltonians and their minimizers: an oracle for the flow rules.

The engine never evaluates a Hamiltonian; its builders encode the minimizers
as matrix blocks.  These functions write the reduced minor Hamiltonian, the
finite-population system Hamiltonian and the population-limit Hamiltonian
out at one evaluation point, with the closed-form minimizers, so tests can
check the rules the builders encode: the minor rate ``-lam^{-1}(y + phi)``
and the major flow ``N (lam0 + 2 lam)^{-1}(-p0 + m(y) + m(p))``.
"""

from __future__ import annotations

import numpy as np

from marketclear.errors import AssumptionViolationError, UnsupportedModelError
from marketclear.model import CoefficientSpec, MinorBundle, ModelSpec


def eval_point(coefficient: CoefficientSpec, t: float, c0, ci) -> np.ndarray:
    """A coefficient's value at one point (t, c0, ci); the engine evaluates whole levels."""
    if coefficient.kind in ("constant", "time"):
        return coefficient.value_at_time(t)
    out = coefficient.const.copy()
    if coefficient.c0_mat is not None:
        out = out + coefficient.c0_mat @ np.asarray(c0, dtype=float)
    if coefficient.ci_mat is not None:
        out = out + coefficient.ci_mat @ np.asarray(ci, dtype=float)
    return out


def agent_bundle(spec: ModelSpec, i: int) -> MinorBundle:
    """Agent i's minor bundle: the shared one of a homogeneous spec."""
    return spec.minor[0] if spec.homogeneous else spec.minor[i]


def _solve_spd(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        raise AssumptionViolationError(f"{what} is singular")


def minimizer_alpha(y, price, lam):
    """Pointwise optimal minor trading rate -lam^{-1}(y + price)."""
    scalar = np.ndim(y) == 0
    y, price = np.atleast_1d(np.asarray(y, dtype=float)), np.atleast_1d(
        np.asarray(price, dtype=float))
    out = -_solve_spd(np.atleast_2d(np.asarray(lam, dtype=float)), y + price,
                      "minor fee matrix")
    return float(out[0]) if scalar else out


def minimizer_beta(p0, mean_y, mean_p, lam0, lam, N: int = 1):
    """Optimal unnormalized major flow N (lam0+2 lam)^{-1}(-p0 + m(y) + m(p))."""
    scalar = np.ndim(p0) == 0
    p0, mean_y, mean_p = (np.atleast_1d(np.asarray(a, dtype=float))
                          for a in (p0, mean_y, mean_p))
    combo = np.atleast_2d(np.asarray(lam0, dtype=float)) + 2.0 * np.atleast_2d(
        np.asarray(lam, dtype=float))
    out = N * _solve_spd(combo, -p0 + mean_y + mean_p, "lam0 + 2 lam")
    return float(out[0]) if scalar else out


def minimizer_beta_mfg(p0, ybar, pbar, lam0, lam) -> np.ndarray:
    """Optimal per-capita major flow in the population limit."""
    return minimizer_beta(p0, ybar, pbar, lam0, lam, N=1)


def hamiltonian_minor(y, alpha, price, lam, l=None, fbar: float = 0.0) -> float:
    """Reduced minor Hamiltonian <y, a + l> + <phi, a> + .5<a, lam a> + fbar."""
    y, alpha, price = (np.atleast_1d(np.asarray(a, dtype=float))
                       for a in (y, alpha, price))
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    l = np.zeros_like(y) if l is None else np.atleast_1d(np.asarray(l, dtype=float))
    return float(y @ (alpha + l) + price @ alpha + 0.5 * alpha @ lam @ alpha + fbar)


def hamiltonian_system(spec: ModelSpec, t: float, x0, xs, ys, p0, ps, rs, beta,
                       c0=None, cis=None) -> float:
    """Finite-population system Hamiltonian at one evaluation point.

    States are unnormalized (x0 is the raw major position); ``xs, ys, ps, rs``
    list one n-vector per minor agent.
    """
    n = spec.dims.n
    N = len(xs)
    c0 = np.zeros(n) if c0 is None else np.asarray(c0, dtype=float)
    cis = [np.zeros(n)] * N if cis is None else cis
    lam = eval_point(spec.lambda_minor, t, c0, cis[0]).reshape(n, n)
    lam0 = eval_point(spec.lambda_major, t, c0, cis[0]).reshape(n, n)
    lam_inv = np.linalg.inv(lam)
    beta = np.asarray(beta, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    mean_y = sum(np.asarray(y, dtype=float) for y in ys) / N
    l0N = N * eval_point(spec.major_flow.l0, t, c0, None)
    total = float(p0 @ (beta + l0N))
    for i in range(N):
        bundle = agent_bundle(spec, i)
        xi, yi, pi, ri = (np.asarray(a, dtype=float) for a in (xs[i], ys[i], ps[i], rs[i]))
        li = eval_point(bundle.l, t, c0, cis[i])
        drift = -lam_inv @ (yi - mean_y) - beta / N + li
        total += float(pi @ drift)
        grad = eval_point(bundle.cf, t, c0, cis[i]).reshape(n, n) @ xi \
            + eval_point(bundle.hf, t, c0, cis[i])
        total += float(ri @ (-grad))
    total += float(beta @ (-mean_y + lam @ beta / N))
    total += 0.5 * float(beta @ lam0 @ beta) / N
    if spec.major_cost.affine:
        xn = x0 / N
        total += N * (0.5 * float(xn @ spec.major_cost.c0f @ xn)
                      + float(eval_point(spec.major_cost.h0f, t, c0, None) @ xn))
    else:
        raise UnsupportedModelError("system Hamiltonian needs the quadratic major cost")
    return total


def hamiltonian_mfg(spec: ModelSpec, t: float, x0, x1, y1, ybar, p0, p1, pbar, r1,
                    beta, c0=None, ci=None) -> float:
    """Population-limit Hamiltonian at one evaluation point (per-capita units)."""
    n = spec.dims.n
    c0 = np.zeros(n) if c0 is None else np.asarray(c0, dtype=float)
    ci = np.zeros(n) if ci is None else np.asarray(ci, dtype=float)
    bundle = spec.minor[0]
    lam = eval_point(spec.lambda_minor, t, c0, ci).reshape(n, n)
    lam0 = eval_point(spec.lambda_major, t, c0, ci).reshape(n, n)
    lam_inv = np.linalg.inv(lam)
    x0, x1, y1, ybar, p0, p1, pbar, r1, beta = (
        np.atleast_1d(np.asarray(a, dtype=float))
        for a in (x0, x1, y1, ybar, p0, p1, pbar, r1, beta))
    total = float(p0 @ (beta + eval_point(spec.major_flow.l0, t, c0, None)))
    total += float(p1 @ (-lam_inv @ (y1 - ybar) + eval_point(bundle.l, t, c0, ci)))
    total += float(pbar @ (-beta))
    grad = eval_point(bundle.cf, t, c0, ci).reshape(n, n) @ x1 + eval_point(bundle.hf, t, c0, ci)
    total += float(r1 @ (-grad))
    total += float(beta @ (-ybar + lam @ beta))
    total += 0.5 * float(beta @ lam0 @ beta)
    if spec.major_cost.affine:
        total += 0.5 * float(x0 @ spec.major_cost.c0f @ x0) \
            + float(eval_point(spec.major_cost.h0f, t, c0, None) @ x0)
    else:
        raise UnsupportedModelError("population-limit Hamiltonian needs the quadratic major cost")
    return total
