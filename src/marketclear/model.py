"""Market model declaration and standing-assumption checks.

A model bundles the dimensions, the discount, the trading-fee processes, the
per-minor coefficient functions, the major trader's flow and cost gradients,
and the laws of the exogenous inputs.  Coefficients are restricted to
constant, deterministic time-dependent, or affine-in-(c0, ci) forms so that
conditional expectations on the lattice are exact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import UnsupportedModelError, ValidationError
from .scenario import WEIGHT_TOL, stream_rng

SECANT_PAIRS = 256
SECANT_BOX = 1.0  # secant pairs are drawn uniformly on [-SECANT_BOX, SECANT_BOX]^n
SECANT_SEED = 20210312


@dataclass(frozen=True)
class Dimensions:
    """Security count n, common/idiosyncratic Brownian dimensions, agent count."""

    n: int
    d0: int
    d: int
    N: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be a positive integer")
        if self.N < 1:
            raise ValidationError("N must be a positive integer")
        if self.d0 < 0 or self.d < 0:
            raise ValidationError("d0 and d must be nonnegative")


class CoefficientSpec:
    """A coefficient evaluable at (t, c0, ci).

    kinds
    -----
    constant : fixed array of the declared shape.
    time     : piecewise-constant-in-time table (left-continuous).
    affine   : vector value  const + c0_mat @ c0 + ci_mat @ ci, where c0 and ci
               are vectors of the coefficient's length.
    """

    def __init__(self, kind: str, shape: tuple, *, value=None, times=None,
                 values=None, const=None, c0_mat=None, ci_mat=None, name: str = "coefficient"):
        self.kind = kind
        self.shape = tuple(shape)
        self.name = name
        if kind == "constant":
            self.value = _shaped(value, self.shape, name)
        elif kind == "time":
            self.times = np.asarray(times, dtype=float)
            self.values = np.asarray(values, dtype=float)
            if self.values.shape != (len(self.times),) + self.shape:
                raise ValidationError(f"{name}: time table has wrong shape")
            if len(self.times) == 0 or self.times[0] > 0:
                raise ValidationError(f"{name}: time table must start at t=0")
            if not np.isfinite(self.times).all() or np.any(np.diff(self.times) <= 0):
                raise ValidationError(
                    f"{name}: time table times must be finite and strictly increasing")
        elif kind == "affine":
            if len(self.shape) != 1:
                raise ValidationError(f"{name}: affine form is for vector coefficients only")
            m = self.shape[0]
            self.const = _shaped(const if const is not None else np.zeros(m), self.shape, name)
            self.c0_mat = None if c0_mat is None else np.asarray(c0_mat, dtype=float)
            self.ci_mat = None if ci_mat is None else np.asarray(ci_mat, dtype=float)
            for mat, label in ((self.c0_mat, "c0"), (self.ci_mat, "ci")):
                if mat is not None and mat.shape != (m, m):
                    raise ValidationError(f"{name}: affine {label} loading has wrong shape")
        else:
            raise ValidationError(f"{name}: unknown coefficient kind {kind!r}")

    @classmethod
    def constant(cls, value, shape, name="coefficient"):
        return cls("constant", shape, value=value, name=name)

    def value_at_time(self, t: float) -> np.ndarray:
        if self.kind == "constant":
            return self.value
        if self.kind == "time":
            idx = int(np.searchsorted(self.times, t, side="right")) - 1
            return self.values[max(idx, 0)]
        raise ValidationError(f"{self.name}: affine coefficient needs (c0, ci) to evaluate")

    def eval_nodes(self, t: float, c0_nodes: np.ndarray, ci: np.ndarray) -> np.ndarray:
        """Evaluate on a level: c0_nodes has shape (m, n), result (m, *shape)."""
        m = c0_nodes.shape[0]
        if self.kind in ("constant", "time"):
            base = self.value_at_time(t)
            return np.broadcast_to(base, (m,) + self.shape).copy()
        out = np.broadcast_to(self.const, (m,) + self.shape).copy()
        if self.c0_mat is not None:
            out += c0_nodes @ self.c0_mat.T
        if self.ci_mat is not None:
            out += self.ci_mat @ np.asarray(ci, dtype=float)
        return out


def _shaped(value, shape, name):
    arr = np.asarray(value, dtype=float)
    if arr.shape == ():
        # scalar shorthands: multiple of the identity for square matrices,
        # constant vector otherwise
        if len(shape) == 2 and shape[0] == shape[1]:
            return float(arr) * np.eye(shape[0])
        return np.full(shape, float(arr))
    try:
        return arr.reshape(shape).astype(float)
    except ValueError:
        raise ValidationError(f"{name}: expected shape {shape}, got {arr.shape}")


def coeff(value, shape, name="coefficient") -> CoefficientSpec:
    """Shorthand: wrap a plain array as a constant CoefficientSpec."""
    if isinstance(value, CoefficientSpec):
        if value.shape != tuple(shape):
            raise ValidationError(f"{name}: expected shape {tuple(shape)}, got {value.shape}")
        return value
    return CoefficientSpec.constant(value, shape, name)


@dataclass(frozen=True)
class DiscreteLaw:
    """Finite atom law on R^n: atoms (A, n) with positive weights summing to 1."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "atoms", np.atleast_2d(np.asarray(self.atoms, dtype=float)))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.atoms.shape[0] != len(self.weights):
            raise ValidationError("law atoms and weights disagree in length")
        if len(self.weights) == 0:
            raise ValidationError("law has no atoms")
        if np.any(self.weights <= 0) or abs(self.weights.sum() - 1.0) > WEIGHT_TOL:
            raise ValidationError("law weights must be positive and sum to 1")

    @classmethod
    def point(cls, value) -> "DiscreteLaw":
        return cls(np.atleast_2d(np.asarray(value, dtype=float)), np.ones(1))


@dataclass
class MinorBundle:
    """Coefficient functions of one minor agent (or the shared homogeneous set)."""

    l: CoefficientSpec
    sigma0: CoefficientSpec
    sigma: CoefficientSpec
    cf: CoefficientSpec
    hf: CoefficientSpec
    cg: CoefficientSpec
    hg: CoefficientSpec

    @classmethod
    def build(cls, dims: Dimensions, *, l=0.0, sigma0=0.0, sigma=0.0,
              cf=1.0, hf=0.0, cg=1.0, hg=0.0) -> "MinorBundle":
        n, d0, d = dims.n, dims.d0, dims.d
        return cls(
            l=coeff(l, (n,), "l"),
            sigma0=coeff(sigma0, (n, d0), "sigma0"),
            sigma=coeff(sigma, (n, d), "sigma"),
            cf=coeff(cf, (n, n), "cf"),
            hf=coeff(hf, (n,), "hf"),
            cg=coeff(cg, (n, n), "cg"),
            hg=coeff(hg, (n,), "hg"),
        )


@dataclass
class MajorFlow:
    """Normalized client-order flow of the major trader."""

    l0: CoefficientSpec
    s0: CoefficientSpec

    @classmethod
    def build(cls, dims: Dimensions, *, l0=0.0, s0=0.0) -> "MajorFlow":
        return cls(l0=coeff(l0, (dims.n,), "l0"), s0=coeff(s0, (dims.n, dims.d0), "s0"))


@dataclass
class QuadraticMajorCost:
    """Cost gradients affine in x: d_x fbar0 = c0f x + h0f(t, c0), d_x g0 = c0g x + h0g(c0).

    The cost primitives are fixed as the quadratics consistent with these
    gradients and zero constant term, which is what the cost evaluators use.
    """

    c0f: np.ndarray
    h0f: CoefficientSpec
    c0g: np.ndarray
    h0g: CoefficientSpec

    @classmethod
    def build(cls, dims: Dimensions, *, c0f=1.0, h0f=0.0, c0g=1.0, h0g=0.0):
        n = dims.n
        return cls(c0f=_shaped(c0f, (n, n), "c0f"), h0f=coeff(h0f, (n,), "h0f"),
                   c0g=_shaped(c0g, (n, n), "c0g"), h0g=coeff(h0g, (n,), "h0g"))

    @property
    def affine(self) -> bool:
        return True


@dataclass
class CallableMajorCost:
    """General convex cost gradients d_x fbar0 = dfdx(t, x, c0), d_x g0 = dgdx(x, c0).

    The market with such a cost is solved by a sequence of exact affine
    solves of its affine twin, whose curvatures ``secant_curvatures`` reads
    off the gradients (``finite_market.MarketContext``).
    """

    dfdx: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    dgdx: Callable[[np.ndarray, np.ndarray], np.ndarray]
    _secants: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def affine(self) -> bool:
        return False

    def secant_ranges(self, c0: np.ndarray, n: int) -> tuple:
        """``_secant_range`` of both gradients (running at t = 0) at ``c0``, sampled once."""
        key = (self.dfdx, self.dgdx, np.asarray(c0, dtype=float).tobytes(), n)
        if key not in self._secants:
            self._secants[key] = (_secant_range(lambda x: self.dfdx(0.0, x, c0), n),
                                  _secant_range(lambda x: self.dgdx(x, c0), n))
        return self._secants[key]


@dataclass
class ModelSpec:
    """Full coefficient bundle of the market model."""

    dims: Dimensions
    delta: float
    lambda_minor: CoefficientSpec
    lambda_major: CoefficientSpec
    minor: list[MinorBundle]
    major_flow: MajorFlow
    major_cost: QuadraticMajorCost | CallableMajorCost
    chi0: np.ndarray
    xi_law: DiscreteLaw
    ci_law: DiscreteLaw | None
    c0_law: tuple
    maturity_mode: bool = False

    def __post_init__(self):
        n = self.dims.n
        if not 0.0 <= self.delta < 1.0:
            raise ValidationError("delta must lie in [0, 1)")
        self.chi0 = _shaped(self.chi0, (n,), "chi0")
        if len(self.minor) not in (1, self.dims.N):
            raise ValidationError("minor bundles: give one shared bundle or one per agent")
        if self.xi_law.atoms.shape[1] != n:
            raise ValidationError("xi law atoms must be n-vectors")
        if self.ci_law is not None and self.ci_law.atoms.shape[1] != n:
            raise ValidationError("ci law atoms must be n-vectors")
        kind, *law = self.c0_law
        entries = {"constant": ("value",), "gaussian_walk": ("start", "drift", "loading")}
        if kind not in entries or len(law) != len(entries[kind]):
            raise ValidationError(f"unsupported c0 law {kind!r} with {len(law)} entries")
        try:
            self.c0_law = (kind, *(np.asarray(v, dtype=float) for v in law))
        except (TypeError, ValueError):
            raise ValidationError(f"c0 law {kind!r}: entries must be arrays of numbers") from None
        # time-only matrix coefficients make every system block one per time level
        for name, c in self.matrix_coefficients():
            if c.kind not in ("constant", "time") or c.shape != (n, n):
                raise ValidationError(
                    f"{name}: a matrix coefficient must be constant or time-dependent "
                    f"with shape ({n}, {n})")
        # every other coefficient, of any kind, and every c0 law entry has its shape
        d0, d = self.dims.d0, self.dims.d
        shapes = {"l": (n,), "sigma0": (n, d0), "sigma": (n, d), "hf": (n,), "hg": (n,),
                  "l0": (n,), "s0": (n, d0), "c0f": (n, n), "h0f": (n,), "c0g": (n, n),
                  "h0g": (n,), "value": (n,), "start": (n,), "drift": (n,), "loading": (n, d0)}
        parts = [(f"minor bundle {i}: ", vars(b)) for i, b in enumerate(self.minor)]
        parts += [("", vars(self.major_flow)), ("", vars(self.major_cost)),
                  ("c0 law ", dict(zip(entries[kind], self.c0_law[1:])))]
        for label, part in parts:
            for name, value in part.items():
                shape = value.shape if isinstance(value, CoefficientSpec) else np.shape(value)
                if name in shapes and shape != shapes[name]:
                    raise ValidationError(
                        f"{label}{name}: expected shape {shapes[name]}, got {shape}")
        # the lattice carries common noise only: idiosyncratic randomness rides on atoms
        for i, b in enumerate(self.minor):
            if b.sigma.kind != "constant" or np.any(b.sigma.value != 0.0):
                raise UnsupportedModelError(f"minor bundle {i}: sigma must be the zero constant; "
                                            f"carry idiosyncratic randomness by atoms")

    def matrix_coefficients(self) -> list[tuple[str, CoefficientSpec]]:
        """The fee matrices and every bundle's cost curvatures, each with its name."""
        return [("lambda", self.lambda_minor), ("lambda0", self.lambda_major)] + [
            (f"minor bundle {i}: {name}", getattr(b, name))
            for i, b in enumerate(self.minor) for name in ("cf", "cg")]

    @property
    def homogeneous(self) -> bool:
        return len(self.minor) == 1


def make_spec(dims: Dimensions, *, delta=0.0, lam=1.0, lam0=1.0, minor=None,
              major_flow=None, major_cost=None, chi0=0.0, xi_law=None, ci_law=None,
              c0_law=None, maturity_mode=False) -> ModelSpec:
    """Convenience builder with benchmark-friendly defaults."""
    n = dims.n
    minor = minor if minor is not None else [MinorBundle.build(dims)]
    if isinstance(minor, MinorBundle):
        minor = [minor]
    return ModelSpec(
        dims=dims,
        delta=delta,
        lambda_minor=coeff(lam, (n, n), "lambda"),
        lambda_major=coeff(lam0, (n, n), "lambda0"),
        minor=list(minor),
        major_flow=major_flow if major_flow is not None else MajorFlow.build(dims),
        major_cost=major_cost if major_cost is not None else QuadraticMajorCost.build(dims),
        chi0=chi0,
        xi_law=xi_law if xi_law is not None else DiscreteLaw.point(np.zeros(n)),
        ci_law=ci_law,
        c0_law=c0_law if c0_law is not None else ("constant", np.zeros(n)),
        maturity_mode=maturity_mode,
    )


# -- assumption checks -----------------------------------------------------


@dataclass
class AssumptionReport:
    """Outcome of the standing-assumption checks with the derived constants."""

    passed: dict[str, bool] = field(default_factory=dict)
    gamma_f: float | None = None
    gamma_g: float | None = None
    gamma0_f: float | None = None
    gamma0_g: float | None = None
    a_const: float | None = None
    lambda_bounds: tuple[float, float] | None = None
    combo_bounds: tuple[float, float] | None = None
    beta1: float | None = None
    mu1: float | None = None
    gamma0_f_scaled: float | None = None
    gamma0_g_scaled: float | None = None
    skipped: list[str] = field(default_factory=list)
    inconclusive: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())

    def to_dict(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed}


def _breakpoints(spec: ModelSpec) -> np.ndarray:
    """t = 0 and every positive breakpoint of the matrix coefficients' time tables.

    The matrix coefficients are constant or piecewise constant in time, so
    their values at these times are every value they take.
    """
    tables = [c.times for _, c in spec.matrix_coefficients() if c.kind == "time"]
    # a set: a plain np.unique imports numpy.ma (numpy 2.4), about 1 MB of peak memory
    return np.array(sorted({0.0, *(float(t) for times in tables for t in times if t > 0)}))


def _values(coefficient: CoefficientSpec, times: np.ndarray) -> np.ndarray:
    return np.stack([coefficient.value_at_time(t) for t in times])


def _bundle_values(spec: ModelSpec, name: str, times: np.ndarray) -> np.ndarray:
    """One bundle coefficient's values at ``times``: (bundles, times, n, n)."""
    return np.stack([_values(getattr(b, name), times) for b in spec.minor])


def _eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric parts of a stack of matrices."""
    return np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2)))


def _floor(eigs: np.ndarray) -> tuple[float, tuple]:
    """The smallest of a stack's ascending eigenvalues and the index of its matrix."""
    where = np.unravel_index(eigs[..., 0].argmin(), eigs.shape[:-1])
    return float(eigs[where][0]), where


def _minor_clauses(spec: ModelSpec) -> AssumptionReport:
    """Check the minor-side clauses on every value the matrix coefficients take.

    The values are those at t = 0 and at every positive breakpoint of the
    model's time tables.  Reports the fee-matrix eigenvalue bounds, the
    convexity floors of every bundle's running and terminal cost curvatures,
    and the terminal-coupling constant a = delta/(1-delta) * max ||c - cg||,
    its witness c the mean of cg over bundles and breakpoints; the
    terminal-coupling clause requires a < gamma_g.  A failure names the bundle
    and the time of the offending value.
    """
    rep = AssumptionReport()
    times = _breakpoints(spec)
    lam = _eigenvalues(_values(spec.lambda_minor, times))
    lam_lo, (k,) = _floor(lam)
    rep.lambda_bounds = (lam_lo, float(lam[:, -1].max()))
    rep.passed["minor_A_i"] = lam_lo > 0.0
    if lam_lo <= 0.0:
        rep.failures.append(
            f"lambda not positive definite at t={times[k]:g} (min eigenvalue {lam_lo:.3e})")

    cg = _bundle_values(spec, "cg", times)
    gamma_f, (bf, kf) = _floor(_eigenvalues(_bundle_values(spec, "cf", times)))
    gamma_g, (bg, kg) = _floor(_eigenvalues(cg))
    rep.gamma_f, rep.gamma_g = gamma_f, gamma_g

    if spec.maturity_mode:
        rep.passed["minor_A_iv"] = gamma_f > 0.0
        rep.skipped.append("minor_A_iv terminal curvature (maturity mode: terminal cost is linear)")
    else:
        rep.passed["minor_A_iv"] = gamma_f > 0.0 and gamma_g > 0.0
    if gamma_f <= 0.0:
        rep.failures.append(f"minor bundle {bf}: cf not strictly convex at t={times[kf]:g} "
                            f"(min eigenvalue {gamma_f:.3e})")
    if not spec.maturity_mode and gamma_g <= 0.0:
        rep.failures.append(f"minor bundle {bg}: cg not strictly convex at t={times[kg]:g} "
                            f"(min eigenvalue {gamma_g:.3e})")

    gaps = np.linalg.norm(cg.mean(axis=(0, 1)) - cg, ord=2, axis=(-2, -1))
    rep.a_const = spec.delta / (1.0 - spec.delta) * float(gaps.max())
    if spec.maturity_mode:
        rep.passed["minor_B"] = True
        rep.skipped.append("minor_B (maturity mode: weak terminal monotonicity suffices)")
    else:
        rep.passed["minor_B"] = rep.a_const < gamma_g
        if not rep.passed["minor_B"]:
            rep.failures.append(
                f"terminal coupling constant a={rep.a_const:.6g} is not below gamma_g={gamma_g:.6g}")
    return rep


def _secant_range(grad, n: int):
    """Smallest and largest randomized secant ratios of a gradient, and the smallest's pair."""
    rng = stream_rng(SECANT_SEED, 0)
    worst, most, witness = np.inf, -np.inf, None
    for _ in range(SECANT_PAIRS):
        x = rng.uniform(-SECANT_BOX, SECANT_BOX, size=n)
        xp = rng.uniform(-SECANT_BOX, SECANT_BOX, size=n)
        gap2 = float(np.dot(xp - x, xp - x))
        if gap2 < 1e-12:
            continue
        ratio = float(np.dot(grad(xp) - grad(x), xp - x)) / gap2
        if ratio < worst:
            worst, witness = ratio, (x, xp)
        most = max(most, ratio)
    return worst, most, witness


def secant_curvatures(spec: ModelSpec) -> list[float]:
    """Curvatures (m + L)/2 of a callable major cost's running and terminal gradients.

    m and L are each gradient's smallest and largest secant ratios, the
    sample the major clauses of ``check_all_assumptions`` read (t = 0, the c0
    law's anchor).
    """
    ranges = [r[:2] for r in spec.major_cost.secant_ranges(spec.c0_law[1], spec.dims.n)]
    if not np.isfinite(ranges).all():
        raise UnsupportedModelError("the callable major cost gives no finite secant ratios")
    return [0.5 * (lo + hi) for lo, hi in ranges]


def _major_clauses(rep: AssumptionReport, spec: ModelSpec) -> AssumptionReport:
    """Check the major-side clauses: combined fee bounds and cost convexity.

    The combined fee matrix lambda0 + 2 lambda is checked on every value it
    takes (t = 0 and every positive breakpoint of the time tables), and a
    failure names the time.  For affine cost gradients the convexity
    constants are exact eigenvalue floors; for callables they are estimated
    by randomized secants at t = 0 and the c0 law's anchor (a negative secant
    is a disproof; a degenerate sample is reported inconclusive).
    """
    times = _breakpoints(spec)
    combo = _eigenvalues(_values(spec.lambda_major, times)
                         + 2.0 * _values(spec.lambda_minor, times))
    lo, (k,) = _floor(combo)
    rep.combo_bounds = (lo, float(combo[:, -1].max()))
    rep.passed["major_i"] = lo > 0.0
    if lo <= 0.0:
        rep.failures.append(
            f"lambda0 + 2*lambda not positive definite at t={times[k]:g} (min eigenvalue {lo:.3e})")

    cost = spec.major_cost
    secant_witness = None
    if cost.affine:
        rep.gamma0_f, rep.gamma0_g = (
            float(e) for e in _eigenvalues(np.stack([cost.c0f, cost.c0g]))[:, 0])
    else:
        (gf, _, wf), (gg, _, wg) = cost.secant_ranges(spec.c0_law[1], spec.dims.n)
        if not np.isfinite(gf) or not np.isfinite(gg):
            rep.inconclusive.append("major_v: secant sampling degenerate, convexity not estimated")
            rep.passed["major_v"] = True
            return rep
        rep.gamma0_f, rep.gamma0_g = gf, gg
        secant_witness = wf if gf <= gg else wg

    if spec.maturity_mode:
        rep.passed["major_v"] = rep.gamma0_f > 0.0
        rep.skipped.append("major_v terminal curvature (maturity mode: terminal cost is linear)")
        if rep.gamma0_f <= 0.0:
            rep.failures.append(f"major running cost not strictly convex (gamma0_f={rep.gamma0_f:.6g})")
    else:
        rep.passed["major_v"] = rep.gamma0_f > 0.0 and rep.gamma0_g > 0.0
        if rep.gamma0_f <= 0.0:
            rep.failures.append(f"major running cost not strictly convex (gamma0_f={rep.gamma0_f:.6g})")
        if rep.gamma0_g <= 0.0:
            rep.failures.append(f"major terminal cost not strictly convex (gamma0_g={rep.gamma0_g:.6g})")
        if not rep.passed["major_v"] and secant_witness is not None:
            x, xp = secant_witness
            rep.failures.append(f"witness secant pair: {x.tolist()} vs {xp.tolist()}")
    return rep


def check_all_assumptions(spec: ModelSpec) -> AssumptionReport:
    """Minor and major checks in one report, with the monotonicity margins beta1, mu1."""
    rep = _major_clauses(_minor_clauses(spec), spec)
    N = spec.dims.N
    if rep.gamma0_f is not None:
        rep.gamma0_f_scaled = rep.gamma0_f / N
        rep.beta1 = min(rep.gamma0_f / N, rep.gamma_f)
    if rep.gamma0_g is not None:
        rep.gamma0_g_scaled = rep.gamma0_g / N
        if not spec.maturity_mode:
            rep.mu1 = min(rep.gamma0_g / N, rep.gamma_g - rep.a_const)
    return rep
