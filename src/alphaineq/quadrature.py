"""Numeric evaluation of the fractal moment functional on ``[0, 1]``.

The term-wise integral assigns to each monomial ``t**(k*alpha)`` the moment
``G(1+k*alpha)/G(1+(k+1)*alpha)``.  That moment sequence is realized exactly
by the positive kernel ``(1-t)**(alpha-1) / G(alpha)`` for *every* real grade
``k >= 0``, which has two consequences this module leans on:

* the functional extends continuously (and monotonically: ``g >= 0`` implies
  ``J[g] >= 0``) to all continuous integrands, and
* Gauss-Jacobi nodes for that kernel make a discrete least-squares fit whose
  residual is orthogonal to the constants, so the returned value converges
  far faster than the fit itself (the fit error only enters through the
  quadrature error on the residual).

The Gauss-Jacobi rule is computed here in numpy (:func:`_gauss_jacobi`):
Golub-Welsch eigenvalues, one Newton step per node and Christoffel weights
at the polished nodes.  Against a 40-digit mpmath rule, for alpha in
[0.05, 1] and up to 48 nodes, its nodes are within 2.2e-16 and its weights
within 8e-14 relative.

An integrand outside the monomial span is, in effect, projected onto the
basis ``{t**(k*alpha) : k = 0..n}`` by weighted least squares and integrated
via the exact moments.  That value is linear in the samples, so it is a
quadrature rule: for a known weight ``t**(w*alpha)`` the functional solves
``(sqrt(W) A)^T z = mu_w`` once, with ``mu_w[k] = moment(k + w)``, caches
``q_w = sqrt(W) z`` and integrates each sample vector ``y`` as ``q_w @ y``.
The rule and each ``q_w`` depend only on alpha, the node count and the
basis size, so they are built once per process for each such key and
shared by every functional of it (:data:`_RULES`).
The basis is severely ill-conditioned, so the solve runs through an
orthogonalizing SVD with a relative spectral cutoff; an explicit pseudo-
inverse loses about 1e-7 of relative accuracy, and a Tikhonov ridge at any
useful strength would bias the moments past their exactness requirement.
The weights are not all positive (for alpha <= 0.1, and for alpha = 0.3 at
grade 12, some are negative).  :meth:`MomentFunctional.fit` keeps the
coefficient-level fit, with its residual, as the reference the rule is
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .alphanum import AlphaContext, memoized
from .series import AlphaSeries, _plan_of, _sum_terms, _term_columns

__all__ = [
    "MomentFunctional",
    "QuadratureError",
    "composed_moment",
    "composed_moments",
    "fractal_integral_numeric",
]

#: Relative singular-value cutoff used by the least-squares solve.
CUTOFF_REL = 1e-12

#: Largest max_grade accepted; beyond this the basis is numerically rank
#: deficient in double precision and results stop improving.
GRADE_CAP = 12


#: The cache of each ``(alpha, nodes, max_grade)``: its rule and its weights
#: per weight grade, shared by every :class:`MomentFunctional` of that key.
_RULES: dict = {}


class QuadratureError(RuntimeError):
    """The Muntz-basis fit could not produce a usable projection."""


@dataclass(frozen=True)
class MomentFunctional:
    """The normalized fractal integral on ``[0, 1]`` with its fitting grid.

    ``max_grade`` is the largest integer grade in the projection basis and
    ``nodes`` the number of Gauss-Jacobi points (defaults to four per basis
    function).  Construction only checks these; the nodes, the square roots
    of the Gauss-Jacobi weights (both from the numpy Golub-Welsch rule with
    a Newton polish, :func:`_gauss_jacobi`) and the design matrix are built
    on first use, so a caller that never integrates numerically never builds
    them.  They, and the quadrature weights of each weight grade, are cached
    in ``_memo``, which is the entry of ``(alpha, nodes, max_grade)`` in the
    module's store ``_RULES``: every functional of that key shares one
    cache, so each rule is built once per process, not once per functional.
    So only a value that depends on that key alone (and the method's
    arguments) may be memoized on a functional.  The cached arrays are
    read-only, ``grid`` included.  The cache takes no part in equality,
    hashing or repr.
    """

    ctx: AlphaContext
    max_grade: int = 10
    nodes: int = 0
    _memo: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.max_grade < 1:
            raise ValueError(f"max_grade must be >= 1, got {self.max_grade}")
        if self.max_grade > GRADE_CAP:
            raise QuadratureError(
                f"max_grade {self.max_grade} exceeds the double-precision cap "
                f"{GRADE_CAP}; use a smaller basis"
            )
        if self.nodes == 0:
            object.__setattr__(self, "nodes", 4 * self.max_grade)
        if self.nodes < 2 * self.max_grade:
            raise ValueError(
                f"nodes must be at least 2*max_grade, got {self.nodes} for "
                f"max_grade {self.max_grade}"
            )
        object.__setattr__(self, "_memo", _RULES.setdefault((self.ctx.alpha, self.nodes, self.max_grade), {}))

    @memoized("rule")
    def _rule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nodes on ``[0, 1]``, the square roots of their weights and the design matrix."""
        a = self.ctx.alpha
        x, w = _gauss_jacobi(self.nodes, a)
        t = (x + 1.0) / 2.0
        w = w / (2.0**a * math.gamma(a))
        design = np.stack([t ** (k * a) for k in range(self.max_grade + 1)], axis=1)
        sqrt_w = np.sqrt(w)
        for array in (t, sqrt_w, design):
            array.flags.writeable = False  # shared by every functional of the key
        return t, sqrt_w, design

    def moment(self, k: float) -> float:
        """Exact moment ``J[t**(k*alpha)]`` for a real grade ``k >= 0``."""
        if k < 0.0:
            raise ValueError(f"moments need grade >= 0, got {k}")
        a = self.ctx.alpha
        return math.gamma(1.0 + k * a) / math.gamma(1.0 + (k + 1.0) * a)

    @property
    def grid(self) -> np.ndarray:
        return self._rule()[0]

    @memoized("weights")
    def weights(self, weight_grade: float) -> np.ndarray:
        """Quadrature weights ``q`` with ``q @ g(grid) ~= J[t**(w*alpha) * g]``.

        ``q @ y`` equals ``fit(y)``'s coefficients dotted with the moments
        ``moment(k + w)``, up to rounding (which the ill-conditioned basis
        amplifies on non-smooth samples): it is the same truncated-SVD
        least-squares projection, solved once for the moments instead of
        once per sample vector.
        """
        _, sqrt_w, design = self._rule()
        mus = np.array([self.moment(k + weight_grade) for k in range(self.max_grade + 1)])
        z, *_ = np.linalg.lstsq((design * sqrt_w[:, None]).T, mus, rcond=CUTOFF_REL)
        q = sqrt_w * z
        if not np.all(np.isfinite(q)):
            raise QuadratureError(
                f"quadrature weights for weight grade {weight_grade} are not "
                "finite; use a smaller max_grade"
            )
        q.flags.writeable = False  # shared by every later call, of every functional of the key
        return q

    def integrate(self, values: np.ndarray, weight_grade: float = 0.0) -> float:
        """``J[t**(w*alpha) * g]`` from the samples of ``g`` on the grid.

        Raises :class:`QuadratureError` instead of returning a non-finite value.
        """
        y = np.asarray(values, dtype=float)
        if y.shape != (self.nodes,):
            raise ValueError(f"expected {self.nodes} samples, got {y.shape}")
        value = float(self.weights(weight_grade).dot(y))
        if not math.isfinite(value):
            raise _integral_error(y, value)
        return value

    def integrate_rows(self, values: np.ndarray, weight_grade: float = 0.0) -> list:
        """:meth:`integrate` of each row of a (rows x nodes) array, in one call.

        The matmul of the stacked (1 x nodes) rows by the weights reduces
        each row by the same BLAS dot product as :meth:`integrate`'s ``dot``
        of two vectors, so each value is bit-identical to integrating its
        row alone.  A row that :meth:`integrate` raises on holds its
        :class:`QuadratureError` in place of a value, so the caller can
        keep the other rows.
        """
        y = np.asarray(values, dtype=float)
        if y.ndim != 2 or y.shape[1] != self.nodes:
            raise ValueError(f"expected rows of {self.nodes} samples, got {y.shape}")
        sums = (y[:, None, :] @ self.weights(weight_grade))[:, 0].tolist()
        if math.isfinite(sum(sums)):  # every row is finite; a non-finite one, or an overflow, makes it inf or NaN
            return sums
        return [v if math.isfinite(v) else _integral_error(y[i], v) for i, v in enumerate(sums)]

    def fit(self, values: np.ndarray) -> tuple[np.ndarray, float]:
        """Least-squares coefficients for samples on the grid, plus max residual.

        The reference for :meth:`weights`: ``coeffs @ [moment(k + w)]`` is
        the integral that ``integrate(values, w)`` computes.
        """
        _, sqrt_w, design = self._rule()
        y = np.asarray(values, dtype=float)
        if y.shape != (self.nodes,):
            raise ValueError(f"expected {self.nodes} samples, got {y.shape}")
        _check_finite(y)
        coeffs, *_ = np.linalg.lstsq(design * sqrt_w[:, None], y * sqrt_w, rcond=CUTOFF_REL)
        if not np.all(np.isfinite(coeffs)):
            raise QuadratureError(
                "fit did not converge; the basis is too ill-conditioned, use a "
                "smaller max_grade"
            )
        residual = float(np.max(np.abs(design @ coeffs - y)))
        return coeffs, residual


def _gauss_jacobi(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``n``-point Gauss rule for the weight ``(1-x)**(alpha-1)`` on ``[-1, 1]``.

    Following Golub & Welsch (1969), the nodes are the eigenvalues of the
    symmetric tridiagonal Jacobi matrix of the orthonormal Jacobi
    polynomials ``p_k`` with parameters ``(alpha-1, 0)``.  One Newton step
    on ``p_n`` then polishes each node, taking ``p_n'`` from the
    Christoffel-Darboux identity ``sum_{k<n} p_k**2 = b_n * (p_n' * p_{n-1}
    - p_{n-1}' * p_n)``, whose second term vanishes at a node.  The weights
    are the Christoffel numbers ``1 / sum_{k<n} p_k(x)**2`` at the polished
    nodes.
    """
    a = alpha - 1.0
    k = np.arange(1.0, n + 1.0)
    s = 2.0 * k + a
    # x p_j = b_j p_{j-1} + c_j p_j + b_{j+1} p_{j+1}: centres c_0 .. c_{n-1}
    # and off-diagonal b_1 .. b_n
    centre = np.empty(n)
    centre[0] = -a / (a + 2.0)
    centre[1:] = -a * a / (s[:-1] * (s[:-1] + 2.0))
    off = 2.0 * k * (k + a) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    jacobi = np.diag(centre)
    jacobi[np.arange(n - 1), np.arange(1, n)] = off[:-1]
    x = np.linalg.eigvalsh(jacobi, UPLO="U")
    p = _orthonormal_jacobi(x, centre, off, alpha)
    x = x - p[n] * off[-1] * p[n - 1] / np.einsum("kj,kj->j", p[:n], p[:n])
    p = _orthonormal_jacobi(x, centre, off, alpha)
    return x, 1.0 / np.einsum("kj,kj->j", p[:n], p[:n])


def _orthonormal_jacobi(
    x: np.ndarray, centre: np.ndarray, off: np.ndarray, alpha: float
) -> np.ndarray:
    """Rows ``p_0(x) .. p_n(x)`` of the three-term recurrence, ``n = centre.size``.

    ``p_0`` is the constant of unit norm: the weight's mass is ``2**alpha / alpha``.
    """
    n = centre.size
    scaled = list((x - centre[:, None]) / off[:, None])
    ratio = (off[:-1] / off[1:]).tolist()
    p = np.empty((n + 1, x.size))
    rows = list(p)  # row views, made once
    rows[0][:] = math.sqrt(alpha / 2.0**alpha)
    np.multiply(scaled[0], rows[0], out=rows[1])
    for j in range(1, n):
        np.multiply(scaled[j], rows[j], out=rows[j + 1])
        rows[j + 1] -= ratio[j - 1] * rows[j - 1]
    return p


#: The message of the error that a non-finite sample raises.
_NON_FINITE = "integrand produced non-finite values on the grid"


def _integral_error(y: np.ndarray, value: float) -> QuadratureError:
    """The error of the non-finite integral ``value`` of the samples ``y``.

    A NaN or infinite sample always makes the sum non-finite (0 * inf is
    NaN), so the samples need scanning only when the sum is.
    """
    if not np.all(np.isfinite(y)):
        return QuadratureError(_NON_FINITE)
    return QuadratureError(f"the integral of finite samples overflowed to {value}")


def _check_finite(y: np.ndarray) -> None:
    if not np.all(np.isfinite(y)):
        raise QuadratureError(_NON_FINITE)


def _sample(g: Callable[[np.ndarray], np.ndarray], t: np.ndarray) -> np.ndarray:
    """``g`` at the points ``t``, in one call on the whole array.

    Raises ``ValueError`` unless ``g`` maps the array to an array of the
    same shape: a function of one scalar is rejected, not called per point.
    """
    try:
        y = np.asarray(g(t), dtype=float)
    except TypeError as exc:
        raise ValueError(f"the function must map an array to an array: {exc}") from exc
    if y.shape != t.shape:
        raise ValueError(
            f"the function must map an array of shape {t.shape} to the same shape, got {y.shape}"
        )
    return y


def fractal_integral_numeric(
    g: Callable[[np.ndarray], np.ndarray], functional: MomentFunctional
) -> float:
    """Fractal integral of a pointwise integrand.

    ``g`` must map an array to an array of the same shape.  Samples ``g``
    on the Gauss-Jacobi grid and applies the cached weights of
    the least-squares projection onto ``{t**(k*alpha)}``, so the value is
    ``sum_k c_k * moment(k)`` for the fit coefficients ``c`` of
    :meth:`MomentFunctional.fit`, up to rounding.
    """
    return functional.integrate(_sample(g, functional.grid))


def _sign_constant(series: AlphaSeries) -> float | None:
    """Return +/-1 when the series provably keeps one sign on x >= 0, else None."""
    signs = {math.copysign(1.0, c) for _, c in series.terms}
    if len(signs) == 1:
        return signs.pop()
    return None


def composed_moment(
    f2: AlphaSeries,
    weight_grade: float,
    x: float,
    e: float,
    functional: MomentFunctional,
    absolute: bool = False,
) -> float:
    """Moment of ``t**(w*alpha) * phi(f2(t*x + (1-t)*e))`` over ``[0, 1]``.

    ``phi`` is the identity, or the absolute value when ``absolute`` is set.
    The known weight ``t**(w*alpha)`` is folded into the quadrature weights
    of grade ``w`` rather than the samples (real-grade moments are exact),
    which keeps the projected integrand smooth.  Three argument shapes admit
    exact evaluation and bypass the quadrature entirely: a constant argument
    (``x == e``), a pure scaling (``e == 0``), and a reflected scaling
    (``x == 0``, via Beta moments of ``(1-t)`` powers).  This is
    :func:`composed_moments` of the one segment ``(x, e)``.
    """
    return composed_moments(f2, weight_grade, ((x, e),), functional, absolute)[0]


def composed_moments(
    f2: AlphaSeries,
    weight_grade: float,
    segments: Sequence[tuple[float, float]],
    functional: MomentFunctional,
    absolute: bool = False,
) -> list[float]:
    """:func:`composed_moment` of each segment ``(x, e)``, sampling ``f2`` once for all.

    Each segment takes the exact shortcuts of :func:`composed_moment`
    where one applies.  The others read the moments that
    :func:`_prepare_moments` cached on ``f2`` for ``functional``, and those
    not cached are sampled together by one :func:`_sampled_moments` call,
    whose every value is bit-identical to the call with that segment alone.
    Nothing is cached here.

    A bad argument raises ``ValueError`` before any segment is computed.
    A sampled segment whose integral is not finite raises the
    :class:`QuadratureError` that :meth:`MomentFunctional.integrate`
    raises; of several, the first in segment order.
    """
    if weight_grade < 0.0:
        raise ValueError(f"weight_grade must be nonnegative, got {weight_grade}")
    for x, e in segments:
        if x < 0.0 or e < 0.0:
            raise ValueError(f"segment endpoints must be nonnegative, got ({x}, {e})")
    if f2.is_zero:
        return [0.0] * len(segments)
    # a term-wise sum is exact unless |.| must act on a sum of mixed signs
    termwise = not absolute or _sign_constant(f2) is not None
    held = f2._memo.get(("moments", absolute))  # (functional, moments) as _prepare_moments caches them
    cached = held[1] if held is not None and held[0] is functional else None
    values = []
    sampled, xs, es = [], [], []  # the segments without an exact or cached value
    for i, (x, e) in enumerate(segments):
        if x == e or (termwise and (e == 0.0 or x == 0.0)):
            values.append(_exact_moment(f2, weight_grade, x, e, functional, absolute))
        else:
            value = cached.get((weight_grade, x, e)) if cached else None
            values.append(value)
            if value is None:
                sampled.append(i)
                xs.append(x)
                es.append(e)
    if sampled:
        for i, value in zip(sampled, _sampled_moments([f2], xs, es, weight_grade, functional, absolute)):
            if isinstance(value, QuadratureError):
                raise value
            values[i] = value
    return values


def _sampled_moments(series: list, xs: list, es: list, weight_grade: float, functional: MomentFunctional,
                     absolute: bool) -> list:
    """The composed moment of each row, the segment ``(xs[r], es[r])`` of its series, by quadrature.

    ``series`` holds one series for every row, or the series of each row,
    all of one grade plan.  The points ``e + grid * (x - e)`` of every row
    are sampled in one (rows x nodes) array, summed term by term as
    ``evaluate`` sums each row alone (:func:`alphaineq.series._sum_terms`
    with :func:`alphaineq.series._term_columns`), and integrated by one
    :meth:`MomentFunctional.integrate_rows` call.  So each value is
    bit-identical to the row's moment computed alone, and a row whose
    integral is not finite holds its :class:`QuadratureError`.
    """
    x_col, e_col = np.array(xs)[:, None], np.array(es)[:, None]
    y = _sum_terms(_plan_of(series[0]), _term_columns(series), e_col + functional.grid * (x_col - e_col))
    return functional.integrate_rows(np.abs(y) if absolute else y, weight_grade)


def _prepare_moments(rows: Sequence[tuple], weight_grade: float, functional: MomentFunctional) -> None:
    """Cache on each ``f2`` the moment of its row ``(f2, x, e)`` that :func:`composed_moments` would sample.

    The rows may hold series of many grade plans of ``functional``'s alpha;
    they are grouped by plan, and each group is sampled by one
    :func:`_sampled_moments` call.  A row with an exact shortcut or a zero
    ``f2`` is skipped.  Each value is cached in ``f2._memo`` under
    ``("moments", False)`` as ``(functional, moments)``, per
    ``(weight_grade, x, e)``, where :func:`composed_moments` reads it with
    that same functional object, which costs no hash of it; a row whose
    integral is not finite caches nothing, so its moment raises when it is
    read.
    """
    groups: dict = {}
    for f2, x, e in rows:
        if not (f2.is_zero or x == e or e == 0.0 or x == 0.0):  # else an exact moment
            groups.setdefault(_plan_of(f2), []).append((f2, x, e))
    for group in groups.values():
        values = _sampled_moments([f2 for f2, _, _ in group], [x for _, x, _ in group], [e for _, _, e in group],
                                  weight_grade, functional, False)
        for (f2, x, e), value in zip(group, values):
            if not isinstance(value, QuadratureError):
                held = f2._memo.get(("moments", False))
                if held is None or held[0] is not functional:
                    held = f2._memo["moments", False] = (functional, {})
                held[1][weight_grade, x, e] = value


def _exact_moment(
    f2: AlphaSeries,
    weight_grade: float,
    x: float,
    e: float,
    functional: MomentFunctional,
    absolute: bool,
) -> float:
    """The moment of the segment ``(x, e)`` by its exact shortcut.

    The caller checks that one applies: ``x == e``, or ``e == 0`` or
    ``x == 0`` with a term-wise sum that is exact.
    """
    if x == e:
        value = f2.evaluate(x)
        return (abs(value) if absolute else value) * functional.moment(weight_grade)
    a = f2.ctx.alpha
    if e == 0.0:
        # argument t*x: each term is an exact real-grade moment
        total = sum(c * x ** (k * a) * functional.moment(weight_grade + k) for k, c in f2.terms)
    else:
        # argument e*(1-t): Beta moments of t**(w*a) * (1-t)**(k*a)
        ga = math.gamma(a)

        def beta_moment(k: float) -> float:
            p = weight_grade * a + 1.0
            q = (k + 1.0) * a
            return math.gamma(p) * math.gamma(q) / math.gamma(p + q) / ga

        total = sum(c * e ** (k * a) * beta_moment(k) for k, c in f2.terms)
    return abs(total) if absolute else total
