"""Exact entropy calculus on finite laws.

The central object is S(Y) = E_Y[Y] - ln E[e^Y] with the exponentially
tilted expectation E_Y[Z] = E[Z e^Y] / E[e^Y].  S is a finite sum (with
log-sum-exp shifting and compensated accumulation), so this module serves
as the ground-truth oracle for the tail-bound module.  It is summed in the
shifted form E_Y[Y - m] - ln E[e^(Y - m)], m = max Y, so no two terms of
size m cancel; where Y spans at most _SMALL, S and ln E e^(Y - EY) come
from Taylor series instead (`_small`), so no two terms of size Y do.
S(Y) >= 0 and S(Y) = S(Y + c) always hold; nonnegativity follows from the
fluctuation representation, whose integrand is a variance.  That and the
log-MGF identity are integrals by one fixed rule (`_integral`), which
raises `distributions.QuadratureError`, a RuntimeError, when its error
estimate exceeds _TOL times max(1, |integral|).

A finite law is a `distributions.FiniteSupport`, and its values and probs
are read in the order given, not sorted: the g of `tilted_expect` and the
axes of a ProductTable's f_table are aligned to that order.  The psi norms
of the bound lemmas are `orlicz.psi_norm` of the law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .orlicz import psi_norm

__all__ = [
    "ProductTable", "LemmaHypothesisError", "entropy",
    "tilted_expect", "log_mgf_via_entropy", "fluctuation_entropy",
    "conditional_entropy_table", "subadditivity_gap",
    "entropy_bound_subgaussian", "entropy_bound_subexponential",
    "entropy_bound_holder",
]

E = math.e
_ENUMERATION_CAP = 10 ** 6
_SMALL = 0.125                  # the largest range that `_small` serves
_POWERS = np.arange(10)         # its Taylor terms u^j / (j + 2)! and u^j / (j + 1)!
_SERIES = 1.0 / np.array([[math.factorial(j + 2), math.factorial(j + 1)] for j in _POWERS])
_TOL = 1e-9                     # the relative error gate of `_integral`


class LemmaHypothesisError(ValueError):
    """The bound's hypothesis (centering / norm smallness) is not met."""


def _arrays(y, name="y"):
    """(values, probs) of the FiniteSupport y as arrays, in the order given."""
    dist._instance(y, name, dist.FiniteSupport, "FiniteSupport")
    return np.array(y.values), np.array(y.probs)


def _mean(values, probs):
    return math.fsum(probs * values)


@dataclass(frozen=True)
class ProductTable:
    """n independent finite coordinates and a function table over their product."""
    supports: tuple
    f_table: np.ndarray

    def __init__(self, supports, f_table):
        supports = tuple(supports)
        for k, s in enumerate(supports):
            dist._instance(s, f"supports[{k}]", dist.FiniteSupport, "FiniteSupport")
        f = np.asarray(f_table, dtype=float)
        shape = tuple(len(s.values) for s in supports)
        if f.shape != shape:
            raise ValueError(f"f_table shape {f.shape} does not match supports {shape}")
        bad = np.argwhere(~np.isfinite(f))
        if len(bad):
            index = tuple(int(i) for i in bad[0])
            raise ValueError(f"f_table{list(index)} is {f[index]}: entries must be finite")
        card = int(np.prod(shape))
        if card > _ENUMERATION_CAP:
            raise ValueError(
                f"product cardinality {card} exceeds enumeration cap {_ENUMERATION_CAP}")
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "f_table", f)

    @property
    def n(self):
        return len(self.supports)

    def joint_probs(self):
        jp = np.array([1.0])
        for s in self.supports:
            jp = np.multiply.outer(jp, np.array(s.probs))
        return jp.reshape(self.f_table.shape)


# ---------------------------------------------------------------------------
# Entropy and tilted expectations

def _tilt_weights(values, probs):
    """exp-shifted weights p_i e^(y_i - max) and their sum."""
    m = float(np.max(values))
    w = probs * np.exp(values - m)
    return m, w, math.fsum(w)


def _small(c, probs, g=1.0):
    """(ln E e^(gc), S(gc)) / g^2 for centered values c, |gc| <= _SMALL.
    With u = gc, a = E[c^2 (e^u - 1 - u) / u^2] and b = E[c^2 (e^u - 1) / u]
    summed from Taylor series, E e^(gc) = 1 + v, v = g^2 a, and
    E[gc e^(gc)] = g^2 b.  g is a number, or an array of them against one
    row of c."""
    u = np.multiply.outer(g, c)
    a, b = (probs @ ((c * c)[..., None] * (u[..., None] ** _POWERS @ _SERIES))).T
    v = np.maximum(g * g * a, 1e-300)   # g^2 a may underflow; ln(1 + v) / v is 1 below 1e-300
    k = a * np.log1p(v) / v
    return k, b / (1.0 + v) - k


def _entropy_rows(rows, probs):
    """Row-wise S of centered finite laws sharing one probability vector."""
    shifted = rows - rows.max(axis=1, keepdims=True)
    w = probs * np.exp(shifted)
    z = w.sum(axis=1)
    s = (w * shifted).sum(axis=1) / z - np.log(z)
    small = shifted.min(axis=1) >= -_SMALL
    if small.any():
        s[small] = _small(rows[small], probs)[1]
    return s


def _entropy(values, probs):
    m, w, z = _tilt_weights(values, probs)
    if m - values.min() <= _SMALL:
        return float(_small(values - _mean(values, probs), probs)[1])
    return math.fsum(w * (values - m)) / z - math.log(z)


def _log_mgf(c, probs, beta):
    """ln E e^(beta c) of the centered values c."""
    m, w, z = _tilt_weights(beta * c, probs)
    if m - (beta * c).min() <= _SMALL:
        return float(beta * beta * _small(c, probs, beta)[0])
    return m + math.log(z)


def entropy(y: dist.FiniteSupport) -> float:
    """S(Y) = E_Y[Y] - ln E[e^Y], exact finite sum."""
    return _entropy(*_arrays(y))


def tilted_expect(y: dist.FiniteSupport, g) -> float:
    """E_Y[g] = E[g e^Y] / E[e^Y] with g aligned to y.values."""
    values, probs = _arrays(y)
    g = np.asarray(g, dtype=float)
    if g.shape != values.shape:
        raise ValueError(f"g has length {g.shape}, expected {len(values)}")
    _, w, z = _tilt_weights(values, probs)
    return math.fsum(w * g) / z


def _integral(f, b, spread):
    """int_0^b f, f vectorised, by the tanh-sinh rule of `distributions` on
    panels that halve toward 0 until |b| spread / 2^n <= 1 on [0, b / 2^n],
    4 to an octave.  The error estimate is the gap to the rule at t = j/4,
    gated at _TOL times max(1, |integral|)."""
    n = max(0, math.frexp(abs(b) * spread)[1])
    edges = np.concatenate(([0.0], b * np.ldexp(1.0, np.arange(-n, 1))))
    cut = edges[:-1, None] + np.diff(edges)[:, None] * np.linspace(0.0, 1.0, 5)
    u, v = cut[:, :-1].reshape(-1, 1), cut[:, 1:].reshape(-1, 1)
    w = v - u
    terms = f(np.where(dist._TS_LEFT < 0.5, u + w * dist._TS_LEFT,
                       v - w * dist._TS_RIGHT)) * w * dist._TS_W
    fine, coarse = terms.sum(), 2.0 * terms[:, ::2].sum()
    if not abs(fine - coarse) <= _TOL * max(1.0, abs(fine)):
        raise dist.QuadratureError(
            f"quadrature error {abs(fine - coarse)} exceeds tolerance {_TOL}"
            f" times max(1, {abs(fine)})")
    return float(fine)


def log_mgf_via_entropy(y: dist.FiniteSupport, beta: float):
    """Both sides of ln E[e^(beta(Y-EY))] = beta * int_0^beta S(gamma Y)/gamma^2.

    Returns (direct, integral); the identity asserts their equality.  The
    integrand tends to Var(Y)/2 as gamma -> 0, where `_small` reads it.
    """
    values, probs = _arrays(y)
    if beta == 0.0:
        return 0.0, 0.0
    c = values - _mean(values, probs)
    spread = np.ptp(c)

    def integrand(g):
        out = np.empty_like(g)
        small = np.abs(g) * spread <= _SMALL
        out[small] = _small(c, probs, g[small])[1]
        big = g[~small]
        out[~small] = _entropy_rows(big[:, None] * c, probs) / big / big
        return out

    return _log_mgf(c, probs, beta), beta * _integral(integrand, beta, spread)


def fluctuation_entropy(y: dist.FiniteSupport) -> float:
    """S(Y) = int_0^1 s Var_{sY}(Y) ds: the tilted variance integrated over
    {0 <= t <= s <= 1}, an independent route to entropy(y)."""
    values, probs = _arrays(y)
    c = values - _mean(values, probs)

    def integrand(s):
        t = s[..., None] * c
        w = probs * np.exp(t - t.max(axis=-1, keepdims=True))
        z = w.sum(axis=-1)
        d = c - ((w * c).sum(axis=-1) / z)[..., None]
        return s * (w * d * d).sum(axis=-1) / z

    return _integral(integrand, 1.0, np.ptp(c))


# ---------------------------------------------------------------------------
# Conditional entropies on product spaces

def conditional_entropy_table(table: ProductTable, gamma: float) -> np.ndarray:
    """S(gamma f_k(X))(x) for every coordinate k and base point x.

    Returns an array of shape (n,) + f_table.shape; by construction the
    k-th slice does not vary along axis k (the resampled coordinate).
    """
    shape = table.f_table.shape
    out = np.empty((table.n,) + shape)
    for k, support in enumerate(table.supports):
        pk = np.array(support.probs)
        a = np.moveaxis(table.f_table, k, -1)            # (..., m_k)
        rest_shape = a.shape[:-1]
        rows = gamma * a.reshape(-1, a.shape[-1])
        cond_mean = rows @ pk
        rows = rows - cond_mean[:, None]
        ent = _entropy_rows(rows, pk)
        block = np.broadcast_to(ent.reshape(rest_shape + (1,)),
                                rest_shape + (a.shape[-1],))
        out[k] = np.moveaxis(block, -1, k)
    return out


def subadditivity_gap(table: ProductTable, gamma: float) -> float:
    """E_{gamma f(X)}[sum_k S(gamma f_k)] - S(gamma f(X)); always >= 0."""
    f_flat = gamma * table.f_table.ravel()
    jp = table.joint_probs().ravel()
    _, w, z = _tilt_weights(f_flat, jp)
    cond_sum = conditional_entropy_table(table, gamma).sum(axis=0).ravel()
    return math.fsum(w * cond_sum) / z - _entropy(f_flat, jp)


# ---------------------------------------------------------------------------
# Entropy bound lemmas

def entropy_bound_subgaussian(y: dist.FiniteSupport, beta: float):
    """(S(beta Y), bound) with bound = min(ln E[e^(2 beta Y)], 16e beta^2 psi2^2).

    S is shift invariant, so Y is centered internally before the psi_2
    based part; the contract is s <= bound.  Raises ValueError naming beta
    when 2 beta (Y - E Y) overflows.
    """
    values, probs = _arrays(y)
    centered = values - _mean(values, probs)
    if not math.isfinite(2.0 * (beta * float(np.max(np.abs(centered))))):
        raise ValueError(f"beta={beta!r} overflows 2 beta (Y - E Y)")
    s = _entropy(beta * centered, probs)
    if beta == 0.0:
        return 0.0, 0.0
    bound_mgf = _log_mgf(centered, probs, 2.0 * beta)
    psi2 = psi_norm(dist.FiniteSupport(centered, probs), 2).value
    bound_psi = 16.0 * E * (beta * beta) * psi2 ** 2
    return s, min(bound_mgf, bound_psi)


def _centered_arrays(y):
    """(values, probs) of y, which must be centered to 1e-12."""
    values, probs = _arrays(y)
    mu = _mean(values, probs)
    if abs(mu) > 1e-12:
        raise LemmaHypothesisError(
            f"lemma hypothesis not met: E[Y] = {mu}, expected 0")
    return values, probs


def entropy_bound_subexponential(y: dist.FiniteSupport):
    """(S(Y), e^2 psi1^2 / (1 - e psi1)^2) for centered Y with psi1 < 1/e."""
    values, probs = _centered_arrays(y)
    psi1 = psi_norm(y, 1).value
    if not psi1 < 1.0 / E:
        raise LemmaHypothesisError(
            f"lemma hypothesis not met: psi1 = {psi1} >= 1/e")
    s = _entropy(values, probs)
    bound = E ** 2 * psi1 ** 2 / (1.0 - E * psi1) ** 2
    return s, bound


def entropy_bound_holder(y: dist.FiniteSupport, p: float, variant: str = "psi1"):
    """(S(Y), ||Y^2||_p / (2 (1 - e q psi1)^2)) for conjugate q = p/(p-1).

    variant="psi2" replaces q * psi1 by sqrt(q) * psi2 in the denominator
    (with the correspondingly stronger hypothesis psi2 < 1/(e sqrt(q))).
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if variant not in ("psi1", "psi2"):
        raise ValueError(f"variant must be 'psi1' or 'psi2', got {variant!r}")
    values, probs = _centered_arrays(y)
    q = p / (p - 1.0)
    # ||Y^2||_p exact on finite support
    y2p = math.fsum(probs * np.abs(values) ** (2 * p)) ** (1.0 / p)
    label, alpha, factor = (("q*psi1", 1, q) if variant == "psi1"
                            else ("sqrt(q)*psi2", 2, math.sqrt(q)))
    norm = psi_norm(y, alpha).value
    if not factor * norm < 1.0 / E:
        raise LemmaHypothesisError(
            f"lemma hypothesis not met: {label} = {factor * norm} >= 1/e")
    denom = (1.0 - E * factor * norm) ** 2
    s = _entropy(values, probs)
    return s, y2p / (2.0 * denom)
