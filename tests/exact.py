"""The exact oracle of the proxy profiles: f tabulated over every cell of a
product of finite coordinate laws, and the worst case over base points of
the norms of each centered conditional version f_k = f - E_k f."""
import math

import numpy as np
from scipy.special import logsumexp

from lighttails import distributions as D
from lighttails import entropy as ent
from lighttails import functions as F
from lighttails import orlicz as O
from lighttails.bounds import ProxyProfile


def product_law(laws):
    """(points, probs) of the product of the FiniteSupport laws: one row of
    points per cell, in C order, with the product of the cells' probs."""
    shape = tuple(len(law.values) for law in laws)
    idx = np.indices(shape).reshape(len(laws), -1)
    points = np.stack([np.asarray(law.values)[i] for law, i in zip(laws, idx)], axis=1)
    probs = np.prod([np.asarray(law.probs)[i] for law, i in zip(laws, idx)], axis=0)
    return points, probs


def tabulate(fspec, coordinate_points):
    """The ProductTable of f over the product of the coordinate laws: a
    FiniteSupport for a scalar coordinate, or a VectorSpec of FiniteSupport
    components for a vector one, which becomes the index law of
    `product_law` of its components."""
    if len(coordinate_points) != fspec.n:
        raise ValueError(f"{len(coordinate_points)} coordinate laws for n={fspec.n}")
    supports, grids = [], []
    for law in coordinate_points:
        if isinstance(law, D.VectorSpec):
            points, probs = product_law(law.components)
            law = D.FiniteSupport(np.arange(len(probs)), probs)
        else:
            points = np.asarray(law.values)
        supports.append(law)
        grids.append(points)
    shape = tuple(len(g) for g in grids)
    idx = np.indices(shape).reshape(len(shape), -1)
    cells = np.stack([g[i] for g, i in zip(grids, idx)], axis=1)
    return ent.ProductTable(supports, F.eval_f(fspec, cells).reshape(shape))


def conditional_versions(table, k):
    """f_k at every base point: one row per setting of the other coordinates,
    one column per value of coordinate k, centered under its law."""
    probs = np.array(table.supports[k].probs)
    rows = np.moveaxis(table.f_table, k, -1).reshape(-1, len(probs))
    return rows - (rows @ probs)[:, None], probs


def _psi(worst_log_moments, alpha):
    best = O._sup_ratio(worst_log_moments, alpha)[0]
    return 0.0 if best == -math.inf else math.exp(best)


def worst_case_profile(table, p):
    """The exact worst case over base points of each f_k's psi1 and psi2
    norms, its 2p-norm and its range.  The largest ln E|f_k|^q over the
    rows is convex in q, as each row's is, so one certified sup-ratio search
    over it finds the largest psi norm of any row."""
    psi1, psi2, l2p, ranges = [], [], [], []
    for k in range(table.n):
        rows, probs = conditional_versions(table, k)
        with np.errstate(divide="ignore"):
            log_abs, log_p = np.log(np.abs(rows)), np.log(probs)

        def worst(qs):
            return logsumexp(log_p + qs[:, None, None] * log_abs, axis=-1).max(axis=-1)

        psi1.append(_psi(worst, 1))
        psi2.append(_psi(worst, 2))
        l2p.append(math.exp(worst(np.array([2.0 * p]))[0] / (2.0 * p)))
        live = rows[:, probs > 0]
        ranges.append(float(np.max(live.max(axis=1) - live.min(axis=1))))
    return ProxyProfile(n=table.n, psi1_per_coord=psi1, psi2_per_coord=psi2,
                        l2p_per_coord=l2p, l2p_order=p, ranges=ranges)
