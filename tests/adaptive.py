"""The oracle of the numeric moment path: ln E|X|^p by adaptive quadrature
over the live window that the fixed tanh-sinh rule reads, or by the Poisson
series summed over all terms that count."""
import math

import numpy as np
from scipy import integrate
from scipy.special import gammaln

from lighttails import distributions as D


def base_and_steps(spec):
    return D._chain(D.canonical(spec))


def adaptive_log_moment(spec, p):
    """ln E|g(X)|^p for the canonical (X, g) of a numeric law, read as
    `distributions._chain` reads the form.  Outer scale and square steps of
    g are peeled as Scaled and SquareOf peel them; the rest is scipy's
    adaptive quadrature over the live window of p, with the zeros of g as
    breakpoints, to 1e-11 relative, or for a Poisson X the series over
    k < 2000, which holds every term above e^-700 of the largest."""
    base, steps = base_and_steps(spec)
    peeled = 0.0
    while steps and not isinstance(steps[-1], D.Shifted):
        step, steps = steps[-1], steps[:-1]
        if isinstance(step, D.SquareOf):
            p = 2 * p
        else:
            peeled += p * math.log(abs(step.factor))

    def log_h(x):
        with np.errstate(divide="ignore"):
            return p * np.log(np.abs(D._apply(steps, x)))

    if isinstance(base, D.Poisson):
        lam, k = base.rate, np.arange(2000, dtype=float)
        terms = log_h(k) + k * math.log(lam) - lam - gammaln(k + 1)
        m = terms.max()
        return peeled + m + math.log(math.fsum(np.exp(terms - m)))
    k, a, b = (float(v[0]) for v in base._live(log_h, np.array([float(p)])))

    def integrand(x):
        e = float(log_h(x) + base.logpdf(x)) - k
        return math.exp(e) if e > -700 else 0.0

    val, err = integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-11, limit=400,
                              points=[z for z in D._zeros(steps) if a < z < b] or None)
    assert val > 0 and err <= 1e-8 * val, (val, err)
    return peeled + k + math.log(val)
