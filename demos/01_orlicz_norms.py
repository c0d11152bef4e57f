"""Orlicz-type norms across the distribution catalogue.

The two norms driving everything downstream are

    psi_1(Z) = sup_p ||Z||_p / p        (exponential-type tails)
    psi_2(Z) = sup_p ||Z||_p / sqrt(p)  (Gaussian-type tails)

evaluated over a log-spaced grid of moment orders with a certified
tail check.  Run with `python3 demos/01_orlicz_norms.py`.
"""
from lighttails import distributions as D
from lighttails.orlicz import PMaxTooSmallError, mgf_bound_check, psi_norm

catalogue = [
    ("Exponential(1)", D.Exponential(1.0)),
    ("Rademacher", D.Rademacher()),
    ("Gaussian(0,1)", D.Gaussian(0.0, 1.0)),
    ("Uniform(0,1)", D.UniformInterval(0.0, 1.0)),
    ("Poisson(3)", D.Poisson(3.0)),
    ("ChiSquared(4)", D.ChiSquared(4)),
]

print("norms over the catalogue (p grid up to 256):")
for name, spec in catalogue:
    e1 = psi_norm(spec, 1)
    try:
        e2 = psi_norm(spec, 2)
        psi2 = f"{e2.value:9.4f} (p* = {e2.p_star:6.1f})"
    except PMaxTooSmallError:
        psi2 = "diverges: not sub-Gaussian"
    print(f"  {name:16s} psi1 = {e1.value:8.4f} (p* = {e1.p_star:6.1f})"
          f"   psi2 = {psi2}")

print()
print("centering costs at most a factor 2 in either norm:")
chi = D.ChiSquared(4)
raw = psi_norm(chi, 1).value
cen = psi_norm(D.Centered(chi), 1).value
print(f"  psi1(ChiSq(4) - 4) = {cen:.4f} <= 2 psi1(ChiSq(4)) = {2 * raw:.4f}")

print()
print("a square of a sub-Gaussian is sub-exponential:")
g = D.Gaussian(0.0, 1.0)
sq = 2 * psi_norm(g, 2).value ** 2
direct = psi_norm(D.SquareOf(g), 1).value
print(f"  psi1(G^2) = {direct:.4f} <= 2 psi2(G)^2 = {sq:.4f}")

print()
print("the MGF of a centered sub-Gaussian obeys E e^(bZ) <= e^(4e b^2 psi2^2):")
for beta in (0.5, 1.0, 2.0):
    m, bound = mgf_bound_check(D.Rademacher(), beta)
    print(f"  beta = {beta:3.1f}: mgf = {m:10.4f} <= bound = {bound:12.4f}")
