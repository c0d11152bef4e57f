"""The sample stream, pinned: sha256 of `dist.sample` for every family and
wrapper, and of `fn.sample_f` for every function kind in each of its
`sampler_layout`s, at fixed seeds and streams.

Each law's draws are numpy's samplers and correctly rounded in-place steps
(a product, a sum, a square root), so their bits do not depend on numpy's
SIMD path.  They rest on `loc + scale * z` being rounded twice, never
fused into one multiply-add: a sampler or a fill that fused it would move
these pins.  The folds add, multiply, take maxima and absolute values one
correctly rounded ufunc call at a time, in a fixed order (no matmul or
einsum), so their bits do not depend on the SIMD path either.  Only the
`sin` of metric_lipschitz runs a ufunc whose last bit may, so that one pin
is keyed by path (`simd_pin`)."""
import hashlib

import numpy as np
import pytest

from test_orlicz import simd_pin
from lighttails import distributions as D
from lighttails import functions as F

COUNT = 1001
SEEDS = ((1, 0), (20261019, 7))     # (seed, stream)


def digest(draw):
    """sha256 of the little-endian float64 draws at each (seed, stream)."""
    h = hashlib.sha256()
    for seed, stream in SEEDS:
        h.update(np.ascontiguousarray(draw(seed, stream), dtype="<f8").tobytes())
    return h.hexdigest()


LAWS = {
    "gaussian": D.Gaussian(0.3, 1.7),
    "standard-gaussian": D.Gaussian(),
    "exponential": D.Exponential(2.5),
    "rademacher": D.Rademacher(),
    "uniform": D.UniformInterval(-1.5, 4.0),
    "poisson-small": D.Poisson(3.2),
    "poisson-large": D.Poisson(40.0),
    "chi-squared-1": D.ChiSquared(1),
    "chi-squared-3": D.ChiSquared(3),
    "two-point-eps": D.TwoPointEps(0.3),
    "finite-support": D.FiniteSupport((-2.0, 0.5, 7.0), (0.2, 0.5, 0.3)),
    "chi": D.Chi(4, 1.5),
    "shifted": D.Shifted(D.Exponential(1.0), -1.0),
    "scaled": D.Scaled(D.Gaussian(1.0, 2.0), -0.7),
    "square-of": D.SquareOf(D.UniformInterval(-1.0, 2.0)),
    "centered": D.Centered(D.Exponential(2.0)),
    "centered-chain": D.Centered(D.Scaled(D.Shifted(D.Poisson(2.0), 1.5), 3.0)),
    "vector": D.VectorSpec(3, (D.Gaussian(0.0, 2.0), D.Exponential(1.0),
                               D.UniformInterval(0.0, 1.0))),
}

# sha256 per law, taken before draws were written in place
LAW_SHA256 = {
    "gaussian": "2073ac0e3bf5f9242c84d602f93342b3cb9308c2ce97593f9537a1074148c368",
    "standard-gaussian": "68ede6dc9bf2feed85d013fba7c49a9901bb753d9ed4643a0b320202a6749904",
    "exponential": "cfb26816f34639223ce77a0ea5a9f50d22cc5790b3768e952d6827120845d199",
    "rademacher": "96afaea1eff6fa5c9e6997a50fe29fdbbeccc428c4748793b006112a8badc90a",
    "uniform": "51a6f7614fc8cf59a3bb17ce21b9d29392802cd63b582bd399c92c9afc6888b8",
    "poisson-small": "3dfc47ba14c4f1c0798590a9851f9f3d988e988b3541c04d8f1ac3c779d379d6",
    "poisson-large": "7392d4417da6c5b4e4fe3ee5b48fc966b72fb07044bb366c17b15d1853a0e081",
    "chi-squared-1": "98b3e6cce10dafb7c39ff2eb1f1c3f58bac09d3a860a054a021a3aa87d60a156",
    "chi-squared-3": "93424b42bb9831adacb42c207d6a18f33db77db2930dd0cb506f47a41a05ac62",
    "two-point-eps": "afa1fe676456d6933034fdbb0d45b3011e05ca380f82febe7e73cad7813d60a8",
    "finite-support": "ce75f723f6aa550fee8f8e55241578991cc1edb747a619d2d73e5f46d29d5524",
    "chi": "3fd2b82942f4a59e18586a7329ee4c0b7901060a5be473ca5b6ee93ef5107837",
    "shifted": "fbd6ff92fdaae6127f3f13bb65fc0dbe463139abc1b60695d73ad9c5caef11ae",
    "scaled": "661a00f8c287e0ced3151335f589be37c154ebfc77f3c214da1ae5e39ed927ae",
    "square-of": "e090a303d83f418327c003ec5b46d859326252142a291ad2cdf30e9f4612b1f9",
    "centered": "d125ac240502ce603272d1392ad6237998456252b51218bb07505393387e5acc",
    "centered-chain": "ec7f6d0fe457848c6acafc25d5959ea6741c6049f861218694a108139446b881",
    "vector": "3e834f4e95ea3efbb7a3978fe7586283e23a55e6f35c39721f42c2fcef05a527",
}


@pytest.mark.parametrize("name", list(LAWS))
def test_law_streams_are_pinned(name):
    law = LAWS[name]
    got = digest(lambda seed, stream: D.sample(law, seed, COUNT, stream))
    assert got == LAW_SHA256[name]


def _vec(*laws):
    return D.VectorSpec(len(laws), laws)


_GAUSS_2 = _vec(D.Gaussian(), D.Gaussian(0.5, 2.0))

# id -> function spec; together they cover every kind in each of its layouts
FUNCTIONS = {
    "sum": F.SumFunction(
        [D.Gaussian(), D.Exponential(1.0), D.UniformInterval(0.0, 1.0), D.Poisson(2.0)]),
    "sum-iid-uniform": F.SumFunction([D.UniformInterval(0.0, 1.0)] * 5),
    "sum-summed-exponential": F.SumFunction([D.Exponential(1.0)] * 10),
    "sum-summed-gaussian": F.SumFunction([D.Gaussian(1.0, 2.0)] * 7),
    "sum-summed-rademacher": F.SumFunction([D.Rademacher()] * 9),
    "norm-chi": F.VectorNormOfSum(_vec(*[D.Gaussian(0.0, 1.5)] * 3), 20),
    "norm-summed": F.VectorNormOfSum(
        _vec(D.Exponential(1.0), D.Poisson(2.0), D.Gaussian(1.0, 1.0)), 15, centered=True),
    "norm-uniform": F.VectorNormOfSum(_vec(*[D.UniformInterval(-1.0, 1.0)] * 2), 6),
    "sup-loss-absolute": F.SupLinearLoss(
        weights=[(1.0, 0.0), (0.5, 0.25), (0.0, -1.0)], loss="absolute", input=_GAUSS_2,
        output=D.Exponential(1.0), n=5),
    "sup-loss-huber": F.SupLinearLoss(
        weights=[(1.0, 0.5), (0.25, 0.0)], loss="huber", input=_GAUSS_2,
        output=D.Gaussian(), n=4, huber_kappa=0.5),
    "psa": F.PsaReconstruction(
        3, 1, [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0])],
        _vec(D.Gaussian(), D.Gaussian(0.0, 2.0), D.Gaussian()), 4),
    "metric": F.MetricLipschitz(
        2.0, [D.UniformInterval(-1.0, 1.0), D.Rademacher(), D.Gaussian()],
        ["abs", "identity", "abs"]),
}
# sin's last bit follows numpy's SIMD path
SIN_METRIC = F.MetricLipschitz(
    0.5, [D.Gaussian(), D.Exponential(1.0), D.UniformInterval(0.0, 3.0)],
    ["sin", "identity", "sin"])

# sha256 per id, taken before draws were written in place
FUNCTION_SHA256 = {
    "sum": "2d4cb20dc07f5f0937726c4864f2d9cc99c6706857503cfd6f454987d9297aad",
    "sum-iid-uniform": "a4c52495975d44d52a57c9aebac251cbd2e4108c2a07d120b0e67646209f5c75",
    "sum-summed-exponential": "ffbbac96f37a6b44611155c97b22f21509c7f1a13039b568e05745ea152a2d54",
    "sum-summed-gaussian": "cb02ab4488c532837e5987f497a887f7c5a18903119950de0a9c91c53ab63be7",
    "sum-summed-rademacher": "880e8dde0ee3927bab62dac22e93124a876bfbf21c13e4bccef7a30bb177a028",
    "norm-chi": "26408a60e2cf2ee344148057e05e8adea7282280b3c57f2ccd2774a48e6e96bc",
    "norm-summed": "8249c3c8281c8fe1121c61cbdbd6fe632a6168a9cd3b61ed3b5ee3c9c7cf5a8d",
    "norm-uniform": "9b3d68234fdf7cb6a72826152f492757b7d6273c3ecd8669ae72888a620d750e",
    # taken when the loss and PSA kinds were folded, on both SIMD paths:
    # each loss point (x_i, z_i) is drawn whole, and PSA adds x x^T
    "sup-loss-absolute": "ce61af65b0e5f49aee27905ec0e33862d0b3c199c1332027dac1bc26786853dd",
    "sup-loss-huber": "9363adecb892e190093925e32346f5aa433ae127cd1ae87bf87cb16c4db11b14",
    "psa": "557a0419c022fc4bf098041428862a7f27210f4e550cb5b6fac43c5dbf365024",
    "metric": "28762bac4d82c49effb90dc6c5f41860c78e9b2d67ad80c5d1835f5a5c8286ff",
}
# both paths gave the same bits on this corpus, on numpy 2.4.6
SIN_METRIC_SHA256 = {
    "X86_V4": "2f3baf031db1fcf0e86708e7a30d90aa2d1ae28f076533b841d8f863e2e920e8",
    "X86_V3": "2f3baf031db1fcf0e86708e7a30d90aa2d1ae28f076533b841d8f863e2e920e8",
}


def test_the_corpus_covers_every_kind_in_each_layout():
    assert {(f.kind, f.sampler_layout) for f in FUNCTIONS.values()} == {
        ("sum", "per-coordinate"), ("sum", "summed"),
        ("vector_norm_of_sum", "per-coordinate"), ("vector_norm_of_sum", "summed"),
        ("vector_norm_of_sum", "chi"), ("sup_linear_loss", "per-coordinate"),
        ("psa_reconstruction", "per-coordinate"), ("metric_lipschitz", "per-coordinate")}
    assert SIN_METRIC.sampler_layout == "per-coordinate"


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_function_streams_are_pinned(name):
    fspec = FUNCTIONS[name]
    got = digest(lambda seed, stream: F.sample_f(fspec, seed, COUNT, stream))
    assert got == FUNCTION_SHA256[name]


def test_sin_metric_stream_is_pinned_per_simd_path():
    got = digest(lambda seed, stream: F.sample_f(SIN_METRIC, seed, COUNT, stream))
    assert got == simd_pin(SIN_METRIC_SHA256)
