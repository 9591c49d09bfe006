"""Haar estimates streamed over fixed chunks of sample indices, against
whole-array oracles that hold every draw at once."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qgames import ewl
from qgames.distributions import Dist
from qgames.equilibria import verify_quantum_eq
from qgames.ewl import (
    BORN_BLOCK,
    CHUNK,
    HAAR,
    EwlConfig,
    HaarMixture,
    born_matrix,
    g_mq,
    haar_draws,
    haar_estimate,
    moment,
    outcome_dist_mq,
    sample_cells,
    scan_payoffs,
)
from qgames.games import InvalidProfileError, chicken, prisoners_dilemma
from qgames.quantum import Unitary2

RAGGED = 2 * CHUNK + 17  # two full chunks and a ragged tail


def whole_draws(seed, n):
    """Haar x Haar draws 0..n-1 on ``seed`` as two whole arrays, no chunking."""
    return haar_draws(seed, 0, 0, n), haar_draws(seed, 1, 0, n)


def whole_mean_se(per_sample):
    """Means over axis 0 and their standard errors, from the whole array."""
    return per_sample.mean(axis=0), per_sample.std(axis=0, ddof=1) / math.sqrt(len(per_sample))


def profile_of(kind, finite_mixtures):
    mix_a, mix_b = finite_mixtures
    return {
        "haar-haar": (HAAR, HAAR),
        "haar-finite": (HAAR, mix_b),
        "finite-haar": (mix_a, HAAR),
        "finite-finite": (mix_a, mix_b),
    }[kind]


def as_design(m, four_units):
    """A Haar slot replaced by the four-unit mixture of the same Gram matrix."""
    return four_units if isinstance(m, HaarMixture) else m


PROFILE_KINDS = ["haar-haar", "haar-finite", "finite-haar", "finite-finite"]
SEED = 86  # the seed of every sampled Haar x Haar profile here


@pytest.mark.parametrize("kind", PROFILE_KINDS)
def test_streamed_estimates_match_whole_array_oracle(
    kind, finite_mixtures, four_units, born_pass, haar_batches, monkeypatch
):
    # Every profile's exact value matches the finite Born pass with each
    # Haar slot played as the four quaternion units, and draws nothing.
    # Only Haar x Haar play is sampled: its streamed estimate matches the
    # whole arrays of draws at every chunk size.
    cfg = EwlConfig(chicken(), 0.9)
    mA, mB = profile_of(kind, finite_mixtures)
    cells = born_pass(cfg, as_design(mA, four_units), as_design(mB, four_units))[0]
    assert np.abs(np.array(g_mq(cfg, mA, mB)) - cells @ cfg.payoff_table()).max() <= 1e-15
    assert np.abs(np.array(outcome_dist_mq(cfg, mA, mB).weights) - cells).max() <= 1e-15
    assert haar_batches == []
    if kind != "haar-haar":
        with pytest.raises(InvalidProfileError):
            verify_quantum_eq(cfg, mA, mB, samples=RAGGED)
        return
    cells = sample_cells(born_matrix(cfg), *whole_draws(SEED, RAGGED))
    pay, pay_se = whole_mean_se(cells @ cfg.payoff_table())
    probs, cell_se = whole_mean_se(cells)
    oracle = np.concatenate([pay, pay_se, probs / probs.sum(), cell_se])
    runs = []
    for chunk in (CHUNK, 1000, RAGGED):
        monkeypatch.setattr(ewl, "CHUNK", chunk)
        estimate = haar_estimate(cfg, SEED, RAGGED)
        runs.append(np.concatenate(list(estimate.values())))
        assert min(estimate["payoff_se"]) > 0 and min(estimate["outcome_se"]) > 0
    for run in runs:
        assert np.abs(run - oracle).max() < 1e-12
        assert np.abs(run - runs[0]).max() < 1e-12  # chunk size moves no estimate


def test_draw_chunks_cover_every_index_once(monkeypatch):
    monkeypatch.setattr(ewl, "CHUNK", 1000)
    chunks = list(ewl.draw_chunks(89, RAGGED))
    assert [len(a) for a, _ in chunks] == [1000] * 16 + [RAGGED - 16000]
    whole = whole_draws(89, RAGGED)
    for slot in (0, 1):
        joined = np.concatenate([c[slot] for c in chunks])
        assert (joined == whole[slot]).all()


def test_moments_merge_matches_whole_array():
    x = np.random.default_rng(5).normal(size=(2500, 3)) + 7.0
    merged = ewl.Moments.of(x[:1]).merge(ewl.Moments.of(x[1:900])).merge(ewl.Moments.of(x[900:]))
    whole = ewl.Moments.of(x)
    assert merged.n == 2500
    assert np.abs(merged.mean - x.mean(axis=0)).max() < 1e-12
    assert np.abs(merged.m2 - whole.m2).max() < 1e-9
    k = np.array([0.5, -2.0, 1.0])
    assert abs(merged.se(k) - whole_mean_se(x @ k)[1]) < 1e-15
    assert abs(ewl.Moments.of(x[:2]).se(k) - whole_mean_se(x[:2] @ k)[1]) < 1e-15


def test_moment_of_a_stack_is_its_weighted_gram_mean(su2_matrices, finite_mixtures):
    # A support of 50 Haar draws with unequal weights, then each finite
    # mixture: the Gram matrix is sum w q q^T over the stacked quaternions.
    draws = haar_draws(90, 1, 0, 50)
    weights = [Fraction(k + 1, 1275) for k in range(50)]
    drawn = Dist([Unitary2.from_matrix(u) for u in su2_matrices(draws)], weights)
    for mix in (drawn, *finite_mixtures):
        q = np.stack([u.quaternion for u in mix.support])
        gram = sum(float(w) * np.outer(q[k], q[k]) for k, w in enumerate(mix.weights))
        assert np.abs(moment(mix) - gram).max() < 1e-15


def spectral_oracle(cfg, player, own, opponent, su2_matrices):
    """The player's gain and exact payoff, from whole arrays: the Gram matrix
    of the opponent's support quaternions (I/4 when Haar), the payoff form in
    quaternion coordinates recovered entry by entry by polarization of
    ``scan_payoffs``, and the exact payoff as the mean of that form over a
    Haar strategy (tr(R)/4) or the weighted sum over a finite support.
    ``su2_matrices`` is the conftest fixture of that name."""
    column = cfg.payoff_table()[:, player]
    if isinstance(opponent, HaarMixture):
        y = np.eye(4) / 4
    else:
        q = np.stack([u.quaternion for u in opponent.support])
        weights = np.array([float(w) for w in opponent.weights])
        y = (q[:, :, None] * q[:, None, :] * weights[:, None, None]).sum(axis=0)

    def pay(qs):
        return scan_payoffs(cfg, player, su2_matrices(qs), y, column)

    e = np.eye(4)
    diag = pay(e)
    r = np.diag(diag)
    for i in range(4):
        for j in range(i + 1, 4):
            r[i, j] = r[j, i] = (pay([e[i] + e[j]])[0] - diag[i] - diag[j]) / 2
    if isinstance(own, HaarMixture):
        exact = np.trace(r) / 4
    else:
        support = np.stack([u.quaternion for u in own.support])
        exact = pay(support) @ [float(w) for w in own.weights]
    return np.linalg.eigvalsh(r)[-1] - exact, exact


def verify_oracle(cfg, mA, mB, su2_matrices):
    """verify_quantum_eq's gains and exact payoffs from ``spectral_oracle``,
    and for Haar x Haar play its sampled payoffs and SEs from the whole
    arrays of RAGGED draws on SEED."""
    (gain_a, exact_a), (gain_b, exact_b) = (
        spectral_oracle(cfg, 0, mA, mB, su2_matrices), spectral_oracle(cfg, 1, mB, mA, su2_matrices)
    )
    spectral = [exact_a, exact_b, gain_a, gain_b]
    if not (isinstance(mA, HaarMixture) and isinstance(mB, HaarMixture)):
        return np.array(spectral)
    base, base_se = whole_mean_se(sample_cells(born_matrix(cfg), *whole_draws(SEED, RAGGED)) @ cfg.payoff_table())
    return np.concatenate([spectral, base, base_se])


@pytest.mark.parametrize("kind", PROFILE_KINDS)
def test_streamed_verify_matches_whole_array_oracle(kind, finite_mixtures, su2_matrices, monkeypatch):
    cfg = EwlConfig(chicken(), 0.9)
    mA, mB = profile_of(kind, finite_mixtures)
    oracle = verify_oracle(cfg, mA, mB, su2_matrices)
    sampling = {"samples": RAGGED, "seed": SEED} if kind == "haar-haar" else {}
    runs = []
    for chunk in (CHUNK, 1000, RAGGED):
        monkeypatch.setattr(ewl, "CHUNK", chunk)
        report = verify_quantum_eq(cfg, mA, mB, **sampling)
        assert report.samples == (RAGGED if kind == "haar-haar" else None)
        assert report.method == ("monte_carlo" if kind == "haar-haar" else "spectral")
        run = [*report.payoff, *report.max_deviation_gain]
        if kind == "haar-haar":
            run += [*report.details["estimate"]["payoff"], *report.details["estimate"]["payoff_se"]]
        else:
            assert "estimate" not in report.details
        runs.append(np.array(run))
    for run in runs:
        assert np.abs(run - oracle).max() < 1e-12
        assert np.abs(run - runs[0]).max() < 1e-12  # chunk size moves no estimate


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("estimate", ["verify", "haar_estimate"])
def test_memory_is_flat_in_the_sample_count(estimate):
    # numpy reports its buffers to tracemalloc.
    cfg = EwlConfig(prisoners_dilemma(), 0.9)

    def run(n):
        if estimate == "verify":
            return lambda: verify_quantum_eq(cfg, HAAR, HAAR, samples=n, seed=91)
        return lambda: haar_estimate(cfg, 91, n)

    small, large = _peak_bytes(run(4 * CHUNK)), _peak_bytes(run(32 * CHUNK))
    assert abs(large - small) <= 2 * 2**20


def test_chunked_verify_draws_each_stream_once(haar_batches, monkeypatch):
    monkeypatch.setattr(ewl, "CHUNK", 700)
    verify_quantum_eq(EwlConfig(chicken(), 0.7), HAAR, HAAR, samples=2000, seed=9)
    assert haar_batches == [700, 700, 700, 700, 600, 600]
    indices = np.concatenate([i for _, i in haar_batches.streams])
    assert sorted(indices.tolist()) == list(range(4000))


# haar_estimate at seed 3 and RAGGED samples, as float reprs recorded from a
# Born pass that made fresh arrays for every chunk: where the pass keeps its
# buffers moves no bit.
GOLDEN = {
    "pd": {
        "payoff": [2.247840063792223, 2.242418848950864],
        "payoff_se": [0.008636071334645274, 0.00860293841593391],
        "outcome_probs": [0.2514446119060327, 0.24687128936902353, 0.24795553233729525, 0.25372856638764857],
        "outcome_se": [0.0019491637898581234, 0.0019416931250190977, 0.0019423839536364127, 0.001962202813494654],
    },
    "chicken": {
        "payoff": [0.9912370930654686, 0.9928057760142983],
        "payoff_se": [0.005487726003477165, 0.005495923584205887],
        "outcome_probs": [0.250735196122085, 0.24822461639286392, 0.24770172207658742, 0.2533384654084636],
        "outcome_se": [0.0015069052623206205, 0.001493133511642087, 0.0014990660076538537, 0.0015187293237027722],
    },
}


@pytest.mark.parametrize("game, gamma", [(prisoners_dilemma(), math.pi / 2), (chicken(), 0.7)])
def test_haar_estimate_is_bitwise_the_recorded_one(game, gamma):
    assert haar_estimate(EwlConfig(game, gamma), 3, RAGGED) == GOLDEN[game.name]


@pytest.mark.parametrize(
    "n", [1, 2, BORN_BLOCK, BORN_BLOCK + 1, 2 * BORN_BLOCK + 1, 2 * BORN_BLOCK + 2, CHUNK + 17]
)
def test_blocked_born_pass_is_the_whole_array_product(n, whole_cells):
    # Every cell, bit for bit, including a lone last column (a one-column
    # product rounds differently) and (1, 4) inputs broadcast in either slot.
    born = born_matrix(EwlConfig(chicken(), 0.7))
    qa, qb = haar_draws(92, 0, 0, n), haar_draws(92, 1, 0, n)
    for pair in ((qa, qb), (qa[:1], qb), (qa, qb[-1:]), (qa[:1], qb[:1])):
        assert np.array_equal(sample_cells(born, *pair), whole_cells(born, *pair))
    out, block = np.full((4, n), np.nan), np.full(24 * (BORN_BLOCK + 1), np.nan)
    cells = sample_cells(born, qa, qb, out, block)
    assert np.shares_memory(cells, out) and np.array_equal(cells, whole_cells(born, qa, qb))


def test_haar_estimate_runs_in_a_small_workspace():
    # One reused workspace: both slots' draws and the sampler's scratch
    # (96 B per index in flight) and a 192 KiB Born block, about 1.1 MB here.
    cfg = EwlConfig(prisoners_dilemma(), 0.9)
    assert _peak_bytes(lambda: haar_estimate(cfg, 91, 4 * CHUNK)) <= 1.5 * 2**20
