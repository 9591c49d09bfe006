"""Haar estimates streamed over fixed chunks of sample indices, against
whole-array oracles that hold every draw at once."""

import math
import tracemalloc

import numpy as np
import pytest

from qgames import ewl
from qgames.equilibria import verify_quantum_eq
from qgames.ewl import (
    CHUNK,
    EwlConfig,
    HaarMixture,
    Stack,
    born_matrix,
    g_mq,
    mixture_stack,
    moment,
    outcome_dist_mq,
    sample_cells,
    scan_payoffs,
)
from qgames.games import chicken, prisoners_dilemma
from qgames.quantum import su2_matrices

RAGGED = 2 * CHUNK + 17  # two full chunks and a ragged tail


def whole_draws(mA, mB):
    """A profile's draws as two whole-array Stacks, no chunking."""
    n = max((m.sample_count for m in (mA, mB) if isinstance(m, HaarMixture)), default=1)
    return mixture_stack(mA, 0, 0, n), mixture_stack(mB, 1, 0, n)


def whole_mean_se(per_sample):
    """Means over axis 0 and their standard errors, from the whole array;
    a single sample has standard error 0."""
    n = len(per_sample)
    return per_sample.mean(axis=0), per_sample.std(axis=0, ddof=min(1, n - 1)) / math.sqrt(n)


def profile_of(kind, finite_mixtures):
    mix_a, mix_b = finite_mixtures
    return {
        "haar-haar": (HaarMixture(86, RAGGED), HaarMixture(86, RAGGED)),
        "haar-finite": (HaarMixture(87, RAGGED), mix_b),
        "finite-haar": (mix_a, HaarMixture(88, RAGGED)),
        "finite-finite": (mix_a, mix_b),
    }[kind]


PROFILE_KINDS = ["haar-haar", "haar-finite", "finite-haar", "finite-finite"]


@pytest.mark.parametrize("kind", PROFILE_KINDS)
def test_streamed_estimates_match_whole_array_oracle(kind, finite_mixtures, monkeypatch):
    cfg = EwlConfig(chicken(), 0.9)
    mA, mB = profile_of(kind, finite_mixtures)
    cells = sample_cells(born_matrix(cfg), whole_draws(mA, mB))
    pay, pay_se = whole_mean_se(cells @ cfg.payoff_table())
    probs, cell_se = whole_mean_se(cells)
    oracle = np.concatenate([pay, pay_se, probs / probs.sum(), cell_se])
    runs = []
    for chunk in (CHUNK, 1000, RAGGED):
        monkeypatch.setattr(ewl, "CHUNK", chunk)
        (payoff, se), (dist, dist_se) = g_mq(cfg, mA, mB), outcome_dist_mq(cfg, mA, mB)
        runs.append(np.array([*payoff, *se, *dist.weights, *dist_se]))
        if kind == "finite-finite":
            assert se == (0.0, 0.0) and dist_se == (0.0, 0.0, 0.0, 0.0)
        else:
            assert min(se) > 0 and min(dist_se) > 0
    for run in runs:
        assert np.abs(run - oracle).max() < 1e-12
        assert np.abs(run - runs[0]).max() < 1e-12  # chunk size moves no estimate


def test_draw_chunks_cover_every_index_once(monkeypatch):
    monkeypatch.setattr(ewl, "CHUNK", 1000)
    chunks = list(ewl.draw_chunks(HaarMixture(89, RAGGED), HaarMixture(89, 5)))
    assert [len(a.quaternions) for a, _ in chunks] == [1000] * 16 + [RAGGED - 16000]
    whole = whole_draws(HaarMixture(89, RAGGED), HaarMixture(89, 5))
    for slot in (0, 1):
        joined = np.concatenate([c[slot].quaternions for c in chunks])
        assert (joined == whole[slot].quaternions).all()


def test_moments_merge_matches_whole_array():
    x = np.random.default_rng(5).normal(size=(2500, 3)) + 7.0
    merged = ewl.Moments.of(x[:1]).merge(ewl.Moments.of(x[1:900])).merge(ewl.Moments.of(x[900:]))
    whole = ewl.Moments.of(x)
    assert merged.n == 2500
    assert np.abs(merged.mean - x.mean(axis=0)).max() < 1e-12
    assert np.abs(merged.m2 - whole.m2).max() < 1e-9
    k = np.array([0.5, -2.0, 1.0])
    assert abs(merged.se(k) - whole_mean_se(x @ k)[1]) < 1e-15
    assert ewl.Moments.of(x[:1]).se(k) == 0.0


def test_moment_of_a_stack_is_its_weighted_gram_mean(finite_mixtures):
    # 50 samples over a two-element support, then each finite mixture.
    draws = mixture_stack(HaarMixture(90, 100), 1).quaternions.reshape(50, 2, 4)
    stacks = [Stack(draws, np.array([0.25, 0.75]))]
    stacks += [mixture_stack(mix, 0) for mix in finite_mixtures]
    for stack in stacks:
        v = su2_matrices(stack.quaternions).reshape(*stack.quaternions.shape[:2], 4)
        gram = sum(
            w * np.outer(v[s, k], v[s, k].conj())
            for s in range(len(v))
            for k, w in enumerate(stack.weights)
        ) / len(v)
        assert np.abs(moment(stack) - gram).max() < 1e-15
    for mix in finite_mixtures:
        assert (moment(mix) == moment(mixture_stack(mix, 0))).all()


def spectral_oracle(cfg, player, own, opponent):
    """The player's gain and exact payoff, from whole arrays: the Gram moment
    of the opponent's support (I/2 when Haar), the payoff form in quaternion
    coordinates recovered entry by entry by polarization of ``scan_payoffs``,
    and the exact payoff as the mean of that form over a Haar strategy
    (tr(R)/4) or the weighted sum over a finite support."""
    column = cfg.payoff_table()[:, player]
    if isinstance(opponent, HaarMixture):
        h = np.eye(4) / 2
    else:
        v = np.stack([u.matrix.reshape(4) for u in opponent.support])
        weights = np.array([float(w) for w in opponent.weights])
        h = (v[:, :, None] * v.conj()[:, None, :] * weights[:, None, None]).sum(axis=0)

    def pay(qs):
        return scan_payoffs(cfg, player, su2_matrices(qs), h, column)

    e = np.eye(4)
    diag = pay(e)
    r = np.diag(diag)
    for i in range(4):
        for j in range(i + 1, 4):
            r[i, j] = r[j, i] = (pay([e[i] + e[j]])[0] - diag[i] - diag[j]) / 2
    if isinstance(own, HaarMixture):
        exact = np.trace(r) / 4
    else:
        support = np.stack([u.matrix for u in own.support])
        exact = scan_payoffs(cfg, player, support, h, column) @ [float(w) for w in own.weights]
    return np.linalg.eigvalsh(r)[-1] - exact, exact


def verify_oracle(cfg, mA, mB):
    """verify_quantum_eq's payoffs and SEs from the whole arrays of draws, and
    its gains and exact payoffs from ``spectral_oracle``."""
    cells = sample_cells(born_matrix(cfg), whole_draws(mA, mB))
    base, base_se = whole_mean_se(cells @ cfg.payoff_table())
    (gain_a, exact_a), (gain_b, exact_b) = spectral_oracle(cfg, 0, mA, mB), spectral_oracle(cfg, 1, mB, mA)
    return np.concatenate([base, base_se, [gain_a, gain_b, exact_a, exact_b]])


@pytest.mark.parametrize("kind", PROFILE_KINDS)
def test_streamed_verify_matches_whole_array_oracle(kind, finite_mixtures, monkeypatch):
    cfg = EwlConfig(chicken(), 0.9)
    mA, mB = profile_of(kind, finite_mixtures)
    oracle = verify_oracle(cfg, mA, mB)
    runs = []
    for chunk in (CHUNK, 1000, RAGGED):
        monkeypatch.setattr(ewl, "CHUNK", chunk)
        report = verify_quantum_eq(cfg, mA, mB)
        assert report.samples == (None if kind == "finite-finite" else RAGGED)
        assert report.method == ("spectral" if kind == "finite-finite" else "monte_carlo")
        runs.append(
            np.array(
                [
                    *report.payoff,
                    *report.payoff_se,
                    *report.max_deviation_gain,
                    *report.details["exact_payoff"],
                ]
            )
        )
        if kind == "finite-finite":
            assert report.payoff_se == (0.0, 0.0)
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


@pytest.mark.parametrize("estimate", ["verify", "g_mq"])
def test_memory_is_flat_in_the_sample_count(estimate):
    # numpy reports its buffers to tracemalloc.
    cfg = EwlConfig(prisoners_dilemma(), 0.9)

    def run(n):
        mix = HaarMixture(91, n)
        if estimate == "verify":
            return lambda: verify_quantum_eq(cfg, mix, mix)
        return lambda: g_mq(cfg, mix, mix)

    small, large = _peak_bytes(run(4 * CHUNK)), _peak_bytes(run(32 * CHUNK))
    assert abs(large - small) <= 2 * 2**20


def test_chunked_verify_draws_each_stream_once(haar_batches, monkeypatch):
    monkeypatch.setattr(ewl, "CHUNK", 700)
    verify_quantum_eq(EwlConfig(chicken(), 0.7), HaarMixture(9, 2000), HaarMixture(9, 2000))
    assert haar_batches == [700, 700, 700, 700, 600, 600]
    indices = np.concatenate([i for _, i in haar_batches.streams])
    assert sorted(indices.tolist()) == list(range(4000))
