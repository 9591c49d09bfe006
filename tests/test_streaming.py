"""Haar estimates streamed over fixed chunks of sample indices, against
whole-array oracles that hold every draw at once."""

import math
import tracemalloc

import numpy as np
import pytest

from qgames import ewl
from qgames.equilibria import _grid_allowance, verify_quantum_eq
from qgames.ewl import (
    CHUNK,
    EwlConfig,
    HaarMixture,
    g_mq,
    mixture_stack,
    moment,
    outcome_dist_mq,
    sample_cells,
    sample_payoffs_at,
    scan_payoffs,
)
from qgames.games import chicken, prisoners_dilemma
from qgames.quantum import su2_grid

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
    cells = sample_cells(cfg, whole_draws(mA, mB))
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
    assert [len(a.unitaries) for a, _ in chunks] == [1000] * 16 + [RAGGED - 16000]
    whole = whole_draws(HaarMixture(89, RAGGED), HaarMixture(89, 5))
    for slot in (0, 1):
        joined = np.concatenate([c[slot].unitaries for c in chunks])
        assert (joined == whole[slot].unitaries).all()


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


def test_outer_samples_are_the_real_form_of_the_moment(finite_mixtures):
    stack = mixture_stack(HaarMixture(90, 50), 1)
    v = stack.unitaries.reshape(-1, 4)
    ys = v[:, :, None] * v.conj()[:, None, :]
    rows = ewl.outer_samples(stack)
    assert np.abs(rows - (ys.real + ys.imag).reshape(-1, 16)).max() < 1e-15
    for r, y in zip(rows, ys):
        assert np.abs(ewl.hermitian(r) - y).max() < 1e-15
    for mix in finite_mixtures:
        assert np.abs(ewl.hermitian(ewl.outer_samples(mixture_stack(mix, 0))[0]) - moment(mix)).max() < 1e-15


def verify_oracle(cfg, mA, mB, grid_n):
    """verify_quantum_eq's payoffs, SEs, gains and per-player epsilons from
    whole arrays: the weighted Gram moment of all the opponent's draws, and
    the SE at the best grid unitary from its per-sample payoffs."""
    draws = whole_draws(mA, mB)
    base, base_se = whole_mean_se(sample_cells(cfg, draws) @ cfg.payoff_table())
    grid = su2_grid(grid_n)
    gains, epsilons = [], []
    for player in (0, 1):
        opponent = draws[1 - player]
        samples = len(opponent.unitaries)
        v = opponent.unitaries.reshape(-1, 4)
        gram = v.T @ (v.conj() * np.tile(opponent.weights, samples)[:, None]) / samples
        means = scan_payoffs(cfg, player, grid, gram, cfg.payoff_table()[:, player])
        best = sample_payoffs_at(cfg, player, grid[int(np.argmax(means))], opponent, player)
        best_se = whole_mean_se(best)[1]
        gains.append(means.max() - base[player])
        epsilons.append(3 * math.hypot(best_se, base_se[player]) + _grid_allowance(means, grid_n))
    return np.concatenate([base, base_se, gains, epsilons])


@pytest.mark.parametrize("kind", PROFILE_KINDS)
def test_streamed_verify_matches_whole_array_oracle(kind, finite_mixtures, monkeypatch):
    cfg = EwlConfig(chicken(), 0.9)
    mA, mB = profile_of(kind, finite_mixtures)
    oracle = verify_oracle(cfg, mA, mB, 5)
    runs = []
    for chunk in (CHUNK, 1000, RAGGED):
        monkeypatch.setattr(ewl, "CHUNK", chunk)
        report = verify_quantum_eq(cfg, mA, mB, deviation_grid=5)
        assert report.samples == (None if kind == "finite-finite" else RAGGED)
        runs.append(
            np.array(
                [
                    *report.payoff,
                    *report.payoff_se,
                    *report.max_deviation_gain,
                    *report.details["per_player_epsilon"],
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
            return lambda: verify_quantum_eq(cfg, mix, mix, deviation_grid=4)
        return lambda: g_mq(cfg, mix, mix)

    small, large = _peak_bytes(run(4 * CHUNK)), _peak_bytes(run(32 * CHUNK))
    assert abs(large - small) <= 2 * 2**20


def test_chunked_verify_draws_each_stream_once(haar_batches, monkeypatch):
    monkeypatch.setattr(ewl, "CHUNK", 700)
    verify_quantum_eq(EwlConfig(chicken(), 0.7), HaarMixture(9, 2000), HaarMixture(9, 2000), 4)
    assert haar_batches == [700, 700, 700, 700, 600, 600]
    indices = np.concatenate([i for _, i in haar_batches.streams])
    assert sorted(indices.tolist()) == list(range(4000))
