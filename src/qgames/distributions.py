"""Finite-support probability distributions and the mixed extension of a game.

The mixed payoff is computed literally as the three-arrow composite
expectation . pushforward . product, so the extension-diagram identities can
be tested as written.  Weights stay exact rationals whenever the inputs are.

Two views of randomized play coexist here and are kept distinct: a Dist over
strategy profiles (what a referee samples, what players jointly mix into)
and its pushforward, a Dist over outcome vectors (the image view, where
equal payoffs merge).  Everything referee-facing uses the profile view and
pushes forward only when an expectation or report needs outcomes.

``MixedProfile.of`` is the one place a mixed unilateral deviation is written:
the exact deviation checks of ``equilibria`` build every profile through it.

The exact 2x2 mixed-equilibrium solver lives here too: it needs only the
mixed extension, so the exact commands run it without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .games import Game, InvalidProfileError, check_player, pure_nash_all
from .numeric import Scalar, is_exact

_SUM_TOL = 1e-12


class DistError(ValueError):
    pass


@dataclass(frozen=True)
class Dist:
    """A probability distribution with finite support.

    Invariants: weights are nonnegative, sum to 1 (exactly when rational,
    within 1e-12 once float weights appear), and support elements are
    distinct under ``==``.
    """

    support: tuple
    weights: tuple[Scalar, ...]

    def __post_init__(self):
        support = tuple(self.support)
        weights = tuple(self.weights)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)
        if len(support) != len(weights):
            raise DistError("support and weights must have the same length")
        if len(support) == 0:
            raise DistError("empty distribution")
        if any(w < 0 for w in weights):
            raise DistError("negative weight")
        total = sum(weights)
        if all(is_exact(w) for w in weights):
            if total != 1:
                raise DistError(f"weights sum to {total}, expected exactly 1")
        elif abs(float(total) - 1.0) > _SUM_TOL:
            raise DistError(f"weights sum to {float(total)!r}, expected 1 within {_SUM_TOL}")
        # Equal elements hash alike (Fraction(1, 2), 0.5 and 1 == Fraction(1) too).
        if len(set(support)) < len(support):
            duplicate = next(x for i, x in enumerate(support) if x in support[i + 1:])
            raise DistError(f"duplicate support element {duplicate!r}")

    @classmethod
    def uniform(cls, support) -> "Dist":
        support = tuple(support)
        return cls(support, tuple(Fraction(1, len(support)) for _ in support))

    @classmethod
    def point_mass(cls, element, support) -> "Dist":
        support = tuple(support)
        hits = [i for i, x in enumerate(support) if x == element]
        if len(hits) != 1:
            raise DistError(f"{element!r} must appear exactly once in the support")
        return cls(support, tuple(Fraction(1 if i == hits[0] else 0) for i in range(len(support))))

    def prob(self, element) -> Scalar:
        for x, w in zip(self.support, self.weights):
            if x == element:
                return w
        return Fraction(0)

    def items(self):
        return zip(self.support, self.weights)


@dataclass(frozen=True)
class MixedProfile:
    """One mixed strategy per player, each a Dist over that player's indices."""

    row: Dist
    col: Dist

    @classmethod
    def from_weights(cls, row_weights, col_weights) -> "MixedProfile":
        return cls(
            Dist(tuple(range(len(tuple(row_weights)))), tuple(row_weights)),
            Dist(tuple(range(len(tuple(col_weights)))), tuple(col_weights)),
        )

    @classmethod
    def of(cls, player: int, own: Dist, other: Dist) -> "MixedProfile":
        """The profile in which ``player`` plays ``own`` and the opponent plays ``other``."""
        check_player(player)
        return cls(own, other) if player == 0 else cls(other, own)

    def check_for(self, game: Game) -> None:
        rows, cols = game.shape
        if self.row.support != tuple(range(rows)) or self.col.support != tuple(range(cols)):
            raise DistError("mixed profile dimensions do not match the game")


def embed_pure(strategy: int, arity: int) -> Dist:
    """The point-mass embedding of a pure strategy into the simplex."""
    if not 0 <= strategy < arity:
        raise DistError(f"strategy {strategy} out of range for arity {arity}")
    return Dist(tuple(range(arity)), tuple(Fraction(1 if i == strategy else 0) for i in range(arity)))


def product(d1: Dist, d2: Dist) -> Dist:
    """The product distribution over pairs, ordered row-major."""
    support = []
    weights = []
    for x, wx in d1.items():
        for y, wy in d2.items():
            support.append((x, y))
            weights.append(wx * wy)
    return Dist(tuple(support), tuple(weights))


def merge_outcomes(pairs) -> Dist:
    """Collapse (outcome vector, weight) pairs that share an equal outcome,
    in order of first appearance."""
    merged: dict = {}
    for outcome, weight in pairs:
        merged[outcome] = merged.get(outcome, 0) + weight
    return Dist(tuple(merged), tuple(merged.values()))


def pushforward(game: Game, d: Dist) -> Dist:
    """Push a distribution over profiles through the payoff table.

    The result lives on the image of the payoff function: profiles with equal
    outcome vectors have their probabilities merged, and zero-mass atoms are
    dropped.
    """
    for profile in d.support:
        game.check_profile(profile)
    return merge_outcomes((game.payoff(profile), w) for profile, w in d.items() if w != 0)


def expectation(d: Dist) -> tuple[Scalar, ...]:
    """Componentwise weighted mean of a distribution over real vectors."""
    length = len(d.support[0])
    if any(len(v) != length for v in d.support):
        raise DistError("outcome vectors must share a length")
    return tuple(sum(w * v[k] for v, w in d.items()) for k in range(length))


def g_mix(game: Game, m: MixedProfile) -> tuple[Scalar, ...]:
    """Expected outcome of a mixed profile: expectation . pushforward . product."""
    m.check_for(game)
    return expectation(pushforward(game, product(m.row, m.col)))


def realizable(
    game: Game, target: Dist, tolerance: float = 1e-9
) -> tuple[bool, tuple[float, float] | None]:
    """Can a target distribution over the 4 cells arise from independent mixing?

    The witness is the target's own marginals (p, q), each player's
    first-strategy probability.  A rational target is a product exactly when
    p00*p11 == p01*p10, and then it is the product of its marginals.  A float
    target is accepted when the product of its marginals lies within
    ``tolerance`` of it in total variation.  That is sound and loses at most a
    factor 3: if a product a x b lies within d of the target, the marginals
    lie within d of a and of b, so their product lies within 2d of a x b and
    within 3d of the target.  Returns (True, (p, q)) or (False, None).
    """
    if not game.is_2x2():
        raise InvalidProfileError("realizability test only supports 2x2 games")
    cells = [Fraction(0)] * 4
    order = {profile: k for k, profile in enumerate(game.profiles())}
    for profile, w in target.items():
        game.check_profile(profile)
        cells[order[profile]] = w
    p00, p01, p10, p11 = cells
    p, q = p00 + p01, p00 + p10
    if all(is_exact(w) for w in cells):
        found = p00 * p11 == p01 * p10
    else:
        marginal_product = (p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q))
        found = 0.5 * sum(abs(m - t) for m, t in zip(marginal_product, cells)) <= tolerance
    return (True, (float(p), float(q))) if found else (False, None)


@dataclass(frozen=True)
class MixedEquilibrium:
    profile: MixedProfile
    payoff: tuple[Scalar, Scalar]
    degenerate: bool = False
    note: str = ""


def _indifference_weight(d_first: Scalar, d_second: Scalar):
    """Solve w*d_first + (1-w)*d_second = 0; returns (weight, degenerate?)."""
    a = d_first - d_second
    if a == 0:
        return (None, d_second == 0)
    return (-d_second / a, False)


def mixed_nash_2x2(game: Game) -> list[MixedEquilibrium]:
    """All pure equilibria plus the fully mixed one, solved exactly.

    Degenerate games (a player indifferent regardless of the opponent's mix)
    are reported as one-parameter families with the ``degenerate`` flag and a
    midpoint representative.
    """
    if not game.is_2x2():
        raise InvalidProfileError("mixed equilibrium solver only supports 2x2 games")
    u = game.payoff
    results = [
        MixedEquilibrium(
            MixedProfile(embed_pure(i, 2), embed_pure(j, 2)),
            g_mix(game, MixedProfile(embed_pure(i, 2), embed_pure(j, 2))),
            note=f"pure {game.label((i, j))}",
        )
        for i, j in pure_nash_all(game)
    ]

    # Row weight p makes the column player indifferent; column weight q makes
    # the row player indifferent.
    p, p_free = _indifference_weight(u((0, 0))[1] - u((0, 1))[1], u((1, 0))[1] - u((1, 1))[1])
    q, q_free = _indifference_weight(u((0, 0))[0] - u((1, 0))[0], u((0, 1))[0] - u((1, 1))[0])

    def interior(w) -> bool:
        return w is not None and 0 < w < 1

    half = Fraction(1, 2)
    if p_free and q_free:
        profile = MixedProfile.from_weights((half, half), (half, half))
        results.append(
            MixedEquilibrium(
                profile, g_mix(game, profile), True, "every mixed profile is an equilibrium"
            )
        )
    elif p_free and q is not None and 0 <= q <= 1:
        profile = MixedProfile.from_weights((half, half), (q, 1 - q))
        results.append(
            MixedEquilibrium(profile, g_mix(game, profile), True, "row weight free in [0, 1]")
        )
    elif q_free and p is not None and 0 <= p <= 1:
        profile = MixedProfile.from_weights((p, 1 - p), (half, half))
        results.append(
            MixedEquilibrium(profile, g_mix(game, profile), True, "column weight free in [0, 1]")
        )
    elif interior(p) and interior(q):
        profile = MixedProfile.from_weights((p, 1 - p), (q, 1 - q))
        results.append(MixedEquilibrium(profile, g_mix(game, profile), False, "fully mixed"))
    return results
