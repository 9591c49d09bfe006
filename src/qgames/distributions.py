"""Finite-support probability distributions and the mixed extension of a game.

The mixed payoff is computed literally as the three-arrow composite
expectation . pushforward . product, so the extension-diagram identities can
be tested as written.  Weights stay exact rationals whenever the inputs are.

Two views of randomized play coexist here and are kept distinct: a Dist over
strategy profiles (what a referee samples, what players jointly mix into)
and its pushforward, a Dist over outcome vectors (the image view, where
equal payoffs merge).  Everything referee-facing uses the profile view and
pushes forward only when an expectation or report needs outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .games import Game, InvalidProfileError
from .numeric import Scalar, is_exact, scalars_equal

_SUM_TOL = 1e-12


class DistError(ValueError):
    pass


def _same_element(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same_element(x, y) for x, y in zip(a, b))
    if isinstance(a, (Fraction, int, float)) and isinstance(b, (Fraction, int, float)):
        return scalars_equal(a, b)
    return a == b


@dataclass(frozen=True)
class Dist:
    """A probability distribution with finite support.

    Invariants: weights are nonnegative, sum to 1 (exactly when rational,
    within 1e-12 once floats appear), and support elements are distinct.
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
        for i in range(len(support)):
            for j in range(i + 1, len(support)):
                if _same_element(support[i], support[j]):
                    raise DistError(f"duplicate support element {support[i]!r}")

    @classmethod
    def normalized(cls, support, weights) -> "Dist":
        weights = list(weights)
        total = sum(weights)
        if total <= 0:
            raise DistError("weights must have a positive sum")
        if all(is_exact(w) for w in weights):
            total = Fraction(total)
        return cls(tuple(support), tuple(w / total for w in weights))

    @classmethod
    def uniform(cls, support) -> "Dist":
        support = tuple(support)
        return cls(support, tuple(Fraction(1, len(support)) for _ in support))

    @classmethod
    def point_mass(cls, element, support) -> "Dist":
        support = tuple(support)
        hits = [i for i, x in enumerate(support) if _same_element(x, element)]
        if len(hits) != 1:
            raise DistError(f"{element!r} must appear exactly once in the support")
        return cls(support, tuple(Fraction(1 if i == hits[0] else 0) for i in range(len(support))))

    def prob(self, element) -> Scalar:
        for x, w in zip(self.support, self.weights):
            if _same_element(x, element):
                return w
        return Fraction(0)

    def items(self):
        return zip(self.support, self.weights)

    def map_weights(self, fn) -> "Dist":
        return Dist(self.support, tuple(fn(w) for w in self.weights))


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
    """Collapse (outcome vector, weight) pairs that share an equal outcome.

    Rational outcomes merge on exact equality; float components compare
    within 1e-12.
    """
    merged: list[list] = []
    for outcome, weight in pairs:
        for entry in merged:
            if _same_element(entry[0], outcome):
                entry[1] = entry[1] + weight
                break
        else:
            merged.append([outcome, weight])
    return Dist(tuple(m[0] for m in merged), tuple(m[1] for m in merged))


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
