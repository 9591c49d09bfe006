"""Command-line front end.

Subcommands: analyze, correlated, ewl, verify, paper-check.  Exit codes:
0 success, 1 usage or input error, 2 a claimed equilibrium failed its
certification (verify / paper-check only).  All errors go to stderr.
Identical command line and seed produce byte-identical JSON; rationals are
serialized as "a/b" strings and floats carry 15 significant digits.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction

# Before numpy loads: a second OpenBLAS thread costs about 70 ms of CPU at
# import, and the 4x4 and (16, 8192) products here never use it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .distributions import MixedProfile, g_mix, mixed_nash_2x2
from .games import Game, GameError, dominance, load_game, pure_nash_all
from .numeric import BadRationalError, parse_scalar, scalar_to_json


def _lazy(name: str):
    """The submodule ``qgames.<name>``, executed on its first attribute access.

    analyze and correlated never touch the numeric modules, so they run
    without importing numpy, and ewl and verify never touch the LP modules;
    the module objects still sit in sys.modules from the start, as if
    imported eagerly.
    """
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


checks = _lazy("checks")
equilibria = _lazy("equilibria")
ewl = _lazy("ewl")
quantum = _lazy("quantum")
lp = _lazy("lp")
mediated = _lazy("mediated")

# Caps on the sizes a command line may ask for, so that no input requests an
# unbounded allocation or run time.  Haar estimates stream over fixed chunks
# of sample indices, so memory does not grow with --samples and that cap
# bounds run time.  Peak RSS and wall time were measured on the CLI
# commands at the cap (2-vCPU Xeon).
MAX_SAMPLES = 1_000_000  # Haar draws per slot: verify 33.3 MB, 0.7 s; paper-check 34.5 MB, 0.9 s
HAAR_SAMPLES = 100_000  # the --samples of ewl --mixture haar and verify --profile haar


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _seed(args) -> int:
    """--seed, else QGAMES_SEED, else 0: read only where a command draws."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QGAMES_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise BadRationalError(f"QGAMES_SEED must be an integer, got {env!r}")


def _reject_ignored(mode: str, args, flags) -> None:
    """A usage error for each of ``flags`` given on the command line that ``mode`` does not read."""
    ignored = [flag for flag in flags if getattr(args, flag.lstrip("-")) is not None]
    if ignored:
        raise BadRationalError(f"{mode} ignores {' and '.join(ignored)}")


def _count(low: int, high: int):
    """An argparse type: an integer in [low, high]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be between {low} and {high}, got {value}")
        return value

    return parse


def _parse_gamma(text: str) -> float:
    if text == "max":
        return ewl.MAX_GAMMA
    try:
        gamma = float(text)
    except ValueError:
        raise BadRationalError(f"gamma must be a number or 'max', got {text!r}")
    return gamma


def _parse_csv_scalars(text: str, count: int, what: str):
    parts = text.split(",")
    if len(parts) != count:
        raise BadRationalError(f"{what} needs {count} comma-separated values, got {text!r}")
    return tuple(parse_scalar(p) for p in parts)


def _parse_angles(text: str) -> quantum.Unitary2:
    try:
        theta, alpha, beta = (float(p) for p in _parse_csv_scalars(text, 3, "unitary angles"))
    except OverflowError:
        raise BadRationalError(f"unitary angles must be finite floats, got {text!r}") from None
    return quantum.su2_from_angles(theta, alpha, beta)


def _json_form(value):
    """A report value as JSON holds it: an exact rational in its
    ``scalar_to_json`` form, a float with the 15 significant digits reports
    promise, a dataclass as the dict of its fields, a tuple as a list."""
    if isinstance(value, Fraction):
        return scalar_to_json(value)
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if is_dataclass(value):
        value = asdict(value)
    if isinstance(value, dict):
        return {k: _json_form(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_form(v) for v in value]
    return value


def _emit_json(data) -> None:
    print(json.dumps(_json_form(data), indent=2))


def _game_json(game: Game) -> dict:
    return {
        "name": game.name,
        "players": game.player_names,
        "strategies": game.strategy_names,
        "payoffs": game.payoffs,
    }


def _welfare_objective(game: Game, spec_text: str):
    if spec_text == "welfare":
        return [sum(game.payoff(p)) for p in game.profiles()]
    if spec_text == "player1":
        return [game.payoff(p)[0] for p in game.profiles()]
    if spec_text == "player2":
        return [game.payoff(p)[1] for p in game.profiles()]
    if spec_text.startswith("custom:"):
        return list(
            _parse_csv_scalars(spec_text[len("custom:"):], len(game.profiles()), "objective")
        )
    raise BadRationalError(
        f"objective must be welfare|player1|player2|custom:<values>, got {spec_text!r}"
    )


def _obedience_json(game: Game, row, **amount) -> dict:
    """An obedience row (an ``AumannViolation`` or ``ObedienceMultiplier``)
    with the player's strategies named, followed by ``amount``."""
    names = game.strategy_names[row.player]
    chosen = {"recommended": names[row.recommended], "alternative": names[row.alternative]}
    return {"player": row.player + 1, **chosen, **amount}


def _certificate_json(game: Game, optimum) -> dict:
    """The dual multipliers that prove a ce_optimize value optimal."""
    return {
        "obedience_multipliers": [
            _obedience_json(game, m, multiplier=m.multiplier) for m in optimum.obedience_multipliers
        ],
        "simplex_multiplier": optimum.simplex_multiplier,
    }


def _print_table(rows: list[tuple[str, str]]) -> None:
    width = max((len(k) for k, _ in rows), default=0)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")


# analyze ---------------------------------------------------------------

def _mixed_eq_json(eq) -> dict:
    return {
        "row": eq.profile.row.weights,
        "col": eq.profile.col.weights,
        "payoff": eq.payoff,
        "degenerate": eq.degenerate,
        "note": eq.note,
    }


def cmd_analyze(args) -> int:
    game = load_game(args.game)
    report: dict = {"game": _game_json(game)}
    report["pure_nash"] = [
        {"profile": list(p), "label": game.label(p)} for p in pure_nash_all(game)
    ]
    report["dominance"] = [
        {
            "player": player + 1,
            "dominating": game.strategy_names[player][d.dominating],
            "dominated": game.strategy_names[player][d.dominated],
            "strict": d.strict,
        }
        for player in (0, 1)
        for d in dominance(game, player)
    ]
    if game.is_2x2():
        report["mixed_nash"] = [_mixed_eq_json(eq) for eq in mixed_nash_2x2(game)]
    optimum = mediated.ce_optimize(game, _welfare_objective(game, "welfare"))
    report["correlated_welfare"] = {
        "value": optimum.value,
        "rho": optimum.rho.weights,
        **_certificate_json(game, optimum),
    }
    if args.mixed:
        p, q = _parse_csv_scalars(args.mixed, 2, "--mixed")
        profile = MixedProfile.from_weights((p, 1 - p), (q, 1 - q))
        report["mixed_payoff"] = {
            "row": (p, 1 - p),
            "col": (q, 1 - q),
            "payoff": g_mix(game, profile),
        }
    if args.gamma:
        report["ewl"] = []
        for cfg in (ewl.EwlConfig(game, _parse_gamma(text)) for text in args.gamma):
            complete_ok, gap = ewl.check_complete(cfg)
            report["ewl"].append(
                {"gamma": cfg.gamma, "proper": ewl.check_proper(cfg), "complete": complete_ok, "complete_gap": gap}
            )
    if args.json:
        _emit_json(report)
        return 0
    rows = [("game", game.name)]
    rows.append(
        (
            "pure nash",
            ", ".join(e["label"] for e in report["pure_nash"]) or "none",
        )
    )
    for d in report["dominance"]:
        kind = "strictly" if d["strict"] else "weakly"
        rows.append(
            (f"dominance p{d['player']}", f"{d['dominating']} {kind} dominates {d['dominated']}")
        )
    for eq in report.get("mixed_nash", []):
        label = "degenerate family" if eq["degenerate"] else "mixed equilibrium"
        rows.append(
            (
                label,
                f"row=({','.join(map(str, eq['row']))}) col=({','.join(map(str, eq['col']))})"
                f" pays ({','.join(map(str, eq['payoff']))})",
            )
        )
    cw = report["correlated_welfare"]
    rows.append(
        ("best welfare CE", f"value {cw['value']} at rho=({','.join(map(str, cw['rho']))})")
    )
    if "mixed_payoff" in report:
        mp = report["mixed_payoff"]
        rows.append(("mixed payoff", f"({','.join(map(str, mp['payoff']))})"))
    for entry in report.get("ewl", []):
        rows.append((f"ewl gamma={entry['gamma']:.6g}", f"proper={entry['proper']} complete={entry['complete']}"))
    _print_table(rows)
    return 0


# correlated ------------------------------------------------------------

def cmd_correlated(args) -> int:
    game = load_game(args.game)
    objective = _welfare_objective(game, args.objective)
    if args.rho:
        weights = _parse_csv_scalars(args.rho, len(game.profiles()), "--rho")
        rho = mediated.referee_dist(game, weights)
        feasible, violations = mediated.aumann_check(game, rho)
        value = sum(c * w for c, w in zip(objective, rho.weights))
        result = {
            "feasible": feasible,
            "value": value,
            "rho": rho.weights,
            "violations": [_obedience_json(game, v, shortfall=v.shortfall) for v in violations],
        }
        if game.is_2x2():
            ce_ok, worst = mediated.is_correlated_eq(game, rho)
            result["response_rule_oracle"] = {"feasible": ce_ok, "worst_gain": worst}
            result["expected_outcome"] = mediated.g_com(
                game, rho, mediated.ResponseRule.FOLLOW, mediated.ResponseRule.FOLLOW
            )
    else:
        optimum = mediated.ce_optimize(game, objective)
        result = {
            "feasible": True,
            "value": optimum.value,
            "rho": optimum.rho.weights,
            "violations": [],
            **_certificate_json(game, optimum),
        }
    _emit_json(result)
    return 0


# ewl -------------------------------------------------------------------

def cmd_ewl(args) -> int:
    game = load_game(args.game)
    cfg = ewl.EwlConfig(game, _parse_gamma(args.gamma))
    if args.check:
        _reject_ignored(f"--check {args.check}", args, ("--mixture", "--uA", "--uB", "--samples", "--seed"))
    elif args.mixture:
        _reject_ignored(f"--mixture {args.mixture}", args, ("--uA", "--uB"))
    else:
        _reject_ignored("pure play", args, ("--samples", "--seed"))

    if args.check == "proper":
        result = {"check": "proper", "gamma": cfg.gamma, "result": ewl.check_proper(cfg)}
        _emit_json(result) if args.json else print(f"proper: {result['result']}")
        return 0
    if args.check == "complete":
        ok, gap = ewl.check_complete(cfg)
        result = {"check": "complete", "gamma": cfg.gamma, "result": ok, "max_gap": gap}
        _emit_json(result) if args.json else print(f"complete: {ok} (max gap {gap:.3g})")
        return 0

    if args.mixture == "haar":
        seed, samples = _seed(args), args.samples or HAAR_SAMPLES
        payoff, dist = ewl.g_mq(cfg, ewl.HAAR, ewl.HAAR), ewl.outcome_dist_mq(cfg, ewl.HAAR, ewl.HAAR)
        estimate = ewl.haar_estimate(cfg, seed, samples)
        result = {
            "gamma": cfg.gamma,
            "mixture": "haar",
            "samples": samples,
            "seed": seed,
            "payoff": list(payoff),
            "outcome_probs": list(dist.weights),
            "estimate": estimate,
        }
        if args.json:
            _emit_json(result)
        else:
            sampled, se = estimate["payoff"], estimate["payoff_se"]
            _print_table(
                [
                    ("payoff", f"({payoff[0]:.6g}, {payoff[1]:.6g})"),
                    ("estimate", f"({sampled[0]:.6g}, {sampled[1]:.6g}) +- ({se[0]:.2g}, {se[1]:.2g})"),
                    (
                        "outcome probs",
                        " ".join(
                            f"{game.label(c)}={w:.4f}" for c, w in dist.items()
                        ),
                    ),
                ]
            )
        return 0

    ua = _parse_angles(args.uA) if args.uA else quantum.Unitary2(((1, 0), (0, 1)))
    ub = _parse_angles(args.uB) if args.uB else quantum.Unitary2(((1, 0), (0, 1)))
    state = ewl.protocol_state(cfg, ua, ub)
    payoff = ewl.g_q(cfg, ua, ub)
    probs = quantum.measure(state)
    result = {
        "gamma": cfg.gamma,
        "payoff": list(payoff),
        "outcome_probs": list(probs.weights),
        "cells": [game.label(c) for c in probs.support],
    }
    if args.json:
        _emit_json(result)
    else:
        _print_table(
            [
                ("payoff", f"({payoff[0]:.6g}, {payoff[1]:.6g})"),
                ("outcome probs", " ".join(f"{c}={w:.4f}" for c, w in zip(result["cells"], probs.weights))),
            ]
        )
    return 0


# verify ----------------------------------------------------------------

def cmd_verify(args) -> int:
    game = load_game(args.game)
    if args.profile.startswith("classical:"):
        _reject_ignored("--profile classical", args, ("--gamma", "--samples", "--seed"))
        p, q = _parse_csv_scalars(args.profile[len("classical:"):], 2, "classical profile")
        profile = MixedProfile.from_weights((p, 1 - p), (q, 1 - q))
        report = equilibria.verify_classical_eq(game, profile)
    elif args.profile == "haar":
        gamma = _parse_gamma(args.gamma) if args.gamma else ewl.MAX_GAMMA
        cfg = ewl.EwlConfig(game, gamma)
        report = equilibria.verify_quantum_eq(
            cfg, ewl.HAAR, ewl.HAAR, samples=args.samples or HAAR_SAMPLES, seed=_seed(args)
        )
    else:
        raise BadRationalError(
            f"--profile must be classical:<p,q> or haar, got {args.profile!r}"
        )
    _emit_json(report)
    return 0 if report.certified else 2


# paper-check -----------------------------------------------------------

def cmd_paper_check(args) -> int:
    seed = _seed(args)
    results = checks.run_paper_check(samples=args.samples, seed=seed)
    all_passed = all(r.passed for r in results)
    if args.json:
        _emit_json(
            {
                "samples": args.samples,
                "seed": seed,
                "all_passed": all_passed,
                "checks": results,
            }
        )
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.number:>2} {r.name:<24} {r.detail}")
        print(f"{'all checks passed' if all_passed else 'SOME CHECKS FAILED'}")
    return 0 if all_passed else 2


# parser ----------------------------------------------------------------

_SAMPLES_HELP = f"Monte-Carlo draws per Haar slot (2 to {MAX_SAMPLES}; at most about 34.5 MB and 0.9 s at the cap)"


def build_parser() -> _Parser:
    parser = _Parser(prog="qgames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="classical analysis of a game")
    p.add_argument("--game", required=True, help="builtin name (pd|poker|chicken) or JSON file")
    p.add_argument("--mixed", help="evaluate the mixed profile p,q (first-strategy weights)")
    p.add_argument("--gamma", action="append", help="also run quantization checks at gamma")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("correlated", help="check or optimize referee distributions")
    p.add_argument("--game", required=True)
    p.add_argument("--rho", help="cell weights, row-major, e.g. 1/3,1/3,1/3,0")
    p.add_argument("--objective", default="welfare")
    p.set_defaults(func=cmd_correlated)

    p = sub.add_parser("ewl", help="entangled-referee quantization")
    p.add_argument("--game", required=True)
    p.add_argument("--gamma", required=True, help="entanglement in [0, pi/2], or 'max'")
    p.add_argument("--uA", help="player 1 unitary as theta,alpha,beta")
    p.add_argument("--uB", help="player 2 unitary as theta,alpha,beta")
    p.add_argument("--mixture", choices=["haar"], help="use Haar-mixed strategies")
    p.add_argument("--samples", type=_count(2, MAX_SAMPLES), help=_SAMPLES_HELP)
    p.add_argument("--seed", type=int)
    p.add_argument("--check", choices=["proper", "complete"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ewl)

    p = sub.add_parser("verify", help="certify an equilibrium claim")
    p.add_argument("--game", required=True)
    p.add_argument("--gamma", help="entanglement for quantum profiles (default max)")
    p.add_argument("--profile", required=True, help="classical:<p,q> or haar")
    p.add_argument("--samples", type=_count(2, MAX_SAMPLES), help=_SAMPLES_HELP)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("paper-check", help="re-run the full verification suite")
    p.add_argument("--samples", type=_count(2, MAX_SAMPLES), default=200000, help=_SAMPLES_HELP)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_paper_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # QuantumError, DistError and BadRationalError are ValueErrors.  lp loads
    # here only when an error reaches this clause.
    except (GameError, ValueError, lp.LpError) as exc:
        code = getattr(exc, "code", None)
        prefix = f"error[{code}]" if isinstance(code, str) else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  Point stdout at
        # the null device so that the interpreter's final flush stays quiet.
        sys.stdout = open(os.devnull, "w")
        return 1


if __name__ == "__main__":
    sys.exit(main())
