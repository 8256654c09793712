"""Command-line interface.

Subcommands:

    simulate   one honest session, JSON or text report
    sweep      Monte Carlo grid over n / error fraction / noise, CSV or JSON
    attack     adversary evaluation (preunveil | rebind)
    referee    serve one networked session as the trusted channel
    party      join a networked session as alice or bob

Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .adversary import RebindStrategy
from .harness import SweepMode, SweepSpec, run_cell, run_sweep, write_report
from .protocol import ERROR_MODES, Decision, DecisionPolicy, SessionConfig, run_honest_session
from .referee import DEFAULT_TRANSCRIPT, party_run, referee_serve
from .stats import binomial_ci


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    defaults = DecisionPolicy()
    parser.add_argument("--delta", type=float, default=defaults.separation_delta,
                        help="minimum rate separation for a clean read")
    parser.add_argument("--floor", type=float, default=defaults.plausibility_floor,
                        help="minimum best rate before suspecting a cheat")
    parser.add_argument("--min-sift", type=int, default=defaults.min_sift,
                        help="minimum sifted positions for any verdict")


def _policy(args: argparse.Namespace) -> DecisionPolicy:
    return DecisionPolicy(
        separation_delta=args.delta,
        plausibility_floor=args.floor,
        min_sift=args.min_sift,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbcsim",
        description="Order-encoded polarization bit-commitment simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one honest session")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--bit", type=int, choices=(0, 1), required=True)
    sim.add_argument("--error-fraction", type=float, default=0.0)
    sim.add_argument("--noise-rate", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--error-mode", choices=ERROR_MODES,
                     default=SessionConfig.error_mode)
    _add_policy_flags(sim)
    sim.add_argument("--output", choices=("json", "text"), default="text")

    sweep = sub.add_parser("sweep", help="run a Monte Carlo parameter sweep")
    sweep.add_argument("--n-list", type=_int_list, required=True,
                       help="comma-separated sequence lengths")
    sweep.add_argument("--error-list", type=_float_list, required=True,
                       help="comma-separated error fractions")
    sweep.add_argument("--noise-list", type=_float_list, default=[0.0],
                       help="comma-separated noise rates")
    sweep.add_argument("--trials", type=int, default=1)
    sweep.add_argument("--mode", choices=("honest", "preunveil", "binding"),
                       default="honest")
    sweep.add_argument("--strategy", type=RebindStrategy.parse,
                       default=RebindStrategy.honest_bases(),
                       help="binding mode: honest-bases | flip-all-bases | random-lies:P")
    sweep.add_argument("--seed", type=int, default=0)
    _add_policy_flags(sweep)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", required=True, help="report file path")

    attack = sub.add_parser("attack", help="evaluate an adversary")
    attack_sub = attack.add_subparsers(dest="attack_kind", required=True)

    pre = attack_sub.add_parser("preunveil",
                                help="receiver reads the bit before unveiling")
    pre.add_argument("--n", type=int, required=True)
    pre.add_argument("--error-fraction", type=float, default=0.0)
    pre.add_argument("--noise-rate", type=float, default=0.0)
    pre.add_argument("--trials", type=int, default=1000)
    pre.add_argument("--seed", type=int, default=0)
    pre.add_argument("--output", choices=("json", "text"), default="text")

    rebind = attack_sub.add_parser("rebind",
                                   help="committer lies about bases at unveil")
    rebind.add_argument("--n", type=int, required=True)
    rebind.add_argument("--error-fraction", type=float, default=0.0)
    rebind.add_argument("--noise-rate", type=float, default=0.0)
    rebind.add_argument("--strategy", type=RebindStrategy.parse,
                        default=RebindStrategy.honest_bases())
    rebind.add_argument("--trials", type=int, default=1000)
    rebind.add_argument("--seed", type=int, default=0)
    _add_policy_flags(rebind)
    rebind.add_argument("--output", choices=("json", "text"), default="text")

    ref = sub.add_parser("referee", help="serve one wire session")
    ref.add_argument("--listen", required=True, help="HOST:PORT to bind")
    ref.add_argument("--seed", type=int, default=0)
    ref.add_argument("--noise-rate", type=float, default=0.0)
    ref.add_argument("--transcript", default=DEFAULT_TRANSCRIPT,
                     help="transcript log path")
    ref.add_argument("--timeout", type=float, default=30.0)

    party = sub.add_parser("party", help="join a wire session")
    party.add_argument("--role", choices=("alice", "bob"), required=True)
    party.add_argument("--connect", required=True, help="referee HOST:PORT")
    party.add_argument("--n", type=int, required=True)
    party.add_argument("--bit", type=int, choices=(0, 1), default=0)
    party.add_argument("--error-fraction", type=float, default=0.0)
    party.add_argument("--seed", type=int, default=0)
    party.add_argument("--error-mode", choices=ERROR_MODES,
                       default=SessionConfig.error_mode, help="alice's result masking")
    _add_policy_flags(party)
    party.add_argument("--timeout", type=float, default=30.0)

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SessionConfig(
        n=args.n,
        committed_bit=args.bit,
        error_fraction=args.error_fraction,
        noise_rate=args.noise_rate,
        seed=args.seed,
        policy=_policy(args),
        error_mode=args.error_mode,
    )
    report = run_honest_session(config)
    if args.output == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        d = report.to_dict()
        print(f"n={d['n']} bit={d['committed_bit']} "
              f"error_fraction={d['error_fraction']} noise={d['noise_rate']} "
              f"seed={d['seed']}")
        print(f"raw direct correlation:  {d['raw_direct_correlation']:.6f}")
        print(f"raw reverse correlation: {d['raw_reverse_correlation']:.6f}")
        print(f"sifted: {d['direct_matches']}/{d['sift_size']} direct, "
              f"{d['reverse_matches']}/{d['sift_size']} reverse")
        print(f"decision: {d['decision']}"
              + ("" if d["decoded_correctly"] is None
                 else f" (correct: {d['decoded_correctly']})"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        n_values=tuple(args.n_list),
        error_fractions=tuple(args.error_list),
        noise_rates=tuple(args.noise_list),
        trials_per_cell=args.trials,
        master_seed=args.seed,
        mode=SweepMode(args.mode),
        strategy=args.strategy,
        policy=_policy(args),
    )
    report = run_sweep(spec)
    write_report(report, args.format, args.out)
    print(f"wrote {len(report.rows)} rows to {args.out}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    """Evaluate one attack as a sweep of one cell."""
    if args.attack_kind == "preunveil":
        mode = dict(mode=SweepMode.PREUNVEIL)
    else:
        mode = dict(mode=SweepMode.BINDING, strategy=args.strategy, policy=_policy(args))
    spec = SweepSpec(n_values=(args.n,), error_fractions=(args.error_fraction,),
                     noise_rates=(args.noise_rate,), trials_per_cell=args.trials,
                     master_seed=args.seed, **mode)
    successes, tallies = run_cell(spec, (args.seed,), args.n, args.error_fraction,
                                  args.noise_rate)
    trials = args.trials
    result = {"n": args.n, "error_fraction": args.error_fraction,
              "noise_rate": args.noise_rate}
    if args.attack_kind == "preunveil":
        ci = binomial_ci(successes, trials, 0.95)
        result.update(trials=trials, seed=args.seed, success_rate=successes / trials,
                      ci_low=ci.low, ci_high=ci.high)
        text = (f"pre-unveil guess success: {successes / trials:.4f} "
                f"(95% CI [{ci.low:.4f}, {ci.high:.4f}]) over {trials} trials")
    else:
        detected, ambiguous = tallies[Decision.CHEAT_SUSPECTED], tallies[Decision.AMBIGUOUS]
        original = tallies[Decision.BIT0] + tallies[Decision.BIT1] - successes
        result.update(
            strategy=args.strategy.label, trials=trials, seed=args.seed,
            success_count=successes, detection_count=detected, ambiguous_count=ambiguous,
            decoded_original_count=original,
            success_rate=successes / trials, detection_rate=detected / trials,
        )
        text = (f"rebind strategy {args.strategy.label} over {trials} trials:\n"
                f"  flip succeeded:   {successes} ({successes / trials:.4f})\n"
                f"  cheat suspected:  {detected} ({detected / trials:.4f})\n"
                f"  ambiguous:        {ambiguous}\n"
                f"  original decoded: {original}")
    print(json.dumps(result, indent=2) if args.output == "json" else text)
    return 0


def _cmd_referee(args: argparse.Namespace) -> int:
    transcript = referee_serve(
        args.listen,
        seed=args.seed,
        noise_rate=args.noise_rate,
        transcript_path=args.transcript,
        timeout=args.timeout,
    )
    if transcript.violated:
        print(f"session aborted: {transcript.entries[-1].message['message']}", file=sys.stderr)
        return 1
    print(f"session complete: decision={transcript.outcome} "
          f"({len(transcript.entries)} messages logged to {args.transcript})")
    return 0


def _cmd_party(args: argparse.Namespace) -> int:
    result = party_run(
        args.role,
        args.connect,
        n=args.n,
        bit=args.bit,
        error_fraction=args.error_fraction,
        seed=args.seed,
        policy=_policy(args),
        error_mode=args.error_mode,
        timeout=args.timeout,
    )
    if result.exit_code != 0:
        print(f"{args.role} failed: {result.diagnostic}", file=sys.stderr)
        return result.exit_code
    out = {"role": args.role, "decision": result.decision.value}
    if result.alignment is not None:
        out.update(
            sift_size=result.alignment.sift_size,
            direct_matches=result.alignment.direct_matches,
            reverse_matches=result.alignment.reverse_matches,
            raw_direct_correlation=result.raw_direct,
            raw_reverse_correlation=result.raw_reverse,
        )
    print(json.dumps(out, indent=2))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "attack": _cmd_attack,
    "referee": _cmd_referee,
    "party": _cmd_party,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
