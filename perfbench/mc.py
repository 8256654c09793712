"""The ``mc-short`` and ``mc-long`` workloads: seeded Monte Carlo sweeps.

One round runs the four sweeps of ``SWEEPS`` on the workload's grid with
one master seed, each as ``run_sweep`` followed by ``write_report`` (CSV),
the way ``qbcsim sweep`` does.  Rounds repeat with fresh master seeds,
drawn from the benchmark seed, until the run's time is up.

The traced run replays the first rounds trial by trial through the same
public functions, in the same order and on the same substreams as
``harness._run_cell``, ``run_commit_phase``, ``run_honest_session``,
``run_preunveil_trial`` and ``run_rebind_trial``, with a span around every
call.  A replay that does not give the untraced run's ``SweepRow`` for
every cell, and its report byte for byte, counts as a failure: it would be
measuring a different program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from statistics import NormalDist, median
from time import perf_counter, perf_counter_ns

import numpy as np

from qbcsim import __version__
from qbcsim import rng as streams
from qbcsim.adversary import (
    RebindStrategy,
    alice_rebind_attack,
    bob_preunveil_guess,
)
from qbcsim.channel import prepare_random_sequence, transmit_and_measure
from qbcsim.harness import (
    SweepMode,
    SweepReport,
    SweepRow,
    SweepSpec,
    run_sweep,
    write_report,
)
from qbcsim.protocol import (
    Decision,
    MeasurementRecord,
    SessionConfig,
    TrialReport,
    choose_random_bases,
    commit,
    inject_errors,
    raw_correlations,
    score_and_decide,
    unveil,
)
from qbcsim.stats import binomial_ci

from tracing import Tracer

#: (label, mode, rebind strategy) of the sweeps in one round.
SWEEPS = (
    ("honest", "honest", None),
    ("preunveil", "preunveil", None),
    ("binding:flip-all-bases", "binding", "flip-all-bases"),
    ("binding:random-lies:0.5", "binding", "random-lies:0.5"),
)
MODES = ("honest", "preunveil", "binding")

#: Grid, trials per cell and traced rounds per workload and scale.  The
#: trial counts keep the preunveil check (success above 0.5 + 4 sigma) far
#: from its threshold at the grid's smallest n: at n = 16, e = 0.5 the early
#: guess succeeds about 72.5% of the time, against 60% at 400 trials.
GRIDS = {
    ("mc-short", "full"): dict(n_values=(16, 64, 256), error_fractions=(0.0, 0.5),
                               trials_per_cell=400, trace_rounds=1),
    ("mc-long", "full"): dict(n_values=(4096,), error_fractions=(0.0, 0.5),
                              trials_per_cell=50, trace_rounds=4),
    ("mc-short", "tiny"): dict(n_values=(256,), error_fractions=(0.0, 0.5),
                               trials_per_cell=40, trace_rounds=1),
    ("mc-long", "tiny"): dict(n_values=(1024,), error_fractions=(0.0, 0.5),
                              trials_per_cell=30, trace_rounds=1),
}

#: Two-sided z for the statistical output checks: a correct program fails
#: one about once in a million cells.
Z_CHECK = NormalDist().inv_cdf(1.0 - 0.5e-6)
#: Binding checks apply from this n; below it, blind rebinding and the
#: min_sift guard leave too few sifted positions for the claims to hold.
BINDING_CHECK_MIN_N = 256


def workload_spec(workload: str, scale: str) -> dict:
    grid = GRIDS[(workload, scale)]
    return {
        "workload": workload,
        "scale": scale,
        "sweeps": [label for label, _m, _s in SWEEPS],
        "report_format": "csv",
        "noise_rates": [0.0],
        "policy": "DecisionPolicy() defaults",
        **{k: list(v) if isinstance(v, tuple) else v for k, v in grid.items()},
    }


def sweep_specs(grid: dict, master_seed: int) -> list[tuple[str, str, SweepSpec]]:
    specs = []
    for label, mode, strategy in SWEEPS:
        spec = SweepSpec(
            n_values=grid["n_values"],
            error_fractions=grid["error_fractions"],
            trials_per_cell=grid["trials_per_cell"],
            master_seed=master_seed,
            mode=SweepMode(mode),
        )
        if strategy is not None:
            spec = replace(spec, strategy=RebindStrategy.parse(strategy))
        specs.append((label, mode, spec))
    return specs


def warm_up(workload: str, scale: str, out_dir=None) -> None:
    """One trial of every sweep on the first cell of the grid."""
    grid = GRIDS[(workload, scale)]
    for _label, _mode, spec in sweep_specs(grid, master_seed=0):
        run_sweep(replace(spec, n_values=spec.n_values[:1],
                          error_fractions=spec.error_fractions[:1],
                          trials_per_cell=1))


@dataclass
class SweepRun:
    label: str
    mode: str
    spec: SweepSpec
    report: SweepReport
    seconds: float
    csv: bytes


def run_round(grid: dict, master_seed: int, report_path) -> list[SweepRun]:
    runs = []
    for label, mode, spec in sweep_specs(grid, master_seed):
        start = perf_counter()
        report = run_sweep(spec)
        write_report(report, "csv", report_path)
        seconds = perf_counter() - start
        runs.append(SweepRun(label, mode, spec, report, seconds, report_path.read_bytes()))
    return runs


# -- output checks ------------------------------------------------------------


def _wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    # Not stats.binomial_ci: the checks must not rest on the code under test.
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4.0 * trials * trials))
    return center - margin, center + margin


def check_row(run: SweepRun, row: SweepRow) -> list[str]:
    """Every reason this cell's output is wrong; empty when it is right."""
    spec = run.spec
    trials = spec.trials_per_cell
    where = f"{run.label} n={row.n} e={row.error_fraction}"
    problems = []
    if row.trials != trials or row.mode != spec.mode_label:
        problems.append(f"{where}: row describes another cell")
    tallies = row.decide_bit0 + row.decide_bit1 + row.ambiguous + row.cheat_suspected
    if tallies != trials:
        problems.append(f"{where}: decision tallies sum to {tallies}, not {trials}")
    if run.mode == "honest":
        positions = trials * row.n
        matches = round(row.statistic_mean * positions)
        low, high = _wilson(matches, positions, Z_CHECK)
        expected = 0.75 - 0.25 * row.error_fraction
        if not low <= expected <= high:
            problems.append(
                f"{where}: raw agreement {row.statistic_mean} excludes {expected} "
                f"(Wilson [{low:.6f}, {high:.6f}])"
            )
    elif run.mode == "preunveil":
        threshold = 0.5 + 4.0 * math.sqrt(0.25 / trials)
        if not row.statistic_mean > threshold:
            problems.append(
                f"{where}: guess success {row.statistic_mean} not above {threshold:.4f}"
            )
    elif row.n >= BINDING_CHECK_MIN_N:
        # flip-all-bases succeeds in about 0.85% of trials at n = 256, so a
        # point estimate over a few hundred trials would often read above
        # 1%; the check fails only when the data rule out a rate below 1%.
        low, _high = _wilson(round(row.statistic_mean * trials), trials, Z_CHECK)
        if low > 0.01:
            problems.append(f"{where}: rebind success {row.statistic_mean} is above 1%")
        if spec.strategy.label == "flip-all-bases" and not row.cheat_suspected > trials / 2:
            problems.append(
                f"{where}: only {row.cheat_suspected}/{trials} flip-all-bases "
                "rebinds detected"
            )
    return problems


# -- traced replay ------------------------------------------------------------


@dataclass
class ReplayCounts:
    """Counts taken at the span boundaries of a traced replay."""

    trials: int = 0
    cells: int = 0
    channel_bytes: int = 0
    preunveil_trials: int = 0
    tie_breaks: int = 0
    binding_trials: int = 0
    rebind_success: int = 0
    report_bytes: int = 0
    reports: int = 0
    decisions: dict = field(default_factory=lambda: {d: 0 for d in Decision})
    #: error fraction of each traced trial, indexed by trial id
    trial_e: list = field(default_factory=list)


def replay_commit_phase(tr: Tracer, config: SessionConfig, counts: ReplayCounts):
    seq = tr.call("channel.prepare_random_sequence", prepare_random_sequence, config.n,
                  tr.call("rng.substream", streams.substream, config.seed, streams.PREPARE))
    bases = tr.call("protocol.choose_random_bases", choose_random_bases, config.n,
                    tr.call("rng.substream", streams.substream, config.seed, streams.BASES))
    outcomes = tr.call("channel.transmit_and_measure", transmit_and_measure, seq, bases,
                       config.noise_rate,
                       tr.call("rng.substream", streams.substream, config.seed, streams.MEASURE))
    counts.channel_bytes += seq.bases.nbytes + seq.bits.nbytes + outcomes.nbytes
    masked, mask = tr.call("protocol.inject_errors", inject_errors, outcomes,
                           config.error_fraction,
                           tr.call("rng.substream", streams.substream, config.seed, streams.ERROR),
                           mode=config.error_mode)
    record = tr.call("protocol.measurement_record", MeasurementRecord,
                     bases=bases, outcomes=outcomes)
    commitment = tr.call("protocol.commit", commit, masked, config.committed_bit)
    return seq, record, mask, commitment


def replay_honest_session(tr: Tracer, config: SessionConfig, counts: ReplayCounts) -> TrialReport:
    seq, record, _mask, commitment = replay_commit_phase(tr, config, counts)
    unveiled = tr.call("protocol.unveil", unveil, record)
    score, decision = tr.call("protocol.score_and_decide", score_and_decide,
                              seq, commitment, unveiled, config.policy)
    raw_direct, raw_reverse = tr.call("protocol.raw_correlations", raw_correlations,
                                      seq.bits, commitment)
    if decision in (Decision.BIT0, Decision.BIT1):
        decoded_correctly = (0 if decision is Decision.BIT0 else 1) == config.committed_bit
    else:
        decoded_correctly = None
    counts.decisions[decision] += 1
    return tr.call("protocol.trial_report", TrialReport, config=config,
                   raw_direct_correlation=raw_direct, raw_reverse_correlation=raw_reverse,
                   alignment=score, decision=decision, decoded_correctly=decoded_correctly)


def _trial(tr: Tracer, mode: str, spec: SweepSpec, cell: int, n: int, e: float,
           noise: float, t: int, counts: ReplayCounts) -> tuple[int, Decision]:
    """One trial of ``harness._run_cell``; returns (successes, tally)."""
    seed = tr.call("rng.derive_seed", streams.derive_seed, spec.master_seed, cell, t)
    bit = int(tr.call("rng.substream", streams.substream, seed,
                      streams.COMMITTED_BIT).integers(0, 2))
    if mode == "honest":
        config = tr.call("protocol.session_config", SessionConfig, n=n, committed_bit=bit,
                         error_fraction=e, noise_rate=noise, seed=seed, policy=spec.policy)
        report = replay_honest_session(tr, config, counts)
        correct_raw = (report.raw_direct_correlation if bit == 0
                       else report.raw_reverse_correlation)
        return round(correct_raw * n), report.decision
    config = tr.call("protocol.session_config", SessionConfig, n=n, committed_bit=bit,
                     error_fraction=e, noise_rate=noise, seed=seed)
    seq, record, mask, commitment = replay_commit_phase(tr, config, counts)
    if mode == "preunveil":
        guess = tr.call("adversary.bob_preunveil_guess", bob_preunveil_guess, seq.bits,
                        commitment, tr.call("rng.substream", streams.substream, seed,
                                            streams.ADVERSARY))
        counts.preunveil_trials += 1
        counts.tie_breaks += guess.margin == 0
        return int(guess.guessed_bit == bit), (
            Decision.BIT0 if guess.guessed_bit == 0 else Decision.BIT1)
    lying = tr.call("adversary.alice_rebind_attack", alice_rebind_attack, record, mask,
                    commitment, bit, spec.strategy,
                    tr.call("rng.substream", streams.substream, seed, streams.ADVERSARY))
    _score, decision = tr.call("protocol.score_and_decide", score_and_decide, seq,
                               commitment, lying, spec.policy)
    counts.decisions[decision] += 1
    flipped = Decision.BIT1 if bit == 0 else Decision.BIT0
    counts.binding_trials += 1
    counts.rebind_success += decision is flipped
    return int(decision is flipped), decision


def replay_cell(tr: Tracer, mode: str, spec: SweepSpec, cell: int, n: int, e: float,
                noise: float, counts: ReplayCounts) -> SweepRow:
    trials = spec.trials_per_cell
    tallies: dict[Decision, int] = {}
    successes = 0
    for t in range(trials):
        tr.trial_id = counts.trials
        counts.trials += 1
        counts.trial_e.append(e)
        sid = tr.begin("trial")
        hits, decision = _trial(tr, mode, spec, cell, n, e, noise, t, counts)
        successes += hits
        tallies[decision] = tallies.get(decision, 0) + 1
        tr.finish(sid)
    tr.trial_id = -1
    counts.cells += 1
    denominator = trials * n if mode == "honest" else trials
    if denominator > 0:
        ci = tr.call("stats.binomial_ci", binomial_ci, successes, denominator, 0.95)
        mean, low, high = successes / denominator, ci.low, ci.high
    else:
        mean, low, high = 0.0, 0.0, 1.0
    return SweepRow(
        n=n, error_fraction=e, noise_rate=noise, mode=spec.mode_label, trials=trials,
        statistic_mean=round(mean, 6), ci_low=round(low, 6), ci_high=round(high, 6),
        decide_bit0=tallies.get(Decision.BIT0, 0), decide_bit1=tallies.get(Decision.BIT1, 0),
        ambiguous=tallies.get(Decision.AMBIGUOUS, 0),
        cheat_suspected=tallies.get(Decision.CHEAT_SUSPECTED, 0),
    )


def replay_sweep(tr: Tracer, run: SweepRun, counts: ReplayCounts,
                 report_path) -> list[list[str]]:
    """Replay one sweep; returns each cell's mismatches with the untraced run."""
    spec = run.spec
    rows = []
    cells = [(n, e, noise) for n in spec.n_values for e in spec.error_fractions
             for noise in spec.noise_rates]
    for cell, (n, e, noise) in enumerate(cells):
        sid = tr.begin("cell")
        rows.append(replay_cell(tr, run.mode, spec, cell, n, e, noise, counts))
        tr.finish(sid)
    problems = [
        [f"replay of {run.label} n={row.n} e={row.error_fraction}: {row} != {untraced}"]
        if row != untraced else []
        for row, untraced in zip(rows, run.report.rows)
    ]
    report = SweepReport(rows=tuple(rows), master_seed=spec.master_seed,
                         tool_version=__version__, timestamp=run.report.timestamp)
    tr.call("harness.write_report", write_report, report, "csv", report_path)
    data = report_path.read_bytes()
    counts.reports += 1
    counts.report_bytes += len(data)
    if data != run.csv:
        problems[0].append(f"replay of {run.label}: report bytes differ from the untraced run")
    return problems


def trial_layer_metrics(tr: Tracer, counts: ReplayCounts, results) -> None:
    """Per-layer metrics of the traced trials, from their spans and counts.

    Times are self times summed over every traced trial and divided by the
    number of traced trials, so the ``*.us_per_trial`` figures plus
    ``harness.self.us_per_trial`` add up to ``trace.trial_us``.
    """
    spans = tr.table()
    trials = counts.trials
    trial_mask = spans.mask("trial")
    trial_ns = spans.dur[trial_mask].sum()
    # Every span inside a trial is a direct child of the trial span, so the
    # children's self times plus the trial's own self time are its wall time.
    in_trial = np.isin(spans.parent, np.flatnonzero(trial_mask))
    accounted = spans.self_ns[in_trial].sum() + spans.self_ns[trial_mask].sum()
    inside = in_trial | trial_mask
    results.attempt([] if accounted == trial_ns and (spans.self_ns[inside] >= 0).all()
                    else ["span self times do not add up to the traced trial time"])

    def per(total: float, base: int) -> float:
        return total / base if base else 0.0

    for name in ("rng.derive_seed", "rng.substream", "channel.prepare_random_sequence",
                 "channel.transmit_and_measure", "protocol.session_config",
                 "protocol.choose_random_bases", "protocol.inject_errors",
                 "protocol.measurement_record", "protocol.commit", "protocol.unveil",
                 "protocol.score_and_decide", "protocol.raw_correlations",
                 "protocol.trial_report", "adversary.bob_preunveil_guess",
                 "adversary.alice_rebind_attack"):
        results.put(f"{name}.us_per_trial", per(spans.total_self_ns(name) / 1e3, trials),
                    "us", trials)
    trial_e = np.array(counts.trial_e)
    for e in (0.0, 0.5):
        ids = np.flatnonzero(trial_e == e)
        on_e = np.isin(spans.trial, ids)
        results.put(f"protocol.inject_errors.us_per_trial.e{e:g}",
                    per(spans.total_self_ns("protocol.inject_errors", on_e) / 1e3, len(ids)),
                    "us", len(ids))
    results.put("rng.substream.calls_per_trial", per(spans.count("rng.substream"), trials),
                "count", trials)
    results.put("channel.bytes_per_trial", per(counts.channel_bytes, trials), "bytes", trials)
    for decision in Decision:
        results.put(f"protocol.decisions.{decision.value}", counts.decisions[decision],
                    "count", trials)
    results.put("adversary.tie_breaks", counts.tie_breaks, "count", counts.preunveil_trials)
    results.put("adversary.tie_breaks.base", counts.preunveil_trials, "count", 1)
    results.put("adversary.rebind_success", counts.rebind_success, "count",
                counts.binding_trials)
    results.put("adversary.rebind_success.base", counts.binding_trials, "count", 1)
    results.put("stats.binomial_ci.us_per_cell",
                per(spans.total_self_ns("stats.binomial_ci") / 1e3, counts.cells),
                "us", counts.cells)
    results.put("harness.self.us_per_trial", per(spans.self_ns[trial_mask].sum() / 1e3, trials),
                "us", trials)
    writes = spans.durations_ns("harness.write_report")
    results.put("harness.write_report.ms", float(np.median(writes)) / 1e6 if len(writes) else 0.0,
                "ms", len(writes))
    results.put("harness.report_bytes", per(counts.report_bytes, counts.reports), "bytes",
                counts.reports)
    results.put("trace.trial_us", per(trial_ns / 1e3, trials), "us", trials)
    results.details["decisions"] = {d.value: counts.decisions[d] for d in Decision}


# -- the workload -------------------------------------------------------------


def run(workload: str, scale: str, seed: int, seconds: float, trace: bool,
        out_dir, results) -> None:
    grid = GRIDS[(workload, scale)]
    warm_up(workload, scale, out_dir)
    inputs = np.random.Generator(np.random.PCG64(seed))
    report_path = out_dir / "report.csv"
    # A traced run replays a fixed number of rounds, so it runs at least that many.
    least = grid["trace_rounds"] if trace else 1
    rounds: list[list[SweepRun]] = []
    master_seeds = []
    begin = perf_counter()
    while len(rounds) < least or perf_counter() - begin < seconds:
        master = int(inputs.integers(0, 2**63))
        runs = run_round(grid, master, report_path)
        for sweep in runs:
            for row in sweep.report.rows:
                results.attempt(check_row(sweep, row))
        rounds.append(runs)
        master_seeds.append(master)
    results.details["inputs"] = {"master_seeds": master_seeds}
    results.details["first_round_reports_sha256"] = results.digest(
        b"".join(s.csv for s in rounds[0]))

    def rate(runs: list[SweepRun]) -> float:
        return (sum(s.spec.trials_per_cell * len(s.report.rows) for s in runs)
                / sum(s.seconds for s in runs))

    n_rounds = len(rounds)
    mode_rates = {mode: median(rate([s for s in runs if s.mode == mode]) for runs in rounds)
                  for mode in MODES}
    results.put("trials_per_s", median(rate(runs) for runs in rounds), "trials/s", n_rounds)
    results.put("trials_per_s.geomean",
                math.exp(sum(math.log(r) for r in mode_rates.values()) / len(MODES)),
                "trials/s", n_rounds)
    every = [s for runs in rounds for s in runs]
    results.extra("trials_per_s.pooled", rate(every), "trials/s",
                  sum(s.spec.trials_per_cell * len(s.report.rows) for s in every))
    for mode, value in mode_rates.items():
        results.extra(f"trials_per_s.{mode}", value, "trials/s", n_rounds)

    if trace:
        _traced(rounds[: grid["trace_rounds"]], out_dir, results, report_path,
                median(rate(runs) for runs in rounds))


def _traced(rounds, out_dir, results, report_path, untraced_rate: float) -> None:
    tr = Tracer()
    counts = ReplayCounts()
    start = perf_counter_ns()
    for runs in rounds:
        for sweep in runs:
            sid = tr.begin("sweep")
            for problems in replay_sweep(tr, sweep, counts, report_path):
                results.attempt(problems)
            tr.finish(sid)
    traced_seconds = (perf_counter_ns() - start) / 1e9
    tr.dump(out_dir / "spans.npz")
    results.details["spans"] = {"file": str(out_dir / "spans.npz"), "count": len(tr)}
    trial_layer_metrics(tr, counts, results)
    results.put("trace.overhead_ratio", (counts.trials / traced_seconds) / untraced_rate,
                "ratio", len(rounds))
