"""Monte Carlo experiment runner: cells, sweeps, aggregation, report files.

``run_cell`` runs the trials of one (n, error_fraction, noise_rate) cell
and is the one evaluator of every mode: ``qbcsim sweep`` runs it on each
cell of a grid, ``qbcsim attack`` on a grid of one cell.  Trial t of a cell
is seeded by ``rng.derive_seed(*path, t)``, numpy's ``SeedSequence`` with
the spawn key (*path[1:], t); a sweep's path is (master_seed, cell_index),
an attack's is (seed,).  So ``qbcsim simulate --seed`` with that seed
replays one trial on its own (a sweep's honest trial draws its bit from its
COMMITTED_BIT substream, where ``simulate`` takes ``--bit``).

A sweep enumerates the grid in row-major order (n outermost) and runs
trials_per_cell independent trials per cell, so results do not depend on
scheduling and a sweep rerun with the same master seed reproduces its
report byte for byte (timestamps excluded: the CSV carries none, the JSON
carries one provenance field).

Per-cell statistic by mode:

* honest   - mean correct-pairing raw correlation, pooled over all
             trials * n positions (the committed bit is drawn uniformly
             per trial; "correct pairing" is direct for 0, reverse for 1).
* preunveil - fraction of trials where the early guess hits the bit.
* binding  - fraction of trials where the rebind cleanly flips the bit.

Confidence intervals are Wilson at 95% on the underlying proportion.
Decision tallies count the receiver's verdicts (for preunveil, the guess
fills the bit0/bit1 columns).
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from enum import Enum
from itertools import product
from pathlib import Path
from typing import get_type_hints

from . import __version__
from . import rng as streams
from .adversary import RebindStrategy
from .kernel import run_trials
from .protocol import Decision, DecisionPolicy
from .stats import binomial_ci

#: Schema 2 records the stream contract (``rng.STREAM_CONTRACT``); a schema 1
#: report was drawn under contract 1.
JSON_SCHEMA_VERSION = 2


class SweepMode(Enum):
    HONEST = "honest"
    PREUNVEIL = "preunveil"
    BINDING = "binding"


@dataclass(frozen=True)
class SweepSpec:
    n_values: tuple[int, ...]
    error_fractions: tuple[float, ...]
    noise_rates: tuple[float, ...] = (0.0,)
    trials_per_cell: int = 1
    master_seed: int = 0
    mode: SweepMode = SweepMode.HONEST
    strategy: RebindStrategy = RebindStrategy.honest_bases()
    policy: DecisionPolicy = DecisionPolicy()

    def __post_init__(self) -> None:
        for axis, name, check, kind in (
                ("n_values", "n", streams.check_count, int),
                ("error_fractions", "error_fraction", streams.check_fraction, float),
                ("noise_rates", "noise_rate", streams.check_fraction, float)):
            values = tuple(getattr(self, axis))
            for v in values:
                check(name, v)
            object.__setattr__(self, axis, tuple(map(kind, values)))
        if not self.n_values or not self.error_fractions or not self.noise_rates:
            raise ValueError("sweep axes must be nonempty")
        streams.check_count("trials", self.trials_per_cell, 1)
        if self.trials_per_cell > 2**32:  # each trial index is one spawn-key word
            raise ValueError(f"trials must be <= 2**32, got {self.trials_per_cell}")
        streams.check_seed("master_seed", self.master_seed)

    @property
    def mode_label(self) -> str:
        if self.mode is SweepMode.BINDING:
            return f"binding:{self.strategy.label}"
        return self.mode.value


@dataclass(frozen=True)
class SweepRow:
    n: int
    error_fraction: float
    noise_rate: float
    mode: str
    trials: int
    statistic_mean: float
    ci_low: float
    ci_high: float
    decide_bit0: int
    decide_bit1: int
    ambiguous: int
    cheat_suspected: int


#: Report columns, in ``SweepRow`` field order, and the type of each.
CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))
_COLUMN_TYPES = get_type_hints(SweepRow)


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    master_seed: int
    tool_version: str
    timestamp: str
    stream_contract: int = streams.STREAM_CONTRACT


def run_cell(
    spec: SweepSpec, path: tuple[int, ...], n: int, e: float, noise: float
) -> tuple[int, Counter[Decision]]:
    """Run ``spec.trials_per_cell`` trials of one cell in ``spec``'s mode.

    Trial t is seeded by ``derive_seed(*path, t)``, all of them derived in
    one pass (``rng.trial_seeds``).  Returns the successes and the decision
    tallies of ``kernel.run_trials``.
    """
    seeds = streams.trial_seeds(path, spec.trials_per_cell)
    return run_trials(seeds, n, e, noise, spec.mode.value, spec.strategy, spec.policy)


def _run_cell(
    spec: SweepSpec, cell_index: int, n: int, e: float, noise: float
) -> SweepRow:
    trials = spec.trials_per_cell
    successes, counts = run_cell(spec, (spec.master_seed, cell_index), n, e, noise)
    # Honest pools match counts over every revealed position of every trial.
    denominator = trials * n if spec.mode is SweepMode.HONEST else trials
    if denominator > 0:
        ci = binomial_ci(successes, denominator, 0.95)
        mean, low, high = successes / denominator, ci.low, ci.high
    else:
        mean, low, high = 0.0, 0.0, 1.0
    return SweepRow(
        n=n,
        error_fraction=e,
        noise_rate=noise,
        mode=spec.mode_label,
        trials=trials,
        statistic_mean=round(mean, 6),
        ci_low=round(low, 6),
        ci_high=round(high, 6),
        decide_bit0=counts[Decision.BIT0],
        decide_bit1=counts[Decision.BIT1],
        ambiguous=counts[Decision.AMBIGUOUS],
        cheat_suspected=counts[Decision.CHEAT_SUSPECTED],
    )


def run_sweep(spec: SweepSpec) -> SweepReport:
    """Run every cell of the grid; one report row per cell."""
    rows = []
    cells = product(spec.n_values, spec.error_fractions, spec.noise_rates)
    for cell_index, (n, e, noise) in enumerate(cells):
        rows.append(_run_cell(spec, cell_index, n, e, noise))
    return SweepReport(
        rows=tuple(rows),
        master_seed=spec.master_seed,
        tool_version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def _row_record(row: SweepRow) -> dict:
    return {
        name: f"{getattr(row, name):.6f}" if kind is float else getattr(row, name)
        for name, kind in _COLUMN_TYPES.items()
    }


def write_report(report: SweepReport, format: str, path) -> None:
    """Write a sweep report as CSV (fixed column order) or JSON (versioned).

    Fractions are rendered with six decimal places so report files are
    byte-stable across platforms and reruns.
    """
    path = Path(path)
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format {format!r}; expected csv or json")
    records = [_row_record(row) for row in report.rows]
    try:
        if format == "csv":
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
                writer.writeheader()
                writer.writerows(records)
        else:
            doc = {
                "schema_version": JSON_SCHEMA_VERSION,
                "stream_contract": report.stream_contract,
                "tool_version": report.tool_version,
                "master_seed": report.master_seed,
                "timestamp": report.timestamp,
                "rows": records,
            }
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def read_report(path) -> SweepReport:
    """Re-read a JSON report written by write_report, of schema 1 or 2."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("schema_version") not in (1, JSON_SCHEMA_VERSION):
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    rows = tuple(
        SweepRow(**{name: kind(r[name]) for name, kind in _COLUMN_TYPES.items()})
        for r in doc["rows"]
    )
    return SweepReport(
        rows=rows,
        master_seed=int(doc["master_seed"]),
        tool_version=doc["tool_version"],
        timestamp=doc["timestamp"],
        stream_contract=1 if doc["schema_version"] == 1 else int(doc["stream_contract"]),
    )
