"""Sweep runner: determinism, aggregation, report files."""

import json
import re
from dataclasses import replace

import pytest

from qbcsim import rng as streams
from qbcsim.adversary import RebindStrategy
from qbcsim.harness import (
    CSV_COLUMNS,
    SweepMode,
    SweepReport,
    SweepRow,
    SweepSpec,
    read_report,
    run_sweep,
    write_report,
)
from qbcsim.protocol import SessionConfig, run_honest_session


def _honest_spec(**overrides):
    base = dict(
        n_values=(100000,),
        error_fractions=(0.0, 0.5),
        noise_rates=(0.0,),
        trials_per_cell=1,
        master_seed=42,
        mode=SweepMode.HONEST,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_a_sweep_trial_replays_as_a_session_from_its_derived_seed():
    # Trial t of cell c runs as ``simulate --seed derive_seed(m, c, t)`` with
    # the bit its COMMITTED_BIT substream drew: the cell's pooled raw matches
    # are the sessions' correct-pairing raw matches.
    spec = _honest_spec(n_values=(16, 64), error_fractions=(0.5,), noise_rates=(0.1,),
                        trials_per_cell=6, master_seed=2**64 - 1)
    for cell, row in enumerate(run_sweep(spec).rows):
        matches = 0
        for t in range(spec.trials_per_cell):
            seed = streams.derive_seed(spec.master_seed, cell, t)
            bit = int(streams.substream(seed, streams.COMMITTED_BIT).integers(0, 2))
            report = run_honest_session(SessionConfig(
                n=row.n, committed_bit=bit, error_fraction=0.5, noise_rate=0.1, seed=seed))
            correct = report.raw_reverse_correlation if bit else report.raw_direct_correlation
            matches += round(correct * row.n)
        assert row.statistic_mean == round(matches / (6 * row.n), 6), cell


def test_honest_sweep_reproduces_the_two_headline_numbers():
    report = run_sweep(_honest_spec())
    assert len(report.rows) == 2
    by_e = {row.error_fraction: row for row in report.rows}
    assert abs(by_e[0.0].statistic_mean - 0.75) < 0.005
    assert abs(by_e[0.5].statistic_mean - 0.625) < 0.005


def test_sweep_rows_identical_across_runs():
    a = run_sweep(_honest_spec())
    b = run_sweep(_honest_spec())
    assert a.rows == b.rows
    assert a.master_seed == b.master_seed


def test_sweep_csv_bytes_identical_across_runs(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(run_sweep(_honest_spec()), "csv", p1)
    write_report(run_sweep(_honest_spec()), "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_preunveil_sweep_success_nondecreasing_in_n():
    spec = SweepSpec(
        n_values=(16, 64, 256),
        error_fractions=(0.5,),
        trials_per_cell=2000,
        master_seed=7,
        mode=SweepMode.PREUNVEIL,
    )
    report = run_sweep(spec)
    values = [row.statistic_mean for row in report.rows]
    slack = 2 * (0.25 / 2000) ** 0.5
    assert values[0] <= values[1] + slack <= values[2] + 2 * slack
    for row in report.rows:
        assert row.decide_bit0 + row.decide_bit1 == row.trials


def test_binding_sweep_mode_label_and_tallies():
    spec = SweepSpec(
        n_values=(64,),
        error_fractions=(0.0,),
        trials_per_cell=300,
        master_seed=11,
        mode=SweepMode.BINDING,
        strategy=RebindStrategy.flip_all_bases(),
    )
    report = run_sweep(spec)
    row = report.rows[0]
    assert row.mode == "binding:flip-all-bases"
    total = row.decide_bit0 + row.decide_bit1 + row.ambiguous + row.cheat_suspected
    assert total == row.trials
    assert row.cheat_suspected > row.trials / 2


def test_every_ci_brackets_its_mean_and_tallies_partition_trials():
    honest = SweepSpec(
        n_values=(32, 64),
        error_fractions=(0.0, 0.5),
        noise_rates=(0.0, 0.1),
        trials_per_cell=50,
        master_seed=3,
        mode=SweepMode.HONEST,
    )
    binding = replace(honest, mode=SweepMode.BINDING,
                      strategy=RebindStrategy.random_lies(0.5))
    for spec in (honest, binding):
        rows = run_sweep(spec).rows
        assert len(rows) == 8  # one per grid cell
        for row in rows:
            assert row.ci_low <= row.statistic_mean <= row.ci_high
            total = row.decide_bit0 + row.decide_bit1 + row.ambiguous + row.cheat_suspected
            assert total == row.trials


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(n_values=(), error_fractions=(0.0,))
    with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
        SweepSpec(n_values=(4,), error_fractions=(0.0,), trials_per_cell=0)
    # Each trial index must be one uint32 spawn-key word; every seed a uint64.
    SweepSpec(n_values=(4,), error_fractions=(0.0,), trials_per_cell=2**32,
              master_seed=2**64 - 1)
    with pytest.raises(ValueError, match=re.escape("trials must be <= 2**32, got 4294967297")):
        SweepSpec(n_values=(4,), error_fractions=(0.0,), trials_per_cell=2**32 + 1)
    for seed in (-1, 2**64, 1.5):
        with pytest.raises(ValueError, match=re.escape(
                f"master_seed must be an integer in [0, 2**64), got {seed!r}")):
            SweepSpec(n_values=(4,), error_fractions=(0.0,), master_seed=seed)
    # A bad axis value fails when the spec is built, before any cell runs,
    # and the message names the value.
    for axes, message in (
        (dict(n_values=(4, -1), error_fractions=(0.0,)), "n must be >= 0, got -1"),
        (dict(n_values=(4,), error_fractions=(0.0, 1.5)),
         "error_fraction must be in [0, 1], got 1.5"),
        (dict(n_values=(4,), error_fractions=(0.0,), noise_rates=(-0.1,)),
         "noise_rate must be in [0, 1], got -0.1"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepSpec(**axes)


def test_csv_header_and_fixed_column_order(tmp_path):
    path = tmp_path / "r.csv"
    write_report(run_sweep(_honest_spec(n_values=(64,), error_fractions=(0.0,))), "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    # fractions rendered to six decimals
    fields = lines[1].split(",")
    assert fields[1] == "0.000000"
    assert "." in fields[5] and len(fields[5].split(".")[1]) == 6


def test_empty_report_writes_header_only(tmp_path):
    empty = SweepReport(rows=(), master_seed=0, tool_version="x", timestamp="t")
    path = tmp_path / "empty.csv"
    write_report(empty, "csv", path)
    assert path.read_text().splitlines() == [",".join(CSV_COLUMNS)]


def test_json_round_trip_is_structurally_equal(tmp_path):
    report = run_sweep(_honest_spec(n_values=(64,), trials_per_cell=5))
    path = tmp_path / "r.json"
    write_report(report, "json", path)
    again = read_report(path)
    assert again.rows == report.rows
    assert again.master_seed == report.master_seed
    assert again.tool_version == report.tool_version
    assert again.timestamp == report.timestamp
    assert again.stream_contract == report.stream_contract == streams.STREAM_CONTRACT == 3
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 2 and doc["stream_contract"] == 3


def test_read_report_reads_schema_1_as_stream_contract_1(tmp_path):
    path = tmp_path / "r.json"
    report = run_sweep(_honest_spec(n_values=(4,), trials_per_cell=1))
    write_report(report, "json", path)
    doc = json.loads(path.read_text())
    del doc["stream_contract"]
    path.write_text(json.dumps({**doc, "schema_version": 1}))
    again = read_report(path)
    assert again.stream_contract == 1 and again.rows == report.rows


def test_read_report_reads_a_schema_2_file_as_its_recorded_contract(tmp_path):
    path = tmp_path / "r.json"
    report = run_sweep(_honest_spec(n_values=(4,), trials_per_cell=1))
    write_report(report, "json", path)
    doc = json.loads(path.read_text())
    for contract in (2, 3):
        path.write_text(json.dumps({**doc, "stream_contract": contract}))
        assert read_report(path).stream_contract == contract


def test_read_report_refuses_another_schema_version(tmp_path):
    path = tmp_path / "r.json"
    write_report(run_sweep(_honest_spec(n_values=(4,), trials_per_cell=1)), "json", path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "schema_version": 3}))
    with pytest.raises(ValueError, match="^unsupported schema_version 3$"):
        read_report(path)


def test_unwritable_path_error_names_the_path(tmp_path):
    report = run_sweep(_honest_spec(n_values=(16,)))
    bogus = tmp_path / "no-such-dir" / "r.csv"
    for format in ("csv", "json"):
        with pytest.raises(OSError, match="no-such-dir"):
            write_report(report, format, bogus)
    with pytest.raises(ValueError, match="format"):
        write_report(report, "xml", tmp_path / "r.xml")


def test_row_is_plain_data():
    row = SweepRow(
        n=1, error_fraction=0.0, noise_rate=0.0, mode="honest", trials=1,
        statistic_mean=0.5, ci_low=0.4, ci_high=0.6,
        decide_bit0=1, decide_bit1=0, ambiguous=0, cheat_suspected=0,
    )
    assert row == SweepRow(**row.__dict__)
