"""CLI surface: subcommands, flags, exit codes, golden outputs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_kernel import FROZEN_CSV_SHA256
from test_wire import Referee, free_address, run_parties, session_parties

import qbcsim
from qbcsim.cli import _policy, build_parser, cli_main
from qbcsim.harness import SweepMode, SweepSpec, run_sweep, write_report
from qbcsim.protocol import DecisionPolicy, SessionConfig, run_honest_session


def test_simulate_json_output(capsys):
    code = cli_main(
        ["simulate", "--n", "100000", "--bit", "0", "--error-fraction", "0.5",
         "--seed", "7", "--output", "json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.615 <= report["raw_direct_correlation"] <= 0.635
    assert report["decision"] == "bit0"
    assert report["seed"] == 7


def test_simulate_text_output(capsys):
    assert cli_main(["simulate", "--n", "256", "--bit", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "decision: bit1" in out


def test_simulate_empty_session(capsys):
    code = cli_main(["simulate", "--n", "0", "--bit", "0", "--seed", "1",
                     "--output", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["decision"] == "ambiguous"


def test_simulate_flip_error_mode(capsys):
    code = cli_main(
        ["simulate", "--n", "100000", "--bit", "0", "--error-fraction", "0.5",
         "--error-mode", "flip", "--seed", "9", "--output", "json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["raw_direct_correlation"] - 0.5) < 0.005


#: SHA-256 of ``qbcsim simulate ... --output json`` stdout, under stream
#: contract 3, for sessions that cross every path of the kernel: no photons,
#: every result masked, noise, both error modes, mask words computed (n = 16,
#: 17) and read off a generator, and a wire-sized session.  (Under contract 1
#: a Lemire step rejected the long seed's mask.)
SIMULATE_GOLDEN = (
    ("--n 0 --bit 0 --seed 1",
     "11e9c1e04ac70039c0d0542b919901cb99e72c31ce463dcd7b5487edb6ff076a"),
    ("--n 17 --bit 1 --error-fraction 1 --seed 2",
     "9448e6181b0bbe385900e28fd0677462d49d591d28c9c16ac48a4fff7beb1727"),
    ("--n 16 --bit 0 --error-fraction 0.5 --noise-rate 0.1 --seed 6",
     "3da965b8160f2a11bfa1dfec5bd787a3d1148955cf761fad0545144ff5d4b253"),
    ("--n 256 --bit 1 --error-fraction 0.5 --seed 3",
     "9031a111484db2ca59f658229cfde08c8b834bea211973a35bdf134ba610a3c3"),
    ("--n 256 --bit 0 --error-fraction 0.5 --error-mode flip --seed 3",
     "824afc7bbed96e1705cea6ff6ee663e75addddeb79859a621d9fb78ee6370965"),
    ("--n 256 --bit 1 --error-fraction 0.5 --seed 6239659924206660975",
     "fbb7f0535e9b5acf71fef35853820ed4acab1d8c49209ecfab063cec51fe7471"),
    ("--n 1024 --bit 1 --error-fraction 0.75 --noise-rate 0.1 --seed 4",
     "341b5bf0e2f62987cc6cc377f77d51202f51da96d38c189c39c8dc45b2d191c0"),
    ("--n 100000 --bit 0 --error-fraction 0.5 --error-mode flip --seed 9",
     "08cf2571aaa88374514752efb2a33e36c6ca54e199253ce9cc626732d76b8e8e"),
)


@pytest.mark.parametrize("args,expected", SIMULATE_GOLDEN)
def test_simulate_output_golden(args, expected, capsys):
    assert cli_main(["simulate", *args.split(), "--output", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_flag_defaults_are_the_library_defaults():
    parser = build_parser()
    for argv in (["simulate", "--n", "8", "--bit", "0"],
                 ["party", "--role", "bob", "--connect", "127.0.0.1:1", "--n", "8"],
                 ["sweep", "--n-list", "8", "--error-list", "0", "--out", "r.csv"],
                 ["attack", "rebind", "--n", "8"]):
        args = parser.parse_args(argv)
        assert _policy(args) == DecisionPolicy(), argv
        if argv[0] in ("simulate", "party"):
            assert args.error_mode == SessionConfig.error_mode, argv


def _entry_point(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m qbcsim.cli``: the ``qbcsim`` console script's ``main``."""
    paths = [str(Path(qbcsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, "-m", "qbcsim.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def test_entry_point_prints_what_cli_main_prints_and_exits_with_its_code(capsys):
    argv = ["simulate", "--n", "64", "--bit", "1", "--error-fraction", "0.25", "--seed", "5",
            "--output", "json"]
    assert cli_main(argv) == 0
    ran = _entry_point(*argv)
    assert (ran.returncode, ran.stdout, ran.stderr) == (0, capsys.readouterr().out, "")
    usage = _entry_point("simulate", "--bit", "0")  # missing --n
    assert usage.returncode == 2 and usage.stdout == ""
    assert usage.stderr.endswith("error: the following arguments are required: --n\n")


def test_usage_errors_exit_two(capsys):
    assert cli_main(["no-such-command"]) == 2
    assert cli_main([]) == 2
    assert cli_main(["simulate", "--bit", "0"]) == 2  # missing --n
    assert cli_main(["simulate", "--n", "4", "--bit", "2"]) == 2
    capsys.readouterr()


def test_list_flags_name_the_bad_item(capsys, tmp_path):
    sweep = ["sweep", "--out", str(tmp_path / "r.csv")]
    for n_list, error_list, message in (("16,2.5", "0", "--n-list: '2.5' is not an integer"),
                                        ("16", "0, x", "--error-list: 'x' is not a number")):
        assert cli_main([*sweep, "--n-list", n_list, "--error-list", error_list]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {message}\n") and "_list" not in err


def test_runtime_errors_exit_one(capsys, tmp_path):
    code = cli_main(["simulate", "--n", "4", "--bit", "0",
                     "--error-fraction", "1.5"])
    assert code == 1
    assert "error" in capsys.readouterr().err
    code = cli_main(
        ["sweep", "--n-list", "4", "--error-list", "0", "--out",
         str(tmp_path / "missing" / "r.csv")]
    )
    assert code == 1
    assert "cannot write report" in capsys.readouterr().err
    simulate = ["simulate", "--n", "4", "--bit", "0"]
    for argv, message in (
        (["attack", "preunveil", "--n", "-1"], "n must be >= 0, got -1"),
        (["attack", "rebind", "--n", "8", "--error-fraction", "1.5"],
         "error_fraction must be in [0, 1], got 1.5"),
        (["attack", "rebind", "--n", "8", "--noise-rate", "-0.1"],
         "noise_rate must be in [0, 1], got -0.1"),
        (["attack", "preunveil", "--n", "8", "--trials", "0"], "trials must be >= 1, got 0"),
        ([*simulate, "--delta", "2"], "separation_delta must be in [0, 1], got 2.0"),
        ([*simulate, "--floor", "1.5"], "plausibility_floor must be in [0, 1], got 1.5"),
        ([*simulate, "--min-sift", "-1"], "min_sift must be >= 0, got -1"),
        ([*simulate, "--noise-rate", "2"], "noise_rate must be in [0, 1], got 2.0"),
    ):
        assert cli_main(argv) == 1, argv
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("seed", ("-3", str(2**64)))
def test_every_seed_flag_refuses_a_seed_outside_64_bits(seed, capsys, tmp_path):
    # Before any draw, socket or file: exit 1 with the value named.
    out = str(tmp_path / "r.csv")
    for argv, name in (
        (["simulate", "--n", "16", "--bit", "0"], "seed"),
        (["sweep", "--n-list", "16", "--error-list", "0", "--out", out], "master_seed"),
        (["attack", "preunveil", "--n", "16", "--trials", "5"], "master_seed"),
        (["attack", "rebind", "--n", "16", "--trials", "5"], "master_seed"),
        (["referee", "--listen", "127.0.0.1:0", "--timeout", "1"], "seed"),
    ):
        assert cli_main([*argv, "--seed", seed]) == 1, argv
        assert capsys.readouterr().err == (
            f"error: {name} must be an integer in [0, 2**64), got {seed}\n"), argv
    party = ["party", "--role", "alice", "--connect", "127.0.0.1:1", "--n", "16"]
    assert cli_main([*party, "--seed", seed]) == 1
    assert capsys.readouterr().err == (
        f"alice failed: seed must be an integer in [0, 2**64), got {seed}\n")
    assert not (tmp_path / "r.csv").exists()


def test_trials_above_2_to_the_32_are_refused(capsys, tmp_path):
    argv = ["sweep", "--n-list", "16", "--error-list", "0", "--trials", str(2**32 + 1),
            "--out", str(tmp_path / "r.csv")]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == "error: trials must be <= 2**32, got 4294967297\n"


def test_sweep_matches_harness_golden(capsys, tmp_path):
    golden = tmp_path / "golden.csv"
    spec = SweepSpec(
        n_values=(100000,), error_fractions=(0.0, 0.5), noise_rates=(0.0,),
        trials_per_cell=1, master_seed=42, mode=SweepMode.HONEST,
    )
    write_report(run_sweep(spec), "csv", golden)

    out = tmp_path / "cli.csv"
    code = cli_main(
        ["sweep", "--n-list", "100000", "--error-list", "0,0.5",
         "--noise-list", "0", "--trials", "1", "--mode", "honest",
         "--seed", "42", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == golden.read_bytes()
    capsys.readouterr()


def test_sweep_rerun_identical_bytes(capsys, tmp_path):
    args = ["sweep", "--n-list", "64,128", "--error-list", "0,0.5",
            "--trials", "20", "--mode", "honest", "--seed", "5",
            "--format", "csv"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_sweep_policy_flags_keep_the_frozen_streams(capsys, tmp_path):
    # The "honest" spec of tests/test_kernel.py, whose policy is min_sift=3.
    out = tmp_path / "report.csv"
    code = cli_main(
        ["sweep", "--n-list", "0,1,17,64", "--error-list", "0,0.3,1",
         "--noise-list", "0,0.1", "--trials", "20", "--mode", "honest",
         "--seed", "2024", "--min-sift", "3", "--out", str(out)]
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FROZEN_CSV_SHA256["honest"]
    capsys.readouterr()


def test_sweep_json_format(capsys, tmp_path):
    out = tmp_path / "r.json"
    code = cli_main(
        ["sweep", "--n-list", "64", "--error-list", "0", "--trials", "5",
         "--mode", "preunveil", "--seed", "1", "--format", "json",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 2 and doc["stream_contract"] == 3
    assert len(doc["rows"]) == 1
    capsys.readouterr()


def test_attack_preunveil_json(capsys):
    code = cli_main(
        ["attack", "preunveil", "--n", "64", "--error-fraction", "0.5",
         "--trials", "400", "--seed", "2", "--output", "json"]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["success_rate"] > 0.52
    assert result["ci_low"] <= result["success_rate"] <= result["ci_high"]


def test_attack_rebind_json(capsys):
    code = cli_main(
        ["attack", "rebind", "--n", "256", "--strategy", "flip-all-bases",
         "--trials", "300", "--seed", "2", "--output", "json"]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["strategy"] == "flip-all-bases"
    assert result["success_rate"] < 0.05
    assert result["detection_count"] > 150


#: Exact stdout of ``qbcsim attack`` for fixed seeds: text and JSON, both
#: attacks, noise, and random-lies with a policy flag.
ATTACK_GOLDEN = (
    pytest.param(
        ["preunveil", "--n", "64", "--error-fraction", "0.5", "--trials", "300", "--seed", "5"],
        "pre-unveil guess success: 0.9133 (95% CI [0.8760, 0.9402]) over 300 trials\n",
        id="preunveil-text"),
    pytest.param(
        ["preunveil", "--n", "17", "--error-fraction", "0.3", "--noise-rate", "0.1",
         "--trials", "300", "--seed", "6", "--output", "json"],
        '{\n  "n": 17,\n  "error_fraction": 0.3,\n  "noise_rate": 0.1,\n  "trials": 300,\n'
        '  "seed": 6,\n  "success_rate": 0.7933333333333333,\n  "ci_low": 0.743944983244025,\n'
        '  "ci_high": 0.8353044736375745\n}\n',
        id="preunveil-json-noise"),
    pytest.param(
        ["rebind", "--n", "64", "--strategy", "flip-all-bases", "--trials", "300", "--seed", "5"],
        "rebind strategy flip-all-bases over 300 trials:\n"
        "  flip succeeded:   27 (0.0900)\n"
        "  cheat suspected:  232 (0.7733)\n"
        "  ambiguous:        18\n"
        "  original decoded: 23\n",
        id="rebind-flip-all-text"),
    pytest.param(
        ["rebind", "--n", "32", "--error-fraction", "0.25", "--noise-rate", "0.05",
         "--strategy", "random-lies:0.3", "--delta", "0.2", "--trials", "300", "--seed", "9",
         "--output", "json"],
        '{\n  "n": 32,\n  "error_fraction": 0.25,\n  "noise_rate": 0.05,\n'
        '  "strategy": "random-lies:0.3",\n  "trials": 300,\n  "seed": 9,\n'
        '  "success_count": 4,\n  "detection_count": 24,\n  "ambiguous_count": 100,\n'
        '  "decoded_original_count": 172,\n  "success_rate": 0.013333333333333334,\n'
        '  "detection_rate": 0.08\n}\n',
        id="rebind-random-lies-json-delta"),
    pytest.param(
        ["rebind", "--n", "16", "--strategy", "random-lies:0.5", "--min-sift", "3",
         "--trials", "300", "--seed", "9"],
        "rebind strategy random-lies:0.5 over 300 trials:\n"
        "  flip succeeded:   26 (0.0867)\n"
        "  cheat suspected:  27 (0.0900)\n"
        "  ambiguous:        26\n"
        "  original decoded: 221\n",
        id="rebind-random-lies-text-min-sift"),
)


@pytest.mark.parametrize("argv,expected", ATTACK_GOLDEN)
def test_attack_output_golden(argv, expected, capsys):
    assert cli_main(["attack", *argv]) == 0
    assert capsys.readouterr().out == expected


def test_attack_rebind_bad_strategy_usage_error(capsys):
    assert cli_main(["attack", "rebind", "--n", "8", "--strategy", "woo"]) == 2
    capsys.readouterr()


def test_referee_and_party_subcommands(capsys, tmp_path):
    transcript = tmp_path / "t.jsonl"
    referee = Referee(lambda addr: cli_main(
        ["referee", "--listen", addr, "--seed", "77",
         "--transcript", str(transcript), "--timeout", "10"]))
    codes = run_parties(
        referee.addr,
        bob=lambda addr: cli_main(["party", "--role", "bob", "--connect", addr,
                                   "--n", "128", "--seed", "77", "--timeout", "10"]),
        alice=lambda addr: cli_main(["party", "--role", "alice", "--connect", addr,
                                     "--n", "128", "--bit", "1", "--error-fraction", "0.5",
                                     "--seed", "77", "--timeout", "10"]),
    )
    assert referee.result() == 0 and codes == {"bob": 0, "alice": 0}
    assert transcript.exists()
    out = capsys.readouterr().out
    assert '"decision"' in out and "session complete" in out


def test_referee_noise_rate_reproduces_simulate(tmp_path):
    referee = Referee(lambda addr: cli_main(
        ["referee", "--listen", addr, "--seed", "78", "--noise-rate", "0.1",
         "--transcript", str(tmp_path / "t.jsonl"), "--timeout", "10"]))
    config = SessionConfig(n=256, committed_bit=1, error_fraction=0.25, noise_rate=0.1, seed=78)
    results = run_parties(referee.addr, **session_parties(config))
    inproc = run_honest_session(config)
    assert referee.result() == 0
    assert results["bob"].alignment == inproc.alignment
    assert results["bob"].raw_direct == inproc.raw_direct_correlation


def test_party_error_mode_and_policy_flags_reproduce_simulate(capsys, tmp_path):
    # Flip masking at e = 0.25 leaves a best sifted rate near 3/4, under the
    # 0.8 floor: the verdict is cheat_suspected only if both options arrive
    # (randomize masking or the default floor would read bit 1).
    flags = ["--n", "256", "--seed", "79", "--error-fraction", "0.25", "--error-mode", "flip",
             "--delta", "0.2", "--floor", "0.8", "--min-sift", "16"]
    referee = Referee(lambda addr: cli_main(
        ["referee", "--listen", addr, "--seed", "79",
         "--transcript", str(tmp_path / "t.jsonl"), "--timeout", "10"]))
    codes = run_parties(
        referee.addr,
        bob=lambda addr: cli_main(["party", "--role", "bob", "--connect", addr, *flags]),
        alice=lambda addr: cli_main(["party", "--role", "alice", "--connect", addr,
                                     "--bit", "1", *flags]),
    )
    assert referee.result() == 0 and codes == {"bob": 0, "alice": 0}
    # Both parties print to one stream; each object is one write.
    out, decoder, objects = capsys.readouterr().out, json.JSONDecoder(), []
    start = out.find("{")
    while start != -1:
        obj, end = decoder.raw_decode(out, start)
        objects.append(obj)
        start = out.find("{", end)
    (bob_out,) = [obj for obj in objects if obj["role"] == "bob"]
    assert cli_main(["simulate", "--bit", "1", "--output", "json", *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decision"] == bob_out["decision"] == "cheat_suspected"
    for key in ("sift_size", "direct_matches", "reverse_matches",
                "raw_direct_correlation", "raw_reverse_correlation"):
        assert bob_out[key] == report[key], key


def test_party_connection_refused_exit_one(capsys):
    code = cli_main(["party", "--role", "bob", "--connect", free_address(),
                     "--n", "8", "--timeout", "2"])
    assert code == 1
    assert "failed" in capsys.readouterr().err


def test_out_of_range_ports_exit_one_naming_the_address(capsys, tmp_path):
    transcript = tmp_path / "t.jsonl"
    for port in ("99999", "-1"):
        code = cli_main(["referee", "--listen", f"127.0.0.1:{port}",
                         "--transcript", str(transcript), "--timeout", "0.3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"127.0.0.1:{port}" in err, err
    assert not transcript.exists()  # no session was served
    code = cli_main(["party", "--role", "bob", "--connect", "h:x", "--n", "8"])
    assert code == 1
    assert "'h:x'" in capsys.readouterr().err


def test_referee_abort_names_its_cause(capsys, tmp_path):
    code = cli_main(["referee", "--listen", free_address(), "--timeout", "0.3",
                     "--transcript", str(tmp_path / "t.jsonl")])
    assert code == 1
    assert capsys.readouterr().err == "session aborted: session timed out\n"
