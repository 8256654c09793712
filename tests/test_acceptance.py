"""Acceptance suite: one test per headline criterion, at desk scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion with the measured values.
"""

import dataclasses
import time

import numpy as np
from test_wire import live_session

from qbcsim import rng as streams
from qbcsim.adversary import RebindStrategy
from qbcsim.channel import Basis, PhotonState, PreparedSequence, measure_photon
from qbcsim.harness import SweepMode, SweepSpec, run_cell, run_sweep, write_report
from qbcsim.kernel import run_sessions
from qbcsim.protocol import (
    Commitment,
    Decision,
    DecisionPolicy,
    SessionConfig,
    commit,
    inject_errors,
    raw_correlations,
    run_commit_phase,
    run_honest_session,
    score_and_decide,
)
from qbcsim.stats import decode_error_bound
from qbcsim.wire import (
    SessionTranscript,
    commit_message,
    outcomes_message,
    prepare_message,
)

MASTER = 20240501
# Criterion NN derives its seeds and substreams from MASTER at label paths
# that start with NN.


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _attack(mode, n, e, trials, seed, strategy=RebindStrategy.honest_bases()):
    """``qbcsim attack``'s one-cell run: (successes, decision tallies)."""
    spec = SweepSpec((n,), (e,), trials_per_cell=trials, mode=mode, strategy=strategy)
    return run_cell(spec, (seed,), n, e, 0.0)


def test_criterion_01_raw_correlation_without_errors():
    start = time.perf_counter()
    r = run_honest_session(
        SessionConfig(n=100000, committed_bit=0, error_fraction=0.0, seed=MASTER)
    )
    elapsed = time.perf_counter() - start
    value = r.raw_direct_correlation
    ok = abs(value - 0.75) <= 0.005 and elapsed < 1.0
    _report(1, ok, f"raw correct-pairing correlation {value:.4f} "
                   f"(target 0.75 +/- 0.005), {elapsed * 1000:.0f} ms")


def test_criterion_02_raw_correlation_with_half_errors():
    start = time.perf_counter()
    r = run_honest_session(
        SessionConfig(n=100000, committed_bit=0, error_fraction=0.5, seed=MASTER)
    )
    elapsed = time.perf_counter() - start
    value = r.raw_direct_correlation
    ok = abs(value - 0.625) <= 0.005 and elapsed < 1.0
    _report(2, ok, f"raw correlation under 50% randomization {value:.4f} "
                   f"(target 0.625 +/- 0.005), {elapsed * 1000:.0f} ms")


def test_criterion_03_sifted_exactness_every_trial():
    # Trial t has n = 1 + t % 200 and bit t % 2: one kernel call per n.
    failures = 0
    for n in range(1, 201):
        seeds = [streams.derive_seed(MASTER, 3, t) for t in range(n - 1, 1000, 200)]
        bit = (n - 1) % 2
        _bits, scores = run_sessions(seeds, n, 0.0, 0.0, bit=bit)
        correct = scores.reverse if bit else scores.direct
        failures += np.count_nonzero(correct != scores.sift)
    _report(3, failures == 0,
            f"correct-pairing sifted matches == sift size in 1000/1000 trials "
            f"({failures} exceptions)")


def test_criterion_04_wrong_alignment_baseline():
    r = run_honest_session(
        SessionConfig(n=100000, committed_bit=0, error_fraction=0.0,
                      seed=streams.derive_seed(MASTER, 4))
    )
    raw_rev = r.raw_reverse_correlation
    sift_rev = r.alignment.reverse_rate
    ok = abs(raw_rev - 0.5) <= 0.01 and abs(sift_rev - 0.5) <= 0.01
    _report(4, ok, f"wrong-pairing raw {raw_rev:.4f}, sifted {sift_rev:.4f} "
                   f"(target 0.5 +/- 0.01)")


def test_criterion_05_honest_decode_reliability():
    # Each session commits the bit its COMMITTED_BIT substream draws.
    trials = 10000
    start = time.perf_counter()
    seeds = [streams.derive_seed(MASTER, 5, t) for t in range(trials)]
    bits, scores = run_sessions(seeds, 256, 0.5, 0.0)
    wrong = np.count_nonzero(scores.decisions == np.where(bits, Decision.BIT0, Decision.BIT1))
    bounds = [decode_error_bound(int(s), 0.5, 0.10) for s in scores.sift]
    elapsed = time.perf_counter() - start
    error_rate = wrong / trials
    mean_bound = float(np.mean(bounds))
    ok = error_rate <= 0.001 and error_rate <= mean_bound and elapsed < 30.0
    _report(5, ok, f"wrong-bit decode rate {error_rate:.5f} "
                   f"(<= 0.001 and <= bound {mean_bound:.4f}), {elapsed:.1f} s")


def test_criterion_06_concealment_breach():
    trials = 10000
    threshold = 0.5 + 4 * np.sqrt(0.25 / trials)
    sigma2 = 2 * np.sqrt(0.25 / trials)
    rates = {}
    for n in (16, 64, 256):
        for e in (0.0, 0.5):
            hits, _tallies = _attack(SweepMode.PREUNVEIL, n, e, trials,
                                     streams.derive_seed(MASTER, 6, n, round(e * 100)))
            rates[(n, e)] = hits / trials
    above = all(rate > threshold for rate in rates.values())
    monotone = all(
        rates[(16, e)] <= rates[(64, e)] + sigma2 <= rates[(256, e)] + 2 * sigma2
        for e in (0.0, 0.5)
    )
    detail = ", ".join(
        f"n={n},e={e}:{rates[(n, e)]:.3f}" for (n, e) in sorted(rates)
    )
    _report(6, above and monotone,
            f"guess success > {threshold:.3f} everywhere and nondecreasing in n "
            f"({detail})")


def test_criterion_07_binding_under_implemented_strategies():
    trials = 10000
    strategies = (
        RebindStrategy.honest_bases(),
        RebindStrategy.flip_all_bases(),
        RebindStrategy.random_lies(0.5),
    )
    ok = True
    details = []
    for index, strategy in enumerate(strategies):
        for e in (0.0, 0.5):
            flips, tallies = _attack(
                SweepMode.BINDING, 256, e, trials,
                streams.derive_seed(MASTER, 7, index, round(e * 100)), strategy,
            )
            suspected = tallies[Decision.CHEAT_SUSPECTED]
            ok &= flips / trials < 0.01
            if strategy.kind.value == "flip-all-bases":
                ok &= suspected > trials / 2
            details.append(
                f"{strategy.label},e={e}: flip {flips / trials:.4f}, "
                f"suspected {suspected / trials:.3f}"
            )
    _report(7, ok, "; ".join(details))


def test_criterion_08_error_semantics_regression():
    n = 100000
    config = SessionConfig(
        n=n, committed_bit=0, error_fraction=0.5,
        seed=streams.derive_seed(MASTER, 8),
    )
    seq, _rec, _mask, commitment = run_commit_phase(config)
    randomize_raw, _ = raw_correlations(seq.bits, commitment)

    flip_config = SessionConfig(
        n=n, committed_bit=0, error_fraction=0.5,
        seed=streams.derive_seed(MASTER, 8), error_mode="flip",
    )
    seq_f, _rec_f, _mask_f, commitment_f = run_commit_phase(flip_config)
    flip_raw, _ = raw_correlations(seq_f.bits, commitment_f)

    ok = abs(flip_raw - 0.50) <= 0.005 and abs(randomize_raw - 0.625) <= 0.005
    _report(8, ok, f"50% error as randomization -> {randomize_raw:.4f} (0.625), "
                   f"as flipping -> {flip_raw:.4f} (0.500): randomization is the "
                   f"consistent reading")


def test_criterion_09_measurement_unit_laws():
    deterministic = True
    for basis in Basis:
        for bit in (0, 1):
            state = PhotonState(basis, bit)
            rng = streams.substream(MASTER, 9, basis.value, bit)
            deterministic &= all(
                measure_photon(state, basis, rng) == bit for _ in range(100)
            )
    rng = streams.substream(MASTER, 9)
    state = PhotonState(Basis.RECTILINEAR, 0)
    draws = [measure_photon(state, Basis.DIAGONAL, rng) for _ in range(100000)]
    mean = float(np.mean(draws))
    tol = 3 * np.sqrt(0.25 / 100000)
    ok = deterministic and abs(mean - 0.5) <= tol
    _report(9, ok, f"matching-basis table exact; conjugate mean {mean:.4f} "
                   f"(0.5 +/- {tol:.4f})")


def test_criterion_10_wire_equivalence(tmp_path):
    seed, n, bit, e = streams.derive_seed(MASTER, 10), 256, 1, 0.5
    base = SessionConfig(n=n, committed_bit=bit, error_fraction=e, seed=seed)
    # Every option a wire session carries, each at the base n and each where
    # a wire output it must change differs from the base session's, except
    # with a probability computed below: Alice's error mode, the referee's
    # channel noise, and Bob's decision policy.
    configs = (base, dataclasses.replace(base, error_mode="flip"),
               dataclasses.replace(base, noise_rate=0.1),
               dataclasses.replace(base, error_fraction=0.0, policy=DecisionPolicy(min_sift=n + 1)))
    ok, first, base_commit = True, None, None
    for config in configs:
        results, transcript, _wall = live_session(config, tmp_path / "t.jsonl")
        inproc = run_honest_session(config)
        seq, record, _mask, commitment = run_commit_phase(config)
        sent = {entry.message["type"]: entry.message for entry in transcript.entries}
        ok = ok and (
            results["bob"].exit_code == 0
            and results["alice"].exit_code == 0
            and results["bob"].decision is inproc.decision
            and results["alice"].decision is inproc.decision
            and results["bob"].alignment == inproc.alignment
            and results["bob"].raw_direct == inproc.raw_direct_correlation
            and results["bob"].raw_reverse == inproc.raw_reverse_correlation
            and sent["prepare"] == prepare_message(seq)
            and sent["outcomes"] == outcomes_message(record.outcomes)
            and sent["commit"] == commit_message(commitment.revealed)
            and not transcript.violated
            and transcript.outcome == inproc.decision.value
            and transcript.check_ordering()
            and transcript.check_visibility()
            and SessionTranscript.load(tmp_path / "t.jsonl").entries == transcript.entries
        )
        if config is base:
            first = (results["bob"].decision.value, inproc.decision.value)
            base_commit = sent["commit"]
        elif config.error_mode == "flip":
            # Both modes mask the same k = 128 positions of the same outcomes,
            # so the commit lines agree only if each of the 128 randomize coins
            # equals the flipped outcome: probability 2**-128.
            ok = ok and sent["commit"] != base_commit
        elif config.noise_rate:
            # The referee carries the noise, and any flip changes its outcomes
            # message; none of the 256 positions flips with probability
            # 0.9**256 ~ 2e-12.  (Bob's scores can miss it: a flip on a masked
            # position is overwritten, and flips can cancel in the counts.)
            _seq, clean, _mask, _commitment = run_commit_phase(base)
            ok = ok and sent["outcomes"] != outcomes_message(clean.outcomes)
        else:
            # min_sift = n + 1 answers every session AMBIGUOUS, so the check
            # is that the default policy decodes this one cleanly.  At e = 0
            # the true (reverse) sifted rate is 1, and each direct comparison
            # is a fair coin, one coin for at most two of them; by Hoeffding
            # the direct rate passes 0.9 with probability at most exp(-0.16 s)
            # at sift size s, so over s ~ Binomial(256, 1/2) at most
            # ((1 + e**-0.16) / 2)**256 ~ 3e-9, and s < 8 adds below 1e-60.
            default = run_honest_session(dataclasses.replace(config, policy=base.policy))
            ok = ok and (transcript.outcome == "ambiguous"
                         and default.decision is Decision.BIT1)
    _report(10, ok, f"wire decision {first[0]} == in-process "
                    f"{first[1]}; ordering and visibility hold")


def test_criterion_11_sweep_determinism(tmp_path):
    spec = SweepSpec(
        n_values=(64, 128), error_fractions=(0.0, 0.5), noise_rates=(0.0,),
        trials_per_cell=25, master_seed=MASTER, mode=SweepMode.HONEST,
    )
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(run_sweep(spec), "csv", first)
    write_report(run_sweep(spec), "csv", second)
    ok = first.read_bytes() == second.read_bytes()
    _report(11, ok, f"rerun CSV identical ({len(first.read_bytes())} bytes)")


def test_sanity_sift_commit_helpers_used_by_criteria():
    # keep the acceptance module self-checking about its own imports
    score, _ = score_and_decide(
        PreparedSequence(bases=[0, 1], bits=[1, 1]), Commitment(revealed=[1, 0]),
        [0, 0], DecisionPolicy(),
    )
    assert (score.sift_size, score.direct_matches) == (1, 1)
    assert commit([1, 0], 1).revealed.tolist() == [0, 1]
    masked, mask = inject_errors([0, 0, 0, 0], 0.5, streams.substream(1, streams.ERROR))
    assert np.count_nonzero(mask) == 2 and len(masked) == 4
