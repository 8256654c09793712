"""Wire mode: framing, transcripts, referee enforcement, equivalence."""

import json
import socket
import threading
import time

import numpy as np
import pytest

from qbcsim.channel import PreparedSequence
from qbcsim.protocol import Decision, SessionConfig, run_honest_session
from qbcsim.referee import _RefereeSession, parse_address, party_run, referee_serve
from qbcsim.wire import (
    MESSAGE_TYPES,
    SESSION_SCRIPT,
    SessionTranscript,
    WireProtocolError,
    commit_message,
    decision_message,
    encode_message,
    error_message,
    hello_message,
    measure_message,
    outcomes_message,
    parse_message,
    prepare_message,
    unveil_message,
)


# -- framing -------------------------------------------------------------------

def test_message_round_trip():
    msg = {"type": "commit", "bits": [0, 1, 1]}
    line = encode_message(msg)
    assert line.endswith("\n") and line.count("\n") == 1
    assert parse_message(line) == msg


def test_unknown_type_rejected():
    with pytest.raises(WireProtocolError, match="unknown message type"):
        parse_message('{"type": "teleport"}\n')


def test_malformed_payloads_rejected():
    bad = [
        "not json at all\n",
        '["a", "list"]\n',
        '{"type": "hello", "role": "mallory"}\n',
        '{"type": "measure", "bases": [0, 2]}\n',
        '{"type": "prepare", "states": [{"basis": 0}]}\n',
        '{"type": "decision", "value": "maybe"}\n',
        '{"type": "error"}\n',
    ]
    for line in bad:
        with pytest.raises(WireProtocolError):
            parse_message(line)


def test_parse_address():
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    with pytest.raises(ValueError):
        parse_address("9000")


# -- transcripts -----------------------------------------------------------------

def test_transcript_write_and_load(tmp_path):
    t = SessionTranscript()
    t.record("bob->referee", hello_message("bob"))
    t.record("referee->bob", hello_message("referee"))
    t.record("bob->referee", {"type": "decision", "value": "bit1"})
    path = tmp_path / "t.jsonl"
    t.write(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["seq"] == 0 and first["dir"] == "bob->referee"
    again = SessionTranscript.load(path)
    assert again.entries == t.entries
    assert again.outcome == "bit1"
    assert not again.violated


def test_transcript_ordering_checker():
    good = SessionTranscript()
    for mtype in ("prepare", "measure", "outcomes", "commit", "unveil", "decision"):
        good.record("x->referee", {"type": mtype})
    assert good.check_ordering()
    bad = SessionTranscript()
    bad.record("alice->referee", {"type": "measure", "bases": []})
    bad.record("bob->referee", {"type": "prepare", "states": []})
    assert not bad.check_ordering()


def test_transcript_ordering_checker_skips_refused_messages():
    # A measure the referee refused (its error reply follows at once) never
    # entered the session; one it let through out of order still fails.
    refused = SessionTranscript()
    for mtype in ("prepare", "measure", "outcomes"):
        refused.record("x->referee", {"type": mtype})
    refused.record("alice->referee", {"type": "measure", "bases": []})
    refused.record("referee->alice", error_message("out-of-order"))
    assert refused.check_ordering()
    accepted = SessionTranscript()
    for direction, mtype in (("bob->referee", "prepare"), ("alice->referee", "measure"),
                             ("referee->alice", "outcomes"), ("alice->referee", "measure")):
        accepted.record(direction, {"type": mtype})
    assert not accepted.check_ordering()


def test_transcript_visibility_checker():
    leak = SessionTranscript()
    leak.record("referee->alice", {"type": "prepare", "states": []})
    assert not leak.check_visibility()
    leak2 = SessionTranscript()
    leak2.record("referee->bob", {"type": "measure", "bases": []})
    assert not leak2.check_visibility()


# -- the session script, without sockets -------------------------------------------

class _FakeConn:
    """Stands in for a referee-side connection; keeps what it is sent."""

    def __init__(self):
        self.role = None
        self.open = True
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)

    def close(self):
        self.open = False


def _wire_message(mtype, n=4):
    return {
        "hello": hello_message("alice"),
        "prepare": prepare_message(PreparedSequence(bases=[0] * n, bits=[1] * n)),
        "measure": measure_message([0] * n),
        "outcomes": outcomes_message([1] * n),
        "commit": commit_message([1] * n),
        "unveil": unveil_message([0] * n),
        "decision": decision_message("bit0"),
        "error": error_message("gave up"),
    }[mtype]


def _session_at(step):
    """A session with both parties registered, driven through the script
    up to (not including) ``step``."""
    session = _RefereeSession(seed=3, noise_rate=0.0)
    conns = {"bob": _FakeConn(), "alice": _FakeConn()}
    for role, conn in conns.items():
        session.handle_hello(conn, hello_message(role))
    for index, (sender, mtype) in enumerate(SESSION_SCRIPT[:step]):
        if sender != "referee":
            ended = session.handle_message(conns[sender], _wire_message(mtype))
            assert ended == (index == len(SESSION_SCRIPT) - 1)
    assert session.step == step and not session.violated
    return session, conns


def _errors(conns):
    return [m for conn in conns.values() for m in conn.sent if m["type"] == "error"]


def test_session_script_refuses_every_other_message_at_every_step():
    # Every step a party may be waited on, plus the finished session.
    steps = [i for i, (sender, _t) in enumerate(SESSION_SCRIPT) if sender != "referee"]
    for step in steps + [len(SESSION_SCRIPT)]:
        expected = SESSION_SCRIPT[step] if step < len(SESSION_SCRIPT) else None
        for sender in ("alice", "bob"):
            for mtype in MESSAGE_TYPES:
                if (sender, mtype) == expected or mtype == "error":
                    continue
                session, conns = _session_at(step)
                ended = session.handle_message(conns[sender], _wire_message(mtype))
                errors = _errors(conns)
                assert ended and session.violated, (step, sender, mtype)
                assert len(errors) == 1 and conns[sender].sent[-1] is errors[0]
                assert errors[0]["message"].startswith("out-of-order: expected ")
                assert f"got {mtype} from {sender}" in errors[0]["message"]
                assert session.transcript.check_ordering(), (step, sender, mtype)
                assert session.transcript.check_visibility()


def test_session_script_ends_quietly_on_a_party_error():
    for step in (0, 1, 3, 4, 5):
        for sender in ("alice", "bob"):
            session, conns = _session_at(step)
            assert session.handle_message(conns[sender], _wire_message("error"))
            assert session.violated and _errors(conns) == []
            assert session.transcript.check_ordering()


def test_session_script_checks_every_sized_payload():
    for step, field in ((1, "bases"), (3, "bits"), (4, "bases")):
        session, conns = _session_at(step)
        sender, mtype = SESSION_SCRIPT[step]
        msg = _wire_message(mtype, n=3)
        assert session.handle_message(conns[sender], msg)
        (error,) = _errors(conns)
        assert error["message"] == f"size mismatch: 3 {field} for 4 photons"


def test_referee_rejects_a_bad_noise_rate_before_binding():
    addr = f"127.0.0.1:{_free_port()}"
    start = time.perf_counter()
    with pytest.raises(ValueError, match="noise_rate"):
        referee_serve(addr, noise_rate=1.5, timeout=5.0)
    assert time.perf_counter() - start < 1.0  # no session was waited for
    with socket.socket() as probe:
        probe.bind(parse_address(addr))


def test_party_with_bad_parameters_exits_one_before_connecting():
    addr = f"127.0.0.1:{_free_port()}"  # nobody listens here
    for role, kwargs, cause in (
        ("bob", dict(n=-1), "n must be"),
        ("alice", dict(n=8, bit=2), "committed_bit"),
        ("alice", dict(n=8, error_fraction=1.5), "error_fraction"),
    ):
        result = party_run(role, addr, timeout=2, **kwargs)
        assert result.exit_code == 1
        assert cause in result.diagnostic, result.diagnostic


# -- live sessions ----------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _serve(addr, results, **kwargs):
    results["transcript"] = referee_serve(addr, **kwargs)


def _start_referee(results, seed=0, timeout=10.0, transcript_path=None, noise_rate=0.0):
    addr = f"127.0.0.1:{_free_port()}"
    thread = threading.Thread(
        target=_serve, args=(addr, results),
        kwargs=dict(seed=seed, timeout=timeout, transcript_path=transcript_path,
                    noise_rate=noise_rate),
        daemon=True,
    )
    thread.start()
    time.sleep(0.15)  # let the listener bind
    return addr, thread


def _raw_client(addr):
    host, port = parse_address(addr)
    sock = socket.create_connection((host, port), timeout=5)
    sock.settimeout(5)
    return sock, sock.makefile("r", encoding="utf-8", newline="\n")


def test_wire_session_matches_in_process_run(tmp_path):
    seed, n, bit, e = 1234, 256, 1, 0.5
    results = {}
    addr, ref_thread = _start_referee(
        results, seed=seed, transcript_path=tmp_path / "t.jsonl"
    )

    party_results = {}
    bob = threading.Thread(
        target=lambda: party_results.setdefault(
            "bob", party_run("bob", addr, n=n, seed=seed, timeout=10)
        )
    )
    alice = threading.Thread(
        target=lambda: party_results.setdefault(
            "alice",
            party_run("alice", addr, n=n, bit=bit, error_fraction=e, seed=seed, timeout=10),
        )
    )
    bob.start()
    alice.start()
    bob.join(15)
    alice.join(15)
    ref_thread.join(15)

    inproc = run_honest_session(
        SessionConfig(n=n, committed_bit=bit, error_fraction=e, seed=seed)
    )
    bob_result = party_results["bob"]
    alice_result = party_results["alice"]
    assert bob_result.exit_code == 0 and alice_result.exit_code == 0
    assert bob_result.decision is inproc.decision
    assert alice_result.decision is inproc.decision
    assert bob_result.alignment == inproc.alignment
    assert bob_result.raw_direct == inproc.raw_direct_correlation
    assert bob_result.raw_reverse == inproc.raw_reverse_correlation

    transcript = results["transcript"]
    assert not transcript.violated
    assert transcript.outcome == inproc.decision.value
    assert transcript.check_ordering()
    assert transcript.check_visibility()
    # the file round-trips to the same transcript
    loaded = SessionTranscript.load(tmp_path / "t.jsonl")
    assert loaded.entries == transcript.entries


def test_measure_before_prepare_is_an_ordering_violation():
    results = {}
    addr, ref_thread = _start_referee(results, timeout=5.0)
    sock, rfile = _raw_client(addr)
    try:
        sock.sendall(encode_message(hello_message("alice")).encode())
        # fire measure without waiting for the channel-ready hello
        sock.sendall(encode_message({"type": "measure", "bases": [0, 1]}).encode())
        reply = parse_message(rfile.readline())
        assert reply["type"] == "error"
        assert "out-of-order" in reply["message"]
    finally:
        sock.close()
    ref_thread.join(10)
    transcript = results["transcript"]
    assert transcript.violated
    assert transcript.outcome is None


def test_duplicate_role_is_rejected():
    results = {}
    addr, ref_thread = _start_referee(results, timeout=5.0)
    first, first_file = _raw_client(addr)
    second, second_file = _raw_client(addr)
    try:
        first.sendall(encode_message(hello_message("alice")).encode())
        time.sleep(0.1)  # ensure registration order
        second.sendall(encode_message(hello_message("alice")).encode())
        reply = parse_message(second_file.readline())
        assert reply["type"] == "error"
        assert "rejected" in reply["message"]
        assert second_file.readline() == ""  # connection closed
    finally:
        second.close()
        first.close()  # registered party drops -> session ends
    ref_thread.join(10)
    assert results["transcript"].violated


def test_referee_releases_its_port_on_return():
    # The listener is gone when referee_serve returns, so the same port can
    # be bound again at once (a fresh referee on a fixed port relies on it).
    addr = f"127.0.0.1:{_free_port()}"
    transcript = referee_serve(addr, timeout=0.3)
    assert transcript.violated
    with socket.socket() as again:
        again.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        again.bind(parse_address(addr))
        again.listen(1)


def test_party_without_referee_exits_one():
    result = party_run("bob", f"127.0.0.1:{_free_port()}", n=8, timeout=2)
    assert result.exit_code == 1
    assert "refused" in result.diagnostic or "failed" in result.diagnostic


def test_party_on_malformed_referee_exits_one():
    port = _free_port()
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", port))
    listener.listen(1)

    def fake_referee():
        conn, _ = listener.accept()
        conn.makefile("r").readline()  # swallow the hello
        conn.sendall(b"{this is not json\n")
        time.sleep(0.3)
        conn.close()

    thread = threading.Thread(target=fake_referee, daemon=True)
    thread.start()
    result = party_run("alice", f"127.0.0.1:{port}", n=4, timeout=3)
    listener.close()
    assert result.exit_code == 1
    assert "JSON" in result.diagnostic or "valid" in result.diagnostic


def test_mismatched_session_sizes_abort():
    # alice announces fewer bases than bob prepared photons
    results = {}
    addr, ref_thread = _start_referee(results, timeout=6.0)
    bob_result = {}
    bob = threading.Thread(
        target=lambda: bob_result.setdefault(
            "r", party_run("bob", addr, n=16, seed=5, timeout=6)
        )
    )
    bob.start()
    time.sleep(0.3)
    alice_result = party_run("alice", addr, n=8, seed=5, timeout=6)
    bob.join(10)
    ref_thread.join(10)
    assert alice_result.exit_code == 1
    assert "size mismatch" in alice_result.diagnostic
    assert results["transcript"].violated


def test_wire_equivalence_across_parameters():
    # includes the scripted error-free committed-1 session at n=256
    for seed, n, bit, e, noise in ((2, 256, 1, 0.0, 0.0), (3, 128, 0, 0.25, 0.0),
                                   (4, 256, 1, 0.25, 0.1)):
        results = {}
        addr, ref_thread = _start_referee(results, seed=seed, noise_rate=noise)
        outcomes = {}
        threads = [
            threading.Thread(
                target=lambda: outcomes.setdefault(
                    "bob", party_run("bob", addr, n=n, seed=seed, timeout=10)
                )
            ),
            threading.Thread(
                target=lambda: outcomes.setdefault(
                    "alice",
                    party_run(
                        "alice", addr, n=n, bit=bit, error_fraction=e,
                        seed=seed, timeout=10,
                    ),
                )
            ),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(15)
        ref_thread.join(15)
        inproc = run_honest_session(
            SessionConfig(n=n, committed_bit=bit, error_fraction=e, noise_rate=noise,
                          seed=seed)
        )
        assert outcomes["bob"].decision is inproc.decision
        assert outcomes["bob"].alignment == inproc.alignment
        assert outcomes["bob"].raw_direct == inproc.raw_direct_correlation
        if (n, bit, e) == (256, 1, 0.0):
            assert outcomes["bob"].decision is Decision.BIT1


def test_alice_commit_message_masks_a_quarter_of_her_outcomes(tmp_path):
    # With half the results randomized and a direct-order commitment, the
    # commit message differs from the outcomes message in about n/4
    # positions (each selected result changes with probability 1/2).
    n, e, seed = 2000, 0.5, 606
    results = {}
    addr, ref_thread = _start_referee(
        results, seed=seed, transcript_path=tmp_path / "t.jsonl"
    )
    threads = [
        threading.Thread(
            target=lambda: party_run("bob", addr, n=n, seed=seed, timeout=10)
        ),
        threading.Thread(
            target=lambda: party_run(
                "alice", addr, n=n, bit=0, error_fraction=e, seed=seed, timeout=10
            )
        ),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(15)
    ref_thread.join(15)

    by_type = {}
    for entry in results["transcript"].entries:
        by_type.setdefault(entry.message.get("type"), entry.message)
    outcomes = np.asarray(by_type["outcomes"]["bits"])
    committed = np.asarray(by_type["commit"]["bits"])
    distance = int(np.sum(outcomes != committed))
    sigma = (n / 8) ** 0.5  # Binomial(n/2, 1/2) changes
    assert abs(distance - n / 4) <= 4 * sigma


def test_small_sessions_do_not_wait_on_delayed_acks():
    # A session at n = 256 is about a millisecond of work; with Nagle's
    # algorithm on, back-to-back small writes stall on delayed ACKs and
    # every session takes 40 ms or more.
    walls = []
    for seed in (31, 32, 33):
        results, outcomes = {}, {}
        addr, ref_thread = _start_referee(results, seed=seed)
        threads = [
            threading.Thread(target=lambda: outcomes.setdefault(
                "bob", party_run("bob", addr, n=256, seed=seed, timeout=10))),
            threading.Thread(target=lambda: outcomes.setdefault(
                "alice", party_run("alice", addr, n=256, bit=1, seed=seed, timeout=10))),
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(15)
        walls.append(time.perf_counter() - start)
        ref_thread.join(15)
        assert outcomes["bob"].exit_code == 0 and outcomes["alice"].exit_code == 0
    assert min(walls) < 0.025, walls
