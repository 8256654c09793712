"""Wire mode: framing, transcripts, referee enforcement, equivalence."""

import collections
import contextlib
import dataclasses
import json
import selectors
import socket
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import qbcsim.referee as referee_module

from qbcsim import rng as streams
from qbcsim.channel import PreparedSequence, prepare_random_sequence
from qbcsim.protocol import (
    Decision,
    DecisionPolicy,
    SessionConfig,
    choose_random_bases,
    run_honest_session,
)
from qbcsim.referee import (
    _Conn,
    _RefereeSession,
    _serve_session,
    parse_address,
    party_run,
    referee_serve,
)
from qbcsim.wire import (
    FORMAT,
    MESSAGE_TYPES,
    ROLES,
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
    unpack_digits,
    unveil_message,
)


# -- framing -------------------------------------------------------------------

def test_message_round_trip():
    msg = commit_message([0, 1, 1])
    assert msg == {"type": "commit", "bits": "011"}
    line = encode_message(msg)
    assert line.endswith("\n") and line.count("\n") == 1
    assert parse_message(line) == msg
    assert unpack_digits(parse_message(line)["bits"]).tolist() == [0, 1, 1]


def test_prepare_codes_are_the_state_draws():
    # code = 2*basis + bit: the uniform draw in [0, 4) that prepared the photon.
    n, seed = 64, 11
    seq = prepare_random_sequence(n, streams.substream(seed, streams.PREPARE))
    msg = parse_message(encode_message(prepare_message(seq)))
    codes = unpack_digits(msg["codes"])
    drawn = streams.substream(seed, streams.PREPARE).integers(0, 4, size=n)
    assert codes.tolist() == drawn.tolist()
    assert (codes >> 1).tolist() == seq.bases.tolist()
    assert (codes & 1).tolist() == seq.bits.tolist()
    assert prepare_message(PreparedSequence(bases=[], bits=[])) == {
        "type": "prepare", "codes": ""}


@pytest.mark.parametrize("line, field", [
    ('{"type": "commit", "bits": [0, 1]}', "commit bits"),
    ('{"type": "commit", "bits": [true, false]}', "commit bits"),
    ('{"type": "measure", "bases": 1}', "measure bases"),
    ('{"type": "measure", "bases": 0.0}', "measure bases"),
    ('{"type": "unveil", "bases": true}', "unveil bases"),
    ('{"type": "outcomes", "bits": null}', "outcomes bits"),
    ('{"type": "outcomes"}', "outcomes bits"),
    ('{"type": "outcomes", "bits": "012"}', "outcomes bits"),
    ('{"type": "unveil", "bases": "0 1"}', "unveil bases"),
    ('{"type": "commit", "bits": "\u0660\u0661"}', "commit bits"),
    ('{"type": "prepare", "codes": "4"}', "prepare codes"),
    ('{"type": "prepare", "codes": "0/"}', "prepare codes"),
    ('{"type": "prepare", "codes": "\u0660\u0661"}', "prepare codes"),
    ('{"type": "prepare", "codes": [0, 3]}', "prepare codes"),
    ('{"type": "prepare", "codes": 3}', "prepare codes"),
    ('{"type": "prepare", "states": [{"basis": true, "bit": 1.0}]}', "prepare codes"),
    ('{"type": "prepare", "states": [{"basis": 0, "bit": 1}]}', "prepare codes"),
    ('{"type": "hello", "role": "bob", "format": 2.0}', "hello format"),
    ('{"type": "hello", "role": "bob", "format": true}', "hello format"),
])
def test_packed_payloads_accept_only_digit_strings(line, field):
    with pytest.raises(WireProtocolError, match=field):
        parse_message(line)


def test_unknown_type_rejected():
    assert MESSAGE_TYPES == ("hello", "prepare", "measure", "outcomes", "commit", "unveil",
                             "decision", "error")
    with pytest.raises(WireProtocolError, match="unknown message type"):
        parse_message('{"type": "teleport"}\n')


@pytest.mark.parametrize("decision", list(Decision))
def test_every_decision_round_trips(decision):
    msg = decision_message(decision.value)
    assert Decision(parse_message(encode_message(msg))["value"]) is decision


@pytest.mark.parametrize("value", ["BIT0", None, ["bit0"]])
def test_unknown_decision_values_are_refused(value):
    with pytest.raises(WireProtocolError, match="decision requires a valid value"):
        decision_message(value)
    with pytest.raises(WireProtocolError, match="decision requires a valid value"):
        parse_message(json.dumps({"type": "decision", "value": value}))


@pytest.mark.parametrize("name, value", [("seq", 7), ("dir", "referee->alice")])
def test_messages_may_not_carry_transcript_fields(name, value):
    line = json.dumps({"type": "prepare", "codes": "0123", name: value})
    with pytest.raises(WireProtocolError, match=f"'{name}' is a transcript field"):
        parse_message(line)


#: Lines json.loads fails on with neither a JSONDecodeError nor a
#: UnicodeDecodeError: nested past the recursion limit, and a hello whose
#: format has more digits than int() converts.
HOSTILE_LINES = (b"[" * 5000, b'{"type":"hello","role":"alice","format":' + b"1" * 5000 + b"}")

#: Lines that repeat a field name, and the name: json.loads alone keeps the
#: last value, and a reader that keeps the first would see another message.
REPEATED_FIELDS = ((b'{"type":"hello","role":"bob","format":2,"type":"decision","value":"bit0"}',
                    "type"),
                   (b'{"type":"commit","bits":"01","bits":"0"}', "bits"))


def test_malformed_payloads_rejected():
    bad = [
        "not json at all\n",
        '["a", "list"]\n',
        '{"type": "hello", "role": "mallory"}\n',
        '{"type": "measure", "bases": [0, 2]}\n',
        '{"type": "prepare", "states": [{"basis": 0}]}\n',
        '{"type": "decision", "value": "maybe"}\n',
        '{"type": "error"}\n',
        *HOSTILE_LINES,
        *(line for line, _name in REPEATED_FIELDS),
    ]
    for line in bad:
        with pytest.raises(WireProtocolError):
            parse_message(line)
    for line in HOSTILE_LINES:
        with pytest.raises(WireProtocolError, match="^not valid JSON: "):
            parse_message(line)
    for line, name in REPEATED_FIELDS:
        with pytest.raises(WireProtocolError, match=f"^repeated field '{name}'$"):
            parse_message(line)


def test_lines_are_parsed_from_bytes_as_utf8():
    assert parse_message(encode_message(hello_message("bob")).encode()) == hello_message("bob")
    with pytest.raises(WireProtocolError, match="not valid UTF-8"):
        parse_message(b"\xff\n")


def test_parse_address():
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_address("::1:0") == ("::1", 0)
    for bad in ("9000", "127.0.0.1:99999", "127.0.0.1:65536", "127.0.0.1:-1", "h:x", "h:",
                "h:+1", "h:\u00b2"):
        with pytest.raises(ValueError, match="HOST:PORT") as raised:
            parse_address(bad)
        assert repr(bad) in str(raised.value)


# -- transcripts -----------------------------------------------------------------

def test_transcript_write_and_load(tmp_path):
    t = SessionTranscript()
    t.record("bob->referee", hello_message("bob"))
    t.record("referee->bob", hello_message("referee"))
    # A party line is logged as received, JSON whitespace and all.
    party = b'{"type": "commit",  "bits": "0110"}'
    t.record("alice->referee", parse_message(party), party)
    t.record("bob->referee", {"type": "decision", "value": "bit1"})
    path = tmp_path / "t.jsonl"
    t.write(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first["seq"] == 0 and first["dir"] == "bob->referee"
    again = SessionTranscript.load(path)
    assert again.entries == t.entries
    assert [e.line for e in again.entries] == [e.line for e in t.entries]
    assert again.entries[2].line == party
    again.write(tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
    assert again.outcome == "bit1"
    assert not again.violated


@pytest.mark.parametrize("second", [
    b'{"dir":"bob->referee","seq":1,"type":"hello","role":"bob"}',
    b'{"seq": 1, "dir": "bob->referee", "type": "hello", "role": "bob"}',
    b'{"type":"hello","role":"bob"}',
    b'[1, 2]',
    b'{"seq":1,"dir":"bob","type":"hello","role":"bob"}',  # an entry's recipient would raise
])
def test_transcript_load_refuses_a_line_it_did_not_write(tmp_path, second):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"seq":0,"dir":"bob->referee","type":"hello","role":"bob"}\n'
                     + second + b"\n")
    with pytest.raises(ValueError, match="transcript line 2 does not begin with its seq and dir"):
        SessionTranscript.load(path)


def test_transcript_load_names_a_line_that_is_not_json(tmp_path):
    # A transcript cut off in the middle of its second line.
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"seq":0,"dir":"bob->referee","type":"hello","role":"bob"}\n'
                     b'{"seq":1,"dir":"bob->referee","type":"hel')
    with pytest.raises(ValueError, match="^transcript line 2 is not valid JSON: "
                                         "Unterminated string") as raised:
        SessionTranscript.load(path)
    assert isinstance(raised.value.__cause__, json.JSONDecodeError)
    for line in HOSTILE_LINES:
        path.write_bytes(b'{"seq":0,"dir":"bob->referee","type":"hello","role":"bob"}\n'
                         b'{"seq":1,"dir":"alice->referee","x":' + line + b"}\n")
        with pytest.raises(ValueError, match="^transcript line 2 is not valid JSON: "):
            SessionTranscript.load(path)


def test_transcript_load_refuses_a_repeated_field(tmp_path):
    # json.loads would keep the last "role" and load a hello from alice.
    line = b'{"seq":0,"dir":"bob->referee","type":"hello","role":"bob","format":2,"role":"alice"}'
    with pytest.raises(WireProtocolError, match="^repeated field 'role'$"):
        parse_message(b"{" + line[line.index(b'"type"'):])
    path = tmp_path / "t.jsonl"
    path.write_bytes(line + b"\n")
    with pytest.raises(ValueError, match="^transcript line 1: repeated field 'role'$"):
        SessionTranscript.load(path)


def test_transcript_load_validates_each_message_and_its_seq(tmp_path):
    # Without validation the first file loaded as two entries in protocol order.
    path = tmp_path / "t.jsonl"
    commit = b'{"seq":0,"dir":"alice->referee","type":"commit","bits":'
    bogus = b'"dir":"bob->referee","type":"bogus"}'
    head = r" does not begin with its seq and dir \(seq 1, dir sender->recipient\)"
    cases = ((b'"x9"}', b'{"seq":0,', ": commit bits must be a string of digits 0-1", 1),
             (b'"01"}', b'{"seq":0,', head, 2),
             (b'"01"}', b'{"seq":1,', ": unknown message type 'bogus'", 2))
    for bits, seq, rule, number in cases:
        path.write_bytes(commit + bits + b"\n" + seq + bogus + b"\n")
        with pytest.raises(ValueError, match=f"^transcript line {number}{rule}$"):
            SessionTranscript.load(path)


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
    """Stands in for a referee-side connection; keeps what it is sent, as
    bytes and as parsed messages."""

    def __init__(self):
        self.role = None
        self.open = True
        self.data = []
        self.sent = []

    def send(self, data):
        self.data.append(data)
        self.sent.append(parse_message(data))

    def close(self):
        self.open = False


def _line(msg):
    """A message's wire line as the referee reads it, without its newline."""
    return encode_message(msg)[:-1].encode()


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


def _session_at(step, n=4):
    """A session with both parties registered, driven through the script
    up to (not including) ``step`` with ``n`` photons."""
    session = _RefereeSession(seed=3, noise_rate=0.0)
    conns = {"bob": _FakeConn(), "alice": _FakeConn()}
    for role, conn in conns.items():
        assert session.receive(conn, _line(hello_message(role))) is False
    for index, (sender, mtype) in enumerate(SESSION_SCRIPT[:step]):
        if sender != "referee":
            ended = session.receive(conns[sender], _line(_wire_message(mtype, n)))
            assert ended == (index == len(SESSION_SCRIPT) - 1)
    assert session.step == step and _errors(conns) == []
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
                ended = session.receive(conns[sender], _line(_wire_message(mtype)))
                errors = _errors(conns)
                assert ended and session.transcript.violated, (step, sender, mtype)
                assert len(errors) == 1 and conns[sender].sent[-1] is errors[0]
                assert errors[0]["message"].startswith("out-of-order: expected ")
                assert f"got {mtype} from {sender}" in errors[0]["message"]
                assert session.transcript.check_ordering(), (step, sender, mtype)
                assert session.transcript.check_visibility()


def test_session_script_ends_quietly_on_a_party_error():
    for step in (0, 1, 3, 4, 5):
        for sender in ("alice", "bob"):
            session, conns = _session_at(step)
            assert session.receive(conns[sender], _line(_wire_message("error")))
            assert session.transcript.violated and _errors(conns) == []
            assert session.transcript.check_ordering()


def test_session_script_checks_every_sized_payload():
    for step, field in ((1, "bases"), (3, "bits"), (4, "bases")):
        session, conns = _session_at(step)
        sender, mtype = SESSION_SCRIPT[step]
        msg = _wire_message(mtype, n=3)
        assert session.receive(conns[sender], _line(msg))
        (error,) = _errors(conns)
        assert error["message"] == f"size mismatch: 3 {field} for 4 photons"


def test_a_refused_decision_is_not_the_outcome():
    session, conns = _session_at(0)
    assert session.receive(conns["bob"], _line(decision_message("bit1")))
    assert session.transcript.outcome is None and session.transcript.violated


def test_a_session_that_turned_a_stranger_away_ends_in_its_decision():
    session, conns = _session_at(0, n=32)
    stranger = _FakeConn()
    assert session.receive(stranger, _line(hello_message("alice"))) is False
    assert stranger.sent == [error_message("role 'alice' rejected")]
    for line in HOSTILE_LINES:
        stranger = _FakeConn()
        assert session.receive(stranger, line) is False
        (refusal,) = stranger.sent
        assert refusal["message"].startswith("bad message: not valid JSON: ")
    for sender, mtype in SESSION_SCRIPT:
        if sender != "referee":
            ended = session.receive(conns[sender], _line(_wire_message(mtype, n=32)))
    assert ended and _errors(conns) == []
    assert session.transcript.outcome == _wire_message("decision")["value"]
    assert not session.transcript.violated


@pytest.mark.parametrize("name, value", [("seq", 7), ("dir", "referee->alice")])
def test_a_party_cannot_forge_transcript_fields(name, value):
    # Logged as sent, such a line would renumber or redirect its entry.
    session, conns = _session_at(0)
    line = json.dumps({"type": "prepare", "codes": "0123", name: value}).encode()
    assert session.receive(conns["bob"], line)
    (error,) = _errors(conns)
    assert error["message"] == f"bad message: '{name}' is a transcript field, not a message field"
    assert session.transcript.violated and session.step == 0


@pytest.mark.parametrize("canonical", [True, False])
def test_a_relayed_line_is_sent_and_logged_as_received(tmp_path, canonical):
    session, conns = _session_at(3)
    msg = _wire_message("commit")
    # Default separators, with a carriage return between two tokens.
    line = _line(msg) if canonical else json.dumps(msg).replace(", ", ",\r").encode()
    assert session.receive(conns["alice"], line) is False
    assert conns["bob"].data[-1] == line + b"\n"
    path = tmp_path / "t.jsonl"
    session.transcript.write(path)
    written = path.read_bytes().split(b"\n")
    received, relayed = session.transcript.entries[-2:]
    assert (received.direction, relayed.direction) == ("alice->referee", "referee->bob")
    for entry in (received, relayed):
        prefix = b'{"seq":%d,"dir":"%s",' % (entry.seq, entry.direction.encode())
        assert written[entry.seq] == prefix + line[1:]


def test_transcript_lines_end_at_a_newline_alone(tmp_path):
    # A logged party line may hold other line breaks: "\r" between tokens,
    # or a raw U+2028 or U+0085 inside a string.
    session, conns = _session_at(0)
    assert session.receive(conns["bob"], b'{"type":"prepare",\r"codes":"0123"}') is False
    assert session.receive(conns["alice"], '{"type":"error","message":"a\u2028b\u0085c"}'.encode())
    path = tmp_path / "t.jsonl"
    session.transcript.write(path)
    assert path.read_bytes().count(b"\n") == len(session.transcript.entries)
    assert SessionTranscript.load(path).entries == session.transcript.entries


def test_a_party_line_that_is_not_utf8_is_a_violation():
    for line, cause in ((b'{"type":"prepare","codes":"\xff"}', "not valid UTF-8"),
                        *((line, "not valid JSON: ") for line in HOSTILE_LINES)):
        session, conns = _session_at(0)
        assert session.receive(conns["bob"], line)
        (error,) = _errors(conns)
        assert conns["bob"].sent[-1] is error
        assert error["message"].startswith(f"bad message: {cause}")
        assert session.transcript.violated and session.step == 0


def test_referee_refuses_other_wire_formats():
    for hello, version in (({"type": "hello", "role": "alice"}, 1),
                           ({"type": "hello", "role": "bob", "format": 1}, 1),
                           ({"type": "hello", "role": "bob", "format": FORMAT + 1}, FORMAT + 1)):
        session, conn = _RefereeSession(seed=3, noise_rate=0.0), _FakeConn()
        assert session.receive(conn, _line(hello)) is False
        assert conn.sent == [error_message(
            f"wire format {version} not supported: this referee speaks format {FORMAT}")]
        assert not conn.open and session.parties == {}
        assert session.transcript.check_ordering()
        assert session.transcript.check_visibility()


def test_party_refused_for_its_wire_format_exits_one(monkeypatch):
    monkeypatch.setattr(referee_module, "FORMAT", FORMAT + 1)
    referee = Referee(timeout=1.0)
    result = party_run("bob", referee.addr, n=8, timeout=5)
    referee.result()
    assert result.exit_code == 1
    assert result.diagnostic == (f"referee error: wire format {FORMAT} not supported: "
                                 f"this referee speaks format {FORMAT + 1}")


# -- fuzzing the referee ------------------------------------------------------------

_SENDERS = st.sampled_from(("alice", "bob", "stranger"))
_DIGITISH = st.one_of(
    st.sampled_from(("012", "4", "0 1", "\u0660\u0661", "1\u0661", "", "01", "0123")),
    st.text(alphabet="0123 /:x\u0660\u0661", max_size=6),
)
_JUNK = st.one_of(
    _DIGITISH, st.none(), st.booleans(), st.integers(-1, 4), st.floats(width=16),
    st.lists(st.one_of(st.integers(0, 1), st.booleans()), max_size=5),
    st.sampled_from(ROLES + ("mallory",)),
    st.dictionaries(st.sampled_from(("basis", "bit")),
                    st.one_of(st.integers(0, 1), st.booleans(), st.just(1.0)), max_size=2),
)
_JUNK_LINES = st.one_of(
    st.builds(lambda mtype, name, value: json.dumps({"type": mtype, name: value}),
              st.sampled_from(MESSAGE_TYPES + ("teleport",)),
              st.sampled_from(("codes", "bits", "bases", "states", "role", "format",
                               "value", "message")),
              _JUNK),
    st.builds(lambda value: json.dumps([value]), _JUNK),
    st.text(max_size=12),
)
_ENDINGS = collections.Counter()


def _compact(msg):
    return json.dumps(msg, separators=(",", ":")) + "\n"


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((0, 1, 100_000)), seed=st.integers(0, 2**32 - 1))
def test_encode_message_is_compact_json_dumps(n, seed):
    gen = np.random.default_rng(seed)
    bases, bits = gen.integers(0, 2, n), gen.integers(0, 2, n)
    for msg in (hello_message("bob"), prepare_message(PreparedSequence(bases=bases, bits=bits)),
                measure_message(bases), outcomes_message(bits), commit_message(bits),
                unveil_message(bases), decision_message("bit0"), error_message("gave up")):
        assert encode_message(msg) == _compact(msg)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mtype=st.one_of(st.sampled_from(MESSAGE_TYPES), _JUNK),
       fields=st.dictionaries(st.sampled_from(("codes", "bits", "bases", "note")),
                              st.one_of(_JUNK, st.text(alphabet="0123456789", max_size=6)),
                              max_size=3))
def test_encode_message_is_compact_json_dumps_for_any_payload(mtype, fields):
    # List payloads, missing fields, digits out of range, a payload that is
    # not the last field and a type that is no string all go through
    # json.dumps unchanged.
    msg = {"type": mtype, **fields}
    assert encode_message(msg) == _compact(msg)


def _ending(entry):
    """How an entry ends a session, if it does: a relayed decision, the
    referee's error to a party, or a party's own error (a hang-up too)."""
    mtype, direction = entry.message.get("type"), entry.direction
    if mtype == "decision" and direction == "referee->alice":
        return "decision"
    if mtype == "error" and direction in ("referee->alice", "referee->bob"):
        return "violation"
    if mtype == "error" and direction in ("alice->referee", "bob->referee"):
        return "party error"
    return None


class RefereeFuzz(RuleBasedStateMachine):
    """Referee sessions, one after another, fed valid steps mixed with
    malformed, misdirected and mis-sized messages, unknown senders and
    hang-ups.

    Each message arrives on the sender's registered connection, or on a
    fresh one (an unregistered connection is registered or turned away by
    its first message, so it never sends a second)."""

    _SESSIONS = dict(n=st.integers(0, 5), noise=st.sampled_from((0.0, 0.5)),
                     register=st.booleans())

    @initialize(**_SESSIONS)
    def start(self, n, noise, register):
        self.session = _RefereeSession(seed=9, noise_rate=noise)
        self.n = n
        self.ended = False
        if register:
            for role in ("bob", "alice"):
                self._deliver(role, encode_message(hello_message(role)))

    @precondition(lambda self: self.ended)
    @rule(**_SESSIONS)
    def next_session(self, n, noise, register):
        self.start(n, noise, register)

    def _conn(self, who):
        return self.session.parties.get(who) or _FakeConn()

    def _deliver(self, who, line):
        self.ended = self.session.receive(self._conn(who), line.encode())

    def _next_sender(self):
        return None if self.session.finished else SESSION_SCRIPT[self.session.step][0]

    @precondition(lambda self: not self.ended)
    @rule(who=_SENDERS, role=st.sampled_from(ROLES + ("mallory",)),
          version=st.sampled_from((FORMAT, None, 1, FORMAT + 1)))
    def hello(self, who, role, version):
        msg = {"type": "hello", "role": role}
        if version is not None:
            msg["format"] = version
        self._deliver(who, encode_message(msg))

    @precondition(lambda self: not self.ended)
    @rule(count=st.integers(1, 6))
    def valid_steps(self, count):
        for _ in range(count):
            sender = self._next_sender()
            if self.ended or sender not in self.session.parties:
                break
            mtype = SESSION_SCRIPT[self.session.step][1]
            self._deliver(sender, encode_message(_wire_message(mtype, self.n)))

    @precondition(lambda self: not self.ended and self._next_sender() in self.session.parties)
    @rule(value=st.one_of(_DIGITISH, _JUNK))
    def malformed_step(self, value):
        sender, mtype = SESSION_SCRIPT[self.session.step]
        msg = {name: value for name in _wire_message(mtype, self.n)}
        msg["type"] = mtype
        self._deliver(sender, json.dumps(msg))

    @precondition(lambda self: not self.ended and self._next_sender() in self.session.parties)
    @rule(form=st.sampled_from(("spaced", "carriage returns", "error")))
    def noncanonical_step(self, form):
        """The next step as a party might send it: with default separators,
        with "\r" between tokens, or as an error whose text is raw non-ASCII."""
        sender, mtype = SESSION_SCRIPT[self.session.step]
        msg = error_message("\u00e9\u2028\u0085") if form == "error" else _wire_message(mtype, self.n)
        line = json.dumps(msg, ensure_ascii=False)
        self._deliver(sender, line.replace(", ", ",\r") if form == "carriage returns" else line)

    @precondition(lambda self: not self.ended and self._next_sender() in self.session.parties)
    @rule(size=st.sampled_from((-1, 1)))
    def resized_step(self, size):
        sender, mtype = SESSION_SCRIPT[self.session.step]
        self._deliver(sender, encode_message(_wire_message(mtype, max(self.n + size, 0))))

    @precondition(lambda self: not self.ended)
    @rule(who=_SENDERS, mtype=st.sampled_from(MESSAGE_TYPES), size=st.integers(-1, 1))
    def any_message(self, who, mtype, size):
        self._deliver(who, encode_message(_wire_message(mtype, max(self.n + size, 0))))

    @precondition(lambda self: not self.ended)
    @rule(who=_SENDERS, line=_JUNK_LINES)
    def junk(self, who, line):
        self._deliver(who, line)

    @precondition(lambda self: not self.ended)
    @rule(who=_SENDERS)
    def hang_up(self, who):
        self.ended = self.session.hang_up(self._conn(who))

    @invariant()
    def transcript_is_ordered_and_private(self):
        assert self.session.transcript.check_ordering()
        assert self.session.transcript.check_visibility()

    @invariant()
    def a_finished_transcript_loads_back_as_written(self):
        if not self.ended:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            self.session.transcript.write(path)
            loaded = SessionTranscript.load(path).entries
            assert loaded == self.session.transcript.entries
            assert [e.line for e in loaded] == [e.line for e in self.session.transcript.entries]

    @invariant()
    def session_ends_exactly_once(self):
        entries = self.session.transcript.entries
        endings = [(_ending(e), e) for e in entries if _ending(e)]
        if not self.ended:
            assert endings == []
            return
        ((kind, entry),) = endings
        assert entry is entries[-1]
        assert self.session.finished == (kind == "decision") != self.session.transcript.violated
        _ENDINGS[kind] += 1


def test_referee_survives_any_message_sequence():
    _ENDINGS.clear()
    run_state_machine_as_test(RefereeFuzz, settings=settings(
        derandomize=True, database=None, max_examples=300, stateful_step_count=20,
        deadline=None))
    # The fixed examples reach every kind of ending.
    assert set(_ENDINGS) == {"decision", "violation", "party error"}, _ENDINGS


def test_referee_rejects_a_bad_noise_rate_before_binding():
    addr = free_address()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="noise_rate"):
        referee_serve(addr, noise_rate=1.5, timeout=5.0)
    assert time.perf_counter() - start < 1.0  # no session was waited for
    with socket.socket() as probe:
        probe.bind(parse_address(addr))


def test_party_with_bad_parameters_exits_one_before_connecting():
    addr = free_address()  # nobody listens here
    for role, kwargs, cause in (
        ("bob", dict(n=-1), "n must be"),
        ("alice", dict(n=8, bit=2), "committed_bit"),
        ("alice", dict(n=8, error_fraction=1.5), "error_fraction"),
    ):
        result = party_run(role, addr, timeout=2, **kwargs)
        assert result.exit_code == 1
        assert cause in result.diagnostic, result.diagnostic
    with pytest.raises(ValueError, match="^role must be alice or bob, got 'carol'$"):
        party_run("carol", addr, n=8, timeout=2)


# -- socket failures, on fake sockets ----------------------------------------------

class _FailingSocket:
    """A socket whose ``recv`` hands out ``chunks`` and then fails, and whose
    ``sendall`` fails when ``send_error`` is set; it counts its sends."""

    def __init__(self, chunks=(), send_error=None, read_error=None):
        self.chunks = list(chunks)
        self.send_error = send_error
        self.read_error = read_error
        self.sends = 0
        self.closed = False

    def recv(self, _size):
        if self.chunks:
            return self.chunks.pop(0)
        raise OSError("connection reset")

    def sendall(self, _data):
        self.sends += 1
        if self.send_error:
            raise self.send_error

    def settimeout(self, _timeout):
        pass

    def setsockopt(self, *_args):
        pass

    def makefile(self, _mode):
        return self

    def readline(self):
        raise self.read_error

    def close(self):
        self.closed = True


class _FakeSelector:
    def __init__(self):
        self.registered = set()

    def register(self, sock, _events, _data=None):
        self.registered.add(sock)

    def unregister(self, sock):
        self.registered.remove(sock)


def test_a_failed_recv_reads_as_a_hang_up():
    # An unterminated last line still counts, then the failure reads as the end.
    conn = _Conn(_FailingSocket([b"{}\n{", b"}"]), _FakeSelector())
    assert conn.read_lines() == [b"{}"]
    assert conn.read_lines() == []
    assert conn.read_lines() == [b"{}"]
    assert conn.read_lines() is None


def test_a_failed_send_closes_the_connection_and_later_sends_are_dropped():
    sock, selector = _FailingSocket(send_error=BrokenPipeError("gone")), _FakeSelector()
    conn = _Conn(sock, selector)
    conn.send(b"{}\n")
    assert not conn.open and sock.closed and selector.registered == set()
    conn.send(b"{}\n")
    assert sock.sends == 1


class _FlakyListener:
    """A listening socket whose first ``accept`` fails."""

    def __init__(self, sock):
        self.sock = sock
        self.accepts = 0

    def fileno(self):
        return self.sock.fileno()

    def accept(self):
        self.accepts += 1
        if self.accepts == 1:
            raise ConnectionAbortedError("the peer gave up")
        return self.sock.accept()


def test_a_failed_accept_leaves_the_session_running():
    session = _RefereeSession(seed=3, noise_rate=0.0)
    with socket.create_server(("127.0.0.1", 0)) as server, \
            selectors.DefaultSelector() as selector, \
            socket.create_connection(server.getsockname(), timeout=5) as bob:
        server.setblocking(False)
        listener = _FlakyListener(server)
        selector.register(listener, selectors.EVENT_READ)
        bob.sendall(encode_message(hello_message("bob")).encode())
        bob.shutdown(socket.SHUT_WR)
        try:
            _serve_session(session, listener, selector, timeout=5.0)
        finally:
            for key in list(selector.get_map().values()):
                if key.data is not None:
                    key.data.close()
    assert listener.accepts == 2
    assert [(entry.direction, entry.message) for entry in session.transcript.entries] == [
        ("bob->referee", hello_message("bob")),
        ("referee->bob", hello_message("referee")),
        ("bob->referee", error_message("connection closed unexpectedly")),
    ]


@pytest.mark.parametrize("role", ["alice", "bob"])
@pytest.mark.parametrize("failure, cause", [
    (dict(send_error=BrokenPipeError("gone")), "send failed: gone"),
    (dict(read_error=ConnectionResetError("reset")), "receive failed: reset"),
])
def test_a_party_whose_socket_fails_exits_one(monkeypatch, role, failure, cause):
    sock = _FailingSocket(**failure)
    monkeypatch.setattr(referee_module.socket, "create_connection", lambda *_a, **_k: sock)
    result = party_run(role, "127.0.0.1:9", n=8, timeout=2)
    assert result.exit_code == 1 and result.diagnostic == cause
    assert sock.closed


# -- live sessions ----------------------------------------------------------------
# Every live session of the suite runs on these: the referee on a thread, then
# each party on its own thread.

def free_address() -> str:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{s.getsockname()[1]}"


class Referee:
    """``serve(addr)`` on a thread at a free local address; by default
    ``referee_serve`` with ``options``.

    Returns once the referee's listener accepts: it connects until it is
    let in and closes at once, without a line, which the referee drops
    without a record.
    """

    def __init__(self, serve=None, **options):
        self.addr = free_address()
        serve = serve or (lambda addr: referee_serve(addr, **{"timeout": 10.0, **options}))
        self._thread = threading.Thread(
            target=lambda: setattr(self, "_result", serve(self.addr)), daemon=True)
        self._thread.start()
        for _ in range(1000):
            try:
                socket.create_connection(parse_address(self.addr), timeout=5).close()
                return
            except ConnectionRefusedError:
                assert self._thread.is_alive(), "the referee returned before listening"
                self._thread.join(0.005)
        raise AssertionError(f"no referee listening at {self.addr}")

    def result(self):
        """What ``serve`` returned (a transcript, or the CLI's exit code)."""
        self._thread.join(15)
        assert not self._thread.is_alive()
        return self._result


def run_parties(addr, **parties):
    """Run each ``party(addr)`` on its own thread; their results by name."""
    results = {}
    threads = [threading.Thread(target=lambda name=name, party=party: results.setdefault(
        name, party(addr))) for name, party in parties.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join(15)
    assert not any(t.is_alive() for t in threads)
    return results


def session_parties(config):
    """Bob and Alice of ``config``, each with the options that belong to it."""
    common = dict(n=config.n, seed=config.seed, timeout=10)
    return dict(
        bob=lambda addr: party_run("bob", addr, policy=config.policy, **common),
        alice=lambda addr: party_run("alice", addr, bit=config.committed_bit,
                                     error_fraction=config.error_fraction,
                                     error_mode=config.error_mode, **common),
    )


def live_session(config, transcript_path=None):
    """Serve one session of ``config`` and run both parties: their results,
    the referee's transcript, and the parties' wall time."""
    referee = Referee(seed=config.seed, noise_rate=config.noise_rate,
                      transcript_path=transcript_path)
    start = time.perf_counter()
    outcomes = run_parties(referee.addr, **session_parties(config))
    wall = time.perf_counter() - start
    return outcomes, referee.result(), wall


def _raw_client(addr):
    host, port = parse_address(addr)
    sock = socket.create_connection((host, port), timeout=5)
    sock.settimeout(5)
    return sock, sock.makefile("r", encoding="utf-8", newline="\n")


def test_wire_session_matches_in_process_run(tmp_path):
    config = SessionConfig(n=256, committed_bit=1, error_fraction=0.5, seed=1234)
    outcomes, transcript, _wall = live_session(config, tmp_path / "t.jsonl")
    inproc = run_honest_session(config)
    bob_result, alice_result = outcomes["bob"], outcomes["alice"]
    assert bob_result.exit_code == 0 and alice_result.exit_code == 0
    assert bob_result.decision is inproc.decision
    assert alice_result.decision is inproc.decision
    assert bob_result.alignment == inproc.alignment
    assert bob_result.raw_direct == inproc.raw_direct_correlation
    assert bob_result.raw_reverse == inproc.raw_reverse_correlation
    assert not transcript.violated
    assert transcript.outcome == inproc.decision.value
    assert transcript.check_ordering()
    assert transcript.check_visibility()
    # the file round-trips to the same transcript
    loaded = SessionTranscript.load(tmp_path / "t.jsonl")
    assert loaded.entries == transcript.entries


def test_measure_before_prepare_is_an_ordering_violation():
    referee = Referee(timeout=5.0)
    sock, rfile = _raw_client(referee.addr)
    try:
        sock.sendall(encode_message(hello_message("alice")).encode())
        # fire measure without waiting for the channel-ready hello
        sock.sendall(encode_message(measure_message([0, 1])).encode())
        reply = parse_message(rfile.readline())
        assert reply["type"] == "error"
        assert "out-of-order" in reply["message"]
    finally:
        sock.close()
    transcript = referee.result()
    assert transcript.violated
    assert transcript.outcome is None


def test_duplicate_role_is_rejected():
    referee = Referee(timeout=5.0)
    first, first_file = _raw_client(referee.addr)
    second, second_file = _raw_client(referee.addr)
    try:
        first.sendall(encode_message(hello_message("alice")).encode())
        time.sleep(0.1)  # ensure registration order
        second.sendall(encode_message(hello_message("alice")).encode())
        reply = parse_message(second_file.readline())
        assert reply["type"] == "error"
        assert "rejected" in reply["message"]
        assert second_file.readline() == ""  # connection closed
    finally:
        second_file.close()
        second.close()
        # The registered party drops (its file holds the socket open too),
        # and that hang-up, not the timeout, ends the session.
        first_file.close()
        first.close()
    transcript = referee.result()
    assert transcript.violated
    last = transcript.entries[-1]
    assert last.direction == "alice->referee"
    assert last.message == error_message("connection closed unexpectedly")


def test_a_last_line_without_newline_is_handled_before_the_hang_up():
    referee = Referee(timeout=5.0)
    sock, rfile = _raw_client(referee.addr)
    with sock, rfile:
        sock.sendall(encode_message(hello_message("bob")).rstrip("\n").encode())
        sock.shutdown(socket.SHUT_WR)
        assert parse_message(rfile.readline()) == hello_message("referee")
        assert rfile.readline() == ""
    entries = referee.result().entries
    assert [(e.direction, e.message) for e in entries] == [
        ("bob->referee", hello_message("bob")),
        ("referee->bob", hello_message("referee")),
        ("bob->referee", error_message("connection closed unexpectedly")),
    ]


def _turn_away(addr, line):
    """Connect, send ``line``, and return the referee's refusal once it has
    closed the connection."""
    sock, rfile = _raw_client(addr)
    with sock, rfile:
        sock.sendall(line + b"\n")
        reply = parse_message(rfile.readline())
        assert rfile.readline() == ""
    return reply


def test_a_session_completes_after_strangers_are_turned_away():
    # Each stranger is gone before the next connects, so the referee
    # accepts the next on the descriptor number the last one had.
    config = SessionConfig(n=64, committed_bit=1, seed=21)
    referee = Referee(seed=config.seed)
    for _ in range(2):
        refusal = _turn_away(referee.addr, _line(hello_message("referee")))
        assert refusal == error_message("role 'referee' rejected")
    for line in HOSTILE_LINES:
        refusal = _turn_away(referee.addr, line)
        assert refusal["message"].startswith("bad message: not valid JSON: ")
    line, name = REPEATED_FIELDS[0]
    assert _turn_away(referee.addr, line) == error_message(f"bad message: repeated field '{name}'")
    outcomes = run_parties(referee.addr, **session_parties(config))
    assert outcomes["bob"].decision is run_honest_session(config).decision
    assert outcomes["alice"].exit_code == 0
    assert referee.result().outcome == outcomes["bob"].decision.value


def test_a_party_line_that_repeats_a_field_ends_the_session():
    referee = Referee(timeout=5.0)
    sock, rfile = _raw_client(referee.addr)
    with sock, rfile:
        sock.sendall(encode_message(hello_message("bob")).encode())
        assert parse_message(rfile.readline()) == hello_message("referee")
        sock.sendall(b'{"type":"prepare","codes":"0123","codes":"0"}\n')
        reply = parse_message(rfile.readline())
    assert reply == error_message("bad message: repeated field 'codes'")
    transcript = referee.result()
    assert transcript.violated and transcript.outcome is None
    assert transcript.entries[-1].message == reply


def test_a_connection_that_closes_without_a_line_leaves_no_record():
    # The runner's readiness wait relies on this: such a connection is
    # dropped unrecorded, and the session it came before goes on.
    config = SessionConfig(n=64, committed_bit=1, error_fraction=0.25, seed=23)
    referee = Referee(seed=config.seed)
    socket.create_connection(parse_address(referee.addr), timeout=5).close()
    outcomes = run_parties(referee.addr, **session_parties(config))
    transcript, decision = referee.result(), run_honest_session(config).decision
    assert outcomes["bob"].decision is outcomes["alice"].decision is decision
    assert not transcript.violated and transcript.outcome == decision.value
    # Two hellos, their acknowledgements and the nine lines of the session,
    # all between the referee and a party.
    assert len(transcript.entries) == 13
    assert {e.direction for e in transcript.entries} == {
        "alice->referee", "referee->alice", "bob->referee", "referee->bob"}


def test_a_connection_after_both_parties_is_turned_away(monkeypatch):
    # Alice stops once the referee has acknowledged her, which it does only
    # when both parties are registered; a third connection arrives then.
    registered, go = threading.Event(), threading.Event()

    def choose_when_told(n, gen):
        registered.set()
        assert go.wait(10)
        return choose_random_bases(n, gen)

    monkeypatch.setattr(referee_module, "choose_random_bases", choose_when_told)
    config = SessionConfig(n=64, committed_bit=0, error_fraction=0.25, seed=22)
    referee, outcomes = Referee(seed=config.seed), {}
    runner = threading.Thread(target=lambda: outcomes.update(
        run_parties(referee.addr, **session_parties(config))))
    runner.start()
    try:
        assert registered.wait(10)
        time.sleep(0.2)  # well after both registered, not in the same instant
        refusal = _turn_away(referee.addr, _line(hello_message("alice")))
        assert refusal == error_message("role 'alice' rejected")
    finally:
        go.set()
    runner.join(15)
    assert not runner.is_alive()
    transcript = referee.result()
    assert outcomes["alice"].exit_code == 0 and outcomes["bob"].exit_code == 0
    assert outcomes["bob"].decision is run_honest_session(config).decision
    assert transcript.entries[-1].message == decision_message(outcomes["bob"].decision.value)
    assert ("referee->unknown", error_message("role 'alice' rejected")) in [
        (e.direction, e.message) for e in transcript.entries]


def test_referee_releases_its_port_on_return():
    # The listener is gone when referee_serve returns, so the same port can
    # be bound again at once (a fresh referee on a fixed port relies on it).
    addr = free_address()
    transcript = referee_serve(addr, timeout=0.3)
    assert transcript.violated
    with socket.socket() as again:
        again.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        again.bind(parse_address(addr))
        again.listen(1)


def test_party_without_referee_exits_one():
    result = party_run("bob", free_address(), n=8, timeout=2)
    assert result.exit_code == 1
    assert "refused" in result.diagnostic or "failed" in result.diagnostic


def _run_against_fake_referee(role, *replies):
    """Run a party against a referee that swallows its hello and sends
    ``replies`` raw; the party's result."""
    listener = socket.create_server(("127.0.0.1", 0))

    def fake_referee():
        conn, _ = listener.accept()
        conn.settimeout(5)
        with conn, conn.makefile("rb") as rfile:
            rfile.readline()  # swallow the hello
            for reply in replies:
                conn.sendall(reply)
            # Hold the connection open until the party hangs up, so that what
            # it still sends (Bob's prepare) meets an open socket.
            with contextlib.suppress(OSError):
                rfile.read()

    thread = threading.Thread(target=fake_referee, daemon=True)
    thread.start()
    with listener:
        result = party_run(role, f"127.0.0.1:{listener.getsockname()[1]}", n=4, timeout=3)
        thread.join(5)
    assert result.exit_code == 1
    return result


def test_party_on_malformed_referee_exits_one():
    result = _run_against_fake_referee("alice", b"{this is not json\n")
    assert "JSON" in result.diagnostic or "valid" in result.diagnostic
    for line in HOSTILE_LINES:
        result = _run_against_fake_referee("bob", line + b"\n")
        assert result.diagnostic.startswith("not valid JSON: "), result.diagnostic
    for role, (line, name) in zip(("alice", "bob"), REPEATED_FIELDS):
        result = _run_against_fake_referee(role, line + b"\n")
        assert result.diagnostic == f"repeated field '{name}'"


def test_party_on_a_referee_line_that_is_not_utf8_exits_one():
    result = _run_against_fake_referee(
        "alice", encode_message(hello_message("referee")).encode(), b"\xff\n")
    assert result.diagnostic.startswith("not valid UTF-8: "), result.diagnostic


def test_party_refuses_a_referee_of_another_wire_format():
    result = _run_against_fake_referee("bob", b'{"type":"hello","role":"referee"}\n')
    assert result.diagnostic == (f"referee speaks wire format 1, "
                                 f"this party speaks format {FORMAT}")


@pytest.mark.parametrize("commit_bits,unveil_bases,expected", (
    ([0, 1, 1], [0, 1, 1, 0], "commit bits has 3 digits, expected 4"),
    ([0, 1, 1, 0], [1], "unveil bases has 1 digits, expected 4"),
))
def test_bob_refuses_payloads_of_another_size(commit_bits, unveil_bases, expected):
    # Plain arrays would broadcast a 1-digit payload against n photons.
    result = _run_against_fake_referee(
        "bob", *(encode_message(msg).encode() for msg in (
            hello_message("referee"), commit_message(commit_bits), unveil_message(unveil_bases))))
    assert result.diagnostic == expected


@pytest.mark.parametrize("role,message,expected", (
    ("alice", decision_message("bit0"), "expected outcomes, got decision"),
    ("bob", unveil_message([0, 1, 1, 0]), "expected commit, got unveil"),
))
def test_party_refuses_a_message_of_another_type(role, message, expected):
    result = _run_against_fake_referee(
        role, *(encode_message(msg).encode() for msg in (hello_message("referee"), message)))
    assert result.diagnostic == expected


def test_mismatched_session_sizes_abort():
    # alice announces fewer bases than bob prepared photons (in either
    # connection order: the referee lets her measure only once they exist)
    referee = Referee(timeout=6.0)
    outcomes = run_parties(
        referee.addr,
        bob=lambda addr: party_run("bob", addr, n=16, seed=5, timeout=6),
        alice=lambda addr: party_run("alice", addr, n=8, seed=5, timeout=6),
    )
    assert outcomes["alice"].exit_code == 1
    assert "size mismatch" in outcomes["alice"].diagnostic
    assert referee.result().violated


def test_wire_equivalence_across_parameters():
    # includes the scripted error-free committed-1 session at n=256, a
    # flip-mode session, and one whose policy (floor 0.9) suspects a cheat
    # where the default policy reads bit 1
    strict = DecisionPolicy(separation_delta=0.2, plausibility_floor=0.9, min_sift=16)
    configs = (
        SessionConfig(n=256, committed_bit=1, error_fraction=0.0, seed=2),
        SessionConfig(n=128, committed_bit=0, error_fraction=0.25, seed=3),
        SessionConfig(n=256, committed_bit=1, error_fraction=0.25, noise_rate=0.1, seed=4),
        SessionConfig(n=256, committed_bit=0, error_fraction=0.25, error_mode="flip", seed=5),
        SessionConfig(n=256, committed_bit=1, error_fraction=0.5, policy=strict, seed=6),
    )
    for config in configs:
        outcomes, _transcript, _wall = live_session(config)
        inproc = run_honest_session(config)
        assert outcomes["bob"].decision is inproc.decision
        assert outcomes["alice"].decision is inproc.decision
        assert outcomes["bob"].alignment == inproc.alignment
        assert outcomes["bob"].raw_direct == inproc.raw_direct_correlation
        if (config.n, config.committed_bit, config.error_fraction) == (256, 1, 0.0):
            assert outcomes["bob"].decision is Decision.BIT1
        # The options reached the parties: the defaults give another session.
        defaults = dataclasses.replace(config, error_mode="randomize", policy=DecisionPolicy())
        if config.error_mode == "flip":
            assert run_honest_session(defaults).alignment != inproc.alignment
        if config.policy is strict:
            assert inproc.decision is Decision.CHEAT_SUSPECTED
            assert run_honest_session(defaults).decision is Decision.BIT1


def test_alice_commit_message_masks_a_quarter_of_her_outcomes(tmp_path):
    # With half the results randomized and a direct-order commitment, the
    # commit message differs from the outcomes message in about n/4
    # positions (each selected result changes with probability 1/2).
    n, e, seed = 2000, 0.5, 606
    _outcomes, transcript, _wall = live_session(
        SessionConfig(n=n, committed_bit=0, error_fraction=e, seed=seed),
        transcript_path=tmp_path / "t.jsonl",
    )

    by_type = {}
    for entry in transcript.entries:
        by_type.setdefault(entry.message.get("type"), entry.message)
    outcomes = unpack_digits(by_type["outcomes"]["bits"])
    committed = unpack_digits(by_type["commit"]["bits"])
    distance = int(np.sum(outcomes != committed))
    sigma = (n / 8) ** 0.5  # Binomial(n/2, 1/2) changes
    assert abs(distance - n / 4) <= 4 * sigma


def _fastest_of_three(n, seeds):
    walls = []
    for seed in seeds:
        outcomes, _transcript, wall = live_session(
            SessionConfig(n=n, committed_bit=1, seed=seed))
        assert outcomes["bob"].exit_code == 0 and outcomes["alice"].exit_code == 0
        walls.append(wall)
    return min(walls), walls


def test_small_sessions_do_not_wait_on_delayed_acks():
    # A session at n = 256 is about a millisecond of work; with Nagle's
    # algorithm on, back-to-back small writes stall on delayed ACKs and
    # every session takes 40 ms or more.
    fastest, walls = _fastest_of_three(256, (31, 32, 33))
    assert fastest < 0.025, walls


def test_large_sessions_are_not_codec_bound():
    # At n = 100 000 the protocol work takes a few ms.  With one JSON
    # number or object per photon, the codec made a session take ~0.5 s;
    # packed payloads bring it to ~10-25 ms.
    fastest, walls = _fastest_of_three(100_000, (41, 42, 43))
    assert fastest < 0.150, walls
