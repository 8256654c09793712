"""Line-delimited JSON wire format and session transcripts.

Every message is a single UTF-8 JSON object on one line, with a mandatory
"type" field.  Known types and their payloads:

    hello    {"role": "alice" | "bob" | "referee"}
    prepare  {"states": [{"basis": 0|1, "bit": 0|1}, ...]}
    measure  {"bases": [0|1, ...]}
    outcomes {"bits": [0|1, ...]}
    commit   {"bits": [0|1, ...]}
    unveil   {"bases": [0|1, ...]}
    decision {"value": "bit0"|"bit1"|"ambiguous"|"cheat_suspected"}
    error    {"message": "..."}

Basis codes follow the canonical table (0 rectilinear, 1 diagonal).  The
transcript log is the same format with "dir" and "seq" fields added, one
line per message in arrival/send order; the session outcome and any
violation are recovered from the decision/error lines rather than stored
separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .channel import PreparedSequence

MESSAGE_TYPES = (
    "hello",
    "prepare",
    "measure",
    "outcomes",
    "commit",
    "unveil",
    "decision",
    "error",
)

ROLES = ("alice", "bob", "referee")

#: The session-content steps, as (sender, message type), in the only order
#: the referee accepts them (hello handshakes and errors are not steps).
SESSION_SCRIPT = (
    ("bob", "prepare"),
    ("alice", "measure"),
    ("referee", "outcomes"),
    ("alice", "commit"),
    ("alice", "unveil"),
    ("bob", "decision"),
)

#: Required protocol order of the session-content message types.
PROTOCOL_ORDER = tuple(mtype for _sender, mtype in SESSION_SCRIPT)


class WireProtocolError(Exception):
    """A malformed, unknown, or out-of-order wire message."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WireProtocolError(message)


def _check_code_list(values, what: str) -> None:
    _require(isinstance(values, list), f"{what} must be a list")
    _require(all(isinstance(v, int) and v in (0, 1) for v in values),
             f"{what} entries must be 0 or 1")


def validate_message(msg: dict) -> dict:
    """Check a decoded object against the per-type payload schema."""
    _require(isinstance(msg, dict), "message must be a JSON object")
    mtype = msg.get("type")
    _require(mtype in MESSAGE_TYPES, f"unknown message type {mtype!r}")
    if mtype == "hello":
        _require(msg.get("role") in ROLES, "hello requires a valid role")
    elif mtype == "prepare":
        states = msg.get("states")
        _require(isinstance(states, list), "prepare requires a states list")
        for s in states:
            _require(isinstance(s, dict), "prepare states must be objects")
            _require(s.get("basis") in (0, 1), "state basis must be 0 or 1")
            _require(s.get("bit") in (0, 1), "state bit must be 0 or 1")
    elif mtype in ("measure", "unveil"):
        _check_code_list(msg.get("bases"), f"{mtype} bases")
    elif mtype in ("outcomes", "commit"):
        _check_code_list(msg.get("bits"), f"{mtype} bits")
    elif mtype == "decision":
        _require(
            msg.get("value") in ("bit0", "bit1", "ambiguous", "cheat_suspected"),
            "decision requires a valid value",
        )
    else:  # error
        _require(isinstance(msg.get("message"), str), "error requires a message string")
    return msg


def encode_message(msg: dict) -> str:
    """One message, one line."""
    return json.dumps(msg, separators=(",", ":")) + "\n"


def parse_message(line: str) -> dict:
    """Decode and validate one wire line."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WireProtocolError(f"not valid JSON: {exc}") from exc
    return validate_message(obj)


def hello_message(role: str) -> dict:
    return validate_message({"type": "hello", "role": role})


def prepare_message(seq: PreparedSequence) -> dict:
    states = [
        {"basis": int(b), "bit": int(v)} for b, v in zip(seq.bases, seq.bits)
    ]
    return {"type": "prepare", "states": states}


def measure_message(bases) -> dict:
    return {"type": "measure", "bases": [int(b) for b in bases]}


def outcomes_message(bits) -> dict:
    return {"type": "outcomes", "bits": [int(b) for b in bits]}


def commit_message(bits) -> dict:
    return {"type": "commit", "bits": [int(b) for b in bits]}


def unveil_message(bases) -> dict:
    return {"type": "unveil", "bases": [int(b) for b in bases]}


def decision_message(value: str) -> dict:
    return validate_message({"type": "decision", "value": value})


def error_message(text: str) -> dict:
    return {"type": "error", "message": text}


@dataclass(frozen=True)
class TranscriptEntry:
    seq: int
    direction: str  # e.g. "alice->referee" or "referee->bob"
    message: dict

    @property
    def sender(self) -> str:
        return self.direction.split("->", 1)[0]

    @property
    def recipient(self) -> str:
        return self.direction.split("->", 1)[1]


@dataclass
class SessionTranscript:
    """Ordered log of an entire referee session."""

    entries: list[TranscriptEntry] = field(default_factory=list)

    def record(self, direction: str, message: dict) -> None:
        self.entries.append(
            TranscriptEntry(seq=len(self.entries), direction=direction, message=message)
        )

    @property
    def outcome(self) -> str | None:
        """The decoded decision value, if the session reached one."""
        for entry in self.entries:
            if entry.message.get("type") == "decision":
                return entry.message["value"]
        return None

    @property
    def violated(self) -> bool:
        """True when the referee emitted any error message."""
        return any(e.message.get("type") == "error" for e in self.entries)

    def check_ordering(self) -> bool:
        """Session-content messages must appear in protocol order.

        A message the referee refused, answering its sender at once with an
        error, never entered the session and is not ranked.
        """
        rank = {name: i for i, name in enumerate(PROTOCOL_ORDER)}
        last = -1
        for entry, reply in zip(self.entries, self.entries[1:] + [None]):
            r = rank.get(entry.message.get("type"))
            refused = reply is not None and reply.message.get("type") == "error" \
                and reply.direction == f"referee->{entry.sender}"
            if r is None or refused:
                continue
            if r < last:
                return False
            last = r
        return True

    def check_visibility(self) -> bool:
        """Preparation data must never reach alice, nor basis choices bob."""
        for entry in self.entries:
            mtype = entry.message.get("type")
            if mtype == "prepare" and entry.recipient == "alice":
                return False
            if mtype == "measure" and entry.recipient == "bob":
                return False
        return True

    def write(self, path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            for entry in self.entries:
                line = {"seq": entry.seq, "dir": entry.direction, **entry.message}
                handle.write(json.dumps(line, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path) -> "SessionTranscript":
        transcript = cls()
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            seq = obj.pop("seq")
            direction = obj.pop("dir")
            transcript.entries.append(
                TranscriptEntry(seq=seq, direction=direction, message=obj)
            )
        return transcript
