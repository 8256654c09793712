"""Line-delimited JSON wire format 2 and session transcripts.

Every message is a single UTF-8 JSON object on one line, with a mandatory
"type" field.  Known types and their payloads:

    hello    {"role": "alice" | "bob" | "referee", "format": 2}
    prepare  {"codes": "0312..."}      one digit 2*basis + bit per photon
    measure  {"bases": "0110..."}      one digit per photon
    outcomes {"bits": "1001..."}
    commit   {"bits": "1001..."}
    unveil   {"bases": "0110..."}
    decision {"value": "bit0"}         a ``protocol.Decision`` value
    error    {"message": "..."}

Per-photon payloads are packed: one ASCII digit per photon, in
transmission order.  Basis codes follow the canonical table (0
rectilinear, 1 diagonal), and a prepare code splits as basis = code // 2,
bit = code % 2.  A payload is a JSON string and nothing else: lists,
numbers, booleans and any character outside its digit range are refused
by name.  A hello without a "format" field is a format-1 hello (format 1
sent one JSON number or object per photon); the referee refuses any
format but ``FORMAT``.

The transcript log has one line per message in arrival/send order: the
message's line exactly as it was sent, prefixed with "seq" and "dir"
fields.  A party's line is logged as the referee received it, and a line
the referee makes is logged as it sent it.  Those two names are
transcript fields, so a message that carries either is refused.  The
last line of a finished session is what ended it, the decision relayed to
the committer or the error that stopped the session, so the outcome and
any abort are read from that line rather than stored separately.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import PreparedSequence
from .protocol import Decision

#: The wire format this module speaks; a hello carries it.
FORMAT = 2

ROLES = ("alice", "bob", "referee")

#: The receiver's verdicts, as a decision message names them.
DECISIONS = tuple(d.value for d in Decision)

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

#: Every message type: the hello handshake, the session steps, and error.
MESSAGE_TYPES = ("hello", *PROTOCOL_ORDER, "error")


class WireProtocolError(Exception):
    """A malformed, unknown, or out-of-order wire message."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WireProtocolError(message)


#: Packed payloads: message type -> (field, highest digit).
PACKED_FIELDS = {
    "prepare": ("codes", 3),
    "measure": ("bases", 1),
    "outcomes": ("bits", 1),
    "commit": ("bits", 1),
    "unveil": ("bases", 1),
}

_ZERO = np.uint8(ord("0"))


def pack_digits(values) -> str:
    """Small integer codes (bits, basis codes, state codes) as one digit each."""
    return (np.asarray(values, dtype=np.uint8) + _ZERO).tobytes().decode("ascii")


def unpack_digits(text: str) -> np.ndarray:
    """The codes of a validated packed payload, as a uint8 array."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - _ZERO


def _packed(value, top: int) -> bool:
    """True for an ASCII string of digits 0 to ``top``."""
    # Bytes below '0' wrap around in uint8, so one comparison bounds both ends.
    return isinstance(value, str) and value.isascii() and (
        not value or int(unpack_digits(value).max()) <= top)


def validate_message(msg: dict) -> dict:
    """Check a decoded object against the per-type payload schema."""
    _require(isinstance(msg, dict), "message must be a JSON object")
    for name in ("seq", "dir"):
        _require(name not in msg, f"{name!r} is a transcript field, not a message field")
    mtype = msg.get("type")
    _require(mtype in MESSAGE_TYPES, f"unknown message type {mtype!r}")
    if mtype == "hello":
        _require(msg.get("role") in ROLES, "hello requires a valid role")
        _require("format" not in msg or type(msg["format"]) is int,
                 "hello format must be an integer")
    elif mtype in PACKED_FIELDS:
        name, top = PACKED_FIELDS[mtype]
        _require(_packed(msg.get(name), top), f"{mtype} {name} must be a string of digits 0-{top}")
    elif mtype == "decision":
        _require(msg.get("value") in DECISIONS, "decision requires a valid value")
    else:  # error
        _require(isinstance(msg.get("message"), str), "error requires a message string")
    return msg


def encode_message(msg: dict) -> str:
    """One message, one line, as ``json.dumps`` with compact separators.

    Digits need no escaping, so a packed payload that is the last field is
    spliced in after the others instead of passing through the encoder.
    """
    mtype = msg.get("type")
    name, top = PACKED_FIELDS.get(mtype, (None, 0)) if isinstance(mtype, str) else (None, 0)
    if name is None or next(reversed(msg)) != name or not _packed(msg[name], top):
        return json.dumps(msg, separators=(",", ":")) + "\n"
    rest = json.dumps({k: v for k, v in msg.items() if k != name}, separators=(",", ":"))
    return f'{rest[:-1]},"{name}":"{msg[name]}"}}\n'


def _fields(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object's fields.  A repeated name is refused: ``json.loads``
    keeps the last, so a reader that keeps the first would see another message."""
    fields = {}
    for name, value in pairs:
        _require(name not in fields, f"repeated field {name!r}")
        fields[name] = value
    return fields


#: Built once, as ``json.loads`` builds its default decoder: a decoder built
#: per line costs more than decoding a short line.
_DECODER = json.JSONDecoder(object_pairs_hook=_fields)


def parse_message(line: str | bytes) -> dict:
    """Decode and validate one wire line, as text or as the bytes received.

    Any line fails as a ``WireProtocolError``: one nested too deep for the
    decoder, or holding an integer too long for ``int``, is not valid JSON,
    and one that repeats a field name within an object is refused by name.
    """
    try:
        obj = _DECODER.decode(line.decode("utf-8") if isinstance(line, bytes) else line)
    except UnicodeDecodeError as exc:
        raise WireProtocolError(f"not valid UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise WireProtocolError(f"not valid JSON: {exc}") from exc
    return validate_message(obj)


def hello_message(role: str) -> dict:
    return validate_message({"type": "hello", "role": role, "format": FORMAT})


def prepare_message(seq: PreparedSequence) -> dict:
    return {"type": "prepare", "codes": pack_digits((seq.bases << 1) | seq.bits)}


def measure_message(bases) -> dict:
    return {"type": "measure", "bases": pack_digits(bases)}


def outcomes_message(bits) -> dict:
    return {"type": "outcomes", "bits": pack_digits(bits)}


def commit_message(bits) -> dict:
    return {"type": "commit", "bits": pack_digits(bits)}


def unveil_message(bases) -> dict:
    return {"type": "unveil", "bases": pack_digits(bases)}


def decision_message(value: str) -> dict:
    return validate_message({"type": "decision", "value": value})


def error_message(text: str) -> dict:
    return {"type": "error", "message": text}


@dataclass(frozen=True)
class TranscriptEntry:
    seq: int
    direction: str  # e.g. "alice->referee" or "referee->bob"
    message: dict
    #: The message's wire line as sent, without its newline.
    line: bytes = field(compare=False, repr=False)

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

    def record(self, direction: str, message: dict, line: bytes | None = None) -> None:
        """Log a message with its wire line as sent; without one it is encoded."""
        if line is None:
            line = encode_message(message)[:-1].encode("utf-8")
        self.entries.append(TranscriptEntry(len(self.entries), direction, message, line))

    @property
    def outcome(self) -> str | None:
        """The decision value, if the last entry is a decision.

        In a finished session the last entry is what ended it: the decision
        relayed to the committer, or the error that stopped the session.
        """
        last = self.entries[-1].message if self.entries else {}
        return last["value"] if last.get("type") == "decision" else None

    @property
    def violated(self) -> bool:
        """True when a finished session ended in anything but a decision."""
        return self.outcome is None

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
        """One line per entry: its seq and dir, then the fields of its wire line."""
        parts = []
        for entry in self.entries:
            # Directions are ASCII role names, so nothing needs escaping.
            parts += (b'{"seq":%d,"dir":"%s",' % (entry.seq, entry.direction.encode()),
                      memoryview(entry.line)[1:], b"\n")
        Path(path).write_bytes(b"".join(parts))

    @classmethod
    def load(cls, path) -> "SessionTranscript":
        """Read a written transcript; each entry keeps its wire line's bytes.

        Lines end at "\\n" alone: a logged party line may hold other line
        breaks, such as "\\r" between tokens or U+2028 inside a string.  Each
        line is decoded as ``parse_message`` decodes a wire line, so one that
        repeats a field name is refused by line number and field.
        """
        transcript = cls()
        for number, line in enumerate(Path(path).read_bytes().split(b"\n"), 1):
            if not line.strip():
                continue
            head = _WRITTEN_HEAD.match(line)
            if head is None:
                raise ValueError(f"transcript line {number} does not begin with its seq and dir")
            wire = b"{" + line[head.end():]
            try:
                message = _DECODER.decode(wire.decode("utf-8"))
            except WireProtocolError as exc:  # a repeated field, as parse_message refuses it
                raise ValueError(f"transcript line {number}: {exc}") from exc
            except (ValueError, RecursionError) as exc:  # as in parse_message
                raise ValueError(f"transcript line {number} is not valid JSON: {exc}") from exc
            entry = TranscriptEntry(int(head[1]), head[2].decode(), message, wire)
            transcript.entries.append(entry)
        return transcript


#: The start ``SessionTranscript.write`` gives each line, before the wire line's fields.
_WRITTEN_HEAD = re.compile(rb'\{"seq":(\d+),"dir":"([^"\\]*)",')
