"""Three-party networked mode: a trusted channel referee and two parties.

The referee simulates the photon channel so that neither party ever holds
the other's secrets: the sender's preparation stays with the referee, the
committer submits only measurement bases and receives only outcomes, and
each measurement happens once.  Relative to one process, the work is split
by substream owner: the sender keeps the preparation stream, the committer
keeps her basis and masking streams, and the referee keeps the channel
measurement stream.  Give all three the same master seed and a wire
session reproduces the in-process session draw for draw.

Session sequence (hello handshakes first, then strict protocol order):

    bob   -> referee   hello, prepare
    alice -> referee   hello, measure
    referee -> alice   outcomes
    alice -> referee   commit, unveil     (relayed to bob)
    bob   -> referee   decision           (relayed to alice)

Every message is wire format 2 (``qbcsim.wire``): per-photon payloads are
packed digit strings.  The referee builds the prepared photons from the
sender's state codes, measures the committer's decoded bases, and relays
commit, unveil and the decision as the very bytes it received; each party
decodes what it receives.  Each line is encoded once: the transcript logs
the bytes that arrived or were sent.

The referee serves its session from the calling thread alone: one
selector waits on the listener and on every connection, and each complete
line goes to the session state machine in arrival order.  It acknowledges
each hello with hello{role: "referee"}; the committer's acknowledgement is
deferred until the photons are stored, so a well-behaved committer never
races the sender.  A hello whose format is not ``wire.FORMAT`` (a hello
without one is format 1) is refused with an error that names both formats,
and its connection is closed; so is a hello for an unknown or taken role,
which is how a connection arriving after both parties is turned away.
Messages are still checked in arrival order: a measure that shows up
before the photons exist is an ordering violation, the offender gets an
error message, and the session aborts with both connections closed.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass
from pathlib import Path

from . import rng as streams
from .channel import PreparedSequence, prepare_random_sequence, split_states, transmit_and_measure
from .kernel import score_rows
from .protocol import (
    AlignmentScore,
    Decision,
    DecisionPolicy,
    SessionConfig,
    choose_random_bases,
    commit,
    inject_errors,
    session_scores,
)
from .wire import (
    FORMAT, PACKED_FIELDS, SESSION_SCRIPT, SessionTranscript, WireProtocolError,
    commit_message, decision_message, encode_message, error_message, hello_message,
    measure_message, outcomes_message, parse_message, prepare_message, unpack_digits,
    unveil_message,
)

DEFAULT_TRANSCRIPT = "referee-transcript.jsonl"


def parse_address(addr: str) -> tuple[str, int]:
    """Split HOST:PORT; the port is mandatory, a decimal integer in 0-65535."""
    host, sep, port = addr.rpartition(":")
    if not (sep and host and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ValueError(f"address must be HOST:PORT with PORT in 0-65535, got {addr!r}")
    return host, int(port)


class PartyError(Exception):
    """A party-side failure: lost connection, bad message, refused session."""


@dataclass
class PartyResult:
    """What one party learned from a session."""

    exit_code: int
    decision: Decision | None = None
    alignment: AlignmentScore | None = None
    raw_direct: float | None = None
    raw_reverse: float | None = None
    diagnostic: str | None = None


class _Conn:
    """One referee-side connection: its socket and the unfinished line."""

    def __init__(self, sock: socket.socket, selector: selectors.BaseSelector):
        self.sock = sock
        self.selector = selector
        self.role: str | None = None
        self.open = True
        self._tail = b""
        selector.register(sock, selectors.EVENT_READ, self)

    def read_lines(self) -> list[bytes] | None:
        """The lines one read completes, or None once the peer has gone.

        A last line the peer left unterminated still counts, as a file's does.
        """
        try:
            data = self.sock.recv(65536)
        except OSError:
            data = b""
        if not data:
            if not self._tail:
                return None
            data = b"\n"
        *lines, self._tail = (self._tail + data).split(b"\n")
        return lines

    def send(self, data: bytes) -> None:
        if not self.open:
            return
        try:
            self.sock.sendall(data)
        except OSError:
            self.close()

    def close(self) -> None:
        """Unregister, then close: a later connection may reuse the fd."""
        if self.open:
            self.open = False
            self.selector.unregister(self.sock)
            self.sock.close()


class _RefereeSession:
    """State machine for exactly one commitment session."""

    def __init__(self, seed: int, noise_rate: float):
        streams.check_fraction("noise_rate", noise_rate)
        streams.check_seed("seed", seed)
        self.seed = seed
        self.noise_rate = noise_rate
        self.transcript = SessionTranscript()
        self.parties: dict[str, _Conn] = {}
        self.prepared: PreparedSequence | None = None
        self.step = 0  # index into SESSION_SCRIPT of the next expected message

    @property
    def finished(self) -> bool:
        """True once the decision has been relayed."""
        return self.step == len(SESSION_SCRIPT)

    # -- transcript helpers -------------------------------------------------

    def _record_in(self, sender: str, msg: dict, line: bytes) -> None:
        self.transcript.record(f"{sender}->referee", msg, line)

    def _send(self, conn: _Conn, recipient: str, msg: dict, line: bytes | None = None) -> None:
        """Log and send a message: a relayed one as the ``line`` received,
        one the referee makes encoded once."""
        data = encode_message(msg).encode("utf-8") if line is None else line + b"\n"
        self.transcript.record(f"referee->{recipient}", msg, data[:-1])
        conn.send(data)

    def reject(self, conn: _Conn, reason: str) -> None:
        """Turn away a connection that is not a party; the session goes on."""
        self._send(conn, "unknown", error_message(reason))
        conn.close()

    # -- message handling ---------------------------------------------------

    def receive(self, conn: _Conn, line: bytes) -> bool:
        """Handle one line from a connection; returns True when the session ends."""
        line = line.strip(b" \t\r\n")  # JSON whitespace around the object
        try:
            msg = parse_message(line)
        except WireProtocolError as exc:
            if conn.role is None:
                self.reject(conn, f"bad message: {exc}")
                return False
            self._send(conn, conn.role, error_message(f"bad message: {exc}"))
            return True
        if conn.role is not None:
            return self.handle_message(conn, msg, line)
        if msg["type"] != "hello":
            self.reject(conn, "expected hello first")
        else:
            self.handle_hello(conn, msg, line)
        return False

    def hang_up(self, conn: _Conn) -> bool:
        """A connection closed; returns True when that ends the session."""
        if conn.role not in self.parties or self.finished:
            return False
        self.transcript.record(
            f"{conn.role}->referee", error_message("connection closed unexpectedly")
        )
        return True

    def handle_hello(self, conn: _Conn, msg: dict, line: bytes) -> None:
        role = msg["role"]
        version = msg.get("format", 1)
        if version != FORMAT:
            self._record_in("unknown", msg, line)
            self.reject(conn, f"wire format {version} not supported: "
                              f"this referee speaks format {FORMAT}")
            return
        if role not in ("alice", "bob") or role in self.parties:
            self._record_in("unknown", msg, line)
            self.reject(conn, f"role {role!r} rejected")
            return
        conn.role = role
        self.parties[role] = conn
        self._record_in(role, msg, line)
        if role == "bob":
            self._send(conn, "bob", hello_message("referee"))
        elif self.prepared is not None:
            self._send(conn, "alice", hello_message("referee"))

    def handle_message(self, conn: _Conn, msg: dict, line: bytes) -> bool:
        """Process one in-session message, received as ``line``; returns True
        when the session ends."""
        sender = conn.role or "unknown"
        self._record_in(sender, msg, line)
        mtype = msg["type"]

        if mtype == "error":
            return True

        expected = None if self.finished else SESSION_SCRIPT[self.step]
        if (sender, mtype) != expected:
            want = "{1} from {0}".format(*expected) if expected else "nothing"
            self._send(conn, sender, error_message(
                f"out-of-order: expected {want}, got {mtype} from {sender}"))
            return True
        if mtype in PACKED_FIELDS and mtype != "prepare":
            field = PACKED_FIELDS[mtype][0]
            if len(msg[field]) != len(self.prepared):
                self._send(conn, sender, error_message(
                    f"size mismatch: {len(msg[field])} {field} for {len(self.prepared)} photons"))
                return True
        self.step += 1

        if mtype == "prepare":
            self.prepared = PreparedSequence(*split_states(unpack_digits(msg["codes"])))
            alice = self.parties.get("alice")
            if alice is not None:
                self._send(alice, "alice", hello_message("referee"))
        elif mtype == "measure":
            outcomes = transmit_and_measure(
                self.prepared,
                unpack_digits(msg["bases"]),
                self.noise_rate,
                streams.substream(self.seed, streams.MEASURE),
            )
            self._send(conn, "alice", outcomes_message(outcomes))
            self.step += 1
        else:  # commit and unveil go to bob, the decision to alice
            recipient = "alice" if sender == "bob" else "bob"
            self._send(self.parties[recipient], recipient, msg, line)
        return self.finished


def referee_serve(
    listen: str,
    *,
    seed: int = 0,
    noise_rate: float = 0.0,
    transcript_path=None,
    timeout: float = 30.0,
) -> SessionTranscript:
    """Serve exactly one session on the given HOST:PORT.

    Returns the transcript (also written to ``transcript_path`` when
    given).  The call ends when the decision has been relayed, a protocol
    violation occurred, or the timeout expired; the transcript's last entry
    is that decision or the error that ended the session.  A bad address,
    seed or noise rate raises ``ValueError`` before the port is bound.
    """
    host, port = parse_address(listen)
    session = _RefereeSession(seed, noise_rate)
    with socket.create_server((host, port), backlog=4) as listener, \
            selectors.DefaultSelector() as selector:
        listener.setblocking(False)
        selector.register(listener, selectors.EVENT_READ)
        try:
            _serve_session(session, listener, selector, timeout)
        finally:
            for key in list(selector.get_map().values()):
                if key.data is not None:
                    key.data.close()
            if transcript_path is not None:
                session.transcript.write(Path(transcript_path))
    return session.transcript


def _serve_session(session: _RefereeSession, listener: socket.socket,
                   selector: selectors.BaseSelector, timeout: float) -> None:
    """Accept connections and dispatch their lines until the session ends."""
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            session.transcript.record("referee->unknown", error_message("session timed out"))
            return
        for key, _events in selector.select(remaining):
            if key.fileobj is listener:
                try:
                    sock, _peer = listener.accept()
                except OSError:  # e.g. the peer gave up first; the session goes on
                    continue
                sock.settimeout(timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                _Conn(sock, selector)
                continue
            conn = key.data
            if not conn.open:  # closed while handling an earlier event of this batch
                continue
            lines = conn.read_lines()
            if lines is None:
                conn.close()
                if session.hang_up(conn):
                    return
                continue
            for line in lines:
                if session.receive(conn, line):
                    return
                if not conn.open:  # turned away: drop whatever else it sent
                    break


class _PartyLink:
    """A party's line-oriented connection to the referee."""

    def __init__(self, addr: str, timeout: float):
        host, port = parse_address(addr)
        try:
            self.sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise PartyError(f"connection to {addr} refused or failed: {exc}") from exc
        self.sock.settimeout(timeout)
        # Messages are small and sent back to back: without this, each waits
        # on the peer's delayed ACK.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self.sock.makefile("rb")

    def handshake(self, role: str) -> None:
        """Say hello as ``role``; the referee's hello must speak our format."""
        self.send(hello_message(role))
        version = self.recv("hello").get("format", 1)
        if version != FORMAT:
            raise PartyError(f"referee speaks wire format {version}, "
                             f"this party speaks format {FORMAT}")

    def send(self, msg: dict) -> None:
        try:
            self.sock.sendall(encode_message(msg).encode("utf-8"))
        except OSError as exc:
            raise PartyError(f"send failed: {exc}") from exc

    def recv(self, expected_type: str) -> dict:
        try:
            line = self._rfile.readline()
        except (OSError, TimeoutError) as exc:
            raise PartyError(f"receive failed: {exc}") from exc
        if not line:
            raise PartyError("connection closed by referee")
        msg = parse_message(line)
        if msg["type"] == "error":
            raise PartyError(f"referee error: {msg['message']}")
        if msg["type"] != expected_type:
            raise PartyError(f"expected {expected_type}, got {msg['type']}")
        return msg

    def recv_digits(self, expected_type: str, n: int):
        """The next message's packed payload, which must hold n digits."""
        name = PACKED_FIELDS[expected_type][0]
        digits = unpack_digits(self.recv(expected_type)[name])
        if len(digits) != n:
            raise PartyError(f"{expected_type} {name} has {len(digits)} digits, expected {n}")
        return digits

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _run_alice(link: _PartyLink, config: SessionConfig) -> PartyResult:
    n, seed = config.n, config.seed
    link.handshake("alice")  # the referee's hello: photons are stored
    bases = choose_random_bases(n, streams.substream(seed, streams.BASES))
    link.send(measure_message(bases))
    outcomes = link.recv_digits("outcomes", n)
    masked, _mask = inject_errors(
        outcomes, config.error_fraction, streams.substream(seed, streams.ERROR),
        mode=config.error_mode,
    )
    commitment = commit(masked, config.committed_bit)
    link.send(commit_message(commitment.revealed))
    link.send(unveil_message(bases))
    decided = link.recv("decision")["value"]
    return PartyResult(exit_code=0, decision=Decision(decided))


def _run_bob(link: _PartyLink, config: SessionConfig) -> PartyResult:
    link.handshake("bob")
    seq = prepare_random_sequence(config.n, streams.substream(config.seed, streams.PREPARE))
    link.send(prepare_message(seq))
    revealed = link.recv_digits("commit", config.n)
    unveiled = link.recv_digits("unveil", config.n)
    scores = score_rows(seq.bases, seq.bits, revealed, unveiled, config.policy)
    score, decision, raw_direct, raw_reverse = session_scores(scores, config.n)
    link.send(decision_message(decision.value))
    return PartyResult(
        exit_code=0,
        decision=decision,
        alignment=score,
        raw_direct=raw_direct,
        raw_reverse=raw_reverse,
    )


def party_run(
    role: str,
    connect: str,
    *,
    n: int,
    bit: int = 0,
    error_fraction: float = 0.0,
    seed: int = 0,
    policy: DecisionPolicy | None = None,
    error_mode: str = "randomize",
    timeout: float = 30.0,
) -> PartyResult:
    """Run one party of a wire session; never raises on protocol failure.

    Alice uses ``bit``, ``error_fraction`` and ``error_mode``; Bob uses
    ``policy``.  The result's exit_code is 0 on a completed session and 1
    on any connection or protocol failure, with a diagnostic attached.
    """
    if role not in ("alice", "bob"):
        raise ValueError(f"role must be alice or bob, got {role!r}")
    link = None
    try:
        # Bad parameters fail here, before any connection is made.
        config = SessionConfig(
            n=n, committed_bit=bit, error_fraction=error_fraction, seed=seed,
            policy=policy or DecisionPolicy(), error_mode=error_mode,
        )
        link = _PartyLink(connect, timeout)
        if role == "alice":
            return _run_alice(link, config)
        return _run_bob(link, config)
    except (PartyError, WireProtocolError, ValueError, OSError) as exc:
        return PartyResult(exit_code=1, diagnostic=str(exc))
    finally:
        if link is not None:
            link.close()
