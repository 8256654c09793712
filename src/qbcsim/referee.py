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
commit and unveil unchanged; each party decodes what it receives.

The referee acknowledges each hello with hello{role: "referee"}; the
committer's acknowledgement is deferred until the photons are stored, so a
well-behaved committer never races the sender.  A hello whose format is not
``wire.FORMAT`` (a hello without one is format 1) is refused with an error
that names both formats, and its connection is closed; so is a hello for an
unknown or taken role.  Messages are still checked in arrival order: a
measure that shows up before the photons exist is an ordering violation,
the offender gets an error message, and the session aborts with both
connections closed.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from . import rng as streams
from .channel import PreparedSequence, prepare_random_sequence, transmit_and_measure
from .protocol import (
    AlignmentScore,
    Commitment,
    Decision,
    DecisionPolicy,
    SessionConfig,
    Unveil,
    choose_random_bases,
    commit,
    inject_errors,
    raw_correlations,
    score_and_decide,
)
from .wire import (
    FORMAT,
    PACKED_FIELDS,
    SESSION_SCRIPT,
    SessionTranscript,
    WireProtocolError,
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
    commit_message,
)

DEFAULT_TRANSCRIPT = "referee-transcript.jsonl"


def parse_address(addr: str) -> tuple[str, int]:
    """Split HOST:PORT; the port is mandatory."""
    host, sep, port = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT, got {addr!r}")
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
    """One referee-side connection with a background line reader."""

    def __init__(self, sock: socket.socket, tag: int, events: queue.Queue):
        self.sock = sock
        self.tag = tag
        self.role: str | None = None
        self.open = True
        self._rfile = sock.makefile("r", encoding="utf-8", newline="\n")
        self._thread = threading.Thread(
            target=self._read_loop, args=(events,), daemon=True
        )
        self._thread.start()

    def _read_loop(self, events: queue.Queue) -> None:
        try:
            for line in self._rfile:
                events.put((self.tag, "line", line))
        except (OSError, ValueError):
            pass
        events.put((self.tag, "eof", None))

    def send(self, msg: dict) -> None:
        if not self.open:
            return
        try:
            self.sock.sendall(encode_message(msg).encode("utf-8"))
        except OSError:
            self.open = False

    def close(self) -> None:
        self.open = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class _RefereeSession:
    """State machine for exactly one commitment session."""

    def __init__(self, seed: int, noise_rate: float):
        if not 0.0 <= noise_rate <= 1.0:
            raise ValueError(f"noise_rate must be in [0, 1], got {noise_rate}")
        self.seed = seed
        self.noise_rate = noise_rate
        self.transcript = SessionTranscript()
        self.parties: dict[str, _Conn] = {}
        self.prepared: PreparedSequence | None = None
        self.step = 0  # index into SESSION_SCRIPT of the next expected message
        self.violated = False

    @property
    def finished(self) -> bool:
        """True once the decision has been relayed."""
        return self.step == len(SESSION_SCRIPT)

    # -- transcript helpers -------------------------------------------------

    def _record_in(self, sender: str, msg: dict) -> None:
        self.transcript.record(f"{sender}->referee", msg)

    def _send(self, conn: _Conn, recipient: str, msg: dict) -> None:
        self.transcript.record(f"referee->{recipient}", msg)
        conn.send(msg)

    def violation(self, conn: _Conn, sender: str, reason: str) -> None:
        self.violated = True
        self._send(conn, sender, error_message(reason))

    def reject(self, conn: _Conn, reason: str) -> None:
        """Turn away a connection that is not a party; the session goes on."""
        reply = error_message(reason)
        self.transcript.record("referee->unknown", reply)
        conn.send(reply)
        conn.close()

    # -- message handling ---------------------------------------------------

    def receive(self, conn: _Conn, line: str) -> bool:
        """Handle one line from a connection; returns True when the session ends."""
        try:
            msg = parse_message(line)
        except WireProtocolError as exc:
            if conn.role is None:
                self.reject(conn, f"bad message: {exc}")
                return False
            self.violation(conn, conn.role, f"bad message: {exc}")
            return True
        if conn.role is not None:
            return self.handle_message(conn, msg)
        if msg["type"] != "hello":
            self.reject(conn, "expected hello first")
        else:
            self.handle_hello(conn, msg)
        return False

    def hang_up(self, conn: _Conn) -> bool:
        """A connection closed; returns True when that ends the session."""
        if conn.role not in self.parties or self.finished:
            return False
        self.violated = True
        self.transcript.record(
            f"{conn.role}->referee", error_message("connection closed unexpectedly")
        )
        return True

    def handle_hello(self, conn: _Conn, msg: dict) -> None:
        role = msg["role"]
        version = msg.get("format", 1)
        if version != FORMAT:
            self._record_in("unknown", msg)
            self.reject(conn, f"wire format {version} not supported: "
                              f"this referee speaks format {FORMAT}")
            return
        if role not in ("alice", "bob") or role in self.parties:
            self._record_in("unknown", msg)
            self.reject(conn, f"role {role!r} rejected")
            return
        conn.role = role
        self.parties[role] = conn
        self._record_in(role, msg)
        if role == "bob":
            self._send(conn, "bob", hello_message("referee"))
        elif self.prepared is not None:
            self._send(conn, "alice", hello_message("referee"))

    def handle_message(self, conn: _Conn, msg: dict) -> bool:
        """Process one in-session message; returns True when session ends."""
        sender = conn.role or "unknown"
        self._record_in(sender, msg)
        mtype = msg["type"]

        if mtype == "error":
            self.violated = True
            return True

        expected = None if self.finished else SESSION_SCRIPT[self.step]
        if (sender, mtype) != expected:
            want = "{1} from {0}".format(*expected) if expected else "nothing"
            self.violation(
                conn, sender, f"out-of-order: expected {want}, got {mtype} from {sender}"
            )
            return True
        if mtype in PACKED_FIELDS and mtype != "prepare":
            field = PACKED_FIELDS[mtype][0]
            if len(msg[field]) != len(self.prepared):
                self.violation(conn, sender, f"size mismatch: {len(msg[field])} {field} "
                                             f"for {len(self.prepared)} photons")
                return True
        self.step += 1

        if mtype == "prepare":
            codes = unpack_digits(msg["codes"])
            self.prepared = PreparedSequence(bases=codes >> 1, bits=codes & 1)
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
            self._send(self.parties[recipient], recipient, msg)
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
    violation occurred, or the timeout expired.  A bad address or noise
    rate raises ``ValueError`` before the port is bound.
    """
    host, port = parse_address(listen)
    session = _RefereeSession(seed, noise_rate)
    events: queue.Queue = queue.Queue()
    conns: dict[int, _Conn] = {}
    next_tag = 0

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(4)
    listener.settimeout(0.1)
    accepting = threading.Event()
    accepting.set()

    def accept_loop() -> None:
        while accepting.is_set():
            try:
                sock, _peer = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            sock.settimeout(timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            events.put(("accept", sock, None))

    acceptor = threading.Thread(target=accept_loop, daemon=True)
    acceptor.start()

    deadline = time.monotonic() + timeout
    done = False
    try:
        while not done:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                session.violated = True
                session.transcript.record(
                    "referee->unknown", error_message("session timed out")
                )
                break
            try:
                event = events.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                continue

            if event[0] == "accept":
                conn = _Conn(event[1], next_tag, events)
                conns[next_tag] = conn
                next_tag += 1
                continue

            tag, kind, payload = event
            conn = conns.get(tag)
            if conn is None or not conn.open:
                continue
            if kind == "eof":
                done = session.hang_up(conn)
                continue
            done = session.receive(conn, payload)
            if len(session.parties) == 2:
                accepting.clear()
    finally:
        accepting.clear()
        # Wake the accept thread out of its poll so that the listener, and
        # with it the port, is released before this call returns.
        try:
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        acceptor.join(timeout=5.0)
        assert not acceptor.is_alive(), "referee accept thread did not stop"
        try:
            listener.close()
        except OSError:
            pass
        for conn in conns.values():
            conn.close()
        if transcript_path is not None:
            session.transcript.write(Path(transcript_path))
    return session.transcript


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
        self._rfile = self.sock.makefile("r", encoding="utf-8", newline="\n")

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

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _run_alice(link: _PartyLink, config: SessionConfig) -> PartyResult:
    n, seed = config.n, config.seed
    link.send(hello_message("alice"))
    link.recv("hello")  # channel ready: photons are stored
    bases = choose_random_bases(n, streams.substream(seed, streams.BASES))
    link.send(measure_message(bases))
    outcomes = unpack_digits(link.recv("outcomes")["bits"])
    if len(outcomes) != n:
        raise PartyError(f"expected {n} outcomes, got {len(outcomes)}")
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
    link.send(hello_message("bob"))
    link.recv("hello")
    seq = prepare_random_sequence(config.n, streams.substream(config.seed, streams.PREPARE))
    link.send(prepare_message(seq))
    commitment = Commitment(revealed=unpack_digits(link.recv("commit")["bits"]))
    unveiled = Unveil(bases=unpack_digits(link.recv("unveil")["bases"]))
    score, decision = score_and_decide(seq, commitment, unveiled, config.policy)
    raw_direct, raw_reverse = raw_correlations(seq.bits, commitment)
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
