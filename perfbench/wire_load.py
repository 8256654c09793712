"""The ``wire`` workload: closed-loop three-party sessions over localhost.

One client runs one session at a time, alternating n = 256 and
n = 100 000 at error fraction 0.5; each session's seed and committed bit
are drawn from the benchmark seed.  The referee runs in one long-lived
child process (``referee_child.py``) that serves the sessions back to back.
Alice runs on this process's main thread and Bob on one more thread.

Before each session the benchmark asks the child to serve and then waits
until the child's port accepts a connection; that wait is not session
time.  A session is timed from the start of Bob's thread until both
parties have returned.

The traced run replays the first sessions offline: the in-process
equivalent (``run_honest_session``, then the same session replayed call by
call), and the session's own messages through the codec and the transcript
reader and writer.  A replay that disagrees with the live session counts
as a failure.
"""

from __future__ import annotations

import json
import math
import socket
import subprocess
import sys
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

import numpy as np

from qbcsim.protocol import SessionConfig, run_commit_phase, run_honest_session
from qbcsim.referee import PartyResult, party_run
from qbcsim.wire import (
    SessionTranscript,
    commit_message,
    decision_message,
    encode_message,
    hello_message,
    measure_message,
    outcomes_message,
    parse_message,
    prepare_message,
    unveil_message,
)

import mc
from checkout import HERE, ROOT
from tracing import Tracer

SIZES = (256, 100_000)
ERROR_FRACTION = 0.5
#: Pairs of sessions replayed by the traced run, per scale.
TRACE_PAIRS = {"full": 5, "tiny": 1}
#: Party and referee timeout, seconds.
TIMEOUT = 20.0


def workload_spec(workload: str, scale: str) -> dict:
    return {
        "workload": workload,
        "scale": scale,
        "sizes": list(SIZES),
        "order": "alternating, one session at a time (closed loop, one client)",
        "error_fraction": ERROR_FRACTION,
        "noise_rate": 0.0,
        "policy": "DecisionPolicy() defaults",
        "referee": "one long-lived child process serving sessions back to back",
        "threads": "alice on the main thread, bob on one more thread",
        "trace_pairs": TRACE_PAIRS[scale],
    }


class Referee:
    """The referee child process and its command pipe."""

    def __init__(self, out_dir: Path) -> None:
        self.port = 0
        self.peak_rss_mb = 0.0
        self._log = (out_dir / "referee-child.log").open("w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "referee_child.py"), "--timeout", str(TIMEOUT)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            text=True, cwd=ROOT,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the referee child did not start; see referee-child.log")

    def _send(self, command: dict) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    @property
    def addr(self) -> str:
        return f"127.0.0.1:{self.port}"

    def serve(self, seed: int, transcript: Path) -> None:
        """Start one session; the child names the port it will listen on."""
        self._send({"seed": seed, "transcript": str(transcript)})
        self.port = self.served()["port"]

    def wait_listening(self) -> bool:
        """Poll the port until it accepts a connection (then close it)."""
        deadline = time.monotonic() + TIMEOUT
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=TIMEOUT).close()
                return True
            except OSError:
                time.sleep(0.0002)
        return False

    def served(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the referee child exited; see referee-child.log")
        return json.loads(line)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self._send({"quit": True})
                line = self.proc.stdout.readline()
                if line:
                    self.peak_rss_mb = json.loads(line)["peak_rss_mb"]
        except (OSError, ValueError):
            pass
        finally:
            try:
                self.proc.wait(timeout=TIMEOUT + 10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self._log.close()


@dataclass
class Session:
    index: int
    n: int
    bit: int
    seed: int
    transcript: Path
    cycle_ns: tuple[int, int] = (0, 0)
    session_ns: tuple[int, int] = (0, 0)
    alice_ns: tuple[int, int] = (0, 0)
    bob_ns: tuple[int, int] = (0, 0)
    alice: PartyResult | None = None
    bob: PartyResult | None = None
    served: dict = field(default_factory=dict)
    problem: str | None = None

    @property
    def ms(self) -> float:
        return (self.session_ns[1] - self.session_ns[0]) / 1e6

    def config(self) -> SessionConfig:
        return SessionConfig(n=self.n, committed_bit=self.bit,
                             error_fraction=ERROR_FRACTION, seed=self.seed)


def run_session(ref: Referee, s: Session) -> None:
    cycle_start = perf_counter_ns()
    ref.serve(s.seed, s.transcript)
    if not ref.wait_listening():
        s.problem = f"session {s.index}: the referee never listened"
        s.served = ref.served()
        s.cycle_ns = (cycle_start, perf_counter_ns())
        return
    box: dict = {}

    def bob_side() -> None:
        start = perf_counter_ns()
        box["bob"] = party_run("bob", ref.addr, n=s.n, seed=s.seed, timeout=TIMEOUT)
        box["bob_ns"] = (start, perf_counter_ns())

    bob = threading.Thread(target=bob_side)
    start = perf_counter_ns()
    bob.start()
    s.alice = party_run("alice", ref.addr, n=s.n, bit=s.bit,
                        error_fraction=ERROR_FRACTION, seed=s.seed, timeout=TIMEOUT)
    alice_end = perf_counter_ns()
    bob.join(3 * TIMEOUT)
    end = perf_counter_ns()
    s.served = ref.served()
    s.cycle_ns = (cycle_start, perf_counter_ns())
    s.session_ns = (start, end)
    s.alice_ns = (start, alice_end)
    if bob.is_alive():
        s.problem = f"session {s.index}: bob never returned"
        return
    s.bob, s.bob_ns = box["bob"], box["bob_ns"]


def check_session(s: Session) -> list[str]:
    """Every reason this session's output is wrong; empty when it is right."""
    if s.problem:
        return [s.problem]
    where = f"session {s.index} n={s.n}"
    problems = [f"{where}: {role} exited {r.exit_code}: {r.diagnostic}"
                for role, r in (("alice", s.alice), ("bob", s.bob)) if r.exit_code != 0]
    if problems:
        return problems
    inproc = run_honest_session(s.config())
    if s.bob.decision is not inproc.decision or s.bob.alignment != inproc.alignment:
        problems.append(f"{where}: bob decided {s.bob.decision} {s.bob.alignment}, in-process "
                        f"{inproc.decision} {inproc.alignment}")
    if s.alice.decision is not s.bob.decision:
        problems.append(f"{where}: alice was told {s.alice.decision}, bob decided {s.bob.decision}")
    served = s.served
    if served["violated"] or not served["ordering"] or not served["visibility"]:
        problems.append(f"{where}: transcript violated={served['violated']} "
                        f"ordering={served['ordering']} visibility={served['visibility']}")
    if served["outcome"] != s.bob.decision.value:
        problems.append(f"{where}: transcript outcome {served['outcome']}")
    return problems


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p90/p75 with at least ten samples beyond it."""
    for q in (90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            return f"p{q}", float(np.percentile(values, q))
    return None


def run(workload: str, scale: str, seed: int, seconds: float, trace: bool,
        out_dir: Path, results) -> None:
    inputs = np.random.Generator(np.random.PCG64(seed))
    traced_sessions = 2 * TRACE_PAIRS[scale] if trace else 0
    sessions: list[Session] = []
    # A traced run replays a fixed number of sessions, so it runs at least that many.
    least = max(traced_sessions, 2)
    with closing(warm_up(workload, scale, out_dir)) as ref:
        begin = perf_counter()
        while len(sessions) % 2 or len(sessions) < least or perf_counter() - begin < seconds:
            k = len(sessions)
            name = f"transcript-{k}.jsonl" if k < least else "transcript.jsonl"
            seed = int(inputs.integers(0, 2**63))
            s = Session(k, SIZES[k % 2], int(inputs.integers(0, 2)), seed, out_dir / name)
            run_session(ref, s)
            sessions.append(s)
    results.child_rss_mb = ref.peak_rss_mb
    for s in sessions:
        results.attempt(check_session(s))
    results.details["inputs"] = {"sessions": [[s.n, s.seed, s.bit] for s in sessions]}
    # Hellos and the prepare may interleave either way, so the digest covers
    # the first session's messages in sorted order, without sequence numbers.
    entries = SessionTranscript.load(sessions[0].transcript).entries
    results.details["first_session_messages_sha256"] = results.digest("\n".join(sorted(
        json.dumps({"dir": e.direction, **e.message}, sort_keys=True) for e in entries
    )).encode("utf-8"))

    pairs = len(sessions) // 2
    results.put("trials_per_s", median(
        2e9 / (a.cycle_ns[1] - a.cycle_ns[0] + b.cycle_ns[1] - b.cycle_ns[0])
        for a, b in zip(sessions[::2], sessions[1::2])), "trials/s", pairs)
    good = [s for s in sessions if not s.problem and s.bob is not None]
    p50 = {}
    for n in SIZES:
        ms = [s.ms for s in good if s.n == n]
        p50[n] = median(ms)
        results.extra(f"session_ms.n{n}.p50", p50[n], "ms", len(ms))
        high = tail(ms)
        if high is not None:
            results.extra(f"session_ms.n{n}.{high[0]}", high[1], "ms", len(ms))
        results.extra(f"ready_wait_ms.n{n}.p50", median(
            (s.session_ns[0] - s.cycle_ns[0]) / 1e6 for s in good if s.n == n), "ms", len(ms))
    results.put("trials_per_s.geomean", math.sqrt((1e3 / p50[SIZES[0]]) * (1e3 / p50[SIZES[1]])),
                "trials/s", pairs)
    if trace:
        _traced(sessions, traced_sessions, out_dir, results)


def build_messages(seq, record, commitment, decision) -> list[dict]:
    """Every message a session builds, as its parties and referee build them."""
    return [
        hello_message("bob"), hello_message("alice"),
        hello_message("referee"), hello_message("referee"),
        prepare_message(seq), measure_message(record.bases),
        outcomes_message(record.outcomes), commit_message(commitment.revealed),
        unveil_message(record.bases), decision_message(decision.value),
    ]


def replay_session(tr: Tracer, s: Session, counts: mc.ReplayCounts,
                   scratch: Path) -> tuple[list[str], dict]:
    """Replay one live session offline; returns its problems and its sizes."""
    config = s.config()
    tr.trial_id = s.index
    run_honest_session(config)  # warm: the traced replay below runs warm too
    start = perf_counter_ns()
    inproc = run_honest_session(config)
    tr.record("referee.inproc_equiv", start, perf_counter_ns())
    counts.trials += 1
    counts.trial_e.append(ERROR_FRACTION)
    sid = tr.begin("trial")
    replayed = mc.replay_honest_session(tr, config, counts)
    tr.finish(sid)
    problems = []
    if replayed.alignment != inproc.alignment or replayed.decision is not inproc.decision:
        problems.append(f"session {s.index}: traced replay differs from run_honest_session")

    transcript = tr.call("wire.transcript_load", SessionTranscript.load, s.transcript)
    messages = [e.message for e in transcript.entries]
    lines = [tr.call("wire.encode_message", encode_message, m) for m in messages]
    parsed = [tr.call("wire.parse_message", parse_message, line) for line in lines]
    if parsed != messages:
        problems.append(f"session {s.index}: messages change through encode and parse")
    seq, record, _mask, commitment = run_commit_phase(config)
    built = tr.call("wire.build", build_messages, seq, record, commitment, replayed.decision)
    first = {}
    for m in messages:
        first.setdefault(m["type"], m)
    if any(first.get(m["type"]) != m for m in built[4:]):
        problems.append(f"session {s.index}: rebuilt messages differ from the transcript")
    tr.call("wire.transcript_write", transcript.write, scratch)
    if scratch.read_bytes() != s.transcript.read_bytes():
        problems.append(f"session {s.index}: transcript rewrite is not byte-identical")
    tr.trial_id = -1
    return problems, {
        "wire.bytes_per_session": sum(len(line.encode("utf-8")) for line in lines),
        "wire.messages_per_session": len(messages),
        "wire.transcript_bytes": s.transcript.stat().st_size,
    }


def _traced(sessions: list[Session], traced: int, out_dir: Path, results) -> None:
    tr = Tracer()
    for s in sessions:
        tr.trial_id = s.index
        sid = tr.record("session", *s.session_ns)
        tr.record("referee.party_alice", *s.alice_ns, parent=sid)
        if s.bob is not None:
            tr.record("referee.party_bob", *s.bob_ns, parent=sid)
        tr.record("referee.serve", s.served["start_ns"], s.served["end_ns"])
    counts = mc.ReplayCounts()
    sizes = {}
    for s in sessions[:traced]:
        problems, sizes[s.index] = replay_session(tr, s, counts,
                                                  out_dir / "transcript-rewrite.jsonl")
        results.attempt(problems)
    tr.dump(out_dir / "spans.npz")
    results.details["spans"] = {"file": str(out_dir / "spans.npz"), "count": len(tr)}
    mc.trial_layer_metrics(tr, counts, results)

    spans = tr.table()
    per_session = {name: spans.per_trial_ns(name) for name in (
        "session", "referee.party_alice", "referee.party_bob", "referee.serve",
        "referee.inproc_equiv", "trial", "wire.build", "wire.encode_message",
        "wire.parse_message", "wire.transcript_load", "wire.transcript_write")}
    inproc = sum(per_session["referee.inproc_equiv"].values())
    results.put("trace.overhead_ratio", inproc / sum(per_session["trial"].values()),
                "ratio", len(sizes))

    def ms(name: str, index: int) -> float:
        return per_session[name].get(index, 0.0) / 1e6

    for n in SIZES:
        live = [s.index for s in sessions if s.n == n and s.bob is not None]
        for name in ("serve", "party_alice", "party_bob"):
            values = [ms(f"referee.{name}", i) for i in live]
            results.put(f"referee.{name}.ms.n{n}", median(values), "ms", len(values))
        mine = [s.index for s in sessions[:traced] if s.n == n]
        for name in ("build", "encode_message", "parse_message", "transcript_load",
                     "transcript_write"):
            results.put(f"wire.{name}.ms.n{n}", median(ms(f"wire.{name}", i) for i in mine),
                        "ms", len(mine))
        for name in sizes[mine[0]]:
            unit = "count" if name == "wire.messages_per_session" else "bytes"
            results.put(f"{name}.n{n}", median(sizes[i][name] for i in mine), unit, len(mine))
        results.put(f"referee.inproc_equiv.ms.n{n}",
                    median(ms("referee.inproc_equiv", i) for i in mine), "ms", len(mine))
        results.put(f"referee.plumbing.ms.n{n}", median(
            ms("session", i) - ms("wire.build", i) - ms("wire.encode_message", i)
            - ms("wire.parse_message", i) - ms("referee.inproc_equiv", i) for i in mine),
            "ms", len(mine))


def warm_up(workload: str, scale: str, out_dir: Path) -> Referee:
    """Start the referee child and run one session; the caller closes it."""
    ref = Referee(out_dir)
    run_session(ref, Session(-1, SIZES[0], 0, 0, out_dir / "transcript.jsonl"))
    return ref
