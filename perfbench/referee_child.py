"""Long-lived referee process of the ``wire`` workload.

Serves wire sessions back to back, one ``referee_serve`` call per
session.  Commands arrive as one JSON object per line on stdin:

    {"seed": S, "transcript": PATH}   serve one session
    {"quit": true}                    print this process's peak RSS and exit

Before the first command it prints ``ready``.  For each session it prints
the port it is about to listen on, then, when the session is over, one JSON
line with the child-side span of ``referee_serve`` (which includes writing
the transcript) and the transcript checks.

Each session gets a fresh port: ``referee_serve`` closes its listener while
its accept thread may still hold it for up to 0.1 s, so the same port
cannot be bound again at once.
"""

from __future__ import annotations

import argparse
import json
import resource
import socket
import sys
from time import perf_counter_ns

import checkout


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--timeout", type=float, required=True)
    args = parser.parse_args()
    checkout.use_checkout_source()
    from qbcsim.referee import referee_serve

    print("ready", flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("quit"):
            break
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        print(json.dumps({"port": port}), flush=True)
        start = perf_counter_ns()
        transcript = referee_serve(
            f"127.0.0.1:{port}",
            seed=command["seed"],
            transcript_path=command["transcript"],
            timeout=args.timeout,
        )
        end = perf_counter_ns()
        print(json.dumps({
            "start_ns": start,
            "end_ns": end,
            "outcome": transcript.outcome,
            "violated": transcript.violated,
            "ordering": transcript.check_ordering(),
            "visibility": transcript.check_visibility(),
        }), flush=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": rss_mb}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
