"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload it runs ``run.py --scale tiny`` untraced once and traced
three times (seeds 1, 1 and 2), and checks that

* the last line holds exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``, every run is correct, and ``attempted`` is at least 1;
* the untraced run prints every end-to-end metric of ``BENCHMARK.json``
  and the traced runs every per-layer metric, each with its declared unit;
* every per-layer metric is measured (from at least one sample) by some
  workload;
* the same seed gives identical ``protocol.decisions.*`` counts and
  identical report bytes (the sweep reports, or the first wire session's
  messages);
* a different seed gives different inputs.

Last, it copies ``BENCHMARK.json`` and this directory, without the
package source, into a scratch directory under ``perfbench/out`` and checks
that the benchmark fails there without printing a result.  Exits 0 when
every check holds and 1 otherwise, naming each failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-short", "mc-long", "wire")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = None
    details = {}
    for line in lines:
        if line.startswith("details "):
            details = json.loads(line.split(" ", 1)[1])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, last, details


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    failures: list[str] = []
    measured: set[str] = set()

    def check(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        outputs = {}
        for seed, trace in ((1, 0), (1, 1), (1, 1), (2, 1)):
            code, last, details = run(workload, seed, trace)
            where = f"{workload} seed={seed} trace={trace}"
            check(code == 0 and last is not None, f"{where}: exit {code} or no result line")
            if last is None:
                continue
            check(set(last) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(last)}")
            check(last.get("correct") is True and last.get("failed") == 0
                  and last.get("attempted", 0) >= 1, f"{where}: {last.get('failed')} failed")
            kind = "per_layer" if trace else "end_to_end"
            got = {name: m["unit"] for name, m in last.get("metrics", {}).items()}
            check(got == declared[kind], f"{where}: metrics differ from BENCHMARK.json {kind}")
            if trace:
                result = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1"
                                     / "result.json").read_text(encoding="utf-8"))
                measured |= {n for n, m in result["metrics"].items() if m["samples"] > 0}
            outputs.setdefault((seed, trace), []).append((last, details))

        if len(outputs.get((1, 1), [])) != 2 or (2, 1) not in outputs:
            continue
        (first, first_details), (second, second_details) = outputs[(1, 1)]
        decisions = [{k: v for k, v in r["metrics"].items() if k.startswith("protocol.decisions.")}
                     for r in (first, second)]
        check(bool(decisions[0]) and decisions[0] == decisions[1],
              f"{workload}: protocol.decisions differ for the same seed")
        digest = ("first_session_messages_sha256" if workload == "wire"
                  else "first_round_reports_sha256")
        check(first_details[digest] == second_details[digest],
              f"{workload}: report bytes differ for the same seed")
        check(first_details["inputs"] != outputs[(2, 1)][0][1]["inputs"],
              f"{workload}: seeds 1 and 2 give the same inputs")

    unmeasured = sorted(set(declared["per_layer"]) - measured)
    check(not unmeasured, f"per-layer metrics no workload measures: {unmeasured}")

    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, last, _details = run("mc-short", 1, 0, cwd=bare)
    check(code != 0 and last is None, "without the package source the benchmark did not fail")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAILED: {failure}")
    print("smoke test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
