"""qbcsim benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload mc-short --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for the reasons and the
layer-to-metric map):

    mc-short   run_sweep + write_report in every mode, n in {16, 64, 256}
    mc-long    the same sweeps at n = 4096
    wire       closed-loop three-party sessions, n = 256 and n = 100 000

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it also replays part of the work
call by call with spans and reports the per-layer metrics instead.  Every
output is checked; a wrong output counts as a failed attempt and never
stops the run.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the provenance, every metric with its unit and sample
count, and every failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import checkout

WORKLOADS = ("mc-short", "mc-long", "wire")
#: Fresh processes started to measure set-up time; setup_s is their median.
SETUP_PROBES = 5


class Results:
    """Metrics, checks and details gathered by one run."""

    def __init__(self, declared: dict[str, str], other: dict[str, str]) -> None:
        self.declared = declared
        self.other = other
        self.metrics: dict[str, dict] = {}
        self.extras: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.details: dict = {}
        self.child_rss_mb = 0.0

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        """Report a metric of BENCHMARK.json; one of the other kind
        (end-to-end in a traced run, per-layer in an untraced one) is shown
        as a breakdown."""
        if self.declared.get(name) == unit:
            self.metrics[name] = {"value": value, "unit": unit, "samples": samples}
        elif self.other.get(name) == unit:
            self.extra(name, value, unit, samples)
        else:
            raise KeyError(f"{name} [{unit}] is not a metric of BENCHMARK.json")

    def extra(self, name: str, value: float, unit: str, samples: int) -> None:
        """A breakdown printed with the metrics but not gated."""
        self.extras[name] = {"value": value, "unit": unit, "samples": samples}

    def attempt(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    @staticmethod
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def workload_module(workload: str):
    if workload == "wire":
        import wire_load

        return wire_load
    import mc

    return mc


# -- set-up time ----------------------------------------------------------------


def setup_probe(args: argparse.Namespace, start: float) -> int:
    """Body of one set-up probe process: import, set up, warm up, report.

    ``start`` is taken before ``qbcsim`` (and with it numpy) is first imported.
    """
    checkout.use_checkout_source()
    import qbcsim.cli  # noqa: F401  (the whole package, as the CLI loads it)

    import_ms = (perf_counter() - start) * 1e3
    out_dir = checkout.OUT / "probe"
    out_dir.mkdir(parents=True, exist_ok=True)
    module = workload_module(args.workload)
    handle = module.warm_up(args.workload, args.scale, out_dir)
    print("setup-done " + json.dumps({"import_ms": import_ms}), flush=True)
    if handle is not None:
        handle.close()
    return 0


def measure_setup(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    """Wall time of each fresh probe process up to its warm-up's end."""
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        reported = len(walls)
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--scale", args.scale],
            stdout=subprocess.PIPE, text=True, cwd=checkout.ROOT,
        )
        try:
            for line in proc.stdout:
                if line.startswith("setup-done "):
                    walls.append(perf_counter() - start)
                    imports.append(json.loads(line.split(" ", 1)[1])["import_ms"])
                    break
            proc.stdout.read()
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or len(walls) == reported:
            raise RuntimeError(f"set-up probe exited with {proc.returncode} before set-up ended")
    return walls, imports


# -- provenance -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, when it is itself a git work tree.

    Checking for ``.git`` first keeps git from searching parent directories.
    """
    if not (checkout.ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    out = subprocess.run(["git", "-C", str(checkout.ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((checkout.SRC / "qbcsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args: argparse.Namespace, module) -> dict:
    import numpy
    import qbcsim

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "qbcsim": qbcsim.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workload_spec": module.workload_spec(args.workload, args.scale),
    }


# -- the run --------------------------------------------------------------------


def measure(args: argparse.Namespace) -> Results:
    trace = bool(args.trace)
    kinds = ("per_layer", "end_to_end") if trace else ("end_to_end", "per_layer")
    results = Results(*(declared_metrics(kind) for kind in kinds))
    module = workload_module(args.workload)
    out_dir = checkout.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    results.details["provenance"] = provenance(args, module)

    walls, imports = measure_setup(args)
    results.put("setup_s", median(walls), "s", len(walls))
    results.put("cli.import.ms", median(imports), "ms", len(imports))
    module.run(args.workload, args.scale, args.seed, args.seconds, trace, out_dir, results)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results.put("peak_rss_mb", own + results.child_rss_mb, "MB", 1)
    for name, unit in results.declared.items():
        if name in results.metrics:
            continue
        if not trace:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        # A layer this workload never calls has no spans: it reports 0 from 0 samples.
        results.put(name, 0, unit, 0)
    (out_dir / "result.json").write_text(json.dumps({
        "details": results.details, "metrics": results.metrics, "extras": results.extras,
        "attempted": results.attempted, "failed": results.failed,
        "failures": results.failures,
    }, indent=2) + "\n", encoding="utf-8")
    return results


def print_results(args: argparse.Namespace, results: Results) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print("details " + json.dumps(results.details))
    print(f"{'metric':44} {'value':>16} {'unit':10} samples")
    for label, table in (("", results.metrics), (" (breakdown, not gated)", results.extras)):
        for name, m in table.items():
            print(f"{name + label:44} {m['value']:16.6g} {m['unit']:10} {m['samples']}")
    ratio = results.failed / results.attempted if results.attempted else 0.0
    print(f"failed_ratio {results.failed}/{results.attempted} = {ratio:g}")
    for problem in results.failures[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": results.failed == 0,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in results.metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small grids and short traces, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args, start)
    checkout.use_checkout_source()
    print_results(args, measure(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
