"""gluesurf benchmark: one workload, one closed-loop client, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload fourlines|homology|pi1 --seed N \
        --seconds S --trace 0|1

One client in one process runs one op at a time.  The seed fixes a list of
inputs; the run repeats that list until ``--seconds`` have elapsed.  The
first repeat's outputs are checked against the oracles in ``oracles.py``;
a later repeat that reproduces an output gets that output's verdict again,
and one that does not is a failure.  Fresh-process samples
(set-up, CLI, bare interpreter, import) are taken between ops, each kind using a fixed share
of the window, so they are spread evenly over it.

Every timing is the fastest of its repeats: an op's time is its fastest
repeat, ``wall_s`` sums those over the list, and a fresh-process metric is
its fastest sample.  On shared 2-vCPU x86-64 virtual machines the CPU speed
changes by up to 1.8x for seconds at a time, so medians and means of single
samples report the host's load more than the program; there, the fastest
of many repeats spread over a 30-s window varied by about 5% between
windows where the median varied by about 20%.  Fresh processes get a
share of the window (about 50 CLI samples on ``fourlines``) rather than a
fixed small count.  Even so, slow spells that last longer than a run moved
the fastest CLI process by 15-20% between runs, and the fastest bare
``python -c pass`` measured beside it moved with it.  The CLI metric,
``cli_over_bare_start``, is therefore the one over the other; the fastest
sample of each kind in seconds is under ``fastest_s`` on the line before
the result.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the list also runs traced, alternating with untraced
repeats that call the original functions, and the line reports per-layer
metrics from the spans, which are also written to ``.bench_out/``.  The package is imported from ``src/``;
the benchmark exits with code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Share of the window each kind of fresh-process sample may use, and the
# fewest samples of it a run takes however slow they are.
SETUP_SHARE = 0.12
CLI_SHARE = 0.3
BARE_SHARE = 0.1
IMPORT_SHARE = 0.12
MIN_SAMPLES = 5
# spans kept per traced run; enough for stable per-op means, small on disk
TRACED_OPS = 200
# problem messages kept for the report line
KEPT_PROBLEMS = 10

# Fresh interpreter until the package is imported and every default-catalog
# group has its multiplication and inverse tables.
SETUP_CODE = (
    "from gluesurf import GroupPresentation, fingerprint\n"
    "fingerprint(GroupPresentation((), ()))\n"
    "print('ready', flush=True)\n"
)
IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import gluesurf.cli\n"
    "print(time.perf_counter() - t)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < KEPT_PROBLEMS:
                self.problems.extend(problems[:3])


class Spread:
    """Samples of ``take(inp, summary)`` that use ``share`` of the window.

    ``catch_up`` takes samples until they have used ``share`` of the time
    elapsed so far, so they are spread evenly over the window; ``finish``
    tops them up to MIN_SAMPLES.
    """

    def __init__(self, share: float, take):
        self.share = share
        self.take = take
        self.spent = 0.0
        self.values: list[float] = []

    def sample(self, inp: dict, summary: dict) -> None:
        t0 = time.perf_counter()
        self.values.append(self.take(inp, summary))
        self.spent += time.perf_counter() - t0

    def catch_up(self, elapsed: float, inp: dict, summary: dict) -> None:
        while self.spent < self.share * elapsed:
            self.sample(inp, summary)

    def finish(self, inp: dict, summary: dict) -> None:
        while len(self.values) < MIN_SAMPLES:
            self.sample(inp, summary)


def setup_sample(inp=None, summary=None) -> float:
    """Fresh process to ready."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                          env=child_env(), cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up process failed")
    return elapsed


def bare_sample(inp=None, summary=None) -> float:
    """Fresh interpreter that does nothing.

    Output is captured as in the CLI sample: ``subprocess.run`` then waits on
    the pipes, whereas a child without pipes is polled, which rounds its
    time up to the next step of the poll's doubling sleeps.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, env=child_env(),
                   cwd=ROOT, timeout=60, check=True)
    return time.perf_counter() - t0


def import_sample(inp=None, summary=None) -> float:
    """Fresh-process ``import gluesurf.cli``, measured inside the child."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], capture_output=True,
                          env=child_env(), cwd=ROOT, timeout=60, check=True)
    return float(done.stdout)


def cli_sampler(workload, counts: Counts):
    """Wall time of one CLI process on the workload's own command; output checked."""
    def take(inp: dict, summary: dict) -> float:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"cli-input-{workload.name}.json"
        if "text" in inp:
            path.write_text(inp["text"])
        argv, check = workload.cli(inp, summary, str(path))
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "gluesurf.cli", *argv],
                              capture_output=True, env=child_env(), cwd=ROOT, timeout=120)
        elapsed = time.perf_counter() - t0
        try:
            problems = check(done.returncode, done.stdout)
        except ValueError as exc:  # stdout is not the JSON the command promises
            problems = [f"CLI stdout unreadable: {exc}"]
        counts.record(problems)
        return elapsed
    return take


def run_op(workload, inp, tracer=None, op_id=None):
    """Time one op; return (seconds, summary).  The summary is built untimed."""
    if tracer is not None:
        tracer.op = op_id
    raw, summary = None, None
    t0 = time.perf_counter()
    try:
        raw = workload.run(inp)
    except Exception as exc:  # an unexpected exception is a failed op, not a crash
        summary = {"exception": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    return elapsed, summary or workload.summary(raw)


def check_op(workload, inp, summary) -> list[str]:
    """The oracles' verdict on one op's output: its problems, empty when right."""
    if "exception" in summary:
        return [summary["exception"]]
    try:
        return workload.check(inp, summary)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


@dataclass
class Measured:
    best: list[float]          # per op: fastest untraced repeat
    traced_best: list[float]   # per op: fastest traced repeat (trace mode)
    repeats: int = 0
    traced_ops: int = 0
    summaries: list[dict] = field(default_factory=list)   # per op: first output
    verdicts: list[list[str]] = field(default_factory=list)  # per op: its problems


def measure(workload, seed: int, seconds: float, counts: Counts, tracer=None, spreads=()):
    """Closed loop: repeat the seeded op list until ``seconds`` elapse.

    The first repeat's outputs are checked against the oracles.  A later
    repeat of an op counts with the first verdict when it reproduces the
    first output, and as a failure when it does not.  In trace mode the
    list also runs traced, alternating which goes first, until TRACED_OPS
    ops were traced; the layers are wrapped only during the traced passes.
    The ``spreads`` take their samples after untraced ops, on the first
    input and its output.
    """
    inputs = [workload.make_input(seed, i) for i in range(workload.ops)]
    m = Measured([math.inf] * len(inputs), [math.inf] * len(inputs))
    start = time.perf_counter()
    while m.repeats == 0 or time.perf_counter() - start < seconds:
        modes = [False]
        if tracer is not None and m.traced_ops < TRACED_OPS:
            modes.insert(m.repeats % 2, True)
        for with_trace in modes:
            with tracer if with_trace else contextlib.nullcontext():
                for i, inp in enumerate(inputs):
                    if with_trace:
                        t, summary = run_op(workload, inp, tracer, m.traced_ops)
                        m.traced_ops += 1
                        m.traced_best[i] = min(m.traced_best[i], t)
                    else:
                        t, summary = run_op(workload, inp)
                        m.best[i] = min(m.best[i], t)
                    if len(m.summaries) <= i:
                        m.summaries.append(summary)
                        m.verdicts.append(check_op(workload, inp, summary))
                    counts.record(m.verdicts[i] if summary == m.summaries[i] else
                                  [f"op {i}: output differs between repeats"])
                    if not with_trace and "exception" not in m.summaries[0]:
                        for spread in spreads:
                            spread.catch_up(time.perf_counter() - start, inputs[0],
                                            m.summaries[0])
        m.repeats += 1
    if "exception" not in m.summaries[0]:
        for spread in spreads:
            spread.finish(inputs[0], m.summaries[0])
    return m


COUNTED_LAYERS = ("intlinalg.snf", "intlinalg.cokernel_invariants", "gluing.cusps",
                  "gluing.quotient_curve", "topology.homotopy_graph", "grouptheory.hom_count",
                  "fourlines.d4_action")


def layer_metrics(tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans; times and counts are per traced op."""
    from tracer import LAYERS, layer_totals

    names = [f"{m}.{f}" for m, f in LAYERS]
    found = layer_totals(tracer.spans)
    layers = {name: found.get(name, {"calls": 0, "self_s": 0.0, "sizes": []}) for name in names}

    def total(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in layers[name]["sizes"])

    def per_call(name: str, key: str) -> float:
        return total(name, key) / layers[name]["calls"] if layers[name]["calls"] else 0.0

    snf, tietze, hom = "intlinalg.snf", "grouptheory.tietze_simplify", "grouptheory.hom_count"
    search, homs = total(hom, "search_space"), total(hom, "homs")
    out = {f"{name}.self_s": (layers[name]["self_s"] / ops, "s") for name in names}
    out.update({f"{name}.calls": (layers[name]["calls"] / ops, "count") for name in COUNTED_LAYERS})
    out.update({
        f"{snf}.max_entry_bits": (max((s["entry_bits"] for s in layers[snf]["sizes"]), default=0), "bits"),
        f"{snf}.max_cells": (max((s["cells"] for s in layers[snf]["sizes"]), default=0), "count"),
        f"{tietze}.generators_out": (per_call(tietze, "generators_out"), "count"),
        f"{tietze}.relator_length_in": (per_call(tietze, "relator_length_in"), "count"),
        f"{tietze}.relator_length_out": (per_call(tietze, "relator_length_out"), "count"),
        f"{hom}.search_space": (search / ops, "count"),
        f"{hom}.homs": (homs / ops, "count"),
        f"{hom}.hit_ratio": (homs / search if search else 0.0, "ratio"),
        f"{hom}.budget_exits": (
            sum(s.get("raised") == "BudgetExceededError" for s in layers[hom]["sizes"]) / ops,
            "count"),
    })
    return out


def write_spans(tracer, workload: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}.jsonl"
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.sid, s.name, s.op, s.parent, s.entered, s.start, s.end,
                                 s.returned, s.sizes]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gluesurf" / "__init__.py").is_file():
        print(f"error: {SRC / 'gluesurf'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    counts = Counts()
    if args.trace:
        imports = Spread(IMPORT_SHARE, import_sample)
        spreads = {"import": imports}
        tracer = Tracer()
        m = measure(workload, args.seed, args.seconds, counts, tracer, [imports])
        metrics = layer_metrics(tracer, m.traced_ops)
        metrics["cli.import_s"] = (min(imports.values), "s")
        metrics["trace.overhead_s"] = (sum(m.traced_best) - sum(m.best), "s")
        write_spans(tracer, workload.name)
    else:
        setups = Spread(SETUP_SHARE, setup_sample)
        clis = Spread(CLI_SHARE, cli_sampler(workload, counts))
        bares = Spread(BARE_SHARE, bare_sample)
        spreads = {"setup": setups, "cli": clis, "bare": bares}
        m = measure(workload, args.seed, args.seconds, counts, spreads=spreads.values())
        metrics = {
            "setup_s": (min(setups.values), "s"),
            "wall_s": (sum(m.best), "s"),
            "op_p50_s": (statistics.median(m.best), "s"),
            "cli_over_bare_start": (min(clis.values) / min(bares.values), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "ops": workload.ops,
        "repeats": m.repeats,
        "samples": {name: len(spread.values) for name, spread in spreads.items()},
        "fastest_s": {name: min(spread.values) for name, spread in spreads.items()},
        "error_share": counts.failed / counts.attempted,
        "budget_exit_share": sum(bool(s.get("budget_exit")) for s in m.summaries) / workload.ops,
        "problems": counts.problems[:10],
    }, sort_keys=True))
    print(json.dumps({
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
