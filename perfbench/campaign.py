"""Runs one workload's campaigns in this process and writes what it measured.

Usage: python3 campaign.py SPEC.json

The spec names the checkout's ``src`` directory, the CLI arguments of one
campaign, an output directory, a time budget and whether to trace. Every
campaign goes through ``qpgrad.cli.main`` with ``--workers 1``. The first
writes into ``<out>/first``; each later one writes into ``<out>/repeat`` and
its CSVs and checkpoints are compared byte for byte with the first.

Untraced, campaigns repeat while one more fits in the budget (at least
three run), and the result holds their wall times, the same times scaled by
the speed ``probe()`` runs taken during each (see ``timed``), and the peak
resident memory of this process. Traced, half the budget runs untraced
campaigns and the rest runs campaigns with every layer function wrapped by
``Tracer``; the spans of the last traced campaign are written to
``trace_csv``.
"""

from __future__ import annotations

import functools
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

MIN_CAMPAIGNS = 3
PROBE_ITERATIONS = 600
# Typical wall time of ``probe()`` on the 2-core machine the reference
# figures come from; scaled times read as seconds at that speed.
PROBE_NOMINAL_S = 0.01
PROBE_INTERVAL_S = 0.5


def probe() -> float:
    """Wall time of a fixed loop of tiny-array numpy operations, about 10 ms.

    The loop rotates pairs of a 16-amplitude vector the way a statevector
    kernel does, and uses no code of the program under test. Where cores
    are shared with other tenants, their speed can drift by 2x within
    seconds. A timing divided by the mean of the probes taken over it,
    times ``PROBE_NOMINAL_S``, cancels most of that drift.
    """
    amps = np.ones(16, dtype=complex)
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERATIONS):
        pairs = amps.reshape(-1, 2, 4)
        low = pairs[:, 0, :].copy()
        pairs[:, 0, :] = 0.6 * low - 0.8 * pairs[:, 1, :]
        pairs[:, 1, :] = 0.8 * low + 0.6 * pairs[:, 1, :]
    return time.perf_counter() - t0


def scaled(elapsed: float, probes: list[float]) -> float:
    """``elapsed`` in seconds at the nominal machine speed, from the probes taken over it."""
    return elapsed * PROBE_NOMINAL_S / statistics.mean(probes)


def timed(fn, sample=probe):
    """Runs ``fn()`` in this process and returns its value, its wall time and the probes.

    One probe runs right before ``fn`` and one right after. In between, a
    SIGALRM timer interrupts ``fn`` every ``PROBE_INTERVAL_S`` to run one
    more, so a drift in speed within a long campaign is sampled too; their
    time is taken out of the wall time.
    """
    probes = [sample()]

    def on_alarm(signum, frame):
        probes.append(sample())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    t0 = time.perf_counter()
    try:
        value = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - t0 - sum(probes[1:])
    probes.append(sample())
    return value, elapsed, probes


class Tracer:
    """Wraps functions at the names their callers look up and records spans.

    A span is [name, parent index, start ns, end ns]; spans stay in memory
    until ``write``. The self time of a span is its duration minus the
    durations of its direct children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.absent: set[str] = set()

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replaces ``owner.attr`` by a traced version, or records ``name`` as absent."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.add(name)
        else:
            setattr(owner, attr, self.traced(name, fn, on_call))

    def traced(self, name: str, fn, on_call=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, kwargs)
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced

    def count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def totals(self) -> dict:
        """Per span name: number of calls and summed self time in ns."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = {}
        for (name, _, start, end), children in zip(self.spans, child_ns):
            entry = out.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += end - start - children
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")


def _count_rollout(tracer, kwargs):
    # curriculum rolls out gradient episodes for training, forward-only ones for validation
    kind = "training" if kwargs.get("collect_grads", True) else "validation"
    tracer.count(f"curriculum.{kind}_episodes")


def install(tracer: Tracer) -> None:
    """Wraps every layer function of ``qpgrad`` at the name its caller looks up."""
    from qpgrad import cli, curriculum, evalharness, policy, qsim, reports, trainer

    cls = getattr(policy, "CircuitTemplate", None)
    plan = [
        (cli, "train", "trainer.train", None),
        (cli, "run_curriculum", "curriculum.run", None),
        (cli, "robustness_sweep", "evalharness.robustness_sweep", None),
        (cli, "generalization_grid", "evalharness.generalization_grid", None),
        (cli, "save_checkpoint", "checkpoint.save", None),
        (cli, "load_checkpoint", "checkpoint.load", None),
        (cli, "build_config", "config.build", None),
        (reports, "write_csv", "reports.write_csv", None),
        (trainer, "rollout", "trainer.rollout", None),
        (curriculum, "rollout", "trainer.rollout", _count_rollout),
        (evalharness, "rollout", "trainer.rollout", None),
        (trainer, "batch_gradient", "trainer.batch_gradient", None),
        (curriculum, "batch_gradient", "trainer.batch_gradient", None),
        (trainer, "apply_update", "trainer.apply_update", None),
        (curriculum, "apply_update", "trainer.apply_update", None),
        (trainer, "substream", "seeding.substream", None),
        (curriculum, "substream", "seeding.substream", None),
        (evalharness, "substream", "seeding.substream", None),
        (trainer, "reset", "cartpole.reset", None),
        (trainer, "step", "cartpole.step", None),
        (trainer, "observe", "cartpole.observe", None),
        (trainer, "normalize", "cartpole.normalize", None),
        (qsim, "packed_expval", "qsim.forward", None),
        (qsim, "packed_expval_and_grad", "qsim.adjoint", None),
        (policy, "probs_from_expectation", "policy.probs", None),
    ]
    for owner, attr, name, on_call in plan:
        tracer.wrap(owner, attr, name, on_call)
    for attr, name in (("angles", "policy.angles"), ("grad_to_params", "policy.pullback")):
        if cls is None:
            tracer.absent.add(name)
        else:
            tracer.wrap(cls, attr, name)


def _payload_files(directory: Path) -> dict[str, bytes]:
    """CSVs and checkpoints a campaign wrote; the manifest holds timestamps and is left out."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name != "manifest.txt"}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import qpgrad
    from qpgrad import cli

    if src not in Path(qpgrad.__file__).resolve().parents:
        raise SystemExit(f"qpgrad was imported from {qpgrad.__file__}, not from {src}")

    out = Path(spec["out"])
    first, repeat = out / "first", out / "repeat"
    argv = list(spec["argv"]) + ["--workers", "1"]
    budget = float(spec["seconds"])
    tracing = bool(spec["trace"])
    result = {
        "times": [],
        "scaled_times": [],
        "traced_times": [],
        "scaled_traced_times": [],
        "probes": [],
        "exit_codes": [],
        "mismatches": [],
        "layers": {},
        "absent": [],
    }
    reference_files: dict[str, bytes] | None = None

    def timed_campaign(run_main, times: list, scaled_times: list, sample=probe) -> None:
        nonlocal reference_files
        target = first if reference_files is None else repeat
        shutil.rmtree(target, ignore_errors=True)
        code, elapsed, probes = timed(lambda: run_main(argv + ["--out", str(target)]), sample)
        times.append(elapsed)
        scaled_times.append(scaled(elapsed, probes))
        result["probes"] += probes
        result["exit_codes"].append(code)
        if code == 0:
            files = _payload_files(target)
            if reference_files is None:
                reference_files = files
            elif files != reference_files:
                result["mismatches"].append(sorted(k for k in files.keys() | reference_files.keys()
                                                   if files.get(k) != reference_files.get(k)))

    start = time.perf_counter()

    def time_left(times: list, deadline: float, minimum: int) -> bool:
        # Start another campaign only if one more of median length still fits.
        if len(times) < minimum:
            return True
        return time.perf_counter() - start + statistics.median(times) <= deadline

    untraced_budget = budget / 2 if tracing else budget
    while time_left(result["times"], untraced_budget, 1 if tracing else MIN_CAMPAIGNS):
        timed_campaign(cli.main, result["times"], result["scaled_times"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracing:
        tracer = Tracer()
        install(tracer)
        result["absent"] = sorted(tracer.absent)
        traced_main = tracer.traced("campaign", cli.main)
        # A probe that interrupts a traced function becomes its child span, so
        # that no layer's self time includes it.
        traced_probe = tracer.traced("speed_probe", probe)
        sums: dict[str, list[int]] = {}
        counters: dict[str, int] = {}
        while time_left(result["traced_times"], budget, 1):
            tracer.reset()
            timed_campaign(traced_main, result["traced_times"], result["scaled_traced_times"], traced_probe)
            for name, (calls, self_ns) in tracer.totals().items():
                entry = sums.setdefault(name, [0, 0])
                entry[0] += calls
                entry[1] += self_ns
            for key, n in tracer.counters.items():
                counters[key] = counters.get(key, 0) + n
        tracer.write(Path(spec["trace_csv"]))
        result["layers"] = sums
        result["counters"] = counters
        result["csv_bytes"] = sum(p.stat().st_size for p in first.glob("*.csv"))

    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
