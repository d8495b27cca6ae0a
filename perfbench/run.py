#!/usr/bin/env python3
"""The repository benchmark: one workload against the served fleet.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hit_mix --seed 1 --seconds 10 --trace 0

It builds the workload's inputs from ``--seed``, starts the system under
test (the event-loop HTTP front over 2 local pipe shards, default
``ServiceConfig``, in its own processes), measures it for ``--seconds``
seconds -- an open-loop phase at the workload's fixed offered rate, then
a saturation phase -- and checks every answer against the
single-process serial reference.  The host's CPU steal is sampled
throughout (``host.py``): set-up time is the median of the less-stolen
set-ups, and latencies and throughput come from the less-stolen windows
of each phase.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics: the workload's counters, plus the depth ladder of
``ladder.py``.  Workloads, rates and the layer-to-metric map live in
``spec.json``.  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Human-readable metrics, the environment record and the checks go to the
lines before it and to ``.perfbench/results/``; spans go to
``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import host

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
#: client connections: one per core of the 2-core reference machine
#: (the load generator uses no more connections than nproc)
CONNECTIONS = 2

def metric_units(spec: dict, trace: bool) -> dict:
    """Name -> unit of every metric a run reports (spec.json)."""
    if not trace:
        return {k: v["unit"] for k, v in spec["end_to_end"].items()}
    return {k: u for layer in spec["layers"] for k, u in layer["metrics"].items()}


def environment(shards: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "fleet_shards": shards,
    }


def _median(values):
    return statistics.median(values) if values else math.nan


class Run:
    """One benchmark run of one workload (see the module docstring)."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict, tmpdir: str) -> None:
        import loadgen
        import workloads

        self.lg, self.wl = loadgen, workloads
        self.name, self.seed, self.trace = workload, seed, trace
        self.spec, self.tmpdir = spec, tmpdir
        self.wspec = dict(spec["workloads"][workload],
                          shards=spec["fleet_shards"])
        self.open_s = seconds * spec["open_loop_share"]
        self.sat_s = seconds - self.open_s
        self.plan = workloads.BUILDERS[workload](
            seed, self.wspec, self.open_s, self.sat_s)
        self.oracle = workloads.Oracle()
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.answers: dict = {}     # item id -> answer body (checked)
        self.spans: list = []

    # -- bookkeeping ---------------------------------------------------
    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)

    def _check_items(self, phase, count_unsent: bool) -> None:
        """Check every partition answer of ``phase`` against the oracle."""
        for op, out in zip(phase.ops, phase.outcomes):
            if not isinstance(op.tag, str):
                continue
            if out.error == "not sent" and not count_unsent:
                continue
            self.attempted += 1
            if not out.ok:
                self._fail(f"{op.tag}: {out.error}")
                continue
            item = self.plan.items[op.tag]
            if not self.wl.same_answer(out.body, self.oracle.partition(item)):
                self._fail(f"{op.tag}: answer differs from the reference")
                continue
            self.answers.setdefault(op.tag, out.body)

    # -- phases ----------------------------------------------------------
    def _send(self, fleet, ops, **kw):
        return self.lg.run(fleet.address, ops, CONNECTIONS,
                           timeout_s=self.spec["timeout_s"], **kw)

    def setup(self):
        """Start the fleet; return it once every shard answered a probe
        correctly and the workload's catalogue is warm."""
        from repro.service import PartitionRequest

        fleet = self._start_fleet()
        probes = [
            self.wl.partition_item(f"probe.n{n}", PartitionRequest(
                self.wl.mesh(n), 4, method="greedy", seed=0))
            for n in self.wl.PROBE_SIZES
        ]
        phase = self._send(fleet, [self.lg.Op(0.0, p.http) for p in probes])
        shards = set()
        for item, out in zip(probes, phase.outcomes):
            if not (out.ok and self.wl.same_answer(
                    out.body, self.oracle.partition(item))):
                fleet.stop()
                raise RuntimeError(f"setup probe {item.id} failed: {out.error}")
            shards.add(json.loads(out.body)["shard"])
        if len(shards) != self.spec["fleet_shards"]:
            fleet.stop()
            raise RuntimeError(f"probes reached shards {sorted(shards)} only")
        warm = [self.lg.Op(0.0, self.plan.items[k].http, tag=k)
                for k in self.plan.warm]
        return fleet, self._send(fleet, warm) if warm else None

    def _start_fleet(self):
        from fleet import Fleet

        return Fleet(self.spec["fleet_shards"], self.tmpdir)

    def open_sessions(self, fleet) -> list:
        ops = [self.lg.Op(0.0, s.open_http(), lane=0)
               for s in self.plan.sessions]
        phase = self._send(fleet, ops)
        ids = []
        for out in phase.outcomes:
            if not out.ok:
                raise RuntimeError(f"session open failed: {out.error}")
            ids.append(json.loads(out.body))
        return ids

    def check_sessions(self, opened, phases) -> list:
        """Replay every session update by update in the oracle; return
        the cuts of the open-loop updates."""
        done: dict = {}   # session -> {step: (outcome, open-loop?)}
        for phase, is_open in phases:
            for op, out in zip(phase.ops, phase.outcomes):
                if isinstance(op.tag, tuple) and not (
                        out.error == "not sent" and not is_open):
                    done.setdefault(op.tag[1], {})[op.tag[2]] = (out, is_open)
        cuts = []
        for s, spec_s in enumerate(self.plan.sessions):
            steps = done.get(s, {})
            answered = 0
            while answered in steps and steps[answered][0].ok:
                answered += 1
            refs = self.oracle.session(spec_s, answered)
            self.attempted += 1
            if not self.wl.same_answer(json.dumps(opened[s]).encode(), refs[0]):
                self._fail(f"session {s} open differs from the reference")
            for step, (out, is_open) in sorted(steps.items()):
                self.attempted += 1
                if not out.ok:
                    self._fail(f"session {s} step {step}: {out.error}")
                elif step >= answered or not self.wl.same_answer(
                        out.body, refs[step + 1]):
                    self._fail(f"session {s} step {step}: differs")
                elif is_open:
                    cuts.append(float(json.loads(out.body)["cut_size"]))
        return cuts

    @staticmethod
    def _windows(sampler, phase, duration: float):
        """The phase's windows, the steal of each and which of them are
        kept (see host.py)."""
        spans = host.windows(duration)
        steal = [sampler.fraction(phase.t0 + a, phase.t0 + b) for a, b in spans]
        return spans, steal, host.quiet(steal)

    def execute(self) -> tuple[dict, dict]:
        setups, fleet = [], None
        repeats = 1 if self.trace else self.spec["setup_repeats"]
        sampler = host.StealSampler()
        try:
            for _ in range(repeats):
                if fleet is not None:
                    fleet.stop()
                    fleet = None
                t0 = time.perf_counter()
                fleet, warm = self.setup()
                setups.append((t0, time.perf_counter()))
                if warm is not None:
                    self._check_items(warm, count_unsent=True)
            opened = self.open_sessions(fleet) if self.plan.sessions else []
            ids = [o["session_id"] for o in opened]
            open_ops = self.plan.open_ops(ids, None)
            reads = [i for i, op in enumerate(open_ops)
                     if isinstance(op.tag, str)]
            spans = [] if self.trace else None
            phase_open = self._send(fleet, open_ops, spans=spans)
            next_steps = [0] * len(self.plan.sessions)
            for op in open_ops:
                if isinstance(op.tag, tuple):
                    next_steps[op.tag[1]] = max(next_steps[op.tag[1]],
                                                op.tag[2] + 1)
            phase_sat = self._send(fleet, self.plan.sat_ops(ids, next_steps),
                                   window=self.plan.window, stop_at=self.sat_s)
            stats = None
            if self.trace:
                from repro.service import HTTPServiceClient

                client = HTTPServiceClient(fleet.url, timeout=30.0)
                stats = client.stats()
                client.close()
            rss = fleet.peak_rss_mb()
        finally:
            sampler.stop()
            if fleet is not None:
                fleet.stop()
        self.spans.extend(spans or [])

        self._check_items(phase_open, count_unsent=True)
        self._check_items(phase_sat, count_unsent=False)
        session_cuts = []
        if self.plan.sessions:
            session_cuts = self.check_sessions(
                opened, [(phase_open, True), (phase_sat, False)])

        # timed figures come from the phase windows with the least host
        # steal: latencies of the requests due in them, answers counted
        # in them
        o_spans, o_steal, o_keep = self._windows(sampler, phase_open, self.open_s)

        def quiet(indices):
            kept = [i for i in indices if o_keep[
                host.window_of(phase_open.ops[i].due, o_spans)]]
            return kept if phase_open.latencies_ms(kept) else indices

        def size(i):
            return self.plan.items[phase_open.ops[i].tag].request.graph.n_nodes

        # read percentiles are of the scheduled mix of graph sizes, which
        # the kept windows alone hold only roughly
        shares: dict = {}
        for i in reads:
            shares[size(i)] = shares.get(size(i), 0.0) + 1.0 / len(reads)
        mixed = []
        for i in quiet(reads):
            out = phase_open.outcomes[i]
            if out.ok:
                mixed.append((size(i), (out.done - phase_open.ops[i].due) * 1e3))
        lat = [v for _, v in mixed]

        def read_percentile(p):
            return self.lg.mixed_percentile(mixed, shares, p) if mixed else math.nan

        updates = [i for i, op in enumerate(phase_open.ops)
                   if isinstance(op.tag, tuple)]
        info = {
            "latency_ms": {"p50": read_percentile(50),
                           "tail": self.lg.tail_percentile(lat)},
            "offered_rps": len(phase_open.ops) / self.open_s,
        }
        if updates:
            ulat = phase_open.latencies_ms(quiet(updates))
            info["update_latency_ms"] = {
                "update_p50_ms": _median(ulat),
                "update_p95_ms": self.lg.percentile(ulat, 95) if ulat else math.nan,
                "tail": self.lg.tail_percentile(ulat),
            }

        done = [o.done for o in phase_sat.outcomes
                if o.ok and o.done <= self.sat_s]
        s_spans, s_steal, s_keep = self._windows(
            sampler, phase_sat, max(done) if done else self.sat_s)
        answers = [0] * len(s_spans)
        for t in done:
            answers[host.window_of(t, s_spans)] += 1
        kept = [a for a, keep in zip(answers, s_keep) if keep]
        width = s_spans[0][1] - s_spans[0][0]
        throughput = sum(kept) / (len(kept) * width) if done else 0.0
        setup_s = [b - a for a, b in setups]
        setup_steal = [sampler.fraction(a, b) for a, b in setups]
        info["host_steal"] = {
            "setups": [round(x, 4) for x in setup_steal],
            "open_windows": [round(x, 4) for x in o_steal],
            "open_kept": sum(o_keep),
            "sat_windows": [round(x, 4) for x in s_steal],
            "sat_kept": sum(s_keep),
        }

        if self.plan.sessions:
            cuts = session_cuts
        elif self.plan.warm:    # the cache-hit workloads: the catalogue
            cuts = [float(json.loads(self.answers[k])["cut_size"])
                    for k in self.plan.warm if k in self.answers]
        else:
            cuts = [float(json.loads(o.body)["cut_size"])
                    for o in phase_open.outcomes if o.ok]

        if not self.trace:
            metrics = {
                "setup_s": _median([t for t, keep in zip(
                    setup_s, host.quiet(setup_steal, host.SETUP_KEEP_SHARE))
                    if keep]),
                "p50_ms": read_percentile(50),
                "p95_ms": read_percentile(95),
                "throughput_rps": throughput,
                "mean_cut": statistics.fmean(cuts) if cuts else math.nan,
                "peak_rss_mb": rss,
            }
            info["setup_runs_s"] = setup_s
            return metrics, info

        totals = stats["totals"]
        results = totals["cache"]["results"]
        # the generator records a span after it has stamped the answer,
        # so recording is timed on its own: the mean cost of one span as
        # a share of the median request's latency
        per_span_ms = phase_open.record_s * 1e3 / max(1, len(spans))
        metrics = {
            "service.cache.hit_ratio":
                results["hits"] / max(1, results["hits"] + results["misses"]),
            "service.scheduler.jobs_executed": totals["scheduler"]["jobs_executed"],
            "service.scheduler.jobs_joined": totals["scheduler"]["jobs_joined"],
            "service.sharding.retries": sum(
                h["restarts"] + h["probe_failures"] for h in stats["health"]),
            "trace.overhead_frac": per_span_ms / read_percentile(50),
            "loadgen.lag_p95_ms": self.lg.percentile(phase_open.lags_ms(), 95),
        }
        import ladder

        ladder_metrics, checks, ladder_spans = ladder.run_ladder(
            self.seed, self.tmpdir)
        for key in [k for k in checks if k.endswith("_identical")]:
            self.attempted += 1
            if not checks[key]:
                self._fail(f"ladder check {key} failed")
        self.spans.extend(ladder_spans)
        metrics.update(ladder_metrics)
        info["checks"] = checks
        return metrics, info


def _emit(record: dict, spans: list) -> None:
    results, span_dir = os.path.join(OUT, "results"), os.path.join(OUT, "spans")
    os.makedirs(results, exist_ok=True)
    os.makedirs(span_dir, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    with open(os.path.join(results, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    with open(os.path.join(span_dir, stem + ".jsonl"), "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, default=str) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no source tree at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # a terminated run still stops its fleet and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    os.environ["TMPDIR"] = tmpdir
    tempfile.tempdir = tmpdir
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
                  spec, tmpdir)
        metrics, info = run.execute()
        run.oracle.close()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    units = metric_units(spec, bool(args.trace))
    if set(metrics) != set(units):
        missing = sorted(set(units) ^ set(metrics))
        print(f"perfbench: metric set differs from spec.json: {missing}",
              file=sys.stderr)
        return 1
    env = environment(spec["fleet_shards"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "env": env, "info": info,
        "metrics": metrics, "attempted": run.attempted, "failed": run.failed,
        "errors": run.errors,
    }
    _emit(record, run.spans)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"{name:42s} {value:14.4f} {units[name]}")
    for name, value in info.items():
        print(f"# {name}: {json.dumps(value, default=str)}")
    for why in run.errors:
        print(f"# failed: {why}")
    bad = [k for k, v in metrics.items()
           if not isinstance(v, (int, float)) or not math.isfinite(v)]
    for name in bad:
        print(f"# metric {name} was not measured", file=sys.stderr)
    result = {
        "correct": run.failed == 0 and not bad,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            k: {"value": (float(v) if k not in bad else None), "unit": units[k]}
            for k, v in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
