"""eulerlab benchmark runner.

    python3 perfbench/run.py --workload solve_emit --seed 1 --seconds 25 --trace 0

Run from a source checkout; the package is imported from its ``src/``
directory, so nothing needs installing.  One benchmark process runs the
workload's command lines through ``eulerlab.cli.main`` in-process, one after
another, for ``--seconds`` seconds, and checks every command's output.  The
last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (median time from
  starting a fresh interpreter to ``import eulerlab.cli`` done, over
  starts spread through the run, one subprocess at a time), ``wall_s``
  (median wall time of one iteration of the command list), both scaled to
  the reference host speed (see ``PROBE_REF_S``), ``peak_rss_mb`` (peak
  resident set of this process) and ``artifact_mb`` (bytes written to
  ``--out`` per iteration);
* ``--trace 1``: the per-layer metrics, from spans around the package's
  public functions (see ``tracer.py``).  Untraced and traced iterations
  alternate, so the tracing overhead (traced minus untraced median wall
  time) is measured in the same run.

The lines before the last one give the environment, the sample counts and
the share of failed operations.  Artifacts go to a scratch directory under
``.perfbench_out/`` that is removed at exit; the full result record, and in
traced runs the spans of the last traced iteration, are kept in
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_out")
# setup_s is the median of this many interpreter starts.  They are spread
# over the run rather than taken back to back: the host's speed drifts over
# seconds to minutes, and starts taken in one burst all land in one phase.
SETUP_SAMPLES = 9
# The host's speed drifts: the same computation runs up to 1.8 times slower
# for minutes at a time, on both cores at once (see README).  So the timed
# end-to-end metrics divide each timing by the host factor measured next to
# it: the time of a fixed probe, which runs no eulerlab code, over
# PROBE_REF_S.  The result is seconds at the reference speed, the speed at
# which the probe takes PROBE_REF_S.  The raw times are kept in the record.
PROBE_REF_S = 0.05
# a run starts another iteration while that brings its length closer to
# --seconds, and always runs at least this many, so that a traced run has
# one untraced and one traced iteration
MIN_ITERATIONS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import eulerlab.cli\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC), eulerlab.__file__)\n")


def pin_environment():
    """Cap BLAS/OpenMP threads at the usable core count before numpy loads,
    and drop EULERLAB_OUT so no artifact can be redirected out of the
    scratch directory (every command also passes --out explicitly)."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ.pop("EULERLAB_OUT", None)
    return nproc


def environment(nproc):
    import numpy
    import scipy
    return {"nproc": nproc,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__}


class Probe:
    """Memory-bound numpy on three preallocated 4 MB arrays, about as long
    as PROBE_REF_S; a call returns its wall time.

    Of the probes tried (interpreter loops, float formatting, file writes,
    fresh allocations, small BLAS products), this one followed the host's
    slow phases best.  It allocates nothing, so the state the program
    leaves behind (heap, BLAS threads) does not change its time."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.a, self.b = rng.random(500_000), rng.random(500_000)
        self.c = np.empty_like(self.a)

    def __call__(self):
        np = self.np
        start = time.perf_counter()
        for _ in range(40):
            np.multiply(self.a, self.b, out=self.c)
            np.add(self.c, self.a, out=self.c)
        return time.perf_counter() - start


def at_reference_speed(seconds, probe_before, probe_after):
    """A timing divided by the host factor of the probes either side."""
    return seconds * PROBE_REF_S / math.sqrt(probe_before * probe_after)


class SetupSamples:
    """Fresh-interpreter import times of eulerlab.cli, one interpreter at a
    time, raw and at the reference speed.  ``take(n)`` starts interpreters
    until n of the ``total`` have been tried; ``seconds`` is the time spent
    doing so."""

    def __init__(self, total, probe):
        self.total = total
        self.probe = probe
        self.samples = []
        self.scaled = []
        self.failures = 0
        self.seconds = 0.0

    def take(self, n):
        begin = time.perf_counter()
        while len(self.samples) + self.failures < min(n, self.total):
            before = self.probe()
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC],
                                  capture_output=True, text=True, cwd=ROOT,
                                  timeout=120)
            fields = proc.stdout.split()
            if (proc.returncode != 0 or len(fields) != 2
                    or not fields[1].startswith(SRC + os.sep)):
                sys.stderr.write("setup sample failed: %s\n" % proc.stderr)
                self.failures += 1
            else:
                self.samples.append(float(fields[0]) - start)
                self.scaled.append(at_reference_speed(
                    self.samples[-1], before, self.probe()))
        self.seconds += time.perf_counter() - begin


class Runner:
    """Runs one workload's command lines and tallies operations.

    An operation is one command line.  It fails if it raises, exits
    nonzero, fails its output check, or writes other bytes than the same
    command did in the first iteration.  (measure() adds the set-up
    interpreter starts as operations of their own.)
    """

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._digests = {}

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except Exception:
                traceback.print_exc()
                rc = None
        return rc, out.getvalue(), err.getvalue()

    def _tally(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.flag(label, problems)

    def flag(self, label, problems):
        """Record problems that are not an operation's, e.g. a tracer
        self-check; they still make the run incorrect."""
        self.problems += ["%s: %s" % (label, p) for p in problems]

    @staticmethod
    def _problems(result, check, outdir):
        rc, out, err = result
        if rc != 0:
            return ["exit code %r: %s" % (rc, err.strip())]
        return check(out, outdir)

    def setup(self):
        # a set-up command's last argument is its --out directory
        for label, argv, check in self.workload.setup_commands():
            self._tally(label, self._problems(self._call(argv), check,
                                              argv[-1]))

    def iteration(self, tracer=None, probe=None):
        """Run the command list once; returns (wall seconds of each
        command, the same at the reference speed, artifact bytes).

        The clock covers the commands only, not their checks.  With a probe
        it runs before each command and after the last."""
        wl = self.workload
        shutil.rmtree(wl.out, ignore_errors=True)
        cmds = wl.commands()
        results, walls, probes = [], [], []
        with tracer if tracer is not None else contextlib.nullcontext():
            for _, argv, _ in cmds:
                if probe is not None:
                    probes.append(probe())
                start = time.perf_counter()
                results.append(self._call(argv))
                walls.append(time.perf_counter() - start)
            if probe is not None:
                probes.append(probe())
        scaled = [at_reference_speed(w, a, b)
                  for w, a, b in zip(walls, probes, probes[1:])]
        failed = self.failed
        for (label, _, check), result in zip(cmds, results):
            self._tally(label, self._problems(result, check, wl.outdir(label))
                        or self._same_bytes(label))
        if tracer is not None and self.failed == failed:
            self.flag("tracer", wl.trace_problems(tracer))
        size = sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(wl.out) for f in files)
        return walls, scaled, size

    def _same_bytes(self, label):
        """README determinism contract: identical configurations write
        byte-identical files."""
        top = self.workload.outdir(label)
        digests = {}
        for d, _, files in os.walk(top):
            for f in files:
                path = os.path.join(d, f)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, top)] = \
                        hashlib.file_digest(fh, "sha256").hexdigest()
        first = self._digests.setdefault(label, digests)
        changed = sorted(k for k in set(first) | set(digests)
                         if first.get(k) != digests.get(k))
        if changed:
            return ["artifacts differ from the first iteration: %s"
                    % ", ".join(changed)]
        return []


def layer_metrics(tracer):
    """Per-layer metrics of one traced iteration, name -> (value, unit)."""
    summary = tracer.summary()
    m = {}
    for name, (calls, total, self_s) in summary.items():
        m[name + ".calls"] = (calls, "count")
        m[name + ".total_s"] = (total, "s")
        m[name + ".self_s"] = (self_s, "s")
    write_s = (summary["serialize.write_csv"][1]
               + summary["serialize.write_json"][1])
    solve_s = summary["elliptic2d.solve_semilinear"][1]
    trace_s = summary["streamlines.trace"][1]
    m["serialize.bytes_written"] = (tracer.bytes_written, "B")
    m["serialize.write_mb_per_s"] = (
        tracer.bytes_written / 1e6 / write_s if write_s else 0.0, "MB/s")
    m["elliptic2d.sweeps"] = (tracer.sweeps, "count")
    m["elliptic2d.sweep_ms"] = (
        1e3 * solve_s / tracer.sweeps if tracer.sweeps else 0.0, "ms")
    m["streamlines.rk4_steps"] = (tracer.rk4_steps, "count")
    m["streamlines.trace.us_per_step"] = (
        1e6 * trace_s / tracer.rk4_steps if tracer.rk4_steps else 0.0, "us")
    m["tracer.spans"] = (len(tracer.spans), "count")
    return m


def measure(cli, workload, seconds, tracing):
    """Set-up and timed loop; returns (runner, metrics, record)."""
    from tracer import Tracer

    record = {}
    metrics = {}
    runner = Runner(cli, workload)
    # traced runs report raw times only, as their per-layer metrics do
    probe = None if tracing else Probe()
    setup = SetupSamples(0 if tracing else SETUP_SAMPLES, probe)
    runner.setup()
    # the first iteration in a process is often the slowest; it counts as
    # set-up, and its artifacts are the reference for the byte check
    walls, _, _ = runner.iteration()
    record["warmup_wall_s"] = sum(walls)

    tracer = Tracer() if tracing else None
    plain, traced, layers, per_command, scaled = [], [], [], [], []
    start = time.perf_counter()
    while True:
        use_tracer = tracing and len(plain) > len(traced)
        if use_tracer:
            tracer.reset()
        # the byte check makes every iteration's size equal the warm-up's
        walls, at_ref, size = runner.iteration(
            tracer if use_tracer else None, probe)
        if use_tracer:
            traced.append(sum(walls))
            layers.append(layer_metrics(tracer))
        else:
            plain.append(sum(walls))
            per_command.append(walls)
            scaled.append(sum(at_ref))
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start - setup.seconds
        if done >= MIN_ITERATIONS and elapsed * (done + 0.5) / done > seconds:
            break
        setup.take(1 + int(setup.total * elapsed / seconds))
    setup.take(setup.total)

    runner.attempted += setup.total
    runner.failed += setup.failures
    record["setup_s_samples"] = setup.samples
    record["setup_s_at_reference"] = setup.scaled
    if setup.samples:
        metrics["setup_s"] = (statistics.median(setup.scaled), "s")
        record["setup_raw_s"] = statistics.median(setup.samples)
    record["wall_s_untraced"] = plain
    record["wall_s_per_command"] = per_command
    record["wall_s_at_reference"] = scaled
    record["wall_s_traced"] = traced
    if not tracing:
        metrics["wall_s"] = (statistics.median(scaled), "s")
        record["wall_raw_s"] = statistics.median(plain)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["artifact_mb"] = (size / 1e6, "MB")
    else:
        for name, (_, unit) in layers[0].items():
            values = [lm[name][0] for lm in layers]
            if unit in ("count", "B") and len(set(values)) != 1:
                runner.flag("tracer", ["count %s varies across traced "
                                         "iterations: %s" % (name, values)])
            metrics[name] = (values[0] if unit in ("count", "B")
                             else statistics.median(values), unit)
        metrics["tracer.traced_wall_s"] = (statistics.median(traced), "s")
        metrics["tracer.untraced_wall_s"] = (statistics.median(plain), "s")
        metrics["tracer.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain), "s")
        tracer.dump(os.path.join(SCRATCH, "results", "spans-%s-seed%d.csv"
                                 % (workload.name, workload.seed)))
    return runner, metrics, record


def main(argv=None):
    nproc = pin_environment()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "eulerlab", "cli.py")):
        print("no eulerlab sources under %s; run from a source checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import eulerlab.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print("eulerlab was imported from %s, not from %s"
              % (cli.__file__, SRC), file=sys.stderr)
        return 2

    os.makedirs(os.path.join(SCRATCH, "results"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=SCRATCH)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        runner, metrics, record = measure(cli, workload, args.seconds,
                                          bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(nproc)
    record.update(vars(args))
    record.update(environment=env, attempted=runner.attempted,
                  failed=runner.failed, problems=runner.problems,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    with open(os.path.join(SCRATCH, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(record, fh, indent=1)

    for p in runner.problems:
        print("FAILED %s" % p)
    print("environment: nproc=%(nproc)d python=%(python)s numpy=%(numpy)s "
          "scipy=%(scipy)s" % env + " " + " ".join(
              "%s=%s" % kv for kv in env["threads"].items()))
    print("samples: %d untraced and %d traced iterations, %d setup starts"
          % (len(record["wall_s_untraced"]), len(record["wall_s_traced"]),
             len(record.get("setup_s_samples", []))))
    print("fail_share=%.6g (%d of %d operations failed)"
          % (runner.failed / runner.attempted, runner.failed,
             runner.attempted))
    if not args.trace:
        for k, (v, u) in metrics.items():
            print("%s=%.6g %s" % (k, v, u))
        for k in ("setup_raw_s", "wall_raw_s"):
            print("%s=%.6g s (not scaled to the reference speed)"
                  % (k, record[k]))
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
