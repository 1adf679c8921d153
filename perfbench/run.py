#!/usr/bin/env python3
"""slurmbridge benchmark: batched workflow runs end to end against the
in-process Slurm simulator, with remote time from a modelled SSH link.

    python3 perfbench/run.py --workload many-batches --seed 1 --seconds 20 --trace 0

Runs the program from the checkout's own src/. With --trace 0 it reports the
end-to-end metrics of untraced runs; with --trace 1 it alternates untraced
and traced runs, reports the per-layer metrics of the traced runs and writes
their spans to .bench_out/. Each metric is printed
on its own line; the last line is one JSON object. See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

# harness, linkmodel and tracing import the program, so they are imported
# only once main() has put the checkout's src/ on the path.

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3
MIN_RUNS = 3


def declared_metrics():
    """(end-to-end, per-layer) {name: unit} maps, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(values):
    """(percentile, value) of the highest order statistic with at least ten
    samples beyond it, or None when there are ten samples or fewer."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return None
    index = len(ordered) - 11
    return 100 * (index + 1) / len(ordered), ordered[index]


class Bench:
    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counter = 0

    def _scratch(self, kind):
        self.counter += 1
        return os.path.join(self.work, f"{kind}{self.counter}")

    def _run(self, inputs, tracer=None):
        """Provision a fresh cluster, then one gated, timed run."""
        import harness

        if tracer is not None:
            tracer.begin_run(f"provision{self.counter}")
        cluster = harness.provision(inputs)
        if tracer is not None:
            tracer.begin_run(f"run{self.counter}")
        metrics, problems = harness.run_once(inputs, cluster, self._scratch("out"), tracer)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return metrics

    def setup(self):
        """Generate the inputs, parse config and descriptor, scan the
        inputs, provision and make one warm-up run; three times, and the
        median reported. The input directory is kept between invocations
        and regenerated in place (see workloads.py)."""
        import harness
        from workloads import generate_inputs

        directory = os.path.join(WORK, f"inputs-{self.args.workload}")
        times = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            generate_inputs(self.args.workload, self.args.seed, directory)
            inputs = harness.prepare(self.args.workload, directory)
            self._run(inputs)
            times.append(time.perf_counter() - started)
        return inputs, statistics.median(times)

    def measure(self, inputs, seconds):
        runs = []
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
            metrics = self._run(inputs)
            if metrics is not None:
                runs.append(metrics)
            elif self.failed > MIN_RUNS:
                break
        return runs

    def measure_interleaved(self, inputs, seconds, tracer):
        """Alternate untraced and traced runs, so both see the same state of
        a machine whose speed drifts; returns (untraced, traced) metrics."""
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while min(len(untraced), len(traced)) < MIN_RUNS or time.perf_counter() < deadline:
            metrics = self._run(inputs)
            if metrics is not None:
                untraced.append(metrics)
            tracer.install()
            try:
                metrics = self._run(inputs, tracer)
            finally:
                tracer.restore()
            if metrics is not None:
                traced.append(metrics)
            if self.failed > MIN_RUNS:
                break
        return untraced, traced


def end_to_end(runs, setup_s):
    values = {
        name: statistics.median(run[name] for run in runs)
        for name in ("time_to_results_s", "overhead_s", "cluster_wait_s")
    }
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


def per_layer(names, traced, untraced, provision_s):
    mean = {name: statistics.fmean(run.get(name, 0.0) for run in traced)
            for name in set().union(*traced)}

    def ratio(num, den):
        return mean[num] / mean[den] if mean[den] else 0.0

    values = {name: mean.get(name, 0.0) for name in names}
    values["orchestrator.pack_mb_per_s"] = ratio("orchestrator.pack.in_bytes",
                                                 "orchestrator.pack.s") / 1e6
    values["orchestrator.pack.ratio"] = ratio("orchestrator.pack.out_bytes",
                                              "orchestrator.pack.in_bytes")
    values["slurm.sacct_lines_per_s"] = ratio("slurm.sacct_lines", "slurm.poll_jobs.self_s")
    values["slurm.poll_useful_ratio"] = ratio("slurm.poll_useful", "slurm.poll_jobs.calls")
    values["simslurm.events_per_s"] = ratio("simslurm.events", "simslurm.advance.s")
    values["slurm.init_environment.s"] = provision_s
    values["trace.wall_s"] = mean["run_wall_s"]
    values["trace.untraced_wall_s"] = statistics.median(run["run_wall_s"] for run in untraced)
    values["trace.untraced_cpu_s"] = statistics.median(run["run_cpu_s"] for run in untraced)
    values["trace.overhead_s"] = mean["run_wall_s"] - values["trace.untraced_wall_s"]
    return values


def bench(args, layer_names):
    """Set up, measure and return (runner, metric values, text notes)."""
    from tracing import Tracer

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"))
    tempfile.tempdir = os.path.join(work, "tmp")
    runner = Bench(args, work)
    try:
        inputs, setup_s = runner.setup()
        if not args.trace:
            runs = runner.measure(inputs, args.seconds)
            if not runs:
                return runner, {}, []
            walls = [run["run_wall_s"] for run in runs]
            high = tail(walls)
            note = f"run_wall_s median {statistics.median(walls):.6g} s, samples {len(walls)}, "
            note += (f"p{high[0]:.0f} {high[1]:.6g} s" if high
                     else "no percentile has 10 samples beyond it")
            cpu = statistics.median(run["run_cpu_s"] for run in runs)
            return runner, end_to_end(runs, setup_s), [note, f"run_cpu_s median {cpu:.6g} s"]
        tracer = Tracer(inputs.sizes)
        untraced, traced = runner.measure_interleaved(inputs, args.seconds, tracer)
        provisions = [
            end - start for _, name, start, end, parent, run in tracer.spans
            if name == "slurm.init_environment" and parent is None
        ]
        os.makedirs(OUT, exist_ok=True)
        tracer.write(
            os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"),
            extra={"workload": args.workload, "seed": args.seed,
                   "unmeasured": ["wait on the orchestrator's endpoint_lock"]},
        )
        if not (untraced and traced):
            return runner, {}, []
        notes = [f"traced runs {len(traced)}, untraced runs {len(untraced)}",
                 "not measurable from outside: wait on the orchestrator's endpoint_lock"]
        values = per_layer(layer_names, traced, untraced, statistics.fmean(provisions))
        return runner, values, notes
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "slurmbridge", "__init__.py")):
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import slurmbridge

    if not os.path.abspath(slurmbridge.__file__).startswith(SRC + os.sep):
        print(f"benchmark: slurmbridge imported from {slurmbridge.__file__}", file=sys.stderr)
        return 2
    units = declared_metrics()[args.trace]
    runner, values, notes = bench(args, list(units))
    if set(values) != set(units):
        print("benchmark: no successful run to report", file=sys.stderr)
        for problem in runner.problems[:5]:
            print(problem, file=sys.stderr)
        return 1
    for problem in runner.problems[:5]:
        print(f"failed run: {problem}")
    failed_frac = runner.failed / runner.attempted
    print(f"runs {runner.attempted} failed {runner.failed} failed_frac {failed_frac:.4f}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
