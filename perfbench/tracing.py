"""Spans recorded from outside the program, around the public calls into
each layer (orchestrator, slurm, jobscript, transport, simslurm).

Module functions are replaced for each traced run and restored after it;
the endpoint and simulator of each traced run are wrapped per instance.
Waiting on the orchestrator's internal endpoint lock happens inside
orchestrator code and cannot be seen from here: it shows up as orchestrator
self time.
"""

import collections
import itertools
import json
import os
import threading
import time

from slurmbridge import jobscript, orchestrator, slurm
from slurmbridge.states import JobState

LAYERS = ("orchestrator", "slurm", "jobscript", "transport", "simslurm")

ENDPOINT_CALLS = (
    "exec", "put_file", "put_bytes", "get_file", "path_exists", "make_dirs",
    "remove_tree", "sleep",
)


class Tracer:
    """Records (id, name, start, end, parent, run) spans in memory.

    A span opened on a thread with no open span of its own (a worker of the
    orchestrator's thread pool) gets the open root span as parent.
    """

    def __init__(self, input_sizes):
        self.input_sizes = input_sizes  # local input path -> bytes
        self.spans = []
        self.counters = collections.Counter()
        self.run_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None
        self._saved = []
        self._last_states = {}

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, func, after=None):
        """Time func as a span; name is a string or a function of the call's
        positional arguments. after(args, result) runs once the span closed."""

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else self._root
            is_root = parent is None
            if is_root:
                self._root = span_id
            label = name(args) if callable(name) else name
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
                self.spans.append((span_id, label, start, end, parent, self.run_id))
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count(self, key, amount=1):
        with self._lock:
            self.counters[key] += amount

    # -- hooks that count work where it happens ---------------------------

    def _after_pack(self, args, zip_path):
        items = args[0]
        self._count("pack.in_bytes", sum(self.input_sizes[i.local_path] for i in items))
        self._count("pack.out_bytes", os.path.getsize(zip_path))

    def _after_poll(self, args, states):
        changed = any(
            self._last_states.get(job_id, JobState.PENDING) is not state
            for job_id, state in states.items()
        )
        self._last_states.update(states)
        self._count("poll.useful", int(changed))

    def _after_exec(self, args, result):
        if args[0][:1] == ["sacct"]:
            self._count("sacct_lines", result.stdout.count("\n"))

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace the public module functions with traced ones."""
        targets = [
            (orchestrator, "run_workflow_batched", None),
            (orchestrator, "import_results", None),
            (orchestrator, "pack_inputs", self._after_pack),
            (slurm, "init_environment", None),
            (slurm, "submit_job", None),
            (slurm, "poll_jobs", self._after_poll),
            (slurm, "fetch_results", None),
            (slurm, "fetch_logfile", None),
            (slurm, "cleanup_run", None),
            (jobscript, "generate_workflow_script", None),
            (jobscript, "generate_conversion_script", None),
            (jobscript, "render_script", None),
        ]
        for module, attr, after in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            layer = module.__name__.rsplit(".", 1)[-1]
            setattr(module, attr, self.wrap(f"{layer}.{attr}", original, after))

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def instrument(self, endpoint, cluster):
        """Wrap one run's endpoint and simulator instances."""
        for call in ENDPOINT_CALLS:
            after = self._after_exec if call == "exec" else None
            setattr(endpoint, call,
                    self.wrap(f"transport.{call}", getattr(endpoint, call), after))
        cluster.sim_exec = self.wrap(
            lambda args: f"simslurm.{args[0][0]}", cluster.sim_exec
        )
        cluster.advance = self.wrap("simslurm.advance", cluster.advance)

    def begin_run(self, run_id):
        self.run_id = run_id
        self.counters = collections.Counter()
        self._last_states = {}

    # -- analysis ------------------------------------------------------------

    def run_spans(self, run_id):
        return [span for span in self.spans if span[5] == run_id]

    def write(self, path, extra=None):
        """Write every span as one JSON line, times relative to the first."""
        t0 = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w") as handle:
            if extra is not None:
                handle.write(json.dumps(extra, sort_keys=True) + "\n")
            for span_id, name, start, end, parent, run in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start - t0,
                    "end": end - t0, "parent": parent, "run": run,
                }) + "\n")


def self_times(spans):
    """Each span's self time: the part of its interval in which it is an
    innermost open span. An interval in which k spans are innermost at once
    (threads) is split k ways, so self times add up to the time covered."""
    parent_of = {span[0]: span[4] for span in spans}
    events = sorted(
        [(span[2], 1, span[0]) for span in spans]
        + [(span[3], 0, span[0]) for span in spans]
    )
    result = dict.fromkeys(parent_of, 0.0)
    open_spans = set()
    open_children = collections.Counter()
    last = None
    for moment, is_start, span_id in events:
        if open_spans:
            leaves = [s for s in open_spans if not open_children[s]]
            for leaf in leaves:
                result[leaf] += (moment - last) / len(leaves)
        last = moment
        parent = parent_of[span_id]
        if is_start:
            open_spans.add(span_id)
            if parent in open_spans:
                open_children[parent] += 1
        else:
            open_spans.discard(span_id)
            if parent in open_spans:
                open_children[parent] -= 1
    return result
