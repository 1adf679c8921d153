"""Deterministic discrete-event Slurm cluster simulation.

The simulator answers the exact sbatch/sacct/squeue/scancel command grammar
the client speaks, and its file commands in exactly the forms it sends them,
refusing every other form; it schedules parsed scripts FIFO/first-fit onto
configured nodes, and advances a virtual clock. Scripts are not executed: a
job runs for the time _DURATIONS_S gives its script's file name, and a
completed workflow job writes one placeholder mask per input.
"""

import dataclasses
import hashlib
import heapq
import io
import json
import os
import posixpath
import shlex
import shutil
import struct
import tempfile
import weakref
import zipfile
import zlib
from base64 import b64decode, b64encode, encodebytes
from collections import Counter
from dataclasses import dataclass, field

from .errors import DestinationUnwritable, SourceMissing
from .jobscript import clock_to_minutes, parse_script
from .states import JobState, aggregate_array_states
from .transport import (
    DEFAULT_DEADLINE_S,
    Endpoint,
    ExecResult,
    frame_output,
    run_framed,
    unframe_commands,
)

DEFAULT_NODES = [
    {"cpus": 4, "gpus": 1, "mem_mb": 16384},
    {"cpus": 4, "gpus": 1, "mem_mb": 16384},
]

# A fixed archive timestamp keeps zip output byte-deterministic.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)

# Seconds a job runs, by its script's file name: a workflow job, a
# conversion array's task, and any other script.
_DURATIONS_S = {"job.sh": 30, "convert.sh": 5}
_DEFAULT_DURATION_S = 10

# The suffix of an input in a workflow job's IN_PATH, by format, longest first.
_INPUT_SUFFIXES = (".ome.tiff", ".tiff", ".zarr")

# The largest piece in which a file's bytes are copied or hashed; the next
# piece is read before the last is freed, so a copy holds at most two.
_CHUNK = 1 << 19


def _norm(path):
    return posixpath.normpath(path)


class _Extent:
    """A read-only binary file over size bytes of file descriptor fd from
    offset on, read with pread; a seek before its start goes to its start."""

    def __init__(self, fd, offset, size):
        self.fd, self.offset, self.size, self.position = fd, offset, size, 0

    def seek(self, position, whence=os.SEEK_SET):
        self.position = max(position + (0, self.position, self.size)[whence], 0)
        return self.position

    def tell(self):
        return self.position

    def read(self, count=-1):
        end = self.size if count < 0 else min(self.position + count, self.size)
        data = os.pread(self.fd, max(end - self.position, 0), self.offset + self.position)
        self.position += len(data)
        return data

    def chunks(self, count):
        """The next count bytes, or the rest if fewer, in pieces of at most _CHUNK."""
        return (self.read(min(_CHUNK, count - done)) for done in range(0, count, _CHUNK))


class SimFS:
    """POSIX-path filesystem: explicit directories, and files whose bytes
    live on disk in one append-only, unlinked spool file, closed (and its
    space reclaimed) only when the SimFS is collected. `files` maps each
    path to its (offset, size) extent in the spool."""

    def __init__(self):
        self.dirs = {"/"}
        self.files = {}
        self._spool = None

    def make_dirs(self, path):
        """Create path and its missing parents; like `mkdir -p`, create
        nothing when a file stands at path or at one of its parents."""
        path = _norm(path)
        missing = []
        while path not in self.dirs:
            if path in self.files:
                raise DestinationUnwritable(f"not a directory: {path}")
            missing.append(path)
            path = posixpath.dirname(path)
        self.dirs.update(missing)

    def exists(self, path):
        """Like `test -e`: a path with a trailing '/' names only a directory."""
        norm = _norm(path)
        return norm in self.dirs or (norm in self.files and not path.endswith("/"))

    def is_dir(self, path):
        return _norm(path) in self.dirs

    def _writable(self, path):
        """path normalized, once a file may be written there."""
        if path.endswith("/") or _norm(path) in self.dirs:
            raise DestinationUnwritable(f"is a directory: {path}")
        path = _norm(path)
        parent = posixpath.dirname(path)
        if parent not in self.dirs:
            raise DestinationUnwritable(f"no such directory: {parent}")
        return path

    def write(self, path, data):
        self.copy_in(path, io.BytesIO(data))

    def copy_in(self, path, source):
        """Make path a file of the rest of binary file source, appended to
        the spool in chunks."""
        path = self._writable(path)
        if self._spool is None:
            self._spool = tempfile.TemporaryFile()
            weakref.finalize(self, self._spool.close)
        start = self._spool.tell()
        shutil.copyfileobj(source, self._spool, _CHUNK)
        self._spool.flush()
        self.files[path] = (start, self._spool.tell() - start)

    def link(self, path, source, size):
        """Make path a file of the next size bytes (or the rest, if fewer) of
        source, a file that open returned: an extent of its extent, not a copy."""
        start = min(source.position, source.size)
        self.files[self._writable(path)] = (source.offset + start, min(size, source.size - start))

    def open(self, path):
        """A read-only binary file over the content of the file at path."""
        if _norm(path) not in self.files:
            raise SourceMissing(path)
        return _Extent(self._spool.fileno(), *self.files[_norm(path)])

    def read(self, path):
        return self.open(path).read()

    def digest(self, path):
        """Hex sha256 of the file at path, read in chunks."""
        digest, handle = hashlib.sha256(), self.open(path)
        for chunk in handle.chunks(handle.size):
            digest.update(chunk)
        return digest.hexdigest()

    def remove_tree(self, path):
        """Like `rm -rf`: a path with a trailing '/' removes only a directory."""
        if path.endswith("/") and _norm(path) not in self.dirs:
            return
        path = _norm(path)
        prefix = path + "/"
        for name in [name for name in self.files if name == path or name.startswith(prefix)]:
            del self.files[name]
        self.dirs -= {name for name in self.dirs if name == path or name.startswith(prefix)}

    def move(self, src, dst):
        """Like `mv -T src dst` (coreutils 9.1) for a file src, which
        replaces a file; False, changing nothing, where mv exits 1 (src no
        file or dst itself, dst's parent no directory, or dst a directory or
        a path ending in '/'). A directory src is never moved."""
        old, new = _norm(src), _norm(dst)
        if old not in self.files or src.endswith("/") or old == new or dst.endswith("/") \
                or new in self.dirs or posixpath.dirname(new) not in self.dirs:
            return False
        self.files[new] = self.files.pop(old)
        return True

    def files_under(self, directory):
        """Sorted relative paths of every file below directory."""
        directory = _norm(directory)
        prefix = directory + "/"
        return sorted(
            name[len(prefix):] for name in self.files if name.startswith(prefix)
        )

    def snapshot(self):
        """Canonical text rendering of the whole tree, for idempotence checks."""
        lines = [f"D {name}" for name in sorted(self.dirs)]
        lines += [f"F {name} {self.digest(name)}" for name in sorted(self.files)]
        return "\n".join(lines)


@dataclass
class SimNode:
    cpus: int
    gpus: int
    mem_mb: int
    used_cpus: int = 0
    used_gpus: int = 0
    used_mem: int = 0

    def fits(self, res):
        return (
            self.used_cpus + res["cpus"] <= self.cpus
            and self.used_gpus + res["gpus"] <= self.gpus
            and self.used_mem + res["mem_mb"] <= self.mem_mb
        )

    def holds(self, res):
        """Whether the node, were it idle, could run a task asking for res."""
        return (res["cpus"] <= self.cpus and res["gpus"] <= self.gpus
                and res["mem_mb"] <= self.mem_mb)

    def commit(self, res):
        self.used_cpus += res["cpus"]
        self.used_gpus += res["gpus"]
        self.used_mem += res["mem_mb"]
        assert self.used_cpus <= self.cpus
        assert self.used_gpus <= self.gpus
        assert self.used_mem <= self.mem_mb

    def release(self, res):
        self.used_cpus -= res["cpus"]
        self.used_gpus -= res["gpus"]
        self.used_mem -= res["mem_mb"]


@dataclass
class SimTask:
    entry_id: str  # "42" or "42_3"
    index: int  # array index, or None
    state: JobState = JobState.PENDING
    start_time: int = None
    finish_time: int = None
    finish_state: JobState = None
    node: int = None

    @property
    def exit_code(self):  # 0 once completed, 1 once ended otherwise
        return int(self.state is not JobState.COMPLETED) if self.state.terminal else None


@dataclass
class SimJob:
    id: int
    script_path: str
    resources: dict  # cpus, gpus, mem_mb per task
    time_limit_min: int
    duration_s: int
    output_pattern: str
    exports: dict
    array_spec: tuple = None  # (lo, hi) or None
    submit_time: int = 0
    forced_state: JobState = None
    missing_output: bool = False
    tasks: list = field(default_factory=list)
    name: str = None
    dependency: int = None  # id of the job that must complete first (afterok)

    @property
    def is_array(self):
        return self.array_spec is not None

    def parent_state(self):
        if self.is_array:
            return aggregate_array_states(t.state for t in self.tasks)
        return self.tasks[0].state


@dataclass(frozen=True)
class SimEvent:
    time: int
    entry_id: str
    old_state: JobState
    new_state: JobState

    def render(self):
        old = self.old_state.value if self.old_state else "-"
        return f"{self.time} {self.entry_id} {old}->{self.new_state.value}"


@dataclass(frozen=True)
class FaultDirective:
    """Force jobs whose script path contains script_substring into a
    terminal state, suppress their outputs, or run them for duration_s
    seconds instead of the time their script's name gives."""

    script_substring: str
    forced_state: JobState = None
    missing_output: bool = False
    duration_s: int = None


def load_topology(text):
    doc = json.loads(text)
    nodes = doc["nodes"] if isinstance(doc, dict) else doc
    return [
        {"cpus": int(n["cpus"]), "gpus": int(n.get("gpus", 0)), "mem_mb": int(n["mem_mb"])}
        for n in nodes
    ]


def _plain(value):
    if isinstance(value, JobState):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return value


def _as_doc(obj):
    """A dataclass as a JSON document: states by value, tuples as lists."""
    return dataclasses.asdict(
        obj, dict_factory=lambda items: {name: _plain(value) for name, value in items}
    )


def _from_doc(cls, doc):
    """Inverse of _as_doc for one level: JobState- and tuple-typed fields
    are rebuilt from their JSON form; keys that name no field are ignored,
    and a field the document lacks gets its default."""
    values = {}
    for spec in dataclasses.fields(cls):
        if spec.name not in doc:
            continue
        value = doc[spec.name]
        if value is not None and spec.type in (JobState, tuple):
            value = spec.type(value)
        values[spec.name] = value
    return cls(**values)


class SimCluster:
    """Schedules FIFO/first-fit, driven by events: a heap of running tasks in
    the order `advance` finishes them, the ids of jobs with pending tasks in
    submission order, each mapped to a cursor at its first task that may
    still be pending, and per-job task-state counts, which alone give a job's
    state. These are derived from `jobs` and never persisted."""

    def __init__(self, nodes=None):
        specs = nodes if nodes is not None else DEFAULT_NODES
        self.nodes = [SimNode(**spec) for spec in specs]
        self.clock = 0
        self.fs = SimFS()
        self.jobs = {}
        self.next_job_id = 1
        self.event_log = []
        self.faults = []
        self.failing_pulls = set()
        self._index_jobs()

    def _index_jobs(self):
        """Rebuild the scheduler's indices from `jobs`."""
        self._running = [
            (task.finish_time, job.id, task.entry_id, task)
            for job in self.jobs.values() for task in job.tasks
            if task.state is JobState.RUNNING
        ]
        heapq.heapify(self._running)
        self._pending = {job_id: 0 for job_id in sorted(self.jobs)}
        self._counts = {
            job.id: Counter(task.state for task in job.tasks) for job in self.jobs.values()
        }

    # -- submission --------------------------------------------------------

    def _sbatch(self, args):
        """`sbatch [--parsable] [--job-name=<name>] [--dependency=afterok:<id>
        --kill-on-invalid-dep=yes] <script>`, which prints `<id>` under
        --parsable and `Submitted batch job <id>` otherwise. Exits 1 as sbatch
        does, taking no job id, on any other option, on a dependency on an
        unknown job, and on a job that asks any one node for more than it
        has."""
        if not args:
            return ExecResult(1, "", "sbatch: error: no batch script\n")
        *options, path = args
        settings = {}
        for option in options:
            key, eq, value = option.partition("=")
            if option != "--parsable" and (
                    not eq or key not in ("--job-name", "--dependency", "--kill-on-invalid-dep")):
                return ExecResult(1, "", f"sbatch: unrecognized option '{option}'\n")
            settings[key] = value
        kind, _, after = settings.get("--dependency", "afterok:").partition(":")
        kill = settings.get("--kill-on-invalid-dep")
        # Only the dependency the client asks for is modelled: afterok, under
        # which a job whose dependency fails is cancelled, not left pending.
        if kind != "afterok" or kill not in (None, "yes", "no") or (after and kill != "yes"):
            return ExecResult(1, "", "sbatch: error: unsupported dependency\n")
        if after and (not after.isdigit() or int(after) not in self.jobs):
            return ExecResult(
                1, "", "sbatch: error: Batch job submission failed: Job dependency problem\n")
        if not self.fs.exists(path):
            return ExecResult(1, "", f"sbatch: error: Unable to open file {path}\n")
        try:
            script = parse_script(self.fs.read(path).decode())
            directive = dict(script.directives).get  # with the simulator's defaults
            gres = directive("--gres", "gpu:0")
            first, _, last = directive("--array", "").partition("-")
            job = SimJob(
                id=self.next_job_id, script_path=path, submit_time=self.clock,
                resources={"cpus": int(directive("--cpus-per-task", 1)),
                           "gpus": int(gres[4:]) if gres.startswith("gpu:") else 0,
                           "mem_mb": int(directive("--mem", 1024))},
                time_limit_min=clock_to_minutes(directive("--time", "01:00:00")),
                duration_s=_DURATIONS_S.get(posixpath.basename(path), _DEFAULT_DURATION_S),
                output_pattern=directive("--output", ""), exports=dict(script.env_exports),
                array_spec=(int(first), int(last or first)) if first else None,
                name=settings.get("--job-name"), dependency=int(after) if after else None)
        except (ValueError, SourceMissing) as exc:
            return ExecResult(1, "", f"sbatch: error: {exc}\n")
        if not any(node.holds(job.resources) for node in self.nodes):
            return ExecResult(1, "", "sbatch: error: Batch job submission failed: "
                              "Requested node configuration is not available\n")
        job_id = self.next_job_id
        self.next_job_id += 1
        if job.is_array:
            lo, hi = job.array_spec
            job.tasks = [
                SimTask(entry_id=f"{job_id}_{k}", index=k) for k in range(lo, hi + 1)
            ]
        else:
            job.tasks = [SimTask(entry_id=str(job_id), index=None)]
        for fault in self.faults:
            if fault.script_substring in path:
                if fault.forced_state is not None:
                    job.forced_state = fault.forced_state
                if fault.duration_s is not None:
                    job.duration_s = fault.duration_s
                job.missing_output = job.missing_output or fault.missing_output
        self.jobs[job_id] = job
        self._pending[job_id] = 0
        self._counts[job_id] = Counter({JobState.PENDING: len(job.tasks)})
        self.event_log.append(SimEvent(self.clock, str(job_id), None, JobState.PENDING))
        if "--parsable" in settings:
            return ExecResult(0, f"{job_id}\n", "")
        return ExecResult(0, f"Submitted batch job {job_id}\n", "")

    # -- scheduling and time -----------------------------------------------

    def job_state(self, job):
        """The job's state, from which task states its counts hold."""
        counts = self._counts[job.id]
        return aggregate_array_states(state for state, n in counts.items() if n)

    def _start_task(self, job, task, node_index):
        self.nodes[node_index].commit(job.resources)
        task.node = node_index
        task.start_time = self.clock
        # A task times out at its limit if forced to or if it would run longer.
        limit_s = job.time_limit_min * 60
        timeout = job.forced_state is JobState.TIMEOUT or (
            job.forced_state is None and job.duration_s > limit_s)
        task.finish_time = self.clock + (limit_s if timeout else min(job.duration_s, limit_s))
        task.finish_state = JobState.TIMEOUT if timeout else job.forced_state or JobState.COMPLETED
        heapq.heappush(self._running, (task.finish_time, job.id, task.entry_id, task))
        self._transition(job, task, JobState.RUNNING)

    def _transition(self, job, task, new_state):
        before = self.job_state(job)
        old, task.state = task.state, new_state
        counts = self._counts[job.id]
        counts[old] -= 1
        counts[new_state] += 1
        self.event_log.append(SimEvent(self.clock, task.entry_id, old, new_state))
        after = self.job_state(job)
        if job.is_array and after != before:
            self.event_log.append(SimEvent(self.clock, str(job.id), before, after))

    def _schedule(self):
        # FIFO scan over the jobs with pending tasks; a job is passed over
        # while its dependency has not completed, and cancelled unstarted once
        # it ended otherwise (--kill-on-invalid-dep=yes). Its tasks start
        # first-fit up to the first that fits no node: the rest ask for the
        # same resources, and node usage only grows within a scan.
        for job_id, cursor in list(self._pending.items()):
            job = self.jobs[job_id]
            tasks = job.tasks
            while cursor < len(tasks) and tasks[cursor].state is not JobState.PENDING:
                cursor += 1  # started or cancelled since the cursor was set
            after = JobState.COMPLETED
            if job.dependency is not None:
                after = self.job_state(self.jobs[job.dependency])
            if after is JobState.COMPLETED:
                while cursor < len(tasks):
                    index = next((index for index, node in enumerate(self.nodes)
                                  if node.fits(job.resources)), None)
                    if index is None:
                        break
                    self._start_task(job, tasks[cursor], index)
                    cursor += 1
            elif after.terminal:
                self._cancel(job)
                cursor = len(tasks)
            if cursor < len(tasks):
                self._pending[job_id] = cursor
            else:
                del self._pending[job_id]

    def _finish_task(self, job, task):
        self.nodes[task.node].release(job.resources)
        self._transition(job, task, task.finish_state)
        self._write_task_log(job, task)
        if task.state is JobState.COMPLETED and not job.is_array:
            self._write_outputs(job)

    def _write_task_log(self, job, task):
        """Write the task's log at its --output pattern, filled in as
        sbatch(1) does: %A the array's id, %a the task's index. An array task
        has a job id of its own in Slurm, which %j names; the simulator gives
        it none and puts <array id>_<index> there. No log is written for the
        array as a whole, nor for a task that never started."""
        if not job.output_pattern or task.start_time is None:
            return
        path = job.output_pattern.replace("%A", str(job.id)).replace("%j", task.entry_id)
        if job.is_array:
            path = path.replace("%a", str(task.index))
        lines = [
            f"job {task.entry_id} script {job.script_path}",
            f"started t={task.start_time} finished t={task.finish_time}",
            f"final state {task.state.value} exit {task.exit_code}",
        ]
        self.fs.make_dirs(posixpath.dirname(path))
        self.fs.write(path, ("\n".join(lines) + "\n").encode())

    def _write_outputs(self, job):
        """Write `<id>_mask.tiff` in the job's OUT_PATH for each input in its
        IN_PATH: a file or a tree of files named `<id>` and its suffix."""
        in_dir, out_dir = job.exports.get("IN_PATH"), job.exports.get("OUT_PATH")
        if job.missing_output or not in_dir or not out_dir:
            return
        self.fs.make_dirs(out_dir)
        for entry in sorted({name.split("/", 1)[0] for name in self.fs.files_under(in_dir)}):
            suffix = next((s for s in _INPUT_SUFFIXES if entry.endswith(s)), "")
            name = f"{entry[:len(entry) - len(suffix)]}_mask.tiff"
            content = f"placeholder output {name} from job {job.id}\n".encode()
            self.fs.write(posixpath.join(out_dir, name), content)

    def advance(self, dt):
        """Advance virtual time by dt seconds, returning the events it appended
        to event_log."""
        if dt <= 0:
            return []
        first = len(self.event_log)
        horizon = self.clock + dt
        self._schedule()
        running = self._running
        while running:
            if running[0][3].state is not JobState.RUNNING:
                heapq.heappop(running)  # cancelled while it ran
                continue
            next_time = running[0][0]
            if next_time > horizon:
                break
            self.clock = next_time
            while running and running[0][0] == next_time:
                _, job_id, _, task = heapq.heappop(running)
                if task.state is JobState.RUNNING:
                    self._finish_task(self.jobs[job_id], task)
            self._schedule()
        self.clock = horizon
        return self.event_log[first:]

    # -- control -----------------------------------------------------------

    def _scancel(self, args):
        """`scancel <id>` or `scancel --name=<name>`; an unknown id or name
        cancels nothing."""
        if len(args) == 1 and args[0].startswith("--name="):
            jobs = self._named(args[0])
        elif len(args) == 1 and args[0].isdigit():
            jobs = [self.jobs[int(args[0])]] if int(args[0]) in self.jobs else []
        else:
            return ExecResult(1, "", "scancel: error: invalid job id\n")
        for job in jobs:
            self._cancel(job)
        return ExecResult(0, "", "")

    def _cancel(self, job):
        for task in job.tasks:
            if task.state is JobState.RUNNING:
                self.nodes[task.node].release(job.resources)
                task.finish_time = self.clock
            if not task.state.terminal:
                self._transition(job, task, JobState.CANCELLED)
                self._write_task_log(job, task)

    def inject_fault(self, fault):
        self.faults.append(fault)

    def render_event_trace(self):
        return "\n".join(event.render() for event in self.event_log)

    # -- command grammar -----------------------------------------------------

    def _records(self, job, queued=False):
        """(entry id, state) of each record Slurm keeps of the job, or with
        queued of each one queued or running: one per task, but
        `<id>_[<indices>]`, last, for all of an array's pending tasks, runs
        of indices as <lo>-<hi>, joined by ','."""
        runs = []  # [lo, hi] of each run of pending array tasks
        for task in job.tasks:
            if not job.is_array or task.state is not JobState.PENDING:
                if not queued or task.state in (JobState.PENDING, JobState.RUNNING):
                    yield task.entry_id, task.state
            elif runs and runs[-1][1] == task.index - 1:
                runs[-1][1] = task.index
            else:
                runs.append([task.index, task.index])
        if runs:
            indices = ",".join(f"{lo}-{hi}" if hi > lo else str(lo) for lo, hi in runs)
            yield f"{job.id}_[{indices}]", JobState.PENDING

    def _sacct(self, tokens):
        """`<entry id>|<state>` per record of each known job of `-j <ids>`,
        as `sacct -n -P -X -o JobID,State` prints it."""
        try:
            ids = [int(x) for x in tokens[tokens.index("-j") + 1].split(",") if x]
        except (ValueError, IndexError):
            return ExecResult(1, "", "sacct: error: invalid job id list\n")
        return ExecResult(0, "".join(f"{entry}|{state.value}\n" for job_id in ids
                                     if job_id in self.jobs
                                     for entry, state in self._records(self.jobs[job_id])), "")

    def _named(self, option):
        """The jobs of `--name=<name>`."""
        return [job for job in self.jobs.values() if option == f"--name={job.name}"]

    def _squeue(self, option):
        """`squeue -a -h --name=<name> -o %i`: a line per record queued or
        running of a job of that name."""
        return ExecResult(0, "".join(
            f"{entry}\n" for job in self._named(option)
            if self._counts[job.id][JobState.PENDING] or self._counts[job.id][JobState.RUNNING]
            for entry, _ in self._records(job, queued=True)), "")

    def _zip(self, archive, paths):
        """`zip -q -r -D archive path...` as Info-ZIP does it into a new
        archive: each file is named by its path as given, without a leading
        '/'; a directory adds every file below it and no entry of its own; a
        path that does not exist adds nothing; a file named twice is added
        once; the archive leaves itself out. Exits 12, writing nothing, when
        no file was added. Errors go to stdout, as Info-ZIP writes them."""
        found = {}
        for path in paths:
            norm = _norm(path)
            if self.fs.is_dir(path):
                names = [posixpath.join(norm, name) for name in self.fs.files_under(norm)]
            else:
                names = [norm] if self.fs.exists(path) else []
            found.update(dict.fromkeys(name for name in names if name != _norm(archive)))
        if not found:
            return ExecResult(12, "zip error: Nothing to do!\n", "")
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive_file:
            for name in found:
                info = zipfile.ZipInfo(name.lstrip("/"), date_time=_ZIP_EPOCH)
                archive_file.writestr(info, self.fs.read(name))
        try:
            self.fs.write(archive, buffer.getvalue())
        except DestinationUnwritable as exc:
            return ExecResult(15, f"zip I/O error: {exc}\n"
                              f"zip error: Could not create output file ({archive})\n", "")
        return ExecResult(0, "", "")

    def _unzip(self, tokens):
        """`unzip -q archive -d directory` as Info-ZIP 6.00 does it, over
        the archives pack_inputs makes: a file that is no archive exits 9,
        and a directory that cannot be made (its parent is missing, or a
        file stands there) exits 2. Refused, changing nothing: an entry
        neither stored nor deflated, a name that is not a clean relative path
        or that comes twice, and an entry that would land on an existing path,
        below a file or below another entry. An entry whose bytes fail its
        CRC is written anyway and named on stderr, and one that does not
        inflate is named and not written; each makes the exit 2. A stored
        entry is an extent of the archive's."""
        archive, directory = tokens[2], tokens[4]
        if _norm(archive) not in self.fs.files:
            return ExecResult(9, "", f"unzip:  cannot find or open {archive}\n")
        source = self.fs.open(archive)
        try:
            with zipfile.ZipFile(source) as archive_file:
                infos = archive_file.infolist()
        except zipfile.BadZipFile:
            return ExecResult(
                9, "", f"[{archive}]\n  End-of-central-directory signature not found.\n")
        names = {info.filename for info in infos}
        if len(names) < len(infos) or any(
                info.compress_type not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED)
                or {"", ".", ".."} & set(info.filename.split("/")) for info in infos):
            return self._refuse(tokens)
        root = _norm(directory)
        if not self.fs.is_dir(root) and (root in self.fs.files
                                         or not self.fs.is_dir(posixpath.dirname(root))):
            return ExecResult(
                2, "", f"checkdir:  cannot create extraction directory: {directory}\n")
        # Each directory an entry needs, relative to root: the names are
        # clean, so a path is its parts joined by '/'.
        prefix, parents = root.rstrip("/") + "/", set()
        for parent in {name.rpartition("/")[0] for name in names}:
            while parent and parent not in parents:
                parents.add(parent)
                parent = parent.rpartition("/")[0]
        if names & parents or any(prefix + name in self.fs.files or prefix + name in self.fs.dirs
                                  for name in names) \
                or any(prefix + parent in self.fs.files for parent in parents):
            return self._refuse(tokens)
        for parent in [root, *(prefix + parent for parent in parents)]:
            self.fs.make_dirs(parent)
        err = ""
        for info in infos:
            path = prefix + info.filename
            # The entry's bytes follow its local header, whose name and extra
            # field lengths sit at offset 26.
            source.seek(info.header_offset + 26)
            source.seek(info.header_offset + zipfile.sizeFileHeader
                        + sum(struct.unpack("<HH", source.read(4))))
            if info.compress_type == zipfile.ZIP_STORED:
                self.fs.link(path, source, info.compress_size)
                pieces = source.chunks(info.compress_size)
            else:
                try:
                    pieces = [zlib.decompress(source.read(info.compress_size), -zlib.MAX_WBITS)]
                except zlib.error:
                    err += ("  error:  invalid compressed data to inflate "
                            f"{posixpath.join(directory, info.filename)}\n")
                    continue
                self.fs.write(path, pieces[0])
            crc = 0
            for piece in pieces:
                crc = zlib.crc32(piece, crc)
            if crc != info.CRC:
                err += (f"{posixpath.join(directory, info.filename):<22}  bad CRC {crc:08x}"
                        f"  (should be {info.CRC:08x})\n")
        return ExecResult(2 if err else 0, "", err)

    def _read_file(self, tool, path):
        """`sha256sum FILE` or `base64 FILE` as coreutils prints it: `<hex>
        <path>`, or lines of 76 columns, each ending in a newline; a file it
        cannot read is named on stderr and makes the exit 1."""
        if self.fs.is_dir(path):
            what = "read error" if tool == "base64" else path
            return ExecResult(1, "", f"{tool}: {what}: Is a directory\n")
        if not self.fs.exists(path):  # missing, or a file named with a trailing '/'
            what = ("Not a directory" if _norm(path) in self.fs.files
                    else "No such file or directory")
            return ExecResult(1, "", f"{tool}: {path}: {what}\n")
        if tool == "base64":
            return ExecResult(0, encodebytes(self.fs.read(path)).decode(), "")
        return ExecResult(0, f"{self.fs.digest(path)}  {path}\n", "")

    def _refuse(self, tokens):
        """The one answer to a form of squeue, a file command or `sh` that the
        client never sends: exit 2, naming the command, with nothing changed."""
        return ExecResult(2, "", f"{tokens[0]}: form not simulated: {shlex.join(tokens)}\n")

    def sim_exec(self, command):
        """Execute one supported command against the cluster."""
        return self._dispatch(list(command))

    def _dispatch(self, tokens):
        """Answer the Slurm commands, and squeue and the file commands in
        exactly the forms the client sends: `squeue -a -h --name=<name> -o
        %i`, `mkdir -p P...`, `test -e P`, `rm -f P...`, `rm -rf P...`, `mv
        -T <file> P`, `sha256sum P`, `base64 P`, `zip -q -r -D Z P...`,
        `unzip -q Z -d D`, `singularity pull P S` and the framed `sh -c` launches
        of exec_many. Any other form of these, `squeue -j` too, is refused."""
        if not tokens:
            return ExecResult(127, "", "command not found\n")
        cmd, args = tokens[0], tokens[1:]
        if cmd == "sh" and (framed := unframe_commands(tokens)):
            mark, commands, then = framed
            # Through sim_exec, so each framed command is seen as one call.
            stdout, stderr = frame_output(mark, run_framed(commands, then, self.sim_exec))
            return ExecResult(0, stdout, stderr)
        if cmd == "sbatch":
            return self._sbatch(args)
        if cmd == "sacct":
            return self._sacct(args)
        if cmd == "scancel":
            return self._scancel(args)
        if cmd == "squeue" and len(args) == 5 and args[:2] == ["-a", "-h"] \
                and args[2].startswith("--name=") and args[3:] == ["-o", "%i"]:
            return self._squeue(args[2])
        if cmd == "mkdir" and args[:1] == ["-p"] and args[1:]:
            err = ""
            for path in args[1:]:
                try:
                    self.fs.make_dirs(path)
                except DestinationUnwritable as exc:
                    err += f"mkdir: {exc}\n"
            return ExecResult(1 if err else 0, "", err)
        if cmd == "rm" and args[:1] in (["-f"], ["-rf"]) and args[1:]:
            # Without -r, rm refuses a directory and keeps its tree.
            err = ""
            for path in args[1:]:
                if args[0] == "-f" and self.fs.is_dir(path):
                    err += f"rm: cannot remove '{path}': Is a directory\n"
                else:
                    self.fs.remove_tree(path)
            return ExecResult(1 if err else 0, "", err)
        if cmd == "mv" and len(args) == 3 and args[0] == "-T" and not self.fs.is_dir(args[1]):
            if not self.fs.move(args[1], args[2]):
                return ExecResult(1, "", f"mv: cannot move: {' '.join(args)}\n")
            return ExecResult(0, "", "")
        if cmd == "test" and len(args) == 2 and args[0] == "-e":
            return ExecResult(0 if self.fs.exists(args[1]) else 1, "", "")
        if cmd in ("sha256sum", "base64") and len(args) == 1:
            return self._read_file(cmd, args[0])
        if cmd == "zip" and args[:3] == ["-q", "-r", "-D"] and len(args) >= 5:
            return self._zip(args[3], args[4:])
        if cmd == "unzip" and len(args) == 4 and args[0] == "-q" and args[2] == "-d":
            return self._unzip(tokens)
        if cmd == "singularity" and len(args) == 3 and args[0] == "pull":
            dest, src = args[1:]
            if src in self.failing_pulls:
                return ExecResult(255, "", f"FATAL: unable to pull {src}\n")
            try:
                self.fs.write(dest, f"SIF placeholder for {src}\n".encode())
            except DestinationUnwritable as exc:
                return ExecResult(1, "", f"FATAL: {exc}\n")
            return ExecResult(0, "", "")
        if cmd in ("sh", "squeue", "mkdir", "rm", "mv", "test", "sha256sum", "base64", "zip",
                   "unzip", "singularity"):
            return self._refuse(tokens)
        return ExecResult(127, "", f"{cmd}: command not found\n")

    # -- persistence ---------------------------------------------------------

    def to_dict(self):
        return {
            "nodes": [_as_doc(node) for node in self.nodes],
            "clock": self.clock,
            "next_job_id": self.next_job_id,
            "dirs": sorted(self.fs.dirs),
            "files": {
                name: b64encode(self.fs.read(name)).decode() for name in sorted(self.fs.files)
            },
            "jobs": [_as_doc(job) for _, job in sorted(self.jobs.items())],
        }

    @classmethod
    def from_dict(cls, doc):
        cluster = cls(nodes=[])
        cluster.nodes = [_from_doc(SimNode, node) for node in doc["nodes"]]
        cluster.clock = doc["clock"]
        cluster.next_job_id = doc["next_job_id"]
        cluster.fs.dirs = set(doc["dirs"]) | {"/"}
        for name, data in doc["files"].items():
            cluster.fs.write(name, b64decode(data))
        for job_doc in doc["jobs"]:
            job = _from_doc(SimJob, job_doc)
            job.tasks = [_from_doc(SimTask, task) for task in job.tasks]
            cluster.jobs[job.id] = job
        cluster._index_jobs()
        return cluster

    def save_state(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def load_state(cls, path):
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


class SimEndpoint(Endpoint):
    """Endpoint backend over an in-process SimCluster: exec runs sim_exec,
    the raw copies write to and read from its SimFS, and poll sleeps advance
    the virtual clock."""

    def __init__(self, cluster=None):
        self.cluster = cluster if cluster is not None else SimCluster()

    def exec(self, command, timeout=DEFAULT_DEADLINE_S):
        return self.cluster.sim_exec(command)

    def _copy_up(self, local, remote):
        with open(local, "rb") as handle:
            self.cluster.fs.copy_in(remote, handle)

    def _copy_down(self, remote, local):
        source = self.cluster.fs.open(remote)
        with open(local, "wb") as handle:
            handle.writelines(source.chunks(source.size))

    def sleep(self, seconds):
        self.cluster.advance(seconds)
