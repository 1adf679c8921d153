"""End-to-end workflow runs: pack inputs, transfer, schedule conversion and
workflow jobs per batch, await completion, retrieve results, clean up."""

import collections
import io
import os
import posixpath
import shutil
import tempfile
import uuid
import zipfile
from dataclasses import dataclass, field
from enum import Enum

from . import descriptor as descriptor_mod
from . import jobscript, slurm
from .errors import (
    AccountingUnavailable,
    CollisionError,
    ConversionFailed,
    DuplicateId,
    EmptyOutput,
    InvalidBatchSize,
    LogMissing,
    MissingInput,
    NoResults,
    RetrievalFailed,
    SlurmBridgeError,
    TransferFailed,
    TransportError,
    UnknownState,
    UnparseableJobId,
    WorkflowFailed,
)
from .states import JobState
from .transport import piece_buffer, read_pieces


class InputFormat(Enum):
    """Input formats, each valued by the extension its archive entries carry."""

    ZARR = "zarr"
    TIFF_2D = "tiff"
    OME_TIFF = "ome.tiff"


# The input suffixes recognised, in any case, with the format each names;
# the longest of two that both match comes first.
_SUFFIXES = (
    (".ome.tiff", InputFormat.OME_TIFF),
    (".ome.tif", InputFormat.OME_TIFF),
    (".tiff", InputFormat.TIFF_2D),
    (".tif", InputFormat.TIFF_2D),
    (".zarr", InputFormat.ZARR),
)


class RunStage(Enum):
    PREPARING = "Preparing"
    TRANSFERRING = "Transferring"
    QUEUED = "Queued"
    RUNNING = "Running"
    RETRIEVING = "Retrieving"
    DONE = "Done"
    FAILED = "Failed"
    PARTIAL_FAILURE = "PartialFailure"


TERMINAL_STAGES = {RunStage.DONE, RunStage.FAILED, RunStage.PARTIAL_FAILURE}

@dataclass(frozen=True)
class InputItem:
    id: str
    local_path: str
    format: InputFormat


@dataclass
class BatchRun:
    index: int
    items: list  # item ids
    remote_dir: str = ""
    conversion_tasks: int = 0  # ZARR items converted before the workflow job
    conversion_handle: object = None
    workflow_handle: object = None
    state: JobState = None
    result_zip: str = None
    logfile: str = None
    error: Exception = None  # what failed the batch, or None


@dataclass
class RunOptions:
    skip_conversion: bool = False
    parallelism: int = 4  # ignored: a run makes its remote calls one at a time
    poll_interval_s: float = slurm.DEFAULT_POLL_INTERVAL_S
    deadline_s: float = None
    sim_duration_s: int = 30  # ignored: the simulator times jobs by script name; perfbench sets it


@dataclass
class RunRecord:
    run_id: str
    workflow: str
    version: str
    values: dict
    items: list  # InputItem list
    batches: list = field(default_factory=list)
    overall_state: RunStage = RunStage.PREPARING
    output_artifacts: list = field(default_factory=list)


def _input_suffix(path):
    """(suffix, format) of the input at path, or (None, None) when it is no
    input: a ZARR input is a directory, a TIFF input a regular file."""
    name = os.path.basename(path).lower()
    for suffix, fmt in _SUFFIXES:
        is_kind = os.path.isdir if fmt is InputFormat.ZARR else os.path.isfile
        if name.endswith(suffix) and is_kind(path):
            return suffix, fmt
    return None, None


def scan_input_dir(directory):
    """Build InputItems from every recognised entry in a local directory,
    each named by its entry name less the input suffix."""
    items = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        suffix, fmt = _input_suffix(path)
        if fmt is not None:
            items.append(InputItem(id=name[:-len(suffix)], local_path=path, format=fmt))
    return items


def pack_inputs(items, staging_dir, prefix_of=None, scripts=None):
    """Zip every item under <prefix>in/<id>.<format value>, sorted by id,
    plus the scripts (archive name -> text); ZARR items are stored as their
    full directory trees. prefix_of maps an item id to its batch prefix,
    empty by default. Entries are stored, not deflated: microscopy payloads
    are often compressed already, and deflating them costs more than sending
    them."""
    if not items:
        raise MissingInput("no input items")
    for item in items:
        if not os.path.exists(item.local_path):
            raise MissingInput(item.local_path)
    prefix_of = prefix_of or {}
    os.makedirs(staging_dir, exist_ok=True)
    zip_path = os.path.join(staging_dir, "input.zip")
    buffer = b""  # one piece_buffer, made anew only for a larger file
    with zipfile.ZipFile(zip_path, "w", zipfile.ZIP_STORED) as archive:
        for item in sorted(items, key=lambda i: i.id):
            arcbase = f"{prefix_of.get(item.id, '')}in/{item.id}.{item.format.value}"
            if os.path.isdir(item.local_path):
                top = os.path.normpath(item.local_path)
                for root, _, files in os.walk(top):
                    inner = arcbase + root[len(top):]
                    for name in sorted(files):
                        buffer = _store(archive, os.path.join(root, name), f"{inner}/{name}",
                                        buffer)
            else:
                buffer = _store(archive, item.local_path, arcbase, buffer)
        for name, text in sorted((scripts or {}).items()):
            archive.writestr(name, text)
    return zip_path


def _store(archive, path, name, buffer):
    """Copy the file at path into archive as the entry name, as
    ZipFile.write would, but reading into buffer, a piece_buffer, where
    ZipFile.write reads a new 8 KiB bytes at a time; returns the buffer,
    made anew when the file needs a larger one."""
    info = zipfile.ZipInfo.from_file(path, name)
    buffer = piece_buffer(info.file_size, buffer)
    with open(path, "rb", buffering=0) as source, archive.open(info, "w") as target:
        for piece in read_pieces(source, buffer):
            target.write(piece)
    return buffer


def plan_batches(items, batch_size):
    """The item ids of each batch, in order, batch_size to a batch; two
    items of one id are refused."""
    if batch_size <= 0:
        raise InvalidBatchSize(f"batch size must be positive, got {batch_size}")
    path_of = {}
    for item in items:
        if item.id in path_of:
            raise DuplicateId(f"inputs {path_of[item.id]} and {item.local_path}"
                              f" share the id {item.id!r}")
        path_of[item.id] = item.local_path
    ids = [item.id for item in items]
    return [ids[i:i + batch_size] for i in range(0, len(ids), batch_size)]


def _split_results(archive, local_zips):
    """In one walk over archive's entries, copy the files under each prefix
    of local_zips to the local zip it maps to, named relative to the prefix;
    returns the prefixes that held a file, the only ones given a zip."""
    members = collections.defaultdict(list)
    for info in archive.infolist():
        name = info.filename
        end = -1 if info.is_dir() else name.find("/")
        while end >= 0 and name[:end + 1] not in local_zips:
            end = name.find("/", end + 1)
        if end >= 0:
            members[name[:end + 1]].append(info)
    for prefix, infos in members.items():
        with zipfile.ZipFile(local_zips[prefix], "w") as target:
            for info in infos:
                entry = zipfile.ZipInfo(info.filename[len(prefix):], date_time=info.date_time)
                target.writestr(entry, archive.read(info), compress_type=info.compress_type)
    return set(members)


@dataclass
class _Run:
    """What the stages of one run share: the record they fill in, the one
    listener of every stage and event, and where the run lives remotely."""

    endpoint: object
    record: RunRecord
    listener: object
    paths: list  # slurm.run_data_paths: the run dir, the input archive beside it, its staging file
    logs_dir: str  # Slurm logs of this run only; they outlive the cleanup of the run dir
    job_name: str
    # (batch index, job kind) -> handle of each job not yet seen terminal;
    # two sbatch answers may name one job id
    live: dict = field(default_factory=dict)
    torn_down: bool = False  # whether a launch that removed the run data answered
    bundle: object = None  # the bytes, or error, that the launch that tore the run down sent

    def end(self, batches, guard=()):
        """One launch, slurm.fetch_results: the guard's commands, then, only
        if each exited 0, the results bundle of the out dir of each of
        batches and the logs dir, and the teardown, which cancels every job
        of the run's name unless a guard found none queued. Keeps the
        bundle, or the error of a lost answer, which it raises; returns
        what fetch_results returns."""
        try:
            ran, fetched = slurm.fetch_results(
                self.endpoint,
                [posixpath.join(b.remote_dir, "out") for b in batches] + [self.logs_dir],
                posixpath.join(self.paths[0], "bundle.zip"), self.paths,
                None if guard else self.job_name, guard)
        except TransportError as exc:
            self.bundle = exc  # unless a later launch brings the bundle back
            raise
        if fetched is not None:
            self.bundle, _ = fetched
            self.torn_down = True
        return ran, fetched

    def emit(self, stage, detail):
        if isinstance(stage, RunStage):
            self.record.overall_state = stage
            stage = stage.value
        if self.listener is not None:
            self.listener(stage, detail)

    def close(self, fetch):
        """No job may outlive its data: unless a launch that tore the run
        down answered, one launch cancels the run's jobs by name, as one may
        be live whose id the run never read (its submission's answer was
        lost, or the run was interrupted first) or an array whose failed
        parent state hides running tasks, and removes the run data and the
        uploaded archive, should it be left. Both are idempotent; logs stay.
        With fetch, it first brings back what completed (end, no guard)."""
        if self.torn_down:
            return
        self.emit("cancel", f"name={self.job_name} job_ids="
                  + ",".join(dict.fromkeys(str(h.job_id) for h in self.live.values())))
        try:
            if fetch:
                _, (_, removed) = self.end([b for b in self.record.batches
                                            if b.error is None and b.state is JobState.COMPLETED])
            else:
                removed = slurm.cleanup_run(self.endpoint, self.paths, self.job_name)
                self.torn_down = True
            self.emit("cleanup", f"removed={len(removed)}")
        except TransportError:
            self.emit("cleanup", "failed")


def _fail(batch, exc):
    batch.error = exc
    batch.state = JobState.FAILED


def run_workflow_batched(endpoint, profile, registry, workflow_descriptor,
                         workflow_name, values, items, batch_size, options=None,
                         local_output_dir=None, listener=None, run_id=None):
    """Batched execution: pack, transfer, convert if needed, run, retrieve.

    Batches fail independently; a mix of completed and failed batches yields
    PartialFailure. Remote run data is always cleaned up; logs are retained.
    The run is named run_id, a new UUID by default.

    Every stage and event goes to listener(stage, detail). A run refused for
    its values, workflow, batch size or two inputs of one id raises before
    the first event and before any remote call, and raises nothing else of
    this package: a poll that gives up fails the batches still live, as the
    deadline does, and the run still retrieves and journals its end.
    """
    options = options or RunOptions()
    values = descriptor_mod.validate_values(workflow_descriptor, values)
    entry = registry.entry(workflow_name)
    planned = plan_batches(items, batch_size)
    run_id = run_id or str(uuid.uuid4())
    record = RunRecord(run_id, workflow_name, entry.version, values, list(items))
    run = _Run(endpoint, record, listener, slurm.run_data_paths(profile, run_id),
               posixpath.join(profile.scratch_dir, "logs", run_id), slurm.run_job_name(run_id))
    run.emit(RunStage.PREPARING, f"workflow={workflow_name} items={len(items)}")

    if not items:
        run.emit(RunStage.DONE, "no input items")
        return record

    record.batches = [BatchRun(index, ids, posixpath.join(run.paths[0], f"batch{index}"))
                      for index, ids in enumerate(planned)]
    local_output_dir = local_output_dir or os.getcwd()
    os.makedirs(local_output_dir, exist_ok=True)
    staging_root = tempfile.mkdtemp(prefix=f"slurmbridge-{run_id}-")
    try:
        archive = _prepare(run, profile, workflow_descriptor, entry, options, staging_root)
        _upload(run, archive)
        _submit(run)
        _poll(run, options)
        _retrieve(run, local_output_dir)
    finally:
        run.close(fetch=False)  # after an interrupt, or when _poll's close lost its answer
        shutil.rmtree(staging_root, ignore_errors=True)
    return _finish(run)


def _prepare(run, profile, workflow_descriptor, entry, options, staging_root):
    """Stage: write every batch's scripts and pack them, with the inputs,
    into one archive laid out as the run dir; returns its local path, or
    None when no batch is left to ship. A batch that cannot be prepared
    fails alone; a file that cannot be packed (an OSError naming it) fails
    every batch shipped."""
    record = run.record
    by_id = {item.id: item for item in record.items}
    image_path = slurm.image_file_path(profile, record.workflow, entry.version)
    prefix_of, scripts = {}, {}
    for batch in record.batches:
        batch_items = [by_id[i] for i in batch.items]
        missing = [i.local_path for i in batch_items if not os.path.exists(i.local_path)]
        if missing:
            _fail(batch, MissingInput(missing[0]))
            continue
        in_dir, out_dir, gt_dir = (posixpath.join(batch.remote_dir, name)
                                   for name in ("in", "out", "gt"))
        zarr_count = 0 if options.skip_conversion else sum(
            item.format is InputFormat.ZARR for item in batch_items)
        if zarr_count:
            if not profile.zarr_to_tiff:
                _fail(batch, ConversionFailed("no converter configured for zarr -> tiff"))
                continue
            batch.conversion_tasks = zarr_count
            scripts[f"batch{batch.index}/convert.sh"] = jobscript.render_script(
                jobscript.generate_conversion_script(
                    zarr_count, slurm.converter_image_path(profile), in_dir,
                    entry.resources, run.logs_dir))
        scripts[f"batch{batch.index}/job.sh"] = jobscript.render_script(
            jobscript.generate_workflow_script(
                workflow_descriptor, entry.resources, record.values,
                jobscript.RunPaths(in_dir, out_dir, gt_dir, image_path), run.logs_dir))
        prefix_of.update(dict.fromkeys(batch.items, f"batch{batch.index}/"))
    shipped = [b for b in record.batches if b.error is None]
    try:
        return pack_inputs([by_id[i] for b in shipped for i in b.items],
                           staging_root, prefix_of, scripts) if shipped else None
    except (SlurmBridgeError, OSError) as exc:  # OSError: a file that cannot be read
        for batch in shipped:
            _fail(batch, exc)
        return None


def _upload(run, archive):
    """Stage: one upload of the archive, if any, beside the run dir: data/
    exists since init, so no launch has to make a dir for it. A failed
    upload fails every batch."""
    run.emit(RunStage.TRANSFERRING, f"batches={len(run.record.batches)}")
    try:
        if archive:
            run.endpoint.put_file(archive, run.paths[1])
    except TransportError as exc:
        for batch in run.record.batches:
            if batch.error is None:
                _fail(batch, TransferFailed(str(exc)))


def _submit(run):
    """Stage: one launch makes the dirs and unpacks the archive and, only if
    both exited 0, submits every batch's first job, its conversion array or
    else its workflow job, and then the workflow job of each converting
    batch, after its array: Slurm starts one once the array completed, and
    cancels it unstarted if the array failed. It removes the archive last;
    a failed removal holds nothing back, and the teardown removes the
    archive. A lost answer fails every batch, though its jobs may run."""
    run.emit(RunStage.QUEUED, "submitting jobs")
    queued = [b for b in run.record.batches if b.error is None]
    if not queued:
        return
    # (batch, tasks, after): the batch's array of that many tasks, or its
    # workflow job if 0, to start once job `after` completed (None: at once).
    jobs = [(b, b.conversion_tasks, None) for b in queued]
    jobs += [(b, 0, k) for k, b in enumerate(queued) if b.conversion_tasks]
    run_dir, upload, _ = run.paths
    try:
        made, unpacked, *handles = slurm.submit_job(
            run.endpoint,
            [(posixpath.join(b.remote_dir, "convert.sh" if tasks else "job.sh"),
              tasks or None, after) for b, tasks, after in jobs],
            run.job_name,
            [["mkdir", "-p", run.logs_dir] + [posixpath.join(b.remote_dir, name)
                                              for b in queued for name in ("out", "gt")],
             ["unzip", "-q", upload, "-d", run_dir]],
            last=[["rm", "-f", upload]])
        failed = next((f"remote {step} failed: {result.stderr.strip()}"
                       for step, result in (("mkdir", made), ("unpack", unpacked))
                       if not result.ok), None)
    except TransportError as exc:
        failed = str(exc)  # inputs never known to have arrived count as a failed transfer
    if failed is not None:
        for batch in queued:
            _fail(batch, TransferFailed(failed))
        return
    for (batch, tasks, after), handle in zip(jobs, handles):
        if handle is None:
            continue  # not submitted: the job it depends on was not
        if isinstance(handle, SlurmBridgeError):
            _fail(batch, handle)
            continue
        run.live[batch.index, "conversion" if tasks else "workflow"] = handle
        if tasks:
            batch.conversion_handle = handle
            detail = f"kind=conversion job_id={handle.job_id} tasks={tasks}"
        else:
            batch.workflow_handle = handle
            detail = f"kind=workflow job_id={handle.job_id}"
            if after is not None:
                detail += f" after={getattr(handles[after], 'job_id', None)}"
        run.emit("submit", f"batch={batch.index} {detail}")


def _poll(run, options):
    """Stage: one poll loop over every live job, and every remote call of
    the run after its submission. It sleeps before each poll, as no job can
    have ended at once. Each round's launch is guarded (slurm.poll_guard):
    the first whose guard finds no job of the run's name queued, whatever
    ids their sbatch answers gave, also brings the results back and tears
    the run down. Later rounds poll sacct alone: no job of the run is
    queued then, so a live job their sacct does not list is gone, and its
    batch fails with UnparseableJobId.
    Up to two accounting failures in a row only cost a round; a lost
    answer is one, though its retrieval may have run. The loop gives up at
    the deadline, at the third accounting failure in a row, or at an
    accounting line or state token it cannot read: every batch still live
    then fails with that error. The loop ends the run with close, which
    brings back what completed if some batch submitted a job."""
    run.emit(RunStage.RUNNING, "polling")
    live = run.live
    batches = run.record.batches
    elapsed = 0.0
    accounting_failures = 0
    while live:
        run.endpoint.sleep(options.poll_interval_s)
        elapsed += options.poll_interval_s
        states, give_up, fetched = None, None, None
        torn_down = run.torn_down  # by an earlier round
        handles = list(live.values())
        try:
            if torn_down:
                states = slurm.poll_jobs(run.endpoint, handles)
            else:  # every batch not known to have failed
                (_, result), fetched = run.end(
                    [b for b in batches
                     if b.error is None and b.state in (None, JobState.COMPLETED)],
                    slurm.poll_guard(run.job_name, handles))
                states = slurm.job_states(result, handles)
            accounting_failures = 0
        except (AccountingUnavailable, TransportError) as exc:  # a lost answer is one
            accounting_failures += 1
            if accounting_failures == 3:
                give_up = AccountingUnavailable(str(exc))
        except (UnknownState, UnparseableJobId) as exc:
            give_up = exc
        for (index, kind), handle in list(live.items()) if states is not None else ():
            batch = batches[index]
            state = states.get(handle.job_id)
            if state is None and torn_down:
                del live[index, kind]
                _fail(batch, UnparseableJobId(
                    f"job {handle.job_id} is neither queued nor in accounting"))
            if state is None or not state.terminal:
                continue
            del live[index, kind]
            if kind == "workflow":
                batch.state = state
                run.emit("batch-terminal", f"batch={batch.index} state={state.value}")
            elif state is not JobState.COMPLETED:
                _fail(batch, ConversionFailed(
                    f"conversion job {handle.job_id} ended {state.value}"))
        if fetched is not None:
            run.emit("cleanup", f"removed={len(fetched[1])}")
        if give_up is None and options.deadline_s is not None and elapsed >= options.deadline_s:
            give_up = WorkflowFailed(f"deadline exceeded after {elapsed}s")
        if live and give_up is not None:
            for index, _ in live:
                batches[index].error = batches[index].error or give_up
            break
    run.close(fetch=any(b.workflow_handle or b.conversion_handle for b in batches))


def _retrieve(run, local_output_dir):
    """Stage, with no remote call: split, by batch, the bundle that the
    launch that tore the run down brought back. A batch's log is the log of
    the last job it submitted that wrote one: a workflow job that never
    started (its conversion failed or was still running at the deadline)
    wrote none. Every batch left without results fails, with one
    `batch-failed` row."""
    run.emit(RunStage.RETRIEVING, "fetching artifacts")
    batches = run.record.batches
    completed = [b for b in batches if b.error is None and b.state is JobState.COMPLETED]
    if isinstance(run.bundle, SlurmBridgeError):
        for batch in completed:
            batch.error = RetrievalFailed(str(run.bundle))
    elif run.bundle:
        with zipfile.ZipFile(io.BytesIO(run.bundle)) as archive:
            out_dirs = [posixpath.join(b.remote_dir, "out") for b in completed]
            local_zips = {slurm.zip_entry_name(out_dir) + "/": os.path.join(
                local_output_dir, f"{run.record.run_id}_batch{b.index}.zip")
                for b, out_dir in zip(completed, out_dirs)}
            split = _split_results(archive, local_zips)
            for batch, out_dir, prefix in zip(completed, out_dirs, local_zips):
                if prefix in split:
                    batch.result_zip = local_zips[prefix]
                else:
                    batch.error = RetrievalFailed(str(EmptyOutput(out_dir)))
            for batch in batches:
                for job in filter(None, (batch.workflow_handle, batch.conversion_handle)):
                    try:
                        batch.logfile = slurm.fetch_logfile(
                            archive, job, run.logs_dir, local_output_dir)
                        break
                    except LogMissing:
                        pass
    for batch in batches:
        if batch.result_zip:
            run.record.output_artifacts.append(batch.result_zip)
            continue
        if batch.error is None:
            batch.error = WorkflowFailed(
                f"workflow job ended {batch.state.value if batch.state else 'unknown'}")
        if batch.logfile:
            run.record.output_artifacts.append(batch.logfile)
        run.emit("batch-failed",
                 f"batch={batch.index} {type(batch.error).__name__}: {batch.error}")


def _finish(run):
    """Stage: the run's final state, from which batches brought results back;
    a failed run names each distinct error once, with the number of batches
    it failed when more than one."""
    batches = run.record.batches
    completed = [b for b in batches if b.result_zip]
    if len(completed) == len(batches):
        run.emit(RunStage.DONE, f"batches={len(batches)}")
    elif completed:
        run.emit(RunStage.PARTIAL_FAILURE,
                 f"completed={len(completed)} failed={len(batches) - len(completed)}")
    else:
        counts = collections.Counter(str(b.error) for b in batches if b.error)
        run.emit(RunStage.FAILED, "; ".join(
            f"{message} ({count} batches)" if count > 1 else message
            for message, count in counts.items()))
    return run.record


def import_results(record, destination, mode):
    """Place run outputs locally: unpacked images, sidecar files next to the
    inputs they derive from, or the raw zips. A file already at a target,
    however recently made, is never overwritten: its import stops with
    CollisionError. Each file is copied through one piece_buffer, sized by
    the largest result zip, so no result is held whole in memory."""
    zips = [b.result_zip for b in record.batches if b.result_zip]
    if not zips:
        raise NoResults(record.run_id)
    os.makedirs(destination, exist_ok=True)
    written = []
    buffer = piece_buffer(max(map(os.path.getsize, zips)))

    def place(source, target):
        os.makedirs(os.path.dirname(target), exist_ok=True)
        try:
            handle = open(target, "xb")  # made here, or refused if it exists
        except FileExistsError:
            raise CollisionError(target) from None
        with handle:
            handle.writelines(read_pieces(source, buffer))
        written.append(target)

    def entries():
        """(name, open entry) of every file in the result zips."""
        for zip_path in zips:
            with zipfile.ZipFile(zip_path) as archive:
                for info in archive.infolist():
                    if not info.is_dir():
                        with archive.open(info) as source:
                            yield info.filename, source

    if mode == "SingleZip":
        for zip_path in zips:
            with open(zip_path, "rb", buffering=0) as source:
                place(source, os.path.join(destination, os.path.basename(zip_path)))
        return written

    run_dir = os.path.join(destination, record.run_id)
    if mode == "ImagesFolder":
        for name, source in entries():
            place(source, os.path.join(run_dir, name))
        return written

    if mode == "SidecarAttachments":
        longest_first = sorted(record.items, key=lambda item: -len(item.id))
        for entry, source in entries():
            name = os.path.basename(entry)
            stem = name.rsplit(".", 1)[0]
            match = next((item for item in longest_first if stem == item.id
                          or stem.startswith((item.id + "_", item.id + "."))), None)
            if match is not None:
                target = os.path.join(os.path.dirname(match.local_path), name)
            else:
                target = os.path.join(run_dir, "unmatched", name)
            place(source, target)
        return written

    raise ValueError(f"unknown import mode: {mode}")
