"""End-to-end workflow runs: pack inputs, transfer, schedule conversion and
workflow jobs per batch, await completion, retrieve results, clean up."""

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
    WorkflowFailed,
)
from .states import JobState


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

    @property
    def job(self):
        """The last job the batch submitted, or None."""
        return self.workflow_handle or self.conversion_handle


@dataclass
class RunOptions:
    skip_conversion: bool = False
    parallelism: int = 4  # ignored: a run makes its remote calls one at a time
    poll_interval_s: float = slurm.DEFAULT_POLL_INTERVAL_S
    deadline_s: float = None
    sim_duration_s: int = 30


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
    with zipfile.ZipFile(zip_path, "w", zipfile.ZIP_STORED) as archive:
        for item in sorted(items, key=lambda i: i.id):
            arcbase = f"{prefix_of.get(item.id, '')}in/{item.id}.{item.format.value}"
            if os.path.isdir(item.local_path):
                for root, _, files in os.walk(item.local_path):
                    for name in sorted(files):
                        full = os.path.join(root, name)
                        rel = os.path.relpath(full, item.local_path)
                        archive.write(full, f"{arcbase}/{rel}")
            else:
                archive.write(item.local_path, arcbase)
        for name, text in sorted((scripts or {}).items()):
            archive.writestr(name, text)
    return zip_path


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


def _split_results(archive, prefix, local_zip):
    """Copy the files under prefix in archive to local_zip, named relative to
    prefix; returns False, writing nothing, when there are none."""
    members = [info for info in archive.infolist()
               if info.filename.startswith(prefix) and not info.is_dir()]
    if not members:
        return False
    with zipfile.ZipFile(local_zip, "w") as target:
        for info in members:
            entry = zipfile.ZipInfo(info.filename[len(prefix):], date_time=info.date_time)
            target.writestr(entry, archive.read(info), compress_type=info.compress_type)
    return True


def run_workflow_batched(endpoint, profile, registry, workflow_descriptor,
                         workflow_name, values, items, batch_size, options=None,
                         local_output_dir=None, listener=None, run_id=None):
    """Batched execution: pack, transfer, convert if needed, run, retrieve.

    Batches fail independently; a mix of completed and failed batches yields
    PartialFailure. Remote run data is always cleaned up; logs are retained.
    The run is named run_id, a new UUID by default.

    Every stage and event goes to listener(stage, detail). A run refused for
    its values, workflow, batch size or two inputs of one id raises before
    the first event and before any remote call.
    """
    options = options or RunOptions()
    values = descriptor_mod.validate_values(workflow_descriptor, values)
    entry = registry.entry(workflow_name)
    planned = plan_batches(items, batch_size)
    run_id = run_id or str(uuid.uuid4())
    record = RunRecord(
        run_id=run_id,
        workflow=workflow_name,
        version=entry.version,
        values=values,
        items=list(items),
    )

    def emit(stage, detail):
        if isinstance(stage, RunStage):
            record.overall_state = stage
            stage = stage.value
        if listener is not None:
            listener(stage, detail)

    emit(RunStage.PREPARING, f"workflow={workflow_name} items={len(items)}")

    if not items:
        emit(RunStage.DONE, "no input items")
        return record

    by_id = {item.id: item for item in items}
    # The input archive lands beside run_dir: data/ exists since init, so
    # no launch has to make a dir for it.
    run_paths = slurm.run_data_paths(profile, run_id)
    run_dir, upload, _ = run_paths
    batches = [
        BatchRun(index=index, items=ids, remote_dir=posixpath.join(run_dir, f"batch{index}"))
        for index, ids in enumerate(planned)
    ]
    record.batches = batches

    local_output_dir = local_output_dir or os.getcwd()
    os.makedirs(local_output_dir, exist_ok=True)
    staging_root = tempfile.mkdtemp(prefix=f"slurmbridge-{run_id}-")
    # Slurm logs of this run only; they outlive the cleanup of run_dir.
    logs_dir = posixpath.join(profile.scratch_dir, "logs", run_id)
    image_path = slurm.image_file_path(profile, workflow_name, entry.version)
    job_name = slurm.run_job_name(run_id)
    live = {}  # handle -> batch, for each job submitted and not yet seen terminal
    torn_down = False  # whether a launch that removed the run data answered

    def emit_cancel():
        emit("cancel", f"name={job_name} job_ids="
             + ",".join(str(handle.job_id) for handle in live))

    def fail(batch, exc):
        batch.error = exc
        batch.state = JobState.FAILED

    def submit(jobs, setup=()):
        """Submit jobs, given as (batch, tasks, after), in one launch: the
        batch's conversion array of that many tasks, or its workflow job when
        tasks is 0, to start once the job at index after in jobs completed
        (None: at once). The launch runs the setup commands first and submits
        the jobs only if every one exited 0, and a job with an after only if
        that job's submission exited 0; returns the setup's results. When the
        launch's answer is lost, its batches fail, though their jobs may run,
        and the setup's results are None."""
        scripts = [(posixpath.join(b.remote_dir, "convert.sh" if tasks else "job.sh"),
                    tasks or None, after) for b, tasks, after in jobs]
        try:
            outcomes = slurm.submit_job(endpoint, scripts, job_name, setup)
        except TransportError as exc:
            # Inputs never known to have arrived count as a failed transfer.
            lost = TransferFailed(str(exc)) if setup else exc
            outcomes = [None] * len(setup) + [lost] * len(jobs)
        handles = outcomes[len(setup):]
        for (batch, tasks, after), handle in zip(jobs, handles):
            if handle is None:
                continue  # not submitted: a setup command or its dependency's failed
            if isinstance(handle, SlurmBridgeError):
                fail(batch, handle)
                continue
            live[handle] = batch
            if tasks:
                batch.conversion_handle = handle
                detail = f"kind=conversion job_id={handle.job_id} tasks={tasks}"
            else:
                batch.workflow_handle = handle
                detail = f"kind=workflow job_id={handle.job_id}"
                if after is not None:
                    detail += f" after={getattr(handles[after], 'job_id', None)}"
            emit("submit", f"batch={batch.index} {detail}")
        return outcomes[:len(setup)]

    try:
        # Stage: write every batch's scripts and pack them, with the inputs,
        # into one archive laid out as the run dir. A batch that cannot be
        # prepared fails alone.
        prefix_of, scripts = {}, {}
        for batch in batches:
            batch_items = [by_id[i] for i in batch.items]
            missing = [i.local_path for i in batch_items if not os.path.exists(i.local_path)]
            if missing:
                fail(batch, MissingInput(missing[0]))
                continue
            in_dir, out_dir, gt_dir = (posixpath.join(batch.remote_dir, name)
                                       for name in ("in", "out", "gt"))
            zarr_count = 0 if options.skip_conversion else sum(
                item.format is InputFormat.ZARR for item in batch_items)
            if zarr_count:
                if not profile.zarr_to_tiff:
                    fail(batch, ConversionFailed("no converter configured for zarr -> tiff"))
                    continue
                batch.conversion_tasks = zarr_count
                scripts[f"batch{batch.index}/convert.sh"] = jobscript.render_script(
                    jobscript.generate_conversion_script(
                        zarr_count, slurm.converter_image_path(profile), in_dir,
                        entry.resources, logs_dir,
                        sim=jobscript.SimAnnotation(duration_s=5, outputs=0)))
            scripts[f"batch{batch.index}/job.sh"] = jobscript.render_script(
                jobscript.generate_workflow_script(
                    workflow_descriptor,
                    entry.resources,
                    values,
                    jobscript.RunPaths(in_dir=in_dir, out_dir=out_dir, gt_dir=gt_dir,
                                       image_file=image_path),
                    logs_dir,
                    sim=jobscript.SimAnnotation(
                        duration_s=options.sim_duration_s, outputs=len(batch.items)
                    ),
                ))
            prefix_of.update(dict.fromkeys(batch.items, f"batch{batch.index}/"))
        shipped = [b for b in batches if b.error is None]
        try:
            archive = pack_inputs([by_id[i] for b in shipped for i in b.items],
                                  staging_root, prefix_of, scripts) if shipped else None
        except SlurmBridgeError as exc:
            for batch in shipped:
                fail(batch, exc)
            shipped = []

        # Stage: one upload; a failed transfer fails every batch.
        emit(RunStage.TRANSFERRING, f"batches={len(batches)}")
        if shipped:
            try:
                endpoint.put_file(archive, upload)
            except TransportError as exc:
                for batch in shipped:
                    fail(batch, TransferFailed(str(exc)))

        # Stage: one launch makes the dirs, unpacks the archive, removes it
        # and, only if all three exited 0, submits every batch's first job,
        # its conversion array or else its workflow job, and then the
        # workflow job of each converting batch, after its array: Slurm
        # starts one once the array completed, and cancels it unstarted if
        # the array failed.
        emit(RunStage.QUEUED, "submitting jobs")
        queued = [b for b in batches if b.error is None]
        jobs = [(b, b.conversion_tasks, None) for b in queued]
        jobs += [(b, 0, k) for k, b in enumerate(queued) if b.conversion_tasks]
        if queued:
            made, unpacked, removed = submit(jobs, [
                ["mkdir", "-p", logs_dir] + [posixpath.join(b.remote_dir, name)
                                             for b in queued for name in ("out", "gt")],
                ["unzip", "-q", upload, "-d", run_dir],
                ["rm", "-f", upload]])
            if made and not (made.ok and unpacked.ok):
                step, failed = ("mkdir", made) if not made.ok else ("unpack", unpacked)
                for batch in queued:
                    fail(batch, TransferFailed(f"remote {step} failed: {failed.stderr.strip()}"))
            elif removed and not removed.ok:
                # Only the removal failed, which held the jobs back; they go
                # in alone, and cleanup_run removes the upload.
                submit(jobs)

        # Stage: one poll loop over every live job; it only observes, and
        # sleeps before each poll, as no job can have ended at once. Up to
        # two accounting failures in a row only cost a round; the third ends
        # the run.
        emit(RunStage.RUNNING, "polling")
        elapsed = 0.0
        accounting_failures = 0
        while live:
            endpoint.sleep(options.poll_interval_s)
            elapsed += options.poll_interval_s
            try:
                states = slurm.poll_jobs(endpoint, list(live))
                accounting_failures = 0
            except AccountingUnavailable:
                accounting_failures += 1
                if accounting_failures == 3:
                    raise
                states = {}
            for handle, batch in list(live.items()):
                state = states.get(handle.job_id)
                if state is None or not state.terminal:
                    continue
                del live[handle]
                if handle is batch.workflow_handle:
                    batch.state = state
                    emit("batch-terminal", f"batch={batch.index} state={state.value}")
                elif state is not JobState.COMPLETED:
                    fail(batch, ConversionFailed(
                        f"conversion job {handle.job_id} ended {state.value}"))
            if live and options.deadline_s is not None and elapsed >= options.deadline_s:
                for batch in live.values():
                    batch.error = batch.error or WorkflowFailed(
                        f"deadline exceeded after {elapsed}s")
                break

        # Stage: one launch zips the out dir of every completed batch and
        # the logs dir into one bundle, which comes back on its stdout and is
        # split locally by batch; the same launch then tears the run down as
        # the finally below would, cancelling nothing when every batch
        # completed: all its jobs are terminal then, so a batch that fails to
        # split leaves no job running. A batch's log is the log of the last
        # job it submitted that wrote one: a workflow job that never started
        # (its conversion failed or was still running at the deadline) wrote
        # none.
        emit(RunStage.RETRIEVING, "fetching artifacts")
        completed = [b for b in batches if b.error is None and b.state is JobState.COMPLETED]
        logged = [b for b in batches if b.job]  # every completed batch among them
        bundle = None
        if logged:
            cancel = None if len(completed) == len(batches) else job_name
            if cancel:
                emit_cancel()
            try:
                bundle, removed = slurm.fetch_results(
                    endpoint, [posixpath.join(b.remote_dir, "out") for b in completed]
                    + [logs_dir], posixpath.join(run_dir, "bundle.zip"), run_paths, cancel)
                torn_down = True
                emit("cleanup", f"removed={len(removed)}")
            except TransportError as exc:
                bundle = exc  # the answer was lost; the finally tears down again
            if isinstance(bundle, SlurmBridgeError):
                for batch in completed:
                    batch.error = RetrievalFailed(str(bundle))
                bundle = None
        if bundle:
            with zipfile.ZipFile(io.BytesIO(bundle)) as archive:
                for batch in completed:
                    local_zip = os.path.join(local_output_dir, f"{run_id}_batch{batch.index}.zip")
                    out_dir = posixpath.join(batch.remote_dir, "out")
                    if _split_results(archive, slurm.zip_entry_name(out_dir) + "/", local_zip):
                        batch.result_zip = local_zip
                    else:
                        batch.error = RetrievalFailed(str(EmptyOutput(out_dir)))
                for batch in logged:
                    for job in filter(None, (batch.workflow_handle, batch.conversion_handle)):
                        try:
                            batch.logfile = slurm.fetch_logfile(
                                archive, job, logs_dir, local_output_dir)
                            break
                        except LogMissing:
                            pass
        for batch in batches:
            if batch.result_zip:
                record.output_artifacts.append(batch.result_zip)
                continue
            if batch.error is None:
                batch.error = WorkflowFailed(
                    f"workflow job ended {batch.state.value if batch.state else 'unknown'}",
                    logfile=batch.logfile,
                )
            if batch.logfile:
                record.output_artifacts.append(batch.logfile)
            emit("batch-failed",
                 f"batch={batch.index} {type(batch.error).__name__}: {batch.error}")
    finally:
        # No job may outlive its data: unless the retrieval launch answered,
        # cancel the run's jobs by name, as one may be live, unseen (its
        # submission's answer was lost, or the run was interrupted before
        # recording it), or an array whose failed parent state hides tasks
        # still running. In the same launch, remove the remote run data and
        # the uploaded archive, should it be left; both are idempotent. Logs
        # stay.
        if not torn_down:
            emit_cancel()
            try:
                removed = slurm.cleanup_run(endpoint, run_paths, job_name)
                emit("cleanup", f"removed={len(removed)}")
            except TransportError:
                emit("cleanup", "failed")
        shutil.rmtree(staging_root, ignore_errors=True)

    completed = [b for b in batches if b.result_zip]
    if len(completed) == len(batches):
        emit(RunStage.DONE, f"batches={len(batches)}")
    elif completed:
        emit(RunStage.PARTIAL_FAILURE,
             f"completed={len(completed)} failed={len(batches) - len(completed)}")
    else:
        emit(RunStage.FAILED, "; ".join(str(b.error) for b in batches if b.error))
    return record


def record_signature(record):
    """Structure of a RunRecord with run ids, job ids, and timestamps
    normalized away, for equivalence comparisons."""

    def scrub(text):
        return str(text).replace(record.run_id, "<run>")

    return {
        "workflow": record.workflow,
        "version": record.version,
        "values": record.values,
        "state": record.overall_state.value,
        "items": [item.id for item in record.items],
        "batches": [
            {
                "index": b.index,
                "items": list(b.items),
                "remote_dir": scrub(b.remote_dir),
                "state": b.state.value if b.state else None,
                "result_zip": scrub(os.path.basename(b.result_zip)) if b.result_zip else None,
            }
            for b in record.batches
        ],
        "artifacts": sorted(scrub(os.path.basename(p)) for p in record.output_artifacts),
    }


def import_results(record, destination, mode):
    """Place run outputs locally: unpacked images, sidecar files next to the
    inputs they derive from, or the raw zips. A file already at a target,
    however recently made, is never overwritten: its import stops with
    CollisionError."""
    zips = [b.result_zip for b in record.batches if b.result_zip]
    if not zips:
        raise NoResults(record.run_id)
    os.makedirs(destination, exist_ok=True)
    written = []
    made = {destination}

    def place(data, target):
        directory = os.path.dirname(target)
        if directory not in made:
            os.makedirs(directory, exist_ok=True)
            made.add(directory)
        try:
            handle = open(target, "xb")  # made here, or refused if it exists
        except FileExistsError:
            raise CollisionError(target) from None
        with handle:
            handle.write(data)
        written.append(target)

    def entries():
        """(name, bytes) of every file in the result zips."""
        for zip_path in zips:
            with zipfile.ZipFile(zip_path) as archive:
                for info in archive.infolist():
                    if not info.is_dir():
                        yield info.filename, archive.read(info)

    if mode == "SingleZip":
        for zip_path in zips:
            with open(zip_path, "rb") as handle:
                place(handle.read(), os.path.join(destination, os.path.basename(zip_path)))
        return written

    run_dir = os.path.join(destination, record.run_id)
    if mode == "ImagesFolder":
        for name, data in entries():
            place(data, os.path.join(run_dir, name))
        return written

    if mode == "SidecarAttachments":
        stems = sorted(
            ((item.id, item) for item in record.items),
            key=lambda pair: -len(pair[0]),
        )
        for entry, data in entries():
            name = os.path.basename(entry)
            stem = name.rsplit(".", 1)[0]
            match = next((item for item_id, item in stems if stem == item_id
                          or stem.startswith((item_id + "_", item_id + "."))), None)
            if match is not None:
                target = os.path.join(os.path.dirname(match.local_path), name)
            else:
                target = os.path.join(run_dir, "unmatched", name)
            place(data, target)
        return written

    raise ValueError(f"unknown import mode: {mode}")
