"""Slurm operations over a transport Endpoint: environment provisioning,
submission, polling, log/result retrieval, cancellation, cleanup."""

import os
import posixpath
import re
from dataclasses import dataclass, field

from . import config as config_mod
from .errors import (
    AccountingUnavailable,
    EmptyOutput,
    LogMissing,
    PullFailed,
    ScratchUnwritable,
    SubmitRejected,
    TransportError,
    UnknownState,
    UnparseableJobId,
)
from .states import JobState, aggregate_array_states, parse_state_token

_SUBMIT_RE = re.compile(r"Submitted batch job (\d+)")

MANAGED_DIRS = ("singularity_images", "slurm-scripts/jobs", "data", "logs")

DEFAULT_POLL_INTERVAL_S = 10


@dataclass(frozen=True)
class JobHandle:
    job_id: int
    logfile_path: str
    array_size: int = None


@dataclass
class EnvReport:
    created_dirs: list = field(default_factory=list)
    pulled_images: list = field(default_factory=list)  # (workflow name, image path)
    refreshed: bool = False
    failures: list = field(default_factory=list)  # (workflow name, error message)


def scratch_layout(profile):
    return {name: posixpath.join(profile.scratch_dir, name) for name in MANAGED_DIRS}


def image_file_path(profile, name, version):
    return posixpath.join(
        profile.scratch_dir, "singularity_images", f"{name}_{version}.sif"
    )


def converter_image_path(profile, src_fmt, dst_fmt):
    return posixpath.join(
        profile.scratch_dir, "singularity_images", f"convert_{src_fmt}_to_{dst_fmt}.sif"
    )


def init_environment(endpoint, profile, registry):
    """Provision the managed scratch layout and pull missing images.

    Idempotent: a second call with an unchanged registry creates nothing and
    pulls nothing.
    """
    layout = scratch_layout(profile)
    report = EnvReport()
    refreshed = True
    for path in layout.values():
        if not endpoint.path_exists(path):
            refreshed = False
        try:
            endpoint.make_dirs(path)
        except TransportError as exc:
            raise ScratchUnwritable(str(exc)) from exc
        report.created_dirs.append(path)
    report.refreshed = refreshed

    images = [
        (name, image_file_path(profile, name, registry.entry(name).version),
         config_mod.resolve_workflow(registry, name).image_reference)
        for name in sorted(registry.entries)
    ] + [
        (f"converter {src}->{dst}", converter_image_path(profile, src, dst), image)
        for (src, dst), image in (profile.converters or {}).items()
    ]
    for name, path, reference in images:
        try:
            if not endpoint.path_exists(path):
                result = endpoint.exec(["singularity", "pull", path, f"docker://{reference}"])
                if not result.ok:
                    raise PullFailed(name, result.exit_code, result.stderr)
                report.pulled_images.append((name, path))
        except (PullFailed, TransportError) as exc:
            # Partial failure: keep whatever provisioned, report per image.
            report.failures.append((name, str(exc)))
    return report


def submit_job(endpoint, remote_script_path, array_size=None, logfile_pattern=None):
    """Submit a script already on the cluster, returning the parsed job handle."""
    result = endpoint.exec(["sbatch", remote_script_path])
    if not result.ok:
        raise SubmitRejected(result.stderr or result.stdout, result.exit_code)
    match = _SUBMIT_RE.search(result.stdout)
    if match is None:
        raise UnparseableJobId(f"no job id in submitter output: {result.stdout!r}")
    job_id = int(match.group(1))
    if logfile_pattern is None:
        logfile_pattern = ""
    return JobHandle(
        job_id=job_id,
        logfile_path=logfile_pattern.replace("%j", str(job_id)),
        array_size=array_size,
    )


def poll_jobs(endpoint, handles):
    """One accounting round trip covering every handle; array parents are
    aggregated from their task states."""
    ids = ",".join(str(h.job_id) for h in handles)
    try:
        result = endpoint.exec(
            ["sacct", "-n", "-P", "-X", "-o", "JobID,State", "-j", ids]
        )
    except TransportError as exc:
        raise AccountingUnavailable(str(exc)) from exc
    if not result.ok:
        raise AccountingUnavailable(result.stderr)
    plain = {}
    tasks = {}
    for line in result.stdout.splitlines():
        if "|" not in line:
            continue
        entry_id, _, token = line.partition("|")
        state = parse_state_token(token)
        if state is None:
            raise UnknownState(token)
        if "_" in entry_id:
            parent, _, _ = entry_id.partition("_")
            tasks.setdefault(int(parent), []).append(state)
        else:
            plain[int(entry_id)] = state
    states = {}
    for handle in handles:
        if handle.job_id in tasks:
            states[handle.job_id] = aggregate_array_states(tasks[handle.job_id])
        elif handle.job_id in plain:
            states[handle.job_id] = plain[handle.job_id]
        else:
            # Submitted but not yet visible to accounting.
            states[handle.job_id] = JobState.PENDING
    return states


def cancel_job(endpoint, handle):
    """Issue a cancel; cancelling an already-terminal job is a no-op."""
    endpoint.exec(["scancel", str(handle.job_id)])
    return True


def zip_entry_name(remote_path):
    """The name `zip -r` gives remote_path inside an archive: the path as
    given, without its leading '/'."""
    return posixpath.normpath(remote_path).lstrip("/")


def fetch_logfile(logs_archive, handle, local_dir):
    """Extract the job's logfile, plus its task logs for an array job, from a
    ZipFile that fetch_results made of the logs dir; returns the local parent
    log path."""
    os.makedirs(local_dir, exist_ok=True)
    names = set(logs_archive.namelist())
    logs_dir, parent = posixpath.split(handle.logfile_path)
    if zip_entry_name(handle.logfile_path) not in names:
        raise LogMissing(handle.logfile_path)
    task_logs = [f"omero-job-{handle.job_id}_{k}.log" for k in range(handle.array_size or 0)]
    for log in [parent] + task_logs:
        entry = zip_entry_name(posixpath.join(logs_dir, log))
        if entry in names:
            with open(os.path.join(local_dir, log), "wb") as out:
                out.write(logs_archive.read(entry))
    return os.path.join(local_dir, parent)


def fetch_results(endpoint, remote_dir, remote_zip, local_zip_path):
    """Zip the files below a remote dir into remote_zip, transfer, and
    checksum-verify. Entries are named by zip_entry_name; remote_zip may lie
    inside remote_dir, as zip leaves out the archive it is writing.
    """
    result = endpoint.exec(["zip", "-r", "-D", remote_zip, remote_dir])
    if result.exit_code == 12:
        raise EmptyOutput(remote_dir)
    if not result.ok:
        raise TransportError(f"remote zip failed: {result.stderr}")
    endpoint.get_file(remote_zip, local_zip_path)
    return local_zip_path


def cleanup_run(endpoint, run_paths):
    """Remove the run's remote data dirs; logs are retained. Idempotent."""
    removed = []
    for path in run_paths:
        if endpoint.path_exists(path):
            endpoint.remove_tree(path)
            removed.append(path)
    return removed
