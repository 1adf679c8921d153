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


def submit_job(endpoint, scripts, name, logfile_pattern=""):
    """Submit scripts already on the cluster, all in one launch, each as a
    job named name. scripts holds (path, array_size, after) triples, where
    after is the id of a job that must complete first, or None; a job whose
    dependency fails is cancelled by Slurm without starting.

    Returns per script its JobHandle or the error that rejected it. Raises
    TransportError when the launch's answer is lost; any of the scripts may
    then have been submitted.
    """
    argvs = []
    for path, _, after in scripts:
        argv = ["sbatch", f"--job-name={name}"]
        if after is not None:
            argv += [f"--dependency=afterok:{after}", "--kill-on-invalid-dep=yes"]
        argvs.append(argv + [path])
    outcomes = []
    for (_, array_size, _), result in zip(scripts, endpoint.exec_many(argvs)):
        match = _SUBMIT_RE.search(result.stdout)
        if not result.ok:
            outcomes.append(SubmitRejected(result.stderr or result.stdout, result.exit_code))
        elif match is None:
            outcomes.append(UnparseableJobId(f"no job id in submitter output: {result.stdout!r}"))
        else:
            job_id = int(match.group(1))
            outcomes.append(JobHandle(
                job_id=job_id,
                logfile_path=logfile_pattern.replace("%j", str(job_id)),
                array_size=array_size,
            ))
    return outcomes


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


def cancel_named(endpoint, name):
    """Cancel every job named name, including any whose id was never seen."""
    endpoint.exec(["scancel", f"--name={name}"])


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


def fetch_results(endpoint, archives, drop=()):
    """Remove the drop paths, then zip each remote dir into its remote zip,
    all in one launch, and bring back every zip made, checksum-verified.

    archives holds (remote_dir, remote_zip, local_zip) triples. Entries are
    named by zip_entry_name; a remote zip may lie inside its remote dir, as
    zip leaves out the archive it is writing. Returns per archive local_zip,
    or the error that stopped it (EmptyOutput when the dir holds no file).
    Raises TransportError when the launch fails.
    """
    commands = [["zip", "-r", "-D", remote_zip, remote_dir]
                for remote_dir, remote_zip, _ in archives]
    remove = [["rm", "-rf", *drop]] if drop else []
    results = endpoint.exec_many(remove + commands)[len(remove):]
    outcomes = []
    for (remote_dir, remote_zip, local_zip), result in zip(archives, results):
        if result.exit_code == 12:
            outcomes.append(EmptyOutput(remote_dir))
        elif not result.ok:
            outcomes.append(TransportError(f"remote zip failed: {result.stderr}"))
        else:
            try:
                endpoint.get_file(remote_zip, local_zip)
                outcomes.append(local_zip)
            except TransportError as exc:
                outcomes.append(exc)
    return outcomes


def cleanup_run(endpoint, run_paths):
    """Remove the run's remote data dirs in one launch; logs are retained.
    Returns the paths that existed. Idempotent."""
    results = endpoint.exec_many(
        [command for path in run_paths for command in (["test", "-e", path], ["rm", "-rf", path])])
    return [path for path, found in zip(run_paths, results[::2]) if found.ok]
