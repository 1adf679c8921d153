"""Slurm operations over a transport Endpoint: environment provisioning,
submission, polling, log/result retrieval, cleanup with cancellation."""

import binascii
import os
import posixpath
import re
from dataclasses import dataclass, field

from . import config as config_mod
from . import jobscript
from .errors import (
    AccountingUnavailable,
    ChecksumMismatch,
    EmptyOutput,
    LogMissing,
    PullFailed,
    ScratchUnwritable,
    SubmitRejected,
    TransportError,
    UnknownState,
    UnparseableJobId,
)
from .states import aggregate_array_states, parse_state_token
from .transport import Captured, Quiet, sha256_hex, staging_path

# A job id is `<id>`, an array task `<id>_<k>` or an array's pending tasks
# `<id>_[<ranges>]`; this optional group holds the suffix of the last two.
_TASK_SUFFIX = r"(_(?:\d+|\[[\d,%-]+\]))?"
# Each line of `sacct -P -o JobID,WorkDir,State` that is not blank: the job
# id's number, its task suffix, the work dir (up to the last '|') and the
# state token; or, in the fifth group, a line that is none of these.
_SACCT_RE = re.compile(rf"^(?:(\d+){_TASK_SUFFIX}\|(.*)\|(.*)|(.*\S.*))$", re.MULTILINE)
# A line of `squeue -o %i`: a job id.
_SQUEUE_RE = re.compile(rf"\d+{_TASK_SUFFIX}")

# How far a run's sacct reaches back past the run's age as the client counts
# it: its -S is `now-<seconds>`, a form sacct(1) reads by the cluster's own
# clock, so neither the client's clock nor a time zone enters it. A day is
# wide of what the count misses (the time its launches take), and the
# window stays bounded: slurmdbd refuses a query over a longer span than
# its MaxQueryTimeRange (slurmdbd.conf(5)).
_MARGIN_S = 86400

MANAGED_DIRS = ("singularity_images", "slurm-scripts/jobs", "data", "logs")

DEFAULT_POLL_INTERVAL_S = 10


@dataclass(frozen=True)
class JobHandle:
    job_id: int
    array_size: int = None

    @property
    def logs(self):
        """Names of the logs the job writes in the logs dir: its own, or
        one per task of an array, by index."""
        if self.array_size is None:
            return [jobscript.log_name(self.job_id)]
        return [jobscript.log_name(self.job_id, k) for k in range(self.array_size)]


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


def converter_image_path(profile):
    return posixpath.join(profile.scratch_dir, "singularity_images", "convert_zarr_to_tiff.sif")


def init_environment(endpoint, profile, registry):
    """Provision the managed scratch layout and pull missing images.

    One probe launch tests every managed dir and image and creates the dirs;
    each missing image then costs one pull launch, framed as exec_many
    frames every launch, so that singularity's exit 255 on a failed pull
    reads as its status, not as ssh's lost link. Idempotent: a second call
    with an unchanged registry creates nothing and pulls nothing.
    """
    dirs = list(scratch_layout(profile).values())
    images = [
        (name, image_file_path(profile, name, registry.entry(name).version),
         config_mod.image_reference(registry, name))
        for name in sorted(registry.entries)
    ]
    if profile.zarr_to_tiff:
        images.append(
            ("converter zarr->tiff", converter_image_path(profile), profile.zarr_to_tiff))
    *found, made = endpoint.exec_many(
        [["test", "-e", path] for path in dirs + [path for _, path, _ in images]]
        + [["mkdir", "-p", *dirs]])
    if not made.ok:
        raise ScratchUnwritable(made.stderr.strip())
    report = EnvReport(created_dirs=dirs,
                       refreshed=all(result.ok for result in found[:len(dirs)]))
    for (name, path, reference), present in zip(images, found[len(dirs):]):
        if present.ok:
            continue
        try:
            [result] = endpoint.exec_many([["singularity", "pull", path, f"docker://{reference}"]])
            if not result.ok:
                raise PullFailed(name, result.exit_code, result.stderr)
            report.pulled_images.append((name, path))
        except (PullFailed, TransportError) as exc:
            # Partial failure: keep whatever provisioned, report per image.
            report.failures.append((name, str(exc)))
    return report


def run_data_paths(profile, run_id):
    """The run's remote data: its run dir and, beside it in data/, the
    uploaded input archive and the file put_file stages it in, which an
    interrupted upload leaves."""
    run_dir = posixpath.join(profile.scratch_dir, "data", run_id)
    return [run_dir, run_dir + ".zip", staging_path(run_dir + ".zip")]


def run_job_name(run_id):
    """The name every job of the run carries, so it can be cancelled by name."""
    return f"sb-{run_id}"


def submit_job(endpoint, scripts, name, setup=(), last=()):
    """Submit scripts, each as a job named name whose work dir (--chdir) is
    its script's dir, in one launch that runs the setup commands first,
    then, only if every one exited 0, the sbatches and the commands of last,
    whose results are not returned. scripts holds (path, after) pairs, where
    after is the index in scripts of an earlier script whose job must
    complete first, or None. The shell hands that job's id to the sbatch
    that names it as a dependency, which runs only if that job's sbatch
    exited 0; a job whose dependency fails is cancelled by Slurm without
    starting. No sbatch answer is read here: a run finds its jobs by name
    and work dir (job_states).

    Returns the ExecResult of each setup command, then per script True when
    its sbatch exited 0, the SubmitRejected that refused it, or None when it
    was not submitted because a setup command failed or the job it depends
    on was not submitted. Raises TransportError when the launch's answer is
    lost; any of the scripts may then have been submitted.
    """
    argvs = []
    for path, after in scripts:
        argv = ["sbatch", "--parsable", f"--job-name={name}",
                f"--chdir={posixpath.dirname(path)}"]
        if after is not None:
            argv += [Captured(after, "--dependency=afterok:"), "--kill-on-invalid-dep=yes"]
        argvs.append(argv + [path])
    ran = endpoint.exec_many(list(setup), then=argvs + list(last))
    return ran[:len(setup)] + [
        result if result is None
        else result.ok or SubmitRejected(result.stderr or result.stdout, result.exit_code)
        for result in ran[len(setup):len(setup) + len(scripts)]]


def _sacct(name, age):
    return ["sacct", "-n", "-P", "-X", f"--name={name}", "-S", f"now-{int(age) + _MARGIN_S}",
            "-o", "JobID,WorkDir,State"]


def poll_jobs(endpoint, name, age):
    """One accounting round trip over every job named name that was queued
    or running at some time in the last age seconds, and a day more; see
    job_states."""
    try:
        result = endpoint.exec(_sacct(name, age))
    except TransportError as exc:
        raise AccountingUnavailable(str(exc)) from exc
    return job_states(result)


def job_states(result):
    """The (work dir, kind) of each job that the result of its sacct lists
    (one failed raises AccountingUnavailable), kind "conversion" for an
    array and "workflow" for a plain job -> (its job id, its state, an
    array's aggregated from its task states, or else UnknownState for a
    state token that cannot be mapped), so that one job's unreadable state
    costs only that job. A line that cannot be read adds None -> (None,
    UnparseableJobId): the state of every job that no other line lists."""
    if not result.ok:
        raise AccountingUnavailable(result.stderr.strip())
    jobs = {}
    tasks = {}
    parsed = {}  # state token -> JobState or UnknownState, mapped once per token
    for job_id, task, work_dir, token, unreadable in _SACCT_RE.findall(result.stdout):
        if unreadable:
            jobs[None] = (None, UnparseableJobId(f"unreadable accounting line: {unreadable!r}"))
            continue
        state = parsed.get(token) or parsed.setdefault(
            token, parse_state_token(token) or UnknownState(token))
        if task:
            tasks.setdefault((work_dir, "conversion"), (int(job_id), []))[1].append(state)
        else:
            jobs[work_dir, "workflow"] = (int(job_id), state)
    jobs.update((key, (job_id, next((s for s in states if isinstance(s, UnknownState)), None)
                       or aggregate_array_states(states)))
                for key, (job_id, states) in tasks.items())
    return jobs


def poll_guard(name):
    """The one command a poll launch runs before the rest of fetch_results:
    the Quiet `squeue -a -h --name=<name> -o %i`, which exits 0 only when
    no job or array task named name is queued or running, on any partition.
    Its stdout lists the record of each one that is; see workflow_queued."""
    return [Quiet(["squeue", "-a", "-h", f"--name={name}", "-o", "%i"])]


def workflow_queued(result):
    """Whether a poll_guard which failed lists a workflow job: a plain
    `<id>`, where an array task `<id>_<k>` or an array's pending tasks
    `<id>_[<ranges>]` are conversion records. A guard that lists nothing,
    or a line that is none of these, is a squeue that failed, and raises
    AccountingUnavailable."""
    listed = [_SQUEUE_RE.fullmatch(line) for line in result.stdout.splitlines()]
    if not listed or None in listed:
        raise AccountingUnavailable(result.stderr.strip() or f"squeue printed {result.stdout!r}")
    return any(match.group(1) is None for match in listed)


def zip_entry_name(remote_path):
    """The name `zip -r` gives remote_path inside an archive: the path as
    given, without its leading '/'."""
    return posixpath.normpath(remote_path).lstrip("/")


def fetch_logfile(bundle, handle, logs_dir, local_dir):
    """Extract the job's logs (an array's task logs) from logs_dir in the
    bundle that fetch_results brought back, open as a ZipFile, into
    local_dir; returns the local path of the first, the lowest-index task's
    for an array. Raises LogMissing when the job wrote none."""
    os.makedirs(local_dir, exist_ok=True)
    fetched = []
    for log in handle.logs:
        try:
            info = bundle.getinfo(zip_entry_name(posixpath.join(logs_dir, log)))
        except KeyError:
            continue
        fetched.append(os.path.join(local_dir, log))
        with open(fetched[-1], "wb") as out:
            out.write(bundle.read(info))
    if not fetched:
        raise LogMissing(f"no log of job {handle.job_id} in {logs_dir}")
    return fetched[0]


def fetch_results(endpoint, name, age, paths, remote_zip, run_paths=(), cancel=False, guard=()):
    """In one launch, run the guard's commands and then, only if every one
    exited 0, each of these, whatever the ones before it gave: the sacct of
    poll_jobs over the jobs named name in the last age seconds, which a run
    reads once, here, before any job is cancelled; zip every file under the
    remote paths into remote_zip, hash it and send it back on stdout; and
    tear the run down as cleanup_run does: with cancel, cancel every job
    named name, and remove the run paths, remote_zip among them.

    Entries are named by zip_entry_name. A path that does not exist adds
    nothing (under -q without a warning). Returns (the ExecResult of each
    guard command, (sacct, bundle, removed) or None when the guard kept the
    rest back): the sacct's ExecResult, for job_states; the archive's
    bytes, verified against the remote digest, or else the error that kept
    them from coming back, EmptyOutput when no path holds a file,
    ChecksumMismatch when the bytes fail the digest and TransportError when
    the zip fails; and the run paths that existed. Raises TransportError
    when the launch's answer is lost; its teardown may have run.
    """
    ran = endpoint.exec_many(list(guard), then=[
        _sacct(name, age), ["zip", "-q", "-r", "-D", remote_zip, *paths],
        ["sha256sum", remote_zip], ["base64", remote_zip]]
        + teardown_commands(run_paths, name if cancel else None))
    guarded, (sacct, *tail) = ran[:len(guard)], ran[len(guard):]
    if sacct is None:  # a guard command failed, and nothing after them ran
        return guarded, None
    return guarded, (sacct, _bundle(paths, remote_zip, *tail[:3]), _removed(run_paths, tail[3:]))


def _bundle(paths, remote_zip, zipped, digest, stream):
    """The bundle, or its error, as fetch_results gives it, from the
    results of its zip, sha256sum and base64."""
    if zipped.exit_code == 12:
        return EmptyOutput(" ".join(paths))
    if not zipped.ok:
        # Info-ZIP writes its errors on stdout.
        cause = (zipped.stdout or zipped.stderr).strip()
        return TransportError(f"remote zip failed (exit {zipped.exit_code}): {cause}")
    try:
        # Decoded from the str itself: base64.b64decode would first make an
        # ASCII bytes copy of the whole stream.
        bundle = binascii.a2b_base64(stream.stdout)
        verified = (stream.ok and digest.ok
                    and digest.stdout.split()[:1] == [sha256_hex(bundle)])
    except ValueError:  # not base64, or not even ASCII
        verified = False
    return bundle if verified else ChecksumMismatch(
        f"{remote_zip} came back failing its sha256 digest")


def teardown_commands(run_paths, cancel=None):
    """The commands that cancel every job named cancel, when given, so that
    no job outlives its data, and then test and remove each run path."""
    cancelling = [["scancel", f"--name={cancel}"]] if cancel else []
    return cancelling + [command for path in run_paths
                         for command in (["test", "-e", path], ["rm", "-rf", path])]


def _removed(run_paths, results):
    """The run paths that existed, from the results of teardown_commands."""
    tests = results[len(results) - 2 * len(run_paths)::2]
    return [path for path, found in zip(run_paths, tests) if found.ok]


def cleanup_run(endpoint, run_paths, cancel=None):
    """Remove the run's remote data paths in one launch, first cancelling
    every job named cancel when given, so no job outlives its data; logs
    are retained. Returns the paths that existed. Idempotent."""
    return _removed(run_paths, endpoint.exec_many(teardown_commands(run_paths, cancel)))
