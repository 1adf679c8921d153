"""Command-line surface: validate, init, run, status, logs, fetch, cancel, list."""

import contextlib
import datetime
import math
import os
import re
import sys
import uuid

import click

from . import config as config_mod
from . import descriptor as descriptor_mod
from . import orchestrator, simslurm, slurm
from .errors import SlurmBridgeError, TransportError, UnknownRunId
from .states import JobState
from .transport import SshEndpoint

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_USAGE = 2

DEFAULT_CONFIG = "./slurm-config.ini"


def _fail(message, code=EXIT_USAGE):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def journal_path(runs_dir, run_id):
    return os.path.join(runs_dir, f"{run_id}.journal")


# A row's detail is escaped, so that the row stays one line whatever text
# (a tool's stderr, an input path) it carries.
_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n", "\r": "\\r"})
_UNESCAPES = {"n": "\n", "r": "\r"}


def append_journal_row(path, stage, detail, timestamp=None):
    """Append one `<timestamp>\t<stage>\t<detail>` row to a run's journal."""
    timestamp = timestamp or datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "a") as handle:
        handle.write(f"{timestamp}\t{stage}\t{str(detail).translate(_ESCAPES)}\n")


def read_journal(path):
    """The rows of a run's journal as [timestamp, stage, detail as appended]."""
    rows = []
    with open(path) as handle:
        for line in filter(str.strip, handle):
            if rows and "\t" not in line:  # an older, unescaped detail went on past a newline
                rows[-1][2] += "\n" + line.rstrip("\n")
            else:
                rows.append(line.rstrip("\n").split("\t", 2))
    return [[timestamp, stage, re.sub(r"\\(.)", lambda m: _UNESCAPES.get(m[1], m[1]), detail)]
            for timestamp, stage, detail in rows]


def _load_config(path):
    try:
        with open(path) as handle:
            return config_mod.parse_config(handle.read())
    except FileNotFoundError:
        _fail(f"config file not found: {path}")
    except SlurmBridgeError as exc:
        _fail(str(exc))


@contextlib.contextmanager
def _endpoint(profile, simulate):
    """The cluster a command works on: the profile's host over SSH, or under
    --simulate the embedded simulator. A simulator given a topology file keeps
    its state beside that file, saved on exit, so separate invocations see
    one cluster. A topology or state file that cannot be loaded is a usage
    error."""
    if simulate is None:
        yield SshEndpoint(profile)
        return
    state_path = simulate + ".state" if simulate else None
    source = next((path for path in (state_path, simulate) if path and os.path.exists(path)),
                  None)
    try:
        if source is None:
            cluster = simslurm.SimCluster()
        elif source == state_path:
            cluster = simslurm.SimCluster.load_state(source)
        else:
            with open(source) as handle:
                cluster = simslurm.SimCluster(simslurm.load_topology(handle.read()))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        _fail(f"cannot load simulator file {source}: {type(exc).__name__}: {exc}")
    try:
        yield simslurm.SimEndpoint(cluster)
    finally:
        if state_path:
            cluster.save_state(state_path)


_simulate_option = click.option(
    "--simulate",
    default=None,
    is_flag=False,
    flag_value="",
    help="Use the embedded simulator; optionally pass a topology file.",
)

_config_option = click.option(
    "--config",
    "config_path",
    default=DEFAULT_CONFIG,
    show_default=True,
    envvar="SLURMBRIDGE_CONFIG",
    help="Config file path.",
)

_runs_dir_option = click.option(
    "--runs-dir",
    default="./runs",
    show_default=True,
    help="Directory holding run journals.",
)


@click.group()
def main():
    """Run containerized image-analysis workflows on a Slurm cluster."""


@main.command("validate")
@click.argument("descriptor_path")
def cmd_validate(descriptor_path):
    """Parse a workflow descriptor and print its parameter table."""
    try:
        with open(descriptor_path) as handle:
            descriptor = descriptor_mod.parse_descriptor(handle.read())
    except (OSError, SlurmBridgeError) as exc:
        _fail(str(exc))
    for warning in descriptor.warnings:
        click.echo(f"warning: {warning}", err=True)
    click.echo(f"name={descriptor.name}")
    click.echo(f"image={descriptor.container_image}:{descriptor.container_version}")
    for spec in descriptor.params:
        default = "" if spec.default is None else descriptor_mod.render_value(spec.default)
        click.echo(
            f"param={spec.id}\ttype={spec.value_type.value}"
            f"\tdefault={default}\tlabel={spec.display_name}"
        )
    sys.exit(EXIT_OK)


@main.command("init")
@_config_option
@_simulate_option
def cmd_init(config_path, simulate):
    """Provision the managed scratch layout on the cluster."""
    profile, registry = _load_config(config_path)
    with _endpoint(profile, simulate) as endpoint:
        try:
            report = slurm.init_environment(endpoint, profile, registry)
        except SlurmBridgeError as exc:
            _fail(str(exc), code=EXIT_RUN_FAILURE)
    click.echo(f"refreshed={'true' if report.refreshed else 'false'}")
    click.echo(f"dirs={len(report.created_dirs)}")
    click.echo(f"pulls={len(report.pulled_images)}")
    for name, path in report.pulled_images:
        click.echo(f"image={name}\t{path}")
    for name, message in report.failures:
        click.echo(f"failure={name}\t{message}", err=True)
    sys.exit(EXIT_RUN_FAILURE if report.failures else EXIT_OK)


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_params(descriptor, params):
    """The typed value of each id=value: a Boolean is one of _BOOLEANS in
    any case, a Number a finite float (an int when integral and below
    2**53 in magnitude, where every integer is exact, so 1e300 stays a
    float and renders as typed)."""
    values = {}
    for raw in params:
        if "=" not in raw:
            _fail(f"--param must be id=value, got {raw!r}")
        key, _, raw_value = raw.partition("=")
        try:
            spec = descriptor.param(key)
        except SlurmBridgeError as exc:
            _fail(str(exc))
        value = raw_value
        if spec.value_type is descriptor_mod.ValueType.BOOLEAN:
            value = _BOOLEANS.get(raw_value.lower())
        elif spec.value_type is descriptor_mod.ValueType.NUMBER:
            try:
                value = float(raw_value)
            except ValueError:
                value = math.nan  # refused below, as inf and nan are
            if not math.isfinite(value):
                value = None
            elif value.is_integer() and abs(value) < 2**53:
                value = int(value)
        if value is None:
            _fail(f"parameter {key!r} expects a {spec.value_type.value}, got {raw_value!r}")
        values[key] = value
    return values


def _load_descriptor_for(config_path, entry):
    """The workflow's descriptor document, named by its descriptor_path key;
    a relative path is taken from the config file's directory."""
    if entry.descriptor_path is None:
        _fail(f"no descriptor_path configured for workflow {entry.name!r}")
    path = os.path.join(os.path.dirname(os.path.abspath(config_path)), entry.descriptor_path)
    try:
        with open(path) as handle:
            return descriptor_mod.parse_descriptor(handle.read())
    except (OSError, SlurmBridgeError) as exc:
        _fail(f"cannot load descriptor for {entry.name}: {exc}")


@main.command("run")
@click.argument("workflow")
@_config_option
@_simulate_option
@_runs_dir_option
@click.option("--param", "params", multiple=True, help="Parameter as id=value.")
@click.option("--input", "input_dir", required=True, help="Local input directory.")
@click.option("--batch-size", default=0, type=click.IntRange(min=0),
              help="Items per batch (default: all in one).")
@click.option("--output", "output_dir", default=".", help="Local output directory.")
@click.option("--skip-conversion", is_flag=True, default=False)
def cmd_run(workflow, config_path, simulate, runs_dir, params, input_dir,
            batch_size, output_dir, skip_conversion):
    """Run a registered workflow over a folder of input images; blocks until
    every batch is terminal."""
    profile, registry = _load_config(config_path)
    if workflow not in registry.entries:
        _fail(f"workflow not registered: {workflow}")
    descriptor = _load_descriptor_for(config_path, registry.entries[workflow])
    values = _parse_params(descriptor, params)
    if not os.path.isdir(input_dir):
        _fail(f"input directory not found: {input_dir}")
    items = orchestrator.scan_input_dir(input_dir)
    run_id = str(uuid.uuid4())
    path = journal_path(runs_dir, run_id)

    # Every run event is journaled. The journal's first row names the inputs,
    # so that `fetch --mode SidecarAttachments` can place each output beside
    # its input; a run refused before its first event leaves no journal.
    def listener(stage, detail):
        click.echo(f"[{stage}] {detail}", err=True)
        if not os.path.exists(path):
            os.makedirs(runs_dir, exist_ok=True)
            append_journal_row(path, "inputs", os.path.abspath(input_dir))
        append_journal_row(path, stage, detail)

    with _endpoint(profile, simulate) as endpoint:
        try:
            record = orchestrator.run_workflow_batched(
                endpoint, profile, registry, descriptor, workflow,
                values, items, batch_size or max(len(items), 1),
                options=orchestrator.RunOptions(skip_conversion=skip_conversion),
                local_output_dir=output_dir, listener=listener, run_id=run_id,
            )
        except SlurmBridgeError as exc:
            _fail(str(exc))
    click.echo(f"run_id={record.run_id}")
    click.echo(f"state={record.overall_state.value}")
    for artifact in record.output_artifacts:
        click.echo(f"artifact={artifact}")
    ok = record.overall_state is orchestrator.RunStage.DONE
    sys.exit(EXIT_OK if ok else EXIT_RUN_FAILURE)


def _read_journal(runs_dir, run_id):
    """The run's journal rows as [timestamp, stage, detail]; exits 2 when
    runs_dir holds no journal for run_id, or one with a row of fewer than
    three fields."""
    try:
        return read_journal(journal_path(runs_dir, run_id))
    except FileNotFoundError:
        _fail(str(UnknownRunId(run_id)))
    except ValueError:
        _fail(f"journal of run {run_id} holds a damaged row")


@main.command("status")
@click.argument("run_id")
@_runs_dir_option
@_config_option
@_simulate_option
def cmd_status(run_id, runs_dir, config_path, simulate):
    """Show the stage journal of a run and its state, the last run stage
    journaled, plus, while it is not terminal, the state of each job that
    accounting lists under the run's name since its first row, and a day
    more."""
    lines = _read_journal(runs_dir, run_id)
    _journal_handles(lines, run_id)  # a damaged submit row is a damaged journal, as for logs
    for timestamp, stage, detail in lines:
        click.echo(f"time={timestamp}\tstage={stage}\tdetail={detail}")
    stages = {stage.value for stage in orchestrator.RunStage}
    final = next((stage for _, stage, _ in reversed(lines) if stage in stages), None)
    if final is None:
        _fail(f"journal of run {run_id} records no run stage")
    click.echo(f"state={final}")
    if final not in {s.value for s in orchestrator.TERMINAL_STAGES}:
        try:  # the run's age, from its first row, which the client journaled
            age = (datetime.datetime.now(datetime.timezone.utc)
                   - datetime.datetime.fromisoformat(lines[0][0])).total_seconds()
        except (ValueError, TypeError):  # no ISO time, or one with no UTC offset
            _fail(f"journal of run {run_id} holds a damaged row")
        profile, _ = _load_config(config_path)
        with _endpoint(profile, simulate) as endpoint:
            try:
                jobs = slurm.poll_jobs(endpoint, slurm.run_job_name(run_id), age)
            except SlurmBridgeError as exc:
                _fail(str(exc), code=EXIT_RUN_FAILURE)
        # A job whose state cannot be read shows the error; an unreadable
        # line shows it as job None.
        for job_id, state in sorted(jobs.values(), key=lambda job: job[0] or 0):
            click.echo(f"job={job_id}\tstate={getattr(state, 'value', state)}")
    sys.exit(EXIT_OK)


def _journal_handles(lines, run_id):
    """The job of each `submit` row; exits 2 at a row it cannot read."""
    handles = []
    for _, stage, detail in lines:
        if stage != "submit":
            continue
        fields = dict(part.split("=", 1) for part in detail.split() if "=" in part)
        try:
            handles.append(slurm.JobHandle(
                int(fields["job_id"]), int(fields["tasks"]) if "tasks" in fields else None))
        except (KeyError, ValueError):
            _fail(f"journal of run {run_id} holds a damaged submit row: {detail}")
    return handles


@main.command("logs")
@click.argument("run_id")
@_runs_dir_option
@click.option("--dir", "log_dir", default=".", help="Where fetched logs were written.")
def cmd_logs(run_id, runs_dir, log_dir):
    """Print the fetched logfiles of a run, an array's task logs included."""
    paths = [os.path.join(log_dir, log)
             for job in _journal_handles(_read_journal(runs_dir, run_id), run_id)
             for log in job.logs]
    paths = [path for path in paths if os.path.exists(path)]
    for path in paths:
        click.echo(f"== {path}")
        with open(path) as handle:
            click.echo(handle.read().rstrip("\n"))
    if not paths:
        click.echo("no logfiles found", err=True)
    sys.exit(EXIT_OK)


@main.command("fetch")
@click.argument("run_id")
@click.argument("destination")
@_runs_dir_option
@click.option("--from", "artifact_dir", default=".", help="Directory holding the run's result zips.")
@click.option("--mode", default="SingleZip",
              type=click.Choice(["ImagesFolder", "SidecarAttachments", "SingleZip"]))
def cmd_fetch(run_id, destination, runs_dir, artifact_dir, mode):
    """Re-import a finished run's result zips into a destination folder;
    SidecarAttachments places each output beside the input it derives from,
    found in the input directory that the run journaled."""
    lines = _read_journal(runs_dir, run_id)
    if not os.path.isdir(artifact_dir):
        _fail(f"artifact directory not found: {artifact_dir}")
    items = []
    if mode == "SidecarAttachments":
        input_dir = next((detail for _, stage, detail in lines if stage == "inputs"), None)
        if input_dir is None:
            _fail(f"journal of run {run_id} records no inputs")
        if not os.path.isdir(input_dir):
            _fail(f"input directory not found: {input_dir}")
        items = orchestrator.scan_input_dir(input_dir)
    zips = sorted(
        os.path.join(artifact_dir, name)
        for name in os.listdir(artifact_dir)
        if name.startswith(f"{run_id}_batch") and name.endswith(".zip")
    )
    record = orchestrator.RunRecord(
        run_id=run_id, workflow="", version="", values={}, items=items,
        batches=[
            orchestrator.BatchRun(index=i, items=[], result_zip=path,
                                  state=JobState.COMPLETED)
            for i, path in enumerate(zips)
        ],
    )
    try:
        written = orchestrator.import_results(record, destination, mode)
    except SlurmBridgeError as exc:
        _fail(str(exc), code=EXIT_RUN_FAILURE)
    for path in written:
        click.echo(f"written={path}")
    sys.exit(EXIT_OK)


@main.command("cancel")
@click.argument("run_id")
@_runs_dir_option
@_config_option
@_simulate_option
def cmd_cancel(run_id, runs_dir, config_path, simulate):
    """Tear a run down in one launch: cancel every job named by the run,
    journaled or not, and remove the run's remote data; logs stay. The
    journal gains a `cancel` row; the run's state stays its last stage."""
    _read_journal(runs_dir, run_id)  # a run without a journal is a usage error
    profile, _ = _load_config(config_path)
    name = slurm.run_job_name(run_id)
    with _endpoint(profile, simulate) as endpoint:
        try:
            removed = slurm.cleanup_run(endpoint, slurm.run_data_paths(profile, run_id),
                                        cancel=name)
        except TransportError as exc:
            _fail(str(exc), code=EXIT_RUN_FAILURE)
    append_journal_row(journal_path(runs_dir, run_id), "cancel",
                       f"name={name} removed={len(removed)}")
    click.echo(f"cancel={name}")
    click.echo(f"removed={len(removed)}")
    sys.exit(EXIT_OK)


@main.command("list")
@_config_option
def cmd_list(config_path):
    """List registered workflows."""
    _, registry = _load_config(config_path)
    for name in sorted(registry.entries):
        click.echo(f"workflow={name}\tversion={registry.entries[name].version}"
                   f"\timage={config_mod.image_reference(registry, name)}")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
