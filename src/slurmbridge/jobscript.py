"""Slurm batch scripts: generated for workflow jobs and conversion array
jobs, rendered as text, and parsed back."""

import re
import shlex
from dataclasses import dataclass, replace

from . import descriptor as descriptor_mod
from .errors import InvalidCount

SHEBANG = "#!/bin/bash"

_DIRECTIVE_RE = re.compile(r"#SBATCH\s+(--[A-Za-z][A-Za-z-]*)=(.*)")
_EXPORT_RE = re.compile(r'export ([A-Za-z_][A-Za-z0-9_]*)="(.*)"')
# Between double quotes bash still expands $ and `, and gives \ and " their
# meaning; a backslash before any of the four leaves it as it is.
_SPECIAL_RE = re.compile(r'([\\"$`])')
_ESCAPED_RE = re.compile(r'\\([\\"$`])')


@dataclass(frozen=True)
class RunPaths:
    in_dir: str
    out_dir: str
    gt_dir: str
    image_file: str


@dataclass
class JobScript:
    directives: list  # ordered (key, value) pairs, keys like "--mem"
    env_exports: list  # ordered (name, value) pairs
    body: list  # ordered shell command lines


def minutes_to_clock(minutes):
    """Render a minute count as the HH:MM:SS form Slurm expects."""
    hours, mins = divmod(minutes, 60)
    return f"{hours:02d}:{mins:02d}:00"


def clock_to_minutes(clock):
    hours, mins, secs = (int(part) for part in clock.split(":"))
    return hours * 60 + mins + (1 if secs else 0)


def log_name(job, task=None):
    """A job's log file name in the logs dir; with task, that of one task of
    an array. log_name("%j") and log_name("%A", "%a") are the --output
    patterns, in which sbatch(1) puts the job id, or the array's id and the
    task's index."""
    return f"omero-job-{job}.log" if task is None else f"omero-job-{job}_{task}.log"


def _base_directives(resources, logs_dir, array_size=None):
    """Resources, the log pattern and, for an array of array_size tasks,
    its index range."""
    log = log_name("%j") if array_size is None else log_name("%A", "%a")
    directives = [
        ("--mem", str(resources.mem_mb)),
        ("--cpus-per-task", str(resources.cpus)),
        ("--time", minutes_to_clock(resources.time_limit_min)),
        ("--output", f"{logs_dir}/{log}"),
    ]
    if resources.gpus > 0:
        directives.append(("--gres", f"gpu:{resources.gpus}"))
    if array_size is not None:
        directives.append(("--array", f"0-{array_size - 1}"))
    return directives


def _dquote(value):
    """The text between double quotes that bash reads as value."""
    return _SPECIAL_RE.sub(r"\\\1", value)


def _undquote(text):
    """Inverse of _dquote."""
    return _ESCAPED_RE.sub(r"\1", text)


def generate_workflow_script(descriptor, resources, values, run_paths, logs_dir):
    """Build the batch script that runs the workflow container over one
    in/out/gt data layout; each token of the command is quoted, so that a
    value reaches the container as given."""
    env_exports = [*descriptor_mod.env_assignments(descriptor, values),
                   ("IN_PATH", run_paths.in_dir), ("OUT_PATH", run_paths.out_dir),
                   ("GT_PATH", run_paths.gt_dir)]
    binds = " ".join(f'--bind "{_dquote(host)}:/data/{guest}"' for host, guest in (
        (run_paths.in_dir, "in"), (run_paths.out_dir, "out"), (run_paths.gt_dir, "gt")))
    argv = [run_paths.image_file, *descriptor_mod.render_cli_args(descriptor, values)]
    return JobScript(directives=_base_directives(resources, logs_dir), env_exports=env_exports,
                     body=[f"singularity exec {binds} {shlex.join(argv)}"])


def generate_conversion_script(n_items, converter_image, data_dir, resources, logs_dir):
    """Build the array job that converts every ZARR input item to TIFF in place.

    Each array task converts the item whose index is $SLURM_ARRAY_TASK_ID.
    Conversion jobs never request GPUs.
    """
    if n_items < 1:
        raise InvalidCount(f"conversion needs at least one item, got {n_items}")
    command = (
        f'singularity exec --bind "{_dquote(data_dir)}:/data" {shlex.quote(converter_image)} '
        "convert --source-format zarr --target-format tiff "
        f'--index "$SLURM_ARRAY_TASK_ID" /data'
    )
    return JobScript(directives=_base_directives(replace(resources, gpus=0), logs_dir, n_items),
                     env_exports=[], body=[command])


def render_script(script):
    """Deterministic text form: shebang, directives, exports, body."""
    lines = [SHEBANG]
    lines += [f"#SBATCH {key}={value}" for key, value in script.directives]
    lines += [f'export {name}="{_dquote(value)}"' for name, value in script.env_exports]
    lines += script.body
    return "\n".join(lines) + "\n"


def parse_script(text):
    """Inverse of render_script. `#SBATCH --key=value` lines are directives
    up to the first line that is neither blank nor a comment, as sbatch(1)
    reads them; `export NAME="value"` lines count wherever they stand;
    every other line after the `#!` line, which sbatch requires
    (ValueError without it), is body. Lines end at '\\n' only."""
    first, *lines = text.removesuffix("\n").split("\n")
    if not first.startswith("#!"):
        raise ValueError("This does not look like a batch script")
    script = JobScript(directives=[], env_exports=[], body=[])
    header = True
    for line in lines:
        header = header and (not line.strip() or line.startswith("#"))
        directive = header and _DIRECTIVE_RE.fullmatch(line)
        export = _EXPORT_RE.fullmatch(line)
        if directive:
            script.directives.append(directive.groups())
        elif export:
            script.env_exports.append((export[1], _undquote(export[2])))
        else:
            script.body.append(line)
    return script
