"""Slurm batch script generation: workflow jobs and conversion array jobs."""

import re
from dataclasses import dataclass, replace

from . import descriptor as descriptor_mod
from .errors import InvalidCount

SHEBANG = "#!/bin/bash"

_DIRECTIVE_RE = re.compile(r"^#SBATCH\s+(--[A-Za-z][A-Za-z-]*)=(.*)$")
_SIM_RE = re.compile(r"^#SIM\s+duration=(\d+)\s+outputs=(\d+)\s*$")


@dataclass(frozen=True)
class RunPaths:
    in_dir: str
    out_dir: str
    gt_dir: str
    image_file: str


@dataclass(frozen=True)
class SimAnnotation:
    """Declared behavior for the simulated cluster: runtime seconds and the
    number of placeholder output files written on completion."""

    duration_s: int = 30
    outputs: int = 0

    def line(self):
        return f"#SIM duration={self.duration_s} outputs={self.outputs}"


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


def generate_workflow_script(
    descriptor,
    resources,
    values,
    run_paths,
    logs_dir,
    sim=None,
):
    """Build the batch script that runs the workflow container over one
    in/out/gt data layout."""
    env_exports = list(descriptor_mod.env_assignments(descriptor, values))
    env_exports += [
        ("IN_PATH", run_paths.in_dir),
        ("OUT_PATH", run_paths.out_dir),
        ("GT_PATH", run_paths.gt_dir),
    ]
    bind_specs = " ".join(
        f'--bind "{host}:{guest}"'
        for host, guest in (
            (run_paths.in_dir, "/data/in"),
            (run_paths.out_dir, "/data/out"),
            (run_paths.gt_dir, "/data/gt"),
        )
    )
    args = " ".join(descriptor_mod.render_cli_args(descriptor, values))
    command = f"singularity exec {bind_specs} {run_paths.image_file} {args}".rstrip()
    return JobScript(
        directives=_base_directives(resources, logs_dir),
        env_exports=env_exports,
        body=[sim.line(), command] if sim is not None else [command],
    )


def generate_conversion_script(n_items, converter_image, data_dir, resources, logs_dir,
                               sim=None):
    """Build the array job that converts every ZARR input item to TIFF in place.

    Each array task converts the item whose index is $SLURM_ARRAY_TASK_ID.
    Conversion jobs never request GPUs.
    """
    if n_items < 1:
        raise InvalidCount(f"conversion needs at least one item, got {n_items}")
    command = (
        f'singularity exec --bind "{data_dir}:/data" {converter_image} '
        "convert --source-format zarr --target-format tiff "
        f'--index "$SLURM_ARRAY_TASK_ID" /data'
    )
    return JobScript(
        directives=_base_directives(replace(resources, gpus=0), logs_dir, n_items),
        env_exports=[],
        body=[sim.line(), command] if sim is not None else [command],
    )


def _quote_env_value(value):
    return value.replace("\\", "\\\\").replace('"', '\\"')


def render_script(script):
    """Deterministic text form: shebang, directives, exports, body."""
    lines = [SHEBANG]
    lines += [f"#SBATCH {key}={value}" for key, value in script.directives]
    lines += [
        f'export {name}="{_quote_env_value(value)}"'
        for name, value in script.env_exports
    ]
    lines += list(script.body)
    return "\n".join(lines) + "\n"


def scan_directives(text):
    """Recover the #SBATCH directives from a rendered script."""
    directives = []
    for line in text.splitlines():
        match = _DIRECTIVE_RE.match(line)
        if match:
            directives.append((match.group(1), match.group(2)))
    return directives


def scan_sim_annotation(text):
    """Recover the simulator annotation, or None when absent."""
    for line in text.splitlines():
        match = _SIM_RE.match(line)
        if match:
            return SimAnnotation(
                duration_s=int(match.group(1)), outputs=int(match.group(2))
            )
    return None


def scan_env_exports(text):
    exports = []
    for line in text.splitlines():
        if line.startswith("export ") and "=" in line:
            name, _, raw = line[len("export "):].partition("=")
            value = raw.strip()
            if value.startswith('"') and value.endswith('"'):
                value = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
            exports.append((name, value))
    return exports
