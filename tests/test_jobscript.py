import functools
import os
import re
import shutil
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slurmbridge import descriptor as descriptor_mod
from slurmbridge import jobscript as js
from slurmbridge.config import ResourceSpec
from slurmbridge.errors import InvalidCount, SlurmBridgeError

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

RUN_PATHS = js.RunPaths(
    in_dir="/scratch/omero/data/RUN/in",
    out_dir="/scratch/omero/data/RUN/out",
    gt_dir="/scratch/omero/data/RUN/gt",
    image_file="/scratch/omero/singularity_images/cellpose_v1.2.9.sif",
)
LOGS_DIR = "/scratch/omero/logs"


def generate_cpu_script(cellpose_descriptor):
    values = descriptor_mod.validate_values(cellpose_descriptor, {})
    return js.generate_workflow_script(
        cellpose_descriptor, ResourceSpec(4096, 2, 0, 60), values, RUN_PATHS, LOGS_DIR
    )


class TestWorkflowScript:
    def test_cpu_directives(self, cellpose_descriptor):
        script = generate_cpu_script(cellpose_descriptor)
        assert ("--mem", "4096") in script.directives
        assert ("--cpus-per-task", "2") in script.directives
        assert ("--time", "01:00:00") in script.directives
        assert "--gres" not in dict(script.directives)

    def test_golden_file(self, cellpose_descriptor):
        script = generate_cpu_script(cellpose_descriptor)
        with open(os.path.join(DATA_DIR, "workflow_cpu.sh"), "rb") as handle:
            golden = handle.read()
        assert js.render_script(script).encode() == golden

    def test_gpu_variant_adds_one_gres_line(self, cellpose_descriptor):
        values = descriptor_mod.validate_values(cellpose_descriptor, {})
        script = js.generate_workflow_script(
            cellpose_descriptor, ResourceSpec(4096, 2, 1, 60), values, RUN_PATHS, LOGS_DIR
        )
        text = js.render_script(script)
        gres_lines = [l for l in text.splitlines() if l.startswith("#SBATCH --gres")]
        assert gres_lines == ["#SBATCH --gres=gpu:1"]
        cpu_text = js.render_script(generate_cpu_script(cellpose_descriptor))
        assert sorted(set(text.splitlines()) - set(cpu_text.splitlines())) == [
            "#SBATCH --gres=gpu:1"
        ]

    def test_no_params_exports_only_paths(self):
        descriptor = descriptor_mod.parse_descriptor(
            '{"name": "W", "schema-version": "cytomine-0.1",'
            ' "container-image": {"image": "demo/w", "version": "v1"},'
            ' "command-line": "run", "inputs": []}'
        )
        script = js.generate_workflow_script(
            descriptor, ResourceSpec(4096, 2, 0, 60), {}, RUN_PATHS, LOGS_DIR
        )
        assert [name for name, _ in script.env_exports] == [
            "IN_PATH", "OUT_PATH", "GT_PATH",
        ]


class TestConversionScript:
    def _generate(self, n):
        return js.generate_conversion_script(
            n, "/scratch/omero/singularity_images/convert_zarr_to_tiff.sif",
            "/scratch/omero/data/RUN/in",
            ResourceSpec(4096, 2, 0, 60), LOGS_DIR,
        )

    def test_array_range(self):
        # Oracle: indices 0..n-1, each task logging as Slurm names it.
        directives = dict(self._generate(10).directives)
        assert directives["--array"] == "0-9"
        assert directives["--output"] == f"{LOGS_DIR}/omero-job-%A_%a.log"

    def test_single_item_boundary(self):
        assert dict(self._generate(1).directives)["--array"] == "0-0"

    def test_invalid_count(self):
        with pytest.raises(InvalidCount):
            self._generate(0)

    def test_never_requests_gpu(self):
        script = js.generate_conversion_script(
            2, "img.sif", "/d", ResourceSpec(4096, 2, 3, 60), LOGS_DIR
        )
        assert "--gres" not in dict(script.directives)

    def test_uses_array_task_id(self):
        assert "$SLURM_ARRAY_TASK_ID" in self._generate(2).body[-1]


class TestRenderScript:
    def test_line_count_minimal(self):
        # Golden hand count: shebang + 4 directives + 1 body command.
        script = js.JobScript(
            directives=[("--mem", "1024"), ("--cpus-per-task", "1"),
                        ("--time", "00:10:00"), ("--output", "/logs/x-%j.log")],
            env_exports=[],
            body=["true"],
        )
        assert len(js.render_script(script).splitlines()) == 6

    def test_deterministic(self, cellpose_descriptor):
        script = generate_cpu_script(cellpose_descriptor)
        assert js.render_script(script) == js.render_script(script)

    def test_quote_escaped_in_export(self):
        script = js.JobScript(
            directives=[("--mem", "1")], env_exports=[("MSG", 'say "hi"')],
            body=["true"],
        )
        assert 'export MSG="say \\"hi\\""' in js.render_script(script)


# Text a value may hold: what bash would read as syntax inside or outside
# double quotes, and text beyond ASCII. No newline (a job script keeps each
# value on one line) and no NUL (no argv or environment can hold it).
_VALUE_TEXT = st.text(
    st.one_of(st.sampled_from('"\\$`\' ;*&|<>(){}[]#~!?=\t\r'),
              st.characters(exclude_categories=("Cs",), exclude_characters="\n\x00")),
    max_size=12)
_PATH_TEXT = _VALUE_TEXT.map(lambda text: "/scratch/" + text)

_LABELLED = descriptor_mod.parse_descriptor(
    '{"name": "W", "schema-version": "cytomine-0.1",'
    ' "container-image": {"image": "demo/w", "version": "v1"},'
    ' "command-line": "python run.py [LABEL] [DIAMETER] [FLAG]", "inputs": ['
    '{"id": "label", "type": "String", "optional": true},'
    '{"id": "diameter", "type": "Number", "optional": true},'
    '{"id": "flag", "type": "Boolean", "optional": true}]}'
)

_resources = st.builds(ResourceSpec, st.integers(1, 1 << 20), st.integers(1, 64),
                       st.integers(0, 8), st.integers(1, 10080))
# A label now and then holds a line break, which validate_values refuses.
_values = st.fixed_dictionaries({}, optional={
    "label": st.one_of(_VALUE_TEXT, st.builds(lambda head, brk, tail: head + brk + tail,
                                              _VALUE_TEXT, st.sampled_from(["\n", "\r\n"]),
                                              _VALUE_TEXT)),
    "diameter": st.one_of(st.integers(-10**6, 10**6),
                          st.floats(allow_nan=False, allow_infinity=False)),
    "flag": st.booleans(),
})
_run_paths = st.builds(js.RunPaths, _PATH_TEXT, _PATH_TEXT, _PATH_TEXT, _PATH_TEXT)


def _workflow_script(resources, values, paths, logs_dir):
    """The workflow script of values as the library takes them, through
    validate_values."""
    return js.generate_workflow_script(
        _LABELLED, resources, descriptor_mod.validate_values(_LABELLED, values), paths,
        logs_dir)


# Each draw is a call that generates a script.
_scripts = st.one_of(
    st.builds(functools.partial, st.just(_workflow_script), _resources, _values,
              _run_paths, _PATH_TEXT),
    st.builds(functools.partial, st.just(js.generate_conversion_script),
              st.integers(1, 10**4), _PATH_TEXT, _PATH_TEXT, _resources, _PATH_TEXT),
)


class TestScanRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_scripts)
    def test_parse_inverts_render(self, generate):
        """Every script generated parses back to itself; a label holding a
        line break is refused before any script is generated."""
        label = generate.args[1].get("label", "") if generate.func is _workflow_script else ""
        if "\n" in label or "\r" in label:
            with pytest.raises(SlurmBridgeError, match="parameter 'label' holds a line break"):
                generate()
            return
        script = generate()
        assert js.parse_script(js.render_script(script)) == script

    def test_workflow_round_trip(self, cellpose_descriptor):
        script = generate_cpu_script(cellpose_descriptor)
        parsed = js.parse_script(js.render_script(script))
        assert parsed.directives == script.directives
        assert parsed == script

    def test_conversion_round_trip(self):
        script = js.generate_conversion_script(
            7, "img.sif", "/d", ResourceSpec(2048, 4, 0, 30), LOGS_DIR
        )
        parsed = js.parse_script(js.render_script(script))
        assert parsed.directives == script.directives
        assert parsed == script

    def test_directives_end_at_first_command(self):
        # As sbatch(1) reads them: #SBATCH after a command is a comment.
        script = js.parse_script("#!/bin/bash\n#SBATCH --mem=1\n\n# note\n"
                                 "#SBATCH --time=00:01:00\ntrue\n#SBATCH --mem=2\n")
        assert script.directives == [("--mem", "1"), ("--time", "00:01:00")]
        assert script.body == ["", "# note", "true", "#SBATCH --mem=2"]

    def test_exports_count_anywhere_and_sim_is_a_comment(self):
        # A #SIM line is a comment like any other: body, and no end to the
        # directives.
        script = js.parse_script('#!/bin/bash\n#SIM duration=5 outputs=1\n#SBATCH --mem=1\n'
                                 'true\nexport A="x \\"y\\" \\$z"\n')
        assert script.directives == [("--mem", "1")]
        assert script.env_exports == [("A", 'x "y" $z')]
        assert script.body == ["#SIM duration=5 outputs=1", "true"]

    def test_script_without_shebang_is_refused(self):
        with pytest.raises(ValueError):
            js.parse_script("#SBATCH --mem=1\ntrue\n")

    def test_env_export_names_wellformed(self, cellpose_descriptor):
        script = generate_cpu_script(cellpose_descriptor)
        for name, _ in script.env_exports:
            assert re.fullmatch(r"[A-Z][A-Z0-9_]*", name)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10080))
def test_time_rendering_property(minutes):
    # Independent check: parse the clock string back and compare.
    clock = js.minutes_to_clock(minutes)
    hours, mins, secs = clock.split(":")
    assert secs == "00"
    assert int(hours) * 60 + int(mins) == minutes
    assert 0 <= int(mins) < 60
    assert re.fullmatch(r"\d{2,}:\d{2}:\d{2}", clock)


# Prints each argument it is given, then $LABEL, each ended by a NUL byte.
_ECHO_ARGV = "#!/bin/bash\nprintf '%s\\0' \"$@\" \"$LABEL\"\n"


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash not installed")
@settings(max_examples=60, deadline=None)
@given(label=_VALUE_TEXT, in_dir=_PATH_TEXT)
def test_values_reach_the_container_as_given(tmp_path_factory, label, in_dir):
    """Run a rendered workflow script under bash with a stub singularity on
    PATH: the container's argv and its $LABEL hold the value exactly."""
    tmp = tmp_path_factory.mktemp("bash")
    stub = tmp / "singularity"
    stub.write_text(_ECHO_ARGV)
    stub.chmod(0o755)
    paths = js.RunPaths(in_dir=in_dir, out_dir="/o", gt_dir="/g", image_file="/w.sif")
    script = js.generate_workflow_script(
        _LABELLED, ResourceSpec(1024, 1, 0, 10), {"label": label}, paths, "/logs")
    (tmp / "job.sh").write_text(js.render_script(script), encoding="utf-8")
    env = dict(os.environ, PATH=f"{tmp}{os.pathsep}{os.environ.get('PATH', '')}")
    ran = subprocess.run(["bash", str(tmp / "job.sh")], capture_output=True, env=env,
                         check=True)
    *argv, seen_label, _ = ran.stdout.decode().split("\0")
    assert argv == ["exec", "--bind", f"{in_dir}:/data/in", "--bind", "/o:/data/out",
                    "--bind", "/g:/data/gt", "/w.sif", "python", "run.py",
                    "--label", label]
    assert seen_label == label
