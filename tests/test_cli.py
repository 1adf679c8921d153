import json
import os
import re

import pytest
from click.testing import CliRunner

from slurmbridge import cli, orchestrator, simslurm
from slurmbridge import descriptor as descriptor_mod
from slurmbridge.cli import main
from slurmbridge.errors import ConnectionLost
from slurmbridge.states import JobState
from slurmbridge.transport import DEFAULT_DEADLINE_S
from tests.conftest import (
    CELLPOSE_DESCRIPTOR,
    SAMPLE_CONFIG,
    make_tiff_inputs,
    make_zarr_inputs,
)
from tests.test_orchestrator import FlakyLink, ReportsUnmapped, packs_damaged


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path):
    """Config + descriptor on disk, plus a topology file for the simulator."""
    descriptor_path = tmp_path / "cellpose.json"
    descriptor_path.write_text(json.dumps(CELLPOSE_DESCRIPTOR))
    config_path = tmp_path / "slurm-config.ini"
    config_path.write_text(SAMPLE_CONFIG + "descriptor_path = cellpose.json\n")
    topology_path = tmp_path / "topology.json"
    topology_path.write_text(json.dumps(
        {"nodes": [{"cpus": 4, "gpus": 1, "mem_mb": 16384},
                   {"cpus": 4, "gpus": 1, "mem_mb": 16384}]}))
    return tmp_path, str(config_path), str(topology_path), str(descriptor_path)


def kv_lines(output):
    pairs = {}
    for line in output.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs.setdefault(key, []).append(value)
    return pairs


def cut_journal_after_running(workspace, run_id):
    """Drop the journal rows after Running, as a run still polling leaves it;
    returns the journaled job ids."""
    journal = workspace[0] / "runs" / f"{run_id}.journal"
    rows = journal.read_text().splitlines(keepends=True)
    stages = [row.split("\t")[1] for row in rows]
    journal.write_text("".join(rows[:stages.index("Running") + 1]))
    return [row.split("job_id=")[1].split()[0] for row in rows if "\tsubmit\t" in row]


def journal_rows(status_stdout):
    """(stage, detail) of each journal row that `status` printed."""
    rows = []
    for line in status_stdout.splitlines():
        if line.startswith("time="):
            fields = dict(field.split("=", 1) for field in line.split("\t"))
            rows.append((fields["stage"], fields["detail"]))
    return rows


class TestValidate:
    def test_prints_param_table(self, runner, workspace):
        _, _, _, descriptor_path = workspace
        result = runner.invoke(main, ["validate", descriptor_path])
        assert result.exit_code == 0
        pairs = kv_lines(result.stdout)
        assert pairs["name"] == ["W_NucleiSegmentation-Cellpose"]
        assert pairs["image"] == ["demo/w_nucleisegmentation-cellpose:v1.2.9"]
        assert pairs["param"] == ["diameter\ttype=Number\tdefault=30\tlabel=Diameter"]

    def test_param_table_follows_declaration_order(self, runner, tmp_path):
        doc = dict(CELLPOSE_DESCRIPTOR, inputs=[
            {"id": "z", "type": "Number", "default-value": 1.5},
            {"id": "a", "name": "Channel", "type": "String", "default-value": "x"},
            {"id": "m", "type": "Boolean", "default-value": True},
            {"id": "q", "type": "String", "optional": True},
        ], **{"command-line": "run"})
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 0
        assert kv_lines(result.stdout)["param"] == [
            "z\ttype=Number\tdefault=1.5\tlabel=z",
            "a\ttype=String\tdefault=x\tlabel=Channel",
            "m\ttype=Boolean\tdefault=true\tlabel=m",
            "q\ttype=String\tdefault=\tlabel=q",
        ]
        path.write_text(json.dumps(dict(doc, inputs=[])))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 0
        assert "param" not in kv_lines(result.stdout)

    def test_missing_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", str(tmp_path / "nope.json")])
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_malformed_descriptor(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2


class TestInit:
    def test_first_init_pulls(self, runner, workspace):
        _, config_path, topology_path, _ = workspace
        result = runner.invoke(
            main, ["init", "--config", config_path, "--simulate", topology_path])
        assert result.exit_code == 0
        pairs = kv_lines(result.stdout)
        assert pairs["refreshed"] == ["false"]
        assert pairs["dirs"] == ["4"]
        assert int(pairs["pulls"][0]) == 2  # cellpose + zarr converter

    def test_second_init_refreshes(self, runner, workspace):
        _, config_path, topology_path, _ = workspace
        runner.invoke(main, ["init", "--config", config_path,
                             "--simulate", topology_path])
        result = runner.invoke(
            main, ["init", "--config", config_path, "--simulate", topology_path])
        assert result.exit_code == 0
        pairs = kv_lines(result.stdout)
        assert pairs["refreshed"] == ["true"]
        assert pairs["pulls"] == ["0"]
        assert os.path.exists(topology_path + ".state")

    def test_missing_config(self, runner, tmp_path):
        result = runner.invoke(
            main, ["init", "--config", str(tmp_path / "nope.ini"), "--simulate"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("name,text", [
        ("topology.json", '[{"cpus": 4}]'), ("topology.json", "not json"),
        ("topology.json", '{"nodes": 4}'), ("topology.json.state", '{"nodes": []}'),
        ("topology.json.state", "[]")],
        ids=["topology-without-mem", "topology-not-json", "topology-nodes-not-a-list",
             "state-without-clock", "state-not-an-object"])
    def test_unloadable_simulator_file_is_usage_error(self, runner, workspace, name, text):
        tmp_path, config_path, topology_path, _ = workspace
        (tmp_path / name).write_text(text)
        result = runner.invoke(
            main, ["init", "--config", config_path, "--simulate", topology_path])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: cannot load simulator file {tmp_path / name}: ")
        assert result.stderr.count("\n") == 1
        assert (tmp_path / name).read_text() == text
        assert os.path.exists(topology_path + ".state") == name.endswith(".state")


class TestRun:
    def _init_and_run(self, runner, workspace, extra_args=(), inputs=3):
        tmp_path, config_path, topology_path, _ = workspace
        make_tiff_inputs(str(tmp_path / "inputs"), inputs)
        runner.invoke(main, ["init", "--config", config_path,
                             "--simulate", topology_path])
        args = ["run", "cellpose",
                "--config", config_path, "--simulate", topology_path,
                "--input", str(tmp_path / "inputs"),
                "--output", str(tmp_path / "out"),
                "--runs-dir", str(tmp_path / "runs"),
                "--param", "diameter=25"] + list(extra_args)
        return runner.invoke(main, args)

    def test_successful_run(self, runner, workspace):
        tmp_path = workspace[0]
        result = self._init_and_run(runner, workspace)
        assert result.exit_code == 0, result.output + result.stderr
        pairs = kv_lines(result.stdout)
        run_id = pairs["run_id"][0]
        assert pairs["state"] == ["Done"]
        artifacts = pairs["artifact"]
        assert len(artifacts) == 1 and artifacts[0].endswith("_batch0.zip")
        assert (tmp_path / "runs" / f"{run_id}.journal").exists()
        assert "[Preparing]" in result.stderr

    def test_batched_run(self, runner, workspace):
        result = self._init_and_run(
            runner, workspace, extra_args=["--batch-size", "2"], inputs=5)
        assert result.exit_code == 0
        assert len(kv_lines(result.stdout)["artifact"]) == 3

    def test_an_input_that_cannot_be_read_fails_the_run_without_a_traceback(
            self, runner, workspace):
        # A ZARR chunk that is a dangling symlink: the run ends Failed,
        # with a final stage journaled and an error that names the chunk.
        tmp_path, config_path, topology_path, _ = workspace
        inputs = tmp_path / "inputs"
        make_tiff_inputs(str(inputs), 1, prefix="a")
        make_zarr_inputs(str(inputs), 1, prefix="v", chunks=1)
        chunk = inputs / "v00.zarr" / "0" / "1"
        chunk.symlink_to(tmp_path / "gone")
        runner.invoke(main, ["init", "--config", config_path, "--simulate", topology_path])
        result = runner.invoke(main, [
            "run", "cellpose", "--config", config_path, "--simulate", topology_path,
            "--input", str(inputs), "--output", str(tmp_path / "out"),
            "--runs-dir", str(tmp_path / "runs")])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.exc_info
        assert "Traceback" not in result.output
        run_id = kv_lines(result.stdout)["run_id"][0]
        status = runner.invoke(main, ["status", run_id, "--runs-dir", str(tmp_path / "runs")])
        assert kv_lines(status.stdout)["state"] == ["Failed"]
        stage, detail = journal_rows(status.stdout)[-1]
        assert stage == "Failed" and str(chunk) in detail

    def test_unknown_workflow(self, runner, workspace):
        tmp_path, config_path, topology_path, _ = workspace
        result = runner.invoke(
            main, ["run", "mystery", "--config", config_path,
                   "--simulate", topology_path, "--input", str(tmp_path)])
        assert result.exit_code == 2

    def test_bad_param_value(self, runner, workspace):
        result = self._init_and_run(
            runner, workspace, extra_args=["--param", "diameter=huge"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("param", ["diameter=inf", "diameter=-inf", "diameter=nan",
                                       "diameter=1e999", "flag=ture", "flag=", "flag=on"])
    def test_unusable_param_value_journals_nothing(self, runner, workspace, param):
        tmp_path, _, _, descriptor_path = workspace
        with open(descriptor_path, "w") as handle:
            json.dump(dict(CELLPOSE_DESCRIPTOR, inputs=CELLPOSE_DESCRIPTOR["inputs"] + [
                {"id": "flag", "type": "Boolean", "default-value": False}]), handle)
        result = self._init_and_run(runner, workspace, extra_args=["--param", param])
        assert result.exit_code == 2
        assert f"parameter {param.split('=')[0]!r}" in result.stderr
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("supplied,default", [("a\nb", "x"), ("a\rb", "x"), (None, "x\ry")])
    def test_line_break_in_a_string_journals_nothing(self, runner, workspace, supplied,
                                                      default):
        """A String value, supplied or default, that holds a line break could
        not stay on its one line of the job script."""
        tmp_path, _, _, descriptor_path = workspace
        with open(descriptor_path, "w") as handle:
            json.dump(dict(CELLPOSE_DESCRIPTOR, inputs=CELLPOSE_DESCRIPTOR["inputs"] + [
                {"id": "label", "type": "String", "default-value": default}]), handle)
        extra = ["--param", f"label={supplied}"] if supplied is not None else []
        result = self._init_and_run(runner, workspace, extra_args=extra)
        assert result.exit_code == 2
        assert "parameter 'label' holds a line break" in result.stderr
        assert not (tmp_path / "runs").exists()

    def test_two_inputs_of_one_id_journal_nothing(self, runner, workspace):
        tmp_path = workspace[0]
        make_tiff_inputs(str(tmp_path / "inputs"), 1, prefix="img")
        make_zarr_inputs(str(tmp_path / "inputs"), 1, prefix="img")
        result = self._init_and_run(runner, workspace, inputs=0)
        assert result.exit_code == 2
        assert (f"inputs {tmp_path}/inputs/img00.tiff and {tmp_path}/inputs/img00.zarr"
                " share the id 'img00'") in result.stderr
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("raw,value", [
        ("TRUE", True), ("Yes", True), ("1", True), ("false", False), ("NO", False), ("0", False)])
    def test_boolean_param_spellings(self, raw, value):
        descriptor = descriptor_mod.parse_descriptor(json.dumps(dict(
            CELLPOSE_DESCRIPTOR, inputs=[{"id": "flag", "type": "Boolean"}],
            **{"command-line": "run"})))
        assert cli._parse_params(descriptor, [f"flag={raw}"]) == {"flag": value}

    @pytest.mark.parametrize("raw,token", [
        ("30", "30"), ("30.0", "30"), ("-2", "-2"), ("2.5", "2.5"),
        ("9007199254740991", "9007199254740991"), ("1e300", "1e+300"), ("-1e300", "-1e+300")])
    def test_number_param_renders_as_typed(self, raw, token):
        """An integral Number is an int only below 2**53, where every
        integer is exact; a larger one keeps its shortest round-trip form
        instead of the binary float's expansion."""
        descriptor = descriptor_mod.parse_descriptor(json.dumps(CELLPOSE_DESCRIPTOR))
        values = cli._parse_params(descriptor, [f"diameter={raw}"])
        assert descriptor_mod.render_cli_args(descriptor, values) == [
            "python", "wrapper.py", "--diameter", token]

    def test_negative_batch_size_journals_nothing(self, runner, workspace):
        tmp_path = workspace[0]
        result = self._init_and_run(runner, workspace, extra_args=["--batch-size", "-1"])
        assert result.exit_code == 2
        assert "--batch-size" in result.stderr
        assert not (tmp_path / "runs").exists()

    def test_zero_batch_size_is_one_batch(self, runner, workspace):
        result = self._init_and_run(
            runner, workspace, extra_args=["--batch-size", "0"], inputs=5)
        assert result.exit_code == 0
        assert len(kv_lines(result.stdout)["artifact"]) == 1

    def test_unknown_param(self, runner, workspace):
        result = self._init_and_run(
            runner, workspace, extra_args=["--param", "mystery=1"])
        assert result.exit_code == 2

    def test_missing_input_dir(self, runner, workspace):
        tmp_path, config_path, topology_path, _ = workspace
        result = runner.invoke(
            main, ["run", "cellpose", "--config", config_path,
                   "--simulate", topology_path,
                   "--input", str(tmp_path / "nonexistent")])
        assert result.exit_code == 2


class TestStatusLogsFetch:
    def _completed_run(self, runner, workspace):
        tmp_path, config_path, topology_path, _ = workspace
        make_tiff_inputs(str(tmp_path / "inputs"), 2)
        runner.invoke(main, ["init", "--config", config_path,
                             "--simulate", topology_path])
        result = runner.invoke(
            main, ["run", "cellpose", "--config", config_path,
                   "--simulate", topology_path,
                   "--input", str(tmp_path / "inputs"),
                   "--output", str(tmp_path / "out"),
                   "--runs-dir", str(tmp_path / "runs")])
        assert result.exit_code == 0
        return kv_lines(result.stdout)["run_id"][0]

    def test_status_replays_journal(self, runner, workspace):
        tmp_path = workspace[0]
        run_id = self._completed_run(runner, workspace)
        result = runner.invoke(
            main, ["status", run_id, "--runs-dir", str(tmp_path / "runs")])
        assert result.exit_code == 0
        assert kv_lines(result.stdout)["state"] == ["Done"]
        stages = [field.split("=", 1)[1]
                  for line in result.stdout.splitlines()
                  for field in line.split("\t") if field.startswith("stage=")]
        assert "Running" in stages

    def test_status_polls_live_jobs_over_ssh(self, runner, workspace, monkeypatch):
        tmp_path, config_path, topology_path, _ = workspace
        run_id = self._completed_run(runner, workspace)
        job_ids = cut_journal_after_running(workspace, run_id)
        cluster = simslurm.SimCluster.load_state(topology_path + ".state")
        monkeypatch.setattr(cli, "SshEndpoint", lambda profile: simslurm.SimEndpoint(cluster))
        result = runner.invoke(
            main, ["status", run_id, "--runs-dir", str(tmp_path / "runs"),
                   "--config", config_path])
        assert result.exit_code == 0, result.output
        pairs = kv_lines(result.stdout)
        assert pairs["state"] == ["Running"]
        assert pairs["job"] == [f"{job_id}\tstate=COMPLETED" for job_id in job_ids]

    def test_status_prints_a_job_accounting_does_not_list_as_pending(self, runner, workspace,
                                                                     monkeypatch):
        tmp_path, config_path, topology_path, _ = workspace
        run_id = self._completed_run(runner, workspace)
        first, *rest = cut_journal_after_running(workspace, run_id)
        journal = tmp_path / "runs" / f"{run_id}.journal"
        journal.write_text(re.sub(rf"job_id={first}\b", "job_id=99", journal.read_text(), 1))
        cluster = simslurm.SimCluster.load_state(topology_path + ".state")
        monkeypatch.setattr(cli, "SshEndpoint", lambda profile: simslurm.SimEndpoint(cluster))
        result = runner.invoke(
            main, ["status", run_id, "--runs-dir", str(tmp_path / "runs"),
                   "--config", config_path])
        assert result.exit_code == 0, result.output
        assert kv_lines(result.stdout)["job"] == [
            f"{job_id}\tstate=COMPLETED" for job_id in rest] + ["99\tstate=PENDING"]

    def test_status_unreachable_cluster_exits_one(self, runner, workspace, monkeypatch):
        class Unreachable(simslurm.SimEndpoint):
            def exec(self, command, timeout=DEFAULT_DEADLINE_S):
                raise ConnectionLost("host unreachable")

        tmp_path, config_path, _, _ = workspace
        run_id = self._completed_run(runner, workspace)
        cut_journal_after_running(workspace, run_id)
        monkeypatch.setattr(cli, "SshEndpoint", lambda profile: Unreachable())
        result = runner.invoke(
            main, ["status", run_id, "--runs-dir", str(tmp_path / "runs"),
                   "--config", config_path])
        assert result.exit_code == 1
        assert kv_lines(result.stdout)["state"] == ["Running"]
        assert "host unreachable" in result.stderr

    @pytest.mark.parametrize("endpoint_class, error", [
        (lambda cluster: FlakyLink(cluster, [True] * 3), "AccountingUnavailable"),
        (ReportsUnmapped, "UnknownState"),
    ], ids=["accounting", "unknown-state"])
    def test_status_after_the_poll_gave_up_makes_no_remote_call(
            self, runner, workspace, monkeypatch, endpoint_class, error):
        tmp_path, config_path, topology_path, _ = workspace
        make_tiff_inputs(str(tmp_path / "inputs"), 2)
        runner.invoke(main, ["init", "--config", config_path, "--simulate", topology_path])
        monkeypatch.setattr(simslurm, "SimEndpoint", endpoint_class)
        run = runner.invoke(
            main, ["run", "cellpose", "--config", config_path, "--simulate", topology_path,
                   "--input", str(tmp_path / "inputs"), "--output", str(tmp_path / "out"),
                   "--runs-dir", str(tmp_path / "runs")])
        assert run.exit_code == 1, run.output
        assert kv_lines(run.stdout)["state"] == ["Failed"]
        opened = []
        monkeypatch.setattr(cli, "SshEndpoint", opened.append)
        result = runner.invoke(
            main, ["status", kv_lines(run.stdout)["run_id"][0],
                   "--runs-dir", str(tmp_path / "runs"), "--config", config_path])
        assert result.exit_code == 0, result.output
        assert opened == []
        pairs = kv_lines(result.stdout)
        assert pairs["state"] == ["Failed"] and "job" not in pairs
        assert [detail.split()[1] for stage, detail in journal_rows(result.stdout)
                if stage == "batch-failed"] == [f"{error}:"]

    def test_status_of_a_journal_without_a_stage_is_usage_error(self, runner, workspace):
        runs = workspace[0] / "runs"
        runs.mkdir()
        (runs / "empty.journal").write_text("")
        result = runner.invoke(main, ["status", "empty", "--runs-dir", str(runs)])
        assert result.exit_code == 2
        assert result.stderr == "error: journal of run empty records no run stage\n"

    @pytest.mark.parametrize("row", [
        "t2\tsubmit\tbatch=0 kind=workflow job_id=12x",
        "t2\tsubmit\tbatch=0 kind=conversion job_id=12 tasks=many",
        "t2\tsubmit\tbatch=0 kind=workflow",
        "t2\tsubmit",
    ], ids=["job-id", "tasks", "no-job-id", "two-fields"])
    @pytest.mark.parametrize("command", ["status", "logs"])
    def test_damaged_journal_row_is_usage_error(self, runner, workspace, command, row):
        runs = workspace[0] / "runs"
        runs.mkdir()
        (runs / "bad.journal").write_text(f"t0\tinputs\t/in\nt1\tQueued\tx\n{row}\n")
        result = runner.invoke(main, [command, "bad", "--runs-dir", str(runs)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: journal of run bad holds a damaged")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.output

    def test_status_reads_a_journal_written_before_details_were_escaped(
            self, runner, workspace):
        # Such a journal split a detail that held a newline over two lines.
        runs = workspace[0] / "runs"
        runs.mkdir()
        (runs / "old.journal").write_text(
            "t0\tinputs\t/in\nt1\tPreparing\t\n"
            "t2\tFailed\tbatch 0: remote unpack failed: a\n; remote unpack failed: b\n")
        result = runner.invoke(main, ["status", "old", "--runs-dir", str(runs)])
        assert result.exit_code == 0, result.output
        assert kv_lines(result.stdout)["state"] == ["Failed"]
        assert cli.read_journal(str(runs / "old.journal"))[-1][2] == (
            "batch 0: remote unpack failed: a\n; remote unpack failed: b")

    def test_status_unknown_run(self, runner, workspace):
        tmp_path = workspace[0]
        result = runner.invoke(
            main, ["status", "ghost", "--runs-dir", str(tmp_path / "runs")])
        assert result.exit_code == 2

    def test_logs_prints_fetched_files(self, runner, workspace):
        tmp_path = workspace[0]
        run_id = self._completed_run(runner, workspace)
        result = runner.invoke(
            main, ["logs", run_id, "--runs-dir", str(tmp_path / "runs"),
                   "--dir", str(tmp_path / "out")])
        assert result.exit_code == 0
        assert "omero-job-" in result.stdout

    def test_logs_prints_a_failed_conversions_task_logs(self, runner, workspace, monkeypatch):
        tmp_path, config_path, topology_path, _ = workspace
        make_zarr_inputs(str(tmp_path / "inputs"), 2)
        runner.invoke(main, ["init", "--config", config_path, "--simulate", topology_path])
        load_state = simslurm.SimCluster.load_state

        def load_with_fault(path):
            cluster = load_state(path)
            cluster.inject_fault(simslurm.FaultDirective(
                script_substring="convert.sh", forced_state=JobState.FAILED))
            return cluster

        monkeypatch.setattr(simslurm.SimCluster, "load_state", staticmethod(load_with_fault))
        run = runner.invoke(
            main, ["run", "cellpose", "--config", config_path, "--simulate", topology_path,
                   "--input", str(tmp_path / "inputs"), "--output", str(tmp_path / "out"),
                   "--runs-dir", str(tmp_path / "runs")])
        assert kv_lines(run.stdout)["state"] == ["Failed"]
        run_id = kv_lines(run.stdout)["run_id"][0]
        result = runner.invoke(
            main, ["logs", run_id, "--runs-dir", str(tmp_path / "runs"),
                   "--dir", str(tmp_path / "out")])
        assert result.exit_code == 0
        # Job 1 is the conversion array; the workflow job never started.
        headers = [line for line in result.stdout.splitlines() if line.startswith("== ")]
        assert headers == [f"== {tmp_path / 'out'}/omero-job-1_{k}.log" for k in (0, 1)]
        assert result.stdout.count("final state FAILED exit 1") == 2

    def test_fetch_from_missing_dir_is_usage_error(self, runner, workspace):
        tmp_path = workspace[0]
        run_id = self._completed_run(runner, workspace)
        result = runner.invoke(
            main, ["fetch", run_id, str(tmp_path / "imported"),
                   "--runs-dir", str(tmp_path / "runs"),
                   "--from", str(tmp_path / "missing")])
        assert result.exit_code == 2
        assert "error: artifact directory not found" in result.stderr

    def test_status_and_logs_after_a_damaged_upload(self, runner, workspace, monkeypatch):
        # Two batches each fail with unzip's stderr in their error, and the
        # Failed row names it once for both: each row must still be one
        # journal line.
        tmp_path, config_path, topology_path, _ = workspace
        make_tiff_inputs(str(tmp_path / "inputs"), 2)
        runner.invoke(main, ["init", "--config", config_path, "--simulate", topology_path])
        monkeypatch.setattr(orchestrator, "pack_inputs", packs_damaged(orchestrator.pack_inputs))
        run = runner.invoke(
            main, ["run", "cellpose", "--config", config_path, "--simulate", topology_path,
                   "--input", str(tmp_path / "inputs"), "--batch-size", "1",
                   "--output", str(tmp_path / "out"), "--runs-dir", str(tmp_path / "runs")])
        assert kv_lines(run.stdout)["state"] == ["Failed"]
        run_id = kv_lines(run.stdout)["run_id"][0]
        journal = (tmp_path / "runs" / f"{run_id}.journal").read_text()
        assert all(line.count("\t") >= 2 for line in journal.splitlines())
        status = runner.invoke(main, ["status", run_id, "--runs-dir", str(tmp_path / "runs")])
        assert status.exit_code == 0, status.output
        assert kv_lines(status.stdout)["state"] == ["Failed"]
        failed = [detail for stage, detail in journal_rows(status.stdout) if stage == "Failed"]
        assert len(failed) == 1 and failed[0].count("remote unpack failed:") == 1
        assert failed[0].endswith(" (2 batches)")
        assert "bad CRC" in failed[0]
        logs = runner.invoke(main, ["logs", run_id, "--runs-dir", str(tmp_path / "runs"),
                                    "--dir", str(tmp_path / "out")])
        assert logs.exit_code == 0, logs.output

    def test_sidecar_fetch_places_outputs_beside_their_inputs(self, runner, workspace):
        tmp_path = workspace[0]
        run_id = self._completed_run(runner, workspace)
        result = runner.invoke(
            main, ["fetch", run_id, str(tmp_path / "imported"),
                   "--runs-dir", str(tmp_path / "runs"),
                   "--from", str(tmp_path / "out"), "--mode", "SidecarAttachments"])
        assert result.exit_code == 0, result.output
        assert sorted(kv_lines(result.stdout)["written"]) == [
            str(tmp_path / "inputs" / f"img{k:02d}_mask.tiff") for k in range(2)]
        assert list((tmp_path / "imported").rglob("*")) == []

    @pytest.mark.parametrize("lost", ["inputs row", "input dir"])
    def test_sidecar_fetch_without_its_inputs_is_usage_error(self, runner, workspace, lost):
        tmp_path = workspace[0]
        run_id = self._completed_run(runner, workspace)
        if lost == "inputs row":
            journal = tmp_path / "runs" / f"{run_id}.journal"
            journal.write_text("".join(row for row in journal.read_text().splitlines(True)
                                       if "\tinputs\t" not in row))
        else:
            (tmp_path / "inputs").rename(tmp_path / "moved")
        result = runner.invoke(
            main, ["fetch", run_id, str(tmp_path / "imported"),
                   "--runs-dir", str(tmp_path / "runs"),
                   "--from", str(tmp_path / "out"), "--mode", "SidecarAttachments"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert not (tmp_path / "imported").exists()

    def test_fetch_imports_zip(self, runner, workspace):
        tmp_path = workspace[0]
        run_id = self._completed_run(runner, workspace)
        result = runner.invoke(
            main, ["fetch", run_id, str(tmp_path / "imported"),
                   "--runs-dir", str(tmp_path / "runs"),
                   "--from", str(tmp_path / "out"),
                   "--mode", "ImagesFolder"])
        assert result.exit_code == 0
        written = kv_lines(result.stdout)["written"]
        assert len(written) == 2
        assert all(os.path.exists(p) for p in written)


class TestCancelAndList:
    def test_list_workflows(self, runner, workspace):
        _, config_path, _, _ = workspace
        result = runner.invoke(main, ["list", "--config", config_path])
        assert result.exit_code == 0
        assert result.stdout == ("workflow=cellpose\tversion=v1.2.9"
                                 "\timage=demo/w_nucleisegmentation-cellpose:v1.2.9\n")

    def run_then_cancel(self, runner, workspace):
        """A finished run on the simulator, then cancelled; returns (result,
        run_id)."""
        tmp_path, config_path, topology_path, _ = workspace
        make_tiff_inputs(str(tmp_path / "inputs"), 2)
        runner.invoke(main, ["init", "--config", config_path,
                             "--simulate", topology_path])
        run = runner.invoke(
            main, ["run", "cellpose", "--config", config_path,
                   "--simulate", topology_path,
                   "--input", str(tmp_path / "inputs"),
                   "--output", str(tmp_path / "out"),
                   "--runs-dir", str(tmp_path / "runs")])
        run_id = kv_lines(run.stdout)["run_id"][0]
        result = runner.invoke(
            main, ["cancel", run_id, "--runs-dir", str(tmp_path / "runs"),
                   "--config", config_path, "--simulate", topology_path])
        return result, run_id

    def test_cancel_reports_the_name_it_cancelled(self, runner, workspace):
        # One line for the name scancel reached, whatever jobs the journal
        # holds; the run cleaned up after itself, so nothing is left to remove.
        result, run_id = self.run_then_cancel(runner, workspace)
        assert result.exit_code == 0
        assert result.stdout == f"cancel=sb-{run_id}\nremoved=0\n"

    def test_cancelled_done_run_stays_done_and_lists_the_cancel(self, runner, workspace):
        tmp_path = workspace[0]
        _, run_id = self.run_then_cancel(runner, workspace)
        status = runner.invoke(main, ["status", run_id, "--runs-dir", str(tmp_path / "runs")])
        assert status.exit_code == 0
        assert kv_lines(status.stdout)["state"] == ["Done"]
        rows = journal_rows(status.stdout)
        assert rows[-2:] == [("Done", "batches=1"), ("cancel", f"name=sb-{run_id} removed=0")]

    def run_then_cancel_over(self, runner, workspace, monkeypatch, endpoint_class,
                             unfinished=False):
        """Run on the simulator, leave a job named by the run that the
        journal never saw and the run's data behind, then cancel through an
        endpoint_class over the saved cluster; returns (result, cluster,
        run_id). When unfinished, the journal is first cut after Running,
        as a run still polling leaves it."""
        tmp_path, config_path, topology_path, _ = workspace
        make_tiff_inputs(str(tmp_path / "inputs"), 4)
        runner.invoke(main, ["init", "--config", config_path, "--simulate", topology_path])
        run = runner.invoke(
            main, ["run", "cellpose", "--config", config_path, "--simulate", topology_path,
                   "--input", str(tmp_path / "inputs"), "--batch-size", "2",
                   "--output", str(tmp_path / "out"), "--runs-dir", str(tmp_path / "runs")])
        run_id = kv_lines(run.stdout)["run_id"][0]
        if unfinished:
            cut_journal_after_running(workspace, run_id)
        cluster = simslurm.SimCluster.load_state(topology_path + ".state")
        run_dir = f"/scratch/omero/data/{run_id}"
        cluster.fs.make_dirs(run_dir)
        cluster.fs.write(run_dir + "/job.sh", b"#!/bin/bash\n")
        cluster.inject_fault(simslurm.FaultDirective(script_substring=run_dir, duration_s=600))
        cluster.fs.write(run_dir + ".zip", b"upload")
        cluster.sim_exec(["sbatch", f"--job-name=sb-{run_id}", run_dir + "/job.sh"])
        cluster.advance(1)
        monkeypatch.setattr(cli, "SshEndpoint", lambda profile: endpoint_class(cluster))
        result = runner.invoke(
            main, ["cancel", run_id, "--runs-dir", str(tmp_path / "runs"),
                   "--config", config_path])
        return result, cluster, run_id

    def test_cancel_is_one_launch_that_reaches_unjournaled_jobs(
            self, runner, workspace, monkeypatch):
        class Recording(simslurm.SimEndpoint):
            def exec(self, command, timeout=DEFAULT_DEADLINE_S):
                launches.append(command)
                return super().exec(command, timeout)

        launches = []
        result, cluster, run_id = self.run_then_cancel_over(
            runner, workspace, monkeypatch, Recording)
        assert result.exit_code == 0
        assert len(launches) == 1
        assert kv_lines(result.stdout)["cancel"] == [f"sb-{run_id}"]
        assert kv_lines(result.stdout)["removed"] == ["2"]
        assert all(task.state.terminal for job in cluster.jobs.values() for task in job.tasks)
        assert [path for path in list(cluster.fs.files) + list(cluster.fs.dirs)
                if path.startswith(f"/scratch/omero/data/{run_id}")] == []

    def test_cancel_over_a_lost_link_reports_one_error(self, runner, workspace, monkeypatch):
        class Unreachable(simslurm.SimEndpoint):
            def exec(self, command, timeout=DEFAULT_DEADLINE_S):
                raise ConnectionLost("host unreachable")

        result, _, _ = self.run_then_cancel_over(runner, workspace, monkeypatch, Unreachable)
        assert result.exit_code == 1
        assert result.stderr == "error: host unreachable\n"
        assert "cancel" not in kv_lines(result.stdout)

    def test_cancelled_unfinished_run_lists_the_cancel(self, runner, workspace, monkeypatch):
        tmp_path, config_path, _, _ = workspace
        result, _, run_id = self.run_then_cancel_over(
            runner, workspace, monkeypatch, simslurm.SimEndpoint, unfinished=True)
        assert result.exit_code == 0
        status = runner.invoke(main, ["status", run_id, "--runs-dir", str(tmp_path / "runs"),
                                      "--config", config_path])
        assert status.exit_code == 0, status.output
        pairs = kv_lines(status.stdout)
        assert pairs["state"] == ["Running"]
        assert journal_rows(status.stdout)[-1] == ("cancel", f"name=sb-{run_id} removed=2")
        assert all(job.endswith("state=COMPLETED") for job in pairs["job"])


class TestConfigDiscovery:
    def test_env_var_config(self, runner, workspace, monkeypatch):
        _, config_path, _, _ = workspace
        monkeypatch.setenv("SLURMBRIDGE_CONFIG", config_path)
        result = runner.invoke(main, ["list"])
        assert result.exit_code == 0
        assert "workflow=cellpose" in result.stdout


class TestExitCodeContract:
    def test_usage_errors_are_two(self, runner, tmp_path):
        cases = [
            ["validate", str(tmp_path / "missing.json")],
            ["init", "--config", str(tmp_path / "missing.ini"), "--simulate"],
            ["status", "ghost", "--runs-dir", str(tmp_path)],
            ["logs", "ghost", "--runs-dir", str(tmp_path)],
            ["cancel", "ghost", "--runs-dir", str(tmp_path)],
        ]
        for args in cases:
            result = runner.invoke(main, args)
            assert result.exit_code == 2, args

    def test_run_failure_is_one(self, runner, workspace):
        # A workflow job forced to FAILED gives exit 1, not a usage error.
        tmp_path, config_path, topology_path, _ = workspace
        make_tiff_inputs(str(tmp_path / "inputs"), 1)
        runner.invoke(main, ["init", "--config", config_path,
                             "--simulate", topology_path])
        import slurmbridge.simslurm as simslurm
        from slurmbridge.states import JobState

        original = simslurm.SimCluster.load_state

        def load_with_fault(path):
            cluster = original(path)
            cluster.inject_fault(simslurm.FaultDirective(
                script_substring="job.sh", forced_state=JobState.FAILED))
            return cluster

        simslurm.SimCluster.load_state = staticmethod(load_with_fault)
        try:
            result = runner.invoke(
                main, ["run", "cellpose", "--config", config_path,
                       "--simulate", topology_path,
                       "--input", str(tmp_path / "inputs"),
                       "--output", str(tmp_path / "out"),
                       "--runs-dir", str(tmp_path / "runs")])
        finally:
            simslurm.SimCluster.load_state = original
        assert result.exit_code == 1
        assert kv_lines(result.stdout)["state"] == ["Failed"]
