"""End-to-end tests of the ``python -m repro`` command line.

Run as real subprocesses (the module is its own program; its exit codes
and stderr discipline are the interface under test): ``--help`` and the
demo exit 0, bad input exits 2 with a single ``error: ...`` line on
stderr and never a traceback.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args: str, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


class TestHelp:
    def test_help_exits_zero(self):
        result = run_cli("--help")
        assert result.returncode == 0
        assert "demo" in result.stdout and "info" in result.stdout

    def test_unknown_command_exits_nonzero(self):
        result = run_cli("frobnicate")
        assert result.returncode != 0
        assert "Traceback" not in result.stderr


class TestDemo:
    def test_default_invocation_runs_the_quickstart(self):
        result = run_cli()
        assert result.returncode == 0
        assert "Remark 1: 4/3" in result.stdout
        assert "1.3333" in result.stdout
        assert result.stderr == ""

    def test_explicit_demo_subcommand(self):
        result = run_cli("demo")
        assert result.returncode == 0
        assert "Remark 1: 4/3" in result.stdout


class TestInfo:
    def test_summarizes_a_valid_moft_csv(self, tmp_path):
        csv = tmp_path / "moft.csv"
        csv.write_text(
            "oid,t,x,y\nO1,0,1.0,2.0\nO1,1,2.0,3.0\nO2,0,5.0,5.0\n"
        )
        result = run_cli("info", str(csv))
        assert result.returncode == 0
        assert "rows:    3" in result.stdout
        assert "objects: 2" in result.stdout

    def test_nonexistent_path_exits_2_with_clean_error(self, tmp_path):
        result = run_cli("info", str(tmp_path / "nope.csv"))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "content",
        [
            "",  # empty file
            "oid,t,x,y\nO1,0,abc,2\n",  # non-numeric coordinate
            "oid,t,x,y\nO1,0\n",  # truncated row
            "oid,t,x,x,y\nO1,0,1,2,3\n",  # duplicate header column
            "a,b,c\n1,2,3\n",  # wrong columns entirely
        ],
        ids=[
            "empty",
            "non-numeric",
            "truncated-row",
            "duplicate-header",
            "wrong-columns",
        ],
    )
    def test_malformed_csv_exits_2_with_clean_error(self, tmp_path, content):
        csv = tmp_path / "bad.csv"
        csv.write_text(content)
        result = run_cli("info", str(csv))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr


class TestConvert:
    # Already in write_csv's canonical float rendering, so the
    # csv -> columnar -> csv round-trip below compares byte-identical.
    CSV = "oid,t,x,y\nO1,0.0,1.0,2.0\nO1,1.0,2.0,3.0\nO2,0.0,5.0,5.0\n"

    def test_csv_to_columnar_and_back_is_byte_identical(self, tmp_path):
        csv = tmp_path / "moft.csv"
        csv.write_text(self.CSV)
        col = tmp_path / "moft.moft"
        result = run_cli("convert", str(csv), str(col))
        assert result.returncode == 0
        assert "3 rows" in result.stdout and "2 objects" in result.stdout
        assert col.stat().st_size > 0

        back = tmp_path / "back.csv"
        result = run_cli("convert", str(col), str(back))
        assert result.returncode == 0
        assert back.read_text() == self.CSV

    def test_info_reads_columnar_files(self, tmp_path):
        csv = tmp_path / "moft.csv"
        csv.write_text(self.CSV)
        col = tmp_path / "moft.moft"
        assert run_cli("convert", str(csv), str(col)).returncode == 0
        result = run_cli("info", str(col))
        assert result.returncode == 0
        assert "columnar" in result.stdout
        assert "rows:    3" in result.stdout
        assert "objects: 2" in result.stdout

    def test_no_index_flag_writes_smaller_file(self, tmp_path):
        csv = tmp_path / "moft.csv"
        csv.write_text(self.CSV)
        full = tmp_path / "full.moft"
        lean = tmp_path / "lean.moft"
        assert run_cli("convert", str(csv), str(full)).returncode == 0
        assert (
            run_cli("convert", "--no-index", str(csv), str(lean)).returncode
            == 0
        )
        assert lean.stat().st_size < full.stat().st_size

    def test_corrupt_columnar_exits_2_with_clean_error(self, tmp_path):
        bad = tmp_path / "bad.moft"
        bad.write_bytes(b"MOFTCOL\x00" + b"\xff" * 16)
        result = run_cli("info", str(bad))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    def test_missing_source_exits_2_with_clean_error(self, tmp_path):
        result = run_cli(
            "convert", str(tmp_path / "nope.csv"), str(tmp_path / "out.moft")
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr


class TestServiceVerbsSubprocess:
    """submit → serve --drain → status → result as real processes.

    The durable queue file is the hand-off: the submit process exits
    before the serve process starts, so this is the cross-process
    contract itself under test, not a convenience wrapper.
    """

    def test_full_job_lifecycle_across_processes(self, tmp_path):
        db = str(tmp_path / "jobs.db")
        submitted = run_cli(
            "submit", "--db", db,
            "--through", "Ln:polygon",
            "--constraint", "intersects:Lr:polyline",
            "--constraint", "contains:Ls:node",
            "--moft", "FMbus",
        )
        assert submitted.returncode == 0
        job_id = submitted.stdout.strip()
        assert job_id == "J000001"
        assert "queued" in submitted.stderr

        served = run_cli("serve", "--db", db, "--drain", "--workers", "2")
        assert served.returncode == 0
        assert "done=1" in served.stdout

        status = run_cli("status", "--db", db, job_id)
        assert status.returncode == 0
        assert f"job {job_id}: done" in status.stdout
        assert "attempts: 1" in status.stdout

        result = run_cli("result", "--db", db, job_id, "--explain")
        assert result.returncode == 0
        assert result.stdout.strip() == '{"count":5,"kind":"through"}'
        assert "QueryPlan" in result.stderr

    def test_pietql_submission_round_trip(self, tmp_path):
        db = str(tmp_path / "jobs.db")
        submitted = run_cli(
            "submit", "--db", db,
            "SELECT layer.schools FROM Fig1",
        )
        assert submitted.returncode == 0
        job_id = submitted.stdout.strip()
        assert run_cli("serve", "--db", db, "--drain").returncode == 0
        result = run_cli("result", "--db", db, job_id)
        assert result.returncode == 0
        assert '"kind":"pietql"' in result.stdout
        assert "nd_school_north" in result.stdout

    def test_unknown_job_id_exits_2(self, tmp_path):
        db = str(tmp_path / "jobs.db")
        run_cli("submit", "--db", db, "--through", "Ln:polygon")
        for verb in ("status", "result"):
            proc = run_cli(verb, "--db", db, "J999999")
            assert proc.returncode == 2
            assert proc.stderr.startswith("error: ")
            assert "Traceback" not in proc.stderr

    def test_rejected_admission_exits_2(self, tmp_path):
        db = str(tmp_path / "jobs.db")
        first = run_cli(
            "submit", "--db", db, "--max-depth", "1",
            "--through", "Ln:polygon",
        )
        assert first.returncode == 0
        second = run_cli(
            "submit", "--db", db, "--max-depth", "1",
            "--through", "Ln:polygon",
        )
        assert second.returncode == 2
        assert second.stderr.startswith("error: queue is full")
        assert "Traceback" not in second.stderr
        assert second.stdout == ""

    def test_pending_result_exits_2(self, tmp_path):
        db = str(tmp_path / "jobs.db")
        job_id = run_cli(
            "submit", "--db", db, "--through", "Ln:polygon"
        ).stdout.strip()
        proc = run_cli("result", "--db", db, job_id)
        assert proc.returncode == 2
        assert "no result yet" in proc.stderr

    def test_malformed_spec_arguments_exit_2(self, tmp_path):
        db = str(tmp_path / "jobs.db")
        for args in (
            ["--through", "not-layer-kind"],
            ["--through", "Ln:polygon", "--constraint", "bad"],
            ["--through", "Ln:polygon", "--window", "a:b"],
            ["--through", "Ln:polygon", "SELECT both FROM given"],
            [],  # nothing to submit at all
        ):
            proc = run_cli("submit", "--db", db, *args)
            assert proc.returncode == 2, args
            assert proc.stderr.startswith("error: ")
            assert "Traceback" not in proc.stderr


class TestServiceVerbsInProcess:
    """The same verbs through main([...]) — fast, and measured by
    coverage (subprocesses are not)."""

    @pytest.fixture()
    def main(self):
        from repro.__main__ import main as cli_main

        return cli_main

    def test_lifecycle_in_process(self, tmp_path, main, capsys):
        db = str(tmp_path / "jobs.db")
        assert main([
            "submit", "--db", db,
            "--through", "Ln:polygon",
            "--constraint", "intersects:Lr:polyline",
            "--constraint", "contains:Ls:node",
            "--moft", "FMbus",
            "--window", "0:9",
        ]) == 0
        job_id = capsys.readouterr().out.strip()
        assert main(["serve", "--db", db, "--drain"]) == 0
        assert main(["status", "--db", db, job_id]) == 0
        assert f"job {job_id}: done" in capsys.readouterr().out
        assert main(["result", "--db", db, job_id, "--explain"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == '{"count":5,"kind":"through"}'
        assert "QueryPlan" in captured.err

    def test_failed_job_result_reports_error(self, tmp_path, main, capsys):
        db = str(tmp_path / "jobs.db")
        assert main(["submit", "--db", db, "SELECT !! nonsense"]) == 0
        job_id = capsys.readouterr().out.strip()
        assert main(["serve", "--db", db, "--drain"]) == 0
        assert main(["status", "--db", db, job_id]) == 0
        assert "failed" in capsys.readouterr().out
        assert main(["result", "--db", db, job_id]) == 2
        assert "error: job" in capsys.readouterr().err

    def test_throttled_client_in_process(self, tmp_path, main, capsys):
        db = str(tmp_path / "jobs.db")
        assert main([
            "submit", "--db", db, "--max-inflight", "1",
            "--client", "alice", "--through", "Ln:polygon",
        ]) == 0
        assert main([
            "submit", "--db", db, "--max-inflight", "1",
            "--client", "alice", "--through", "Ln:polygon",
        ]) == 2
        assert "in flight" in capsys.readouterr().err


class TestIngest:
    """The ``ingest`` verb: stream a CSV into a named world."""

    @pytest.fixture()
    def fig1_csv(self, tmp_path):
        from repro.mo.io import write_csv
        from repro.synth import figure1_instance

        path = tmp_path / "fig1.csv"
        write_csv(figure1_instance().context().moft("FMbus"), path)
        return str(path)

    def test_streams_a_csv_and_reports_accounting(self, fig1_csv):
        result = run_cli(
            "ingest", fig1_csv, "--world", "fig1",
            "--batch-size", "4", "--lateness", "12",
        )
        assert result.returncode == 0
        assert "12 submitted, 12 ingested, 0 late" in result.stdout
        assert "12 rows" in result.stdout

    def test_late_samples_are_reported_not_dropped(self, fig1_csv):
        result = run_cli(
            "ingest", fig1_csv, "--world", "fig1",
            "--batch-size", "3", "--lateness", "2",
        )
        assert result.returncode == 0
        out = result.stdout
        assert "12 submitted" in out
        submitted_line = next(
            line for line in out.splitlines() if "submitted" in line
        )
        ingested = int(submitted_line.split("submitted,")[1].split()[0])
        late = int(submitted_line.split("ingested,")[1].split()[0])
        assert ingested + late == 12

    def test_nonexistent_csv_exits_2_with_clean_error(self, tmp_path):
        result = run_cli("ingest", str(tmp_path / "nope.csv"))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    def test_unknown_world_is_rejected_by_argparse(self, fig1_csv):
        result = run_cli("ingest", fig1_csv, "--world", "mars")
        assert result.returncode != 0
        assert "Traceback" not in result.stderr


class TestPoiVerbInProcess:
    """`python -m repro poi` through main([...]) — measured by coverage."""

    @pytest.fixture()
    def main(self):
        from repro.__main__ import main as cli_main

        return cli_main

    def test_fig1_world(self, main, capsys):
        assert main(["poi", "--world", "fig1", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "poi_market" in out
        assert "QueryPlan" in out
        assert "stop_episodes" in out

    def test_fig1_segments_once(self, main, capsys):
        """Visits, dwell and top-k are read off one store: the counter
        line shows one segmentation pass of the world, and EXPLAIN the
        top-k that was asked for."""
        from repro.obs import PipelineStats
        from repro.poi import PoiVisitStore
        from repro.synth import figure1_instance

        world = figure1_instance(with_pois=True)
        obs = PipelineStats()
        PoiVisitStore(
            world.moft, world.time, "hour",
            dict(world.gis.layer("Lp").elements("poi")), layer="Lp", obs=obs,
        )
        assert main(["poi", "--world", "fig1"]) == 0
        out = capsys.readouterr().out
        assert f"stop_episodes={obs.count('stop_episodes')}," in out
        assert "PoiAggregate[Lp/hour measure=topk k=3]" in out

    def test_synth_world_with_knobs(self, main, capsys):
        assert main([
            "poi", "--world", "synth",
            "--objects", "10", "--k", "2", "--min-dwell", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "places" in out
        assert "top-2" in out or "TOP" in out or "top" in out

    def test_poi_subprocess_smoke(self):
        result = run_cli("poi", "--world", "fig1")
        assert result.returncode == 0
        assert "Traceback" not in result.stderr
