"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, _parse_axes, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.k == 4 and args.nt == 8

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table2"])
        assert args.name == "table2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])


class TestCommands:
    def test_solve(self, capsys):
        assert main(["solve", "--k", "2", "--nt", "2"]) == 0
        out = capsys.readouterr().out
        assert "U_p" in out and "S_obs" in out

    def test_solve_with_method(self, capsys):
        assert main(["solve", "--k", "2", "--nt", "2", "--method", "amva"]) == 0
        assert "lambda_net" in capsys.readouterr().out

    def test_tolerance(self, capsys):
        assert main(["tolerance", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "tol_network" in out and "tol_memory" in out

    def test_bottleneck(self, capsys):
        assert main(["bottleneck"]) == 0
        out = capsys.readouterr().out
        assert "critical p_remote" in out
        assert "0.18" in out

    def test_experiment_claims(self, capsys):
        assert main(["experiment", "claims"]) == 0
        assert "Headline claims" in capsys.readouterr().out

    def test_uniform_pattern_flag(self, capsys):
        assert main(["bottleneck", "--pattern", "uniform"]) == 0
        out = capsys.readouterr().out
        # uniform d_avg = 32/15 on 4x4
        assert "2.1333" in out

    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "table2",
            "table3",
            "table4",
            "claims",
            "ext-ports",
            "ext-priority",
            "ext-buffers",
            "ext-pipeline",
            "ext-hotspot",
            "ext-context",
        }

    def test_sweep_basic(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--k", "2",
                    "--axis", "num_threads=1,2",
                    "--axis", "p_remote=0.1,0.2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "U_p=" in out and "[sweep] 4 points (4 unique)" in out

    def test_sweep_measure_and_outputs(self, capsys, tmp_path):
        records = tmp_path / "records.jsonl"
        manifest = tmp_path / "manifest.json"
        assert (
            main(
                [
                    "sweep",
                    "--k", "2",
                    "--axis", "num_threads=1,2,4",
                    "--measure", "U_p",
                    "--out", str(records),
                    "--manifest", str(manifest),
                ]
            )
            == 0
        )
        lines = [json.loads(l) for l in records.read_text().splitlines()]
        assert len(lines) == 3
        assert lines[0]["axes"] == {"num_threads": 1}
        assert "U_p" in lines[0]["measures"]
        m = json.loads(manifest.read_text())
        assert m["unique_points"] == 3 and m["mode"] == "batch"
        assert m["solver_batches"] and m["solver_batches"][0]["batch_size"] == 3

    def test_sweep_warm_cache(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--k", "2",
            "--axis", "num_threads=1,2",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(tmp_path / "m.json"),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        warm = json.loads((tmp_path / "m.json").read_text())
        assert warm["cache_hit_rate"] == 1.0
        assert warm["cache_hits"] == 2 and warm["solved"] == 0

    def test_sweep_no_cache_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert (
            main(["sweep", "--k", "2", "--axis", "num_threads=1", "--no-cache"])
            == 0
        )
        assert not (tmp_path / "envcache").exists()

    def test_sweep_linspace_axis(self, capsys):
        assert (
            main(["sweep", "--k", "2", "--axis", "p_remote=0.1:0.3:3"]) == 0
        )
        out = capsys.readouterr().out
        assert "p_remote=0.1 " in out and "p_remote=0.3 " in out

    def test_parse_axes(self):
        axes = _parse_axes(["num_threads=1,2,4", "p_remote=0.0:1.0:5"])
        assert axes["num_threads"] == [1, 2, 4]
        assert axes["p_remote"] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert _parse_axes(["wraparound=true,false"]) == {
            "wraparound": [True, False]
        }

    def test_parse_axes_rejects_garbage(self):
        with pytest.raises(SystemExit):
            _parse_axes(["num_threads"])
        with pytest.raises(SystemExit):
            _parse_axes(["num_threads="])
        with pytest.raises(SystemExit):
            _parse_axes(["p_remote=0:1"])

    def test_hotspot_point_via_cli(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--k",
                    "2",
                    "--nt",
                    "2",
                    "--pattern",
                    "hotspot",
                    "--method",
                    "amva",
                ]
            )
            == 0
        )
        assert "U_p" in capsys.readouterr().out


class TestSweepSelectionErrors:
    """Unknown --backend / --kernel values follow the CLI error contract:
    exit 2 with one clean stderr line that enumerates the valid choices
    (the flags deliberately drop argparse ``choices=`` so the message comes
    from the same validation the API raises)."""

    def test_unknown_backend_enumerates_choices(self, capsys):
        rc = main(["sweep", "--axis", "num_threads=1,2", "--backend", "bogus"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.strip() == (
            "repro-mms: error: unknown backend 'bogus'; "
            "pick from auto/batch/process/serial"
        )
        assert err.count("\n") <= 1

    def test_worker_unknown_backend_enumerates_choices(self, tmp_path, capsys):
        rc = main(
            ["worker", "--fabric", str(tmp_path), "--backend", "bogus", "--wait", "0"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.strip() == (
            "repro-mms: error: unknown backend 'bogus'; "
            "pick from auto/batch/process/serial"
        )

    def test_unknown_kernel_enumerates_choices(self, capsys):
        rc = main(["sweep", "--axis", "num_threads=1,2", "--kernel", "bogus"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.strip() == (
            "repro-mms: error: unknown kernel 'bogus'; "
            "pick from auto/numpy"
        )
        assert err.count("\n") <= 1

    def test_unavailable_kernel_is_one_clean_line(self, capsys):
        rc = main(["sweep", "--axis", "num_threads=1,2", "--kernel", "numba"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("repro-mms: error: kernel 'numba' is not available")
        assert "kernel='numpy'" in err
        assert err.count("\n") <= 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["worker", "--fabric", "{fabric}", "--kernel", "numba", "--wait", "0"],
            ["serve", "--port", "0", "--kernel", "numba"],
        ],
        ids=["worker", "serve"],
    )
    def test_unavailable_kernel_rejected_by_worker_and_serve(
        self, argv, tmp_path, capsys
    ):
        rc = main([a.format(fabric=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("repro-mms: error: kernel 'numba' is not available")
        assert err.count("\n") <= 1

    def test_env_kernel_checked_without_flag(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SOLVE_KERNEL", "numba")
        rc = main(["sweep", "--axis", "num_threads=1,2"])
        assert rc == 2
        assert "kernel 'numba' is not available" in capsys.readouterr().err

    def test_valid_kernel_accepted(self, capsys):
        assert (
            main(["sweep", "--axis", "num_threads=1,2", "--kernel", "numpy"])
            == 0
        )
        assert "num_threads=1 " in capsys.readouterr().out
