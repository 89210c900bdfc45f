"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestDesign:
    def test_design_from_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("0000 1000 1011 1101 1110 1111")
        assert main(["design", "--order", "2", "--trace-file", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "x1 | 1x" in out
        assert "MooreMachine: 3 states" in out

    def test_design_writes_hdl(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("0101" * 20)
        vhdl = tmp_path / "out.vhd"
        verilog = tmp_path / "out.v"
        dot = tmp_path / "out.dot"
        main(
            [
                "design", "--order", "2", "--trace-file", str(trace),
                "--vhdl", str(vhdl), "--verilog", str(verilog),
                "--dot", str(dot), "--area",
            ]
        )
        assert "entity" in vhdl.read_text()
        assert "module" in verilog.read_text()
        assert "digraph" in dot.read_text()
        assert "AreaReport" in capsys.readouterr().out

    def test_design_rejects_empty_trace(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("hello world")
        with pytest.raises(SystemExit):
            main(["design", "--trace-file", str(trace)])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig99"])

    def test_fig1_runs(self, capsys):
        assert main(["figures", "fig1"]) == 0
        assert "final=3" in capsys.readouterr().out


class TestCustomize:
    def test_customize_small(self, capsys):
        assert main(["customize", "ijpeg", "--branches", "2", "--length", "8000"]) == 0
        out = capsys.readouterr().out
        assert "xscale-128" in out
        assert "custom-" in out


class TestDurabilityFlags:
    @pytest.fixture(autouse=True)
    def clean_run_id(self, monkeypatch, tmp_path):
        from repro.reliability import durability

        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))
        monkeypatch.setattr(durability, "_current_run_id", None)

    def test_run_id_and_resume_parse(self):
        parser = build_parser()
        args = parser.parse_args(["--run-id", "abc", "figures", "fig1"])
        assert args.run_id == "abc"
        args = parser.parse_args(["--resume", "abc", "figures", "fig1"])
        assert args.resume == "abc"

    def test_conflicting_ids_rejected(self, capsys):
        assert main(["--resume", "a", "--run-id", "b", "figures", "fig1"]) == 2
        assert "different runs" in capsys.readouterr().err

    def test_matching_ids_accepted(self, capsys):
        from repro.reliability import durability

        assert main(["--resume", "a", "--run-id", "a", "figures", "fig1"]) == 0
        assert durability.current_run_id() == "a"

    def test_run_id_is_sanitized(self):
        from repro.reliability import durability

        assert main(["--run-id", "my run!", "figures", "fig1"]) == 0
        assert durability.current_run_id() == "my-run"

    def test_unusable_run_id_is_an_error(self, capsys):
        assert main(["--run-id", "///", "figures", "fig1"]) == 2
        assert "no usable characters" in capsys.readouterr().err

    def test_interrupt_exits_130_with_resume_hint(self, monkeypatch, capsys):
        import repro.cli as cli_mod

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "_cmd_figures", interrupted)
        assert main(["--run-id", "sweep-7", "figures", "fig2"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume sweep-7" in err

    def test_interrupt_without_run_id_has_no_hint(self, monkeypatch, capsys):
        import repro.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "_cmd_figures",
            lambda args: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        assert main(["figures", "fig2"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" not in err


class TestConformance:
    def test_fuzz_writes_replay_and_exits_zero(self, tmp_path, capsys):
        assert (
            main(
                [
                    "conformance", "fuzz", "--seed", "5", "--budget", "3",
                    "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert (tmp_path / "replay_5.jsonl").exists()
        assert "seed=5 budget=3: ok" in capsys.readouterr().out

    def test_regen_writes_golden_files(self, tmp_path, capsys):
        assert main(["conformance", "regen", "--golden-dir", str(tmp_path)]) == 0
        assert sorted(tmp_path.glob("golden_*.json"))
        assert "wrote" in capsys.readouterr().out

    def test_regen_flag_is_an_alias(self, tmp_path):
        assert main(["conformance", "--regen", "--golden-dir", str(tmp_path)]) == 0
        assert sorted(tmp_path.glob("golden_*.json"))

    def test_minimize_requires_replay_file(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["conformance", "minimize"])

    def test_minimize_replays_cases(self, tmp_path, capsys):
        main(
            [
                "conformance", "fuzz", "--seed", "5", "--budget", "2",
                "--out-dir", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "conformance", "minimize",
                    "--replay", str(tmp_path / "replay_5.jsonl"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "case 0" in out and "ok" in out


class TestTrace:
    def test_list_prints_registered_sources(self, capsys):
        assert main(["trace", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["kmp", "minivm", "pybytecode"]

    def test_bit_stream_on_stdout(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert (
            main(
                [
                    "trace", "--source", "kmp:pattern=ab,text=iid",
                    "--length", "64", "--seed", "1",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        bits = captured.out.strip()
        assert len(bits) == 64 and set(bits) <= {"0", "1"}
        assert "64 events" in captured.err

    def test_pcs_mode_and_out_file(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "trace.txt"
        assert (
            main(
                [
                    "trace", "--source", "pybytecode:program=sort",
                    "--length", "32", "--seed", "2",
                    "--pcs", "--out", str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 32
        pc, bit = lines[0].split()
        assert pc.isdigit() and bit in ("0", "1")

    def test_unknown_source_is_exit_2(self, capsys):
        assert main(["trace", "--source", "bogus"]) == 2
        assert "unknown source" in capsys.readouterr().err

    def test_malformed_spec_is_exit_2(self, capsys):
        assert main(["trace", "--source", "kmp:pattern"]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_source_needed_without_list(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["trace"])


class TestFiguresSource:
    def test_fig2_over_a_source(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))
        assert (
            main(
                [
                    "figures", "fig2",
                    "--source", "kmp:pattern=ab,text=iid",
                    "--length", "1024", "--seed", "3", "--gap-k", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "source:kmp:pattern=ab,q=1/2,text=iid,variant=mp" in out

    def test_bad_source_spec_is_exit_2(self, capsys):
        assert main(["figures", "fig2", "--source", "bogus"]) == 2
        assert "unknown source" in capsys.readouterr().err


class TestConformanceSourceChecks:
    def test_run_reports_kmp_and_sources_checks(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["conformance", "run"]) == 0
        out = capsys.readouterr().out
        assert "kmp     closed-form rates ok" in out
        assert "sources golden vectors ok" in out


class TestServeFlagValidation:
    """Non-positive timings and a hedge cap below the floor are refused
    with exit status 2 before anything is served."""

    ROUTER = ["serve-router", "--replicas", "127.0.0.1:7477"]

    @staticmethod
    def _exit_status(monkeypatch, argv):
        import asyncio

        def _no_event_loop(coro):
            # A command that passed its checks would serve forever here.
            coro.close()
            return 0

        monkeypatch.setattr(asyncio, "run", _no_event_loop)
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--deadline", "0"],
            ["serve", "--deadline", "-5"],
            ROUTER + ["--probe-interval", "0"],
            ROUTER + ["--hedge-floor", "0"],
            ROUTER + ["--hedge-cap", "-1"],
            ROUTER + ["--hedge-floor", "0.5", "--hedge-cap", "0.1"],
        ],
        ids=[
            "deadline-zero",
            "deadline-negative",
            "probe-interval-zero",
            "hedge-floor-zero",
            "hedge-cap-negative",
            "hedge-cap-below-floor",
        ],
    )
    def test_rejected_with_exit_2(self, monkeypatch, capsys, argv):
        assert self._exit_status(monkeypatch, argv) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--deadline", "5"],
            ROUTER + ["--probe-interval", "0.25"],
            ROUTER + ["--hedge-floor", "300", "--hedge-cap", "300"],
        ],
        ids=["deadline", "probe-interval", "hedge-floor-equals-cap"],
    )
    def test_positive_values_accepted(self, monkeypatch, argv):
        assert self._exit_status(monkeypatch, argv) == 0

    def test_router_without_replicas_is_exit_2(self, monkeypatch, capsys):
        assert self._exit_status(monkeypatch, ["serve-router"]) == 2
        assert "--replicas" in capsys.readouterr().err
