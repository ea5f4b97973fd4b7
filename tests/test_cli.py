"""CLI: argument parsing, command dispatch, output contents."""

import re

import pytest

from repro.cli import build_parser, main


def profile_rows(out: str, title: str) -> list[str]:
    """The bar rows of the sweep profile chart titled *title* in *out*."""
    lines = out.splitlines()
    start = lines.index(title) + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("total:"))
    return lines[start:end]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.attackers == 0
        assert args.enforcement == "none"

    def test_invalid_enforcement_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--enforcement", "magic"])

    def test_fig1_panel_choices(self):
        args = build_parser().parse_args(["fig1", "--panel", "realtime"])
        assert args.panel == "realtime"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig1", "--panel", "management"])

    def test_sweep_flags_on_figures(self):
        for fig in ("fig5", "fig6", "bakeoff4"):
            args = build_parser().parse_args(
                [fig, "--workers", "4", "--no-cache", "--progress"]
            )
            assert args.workers == 4
            assert args.no_cache is True
            assert args.progress is True
            assert args.cache_dir == ".sweep_cache"

    def test_bloom_accepted_as_enforcement_choice(self):
        for cmd in ("run", "trace", "serve-metrics"):
            args = build_parser().parse_args([cmd, "--enforcement", "bloom"])
            assert args.enforcement == "bloom"

    def test_every_mode_is_a_choice(self):
        from repro.sim.config import AuthMode, EnforcementMode, KeyMgmtMode

        parse = build_parser().parse_args
        for mode in EnforcementMode:
            for command in ("run", "trace", "serve-metrics"):
                args = parse([command, "--enforcement", mode.value])
                assert args.enforcement == mode.value
        for mode in AuthMode:
            assert parse(["run", "--auth", mode.value]).auth == mode.value
        for mode in KeyMgmtMode:
            assert parse(["run", "--keymgmt", mode.value]).keymgmt == mode.value

    def test_seeds_and_mc_set_the_replications(self):
        from repro.cli import _sweep_kwargs

        parse = build_parser().parse_args
        assert _sweep_kwargs(parse(["fig5", "--seeds", "2"]), [])["seeds"] == (11, 12)
        mc = _sweep_kwargs(parse(["fig6", "--mc"]), [], first_seed=17)
        assert mc["seeds"] == (17, 18, 19, 20, 21)
        assert "seeds" not in _sweep_kwargs(parse(["fig5"]), [])
        with pytest.raises(SystemExit):
            _sweep_kwargs(parse(["fig5", "--seeds", "0"]), [])

    def test_bakeoff4_defaults(self):
        args = build_parser().parse_args(["bakeoff4"])
        assert args.command == "bakeoff4"
        assert args.bloom_bits == 1024
        assert args.bloom_hashes == 4
        assert args.fp_sweep is False


class TestCommands:
    def test_run_prints_summary(self, capsys):
        rc = main(["run", "--sim-time-us", "150", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "best_effort" in out and "queuing" in out
        assert "delivered=" in out

    def test_run_prints_peak_rss_beside_phase_times(self, capsys):
        rc = main(["run", "--sim-time-us", "150", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        match = re.search(
            r"\(build=\d+\.\d\ds run=\d+\.\d\ds peak_rss=(\d+\.\d)MiB\)$",
            out.strip(),
        )
        assert match, out
        assert float(match.group(1)) > 0

    def test_run_omits_peak_rss_without_resource_module(self, capsys, monkeypatch):
        import sys

        monkeypatch.setitem(sys.modules, "resource", None)  # import fails
        rc = main(["run", "--sim-time-us", "150", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "peak_rss" not in out
        assert re.search(r"\(build=\d+\.\d\ds run=\d+\.\d\ds\)$", out.strip()), out

    def test_peak_rss_is_not_part_of_the_report(self):
        from dataclasses import fields

        from repro.sim.runner import SimReport

        assert not [f.name for f in fields(SimReport) if "rss" in f.name]

    def test_run_with_attack_and_sif(self, capsys):
        rc = main([
            "run", "--sim-time-us", "300", "--attackers", "1",
            "--enforcement", "sif",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "switch_filtered=" in out

    def test_run_rejects_a_horizon_inside_the_warmup(self):
        """A 50 us run under the 100 us warmup would record nothing."""
        with pytest.raises(ValueError, match="must exceed warmup_us=100"):
            main(["run", "--sim-time-us", "50"])

    def test_run_aes_cmac(self, capsys):
        rc = main(["run", "--sim-time-us", "150", "--auth", "aes_cmac"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "auth=aes_cmac keymgmt=partition" in out
        assert re.search(r"delivered=[1-9]\d*", out), out

    def test_run_auth_defaults_keymgmt(self, capsys):
        rc = main(["run", "--sim-time-us", "150", "--auth", "umac"])
        assert rc == 0
        assert "auth=umac" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "DPT" in out and "SIF" in out

    def test_table4_no_measure(self, capsys):
        assert main(["table4", "--no-measure"]) == 0
        out = capsys.readouterr().out
        assert "UMAC-2/4" in out and "11.20" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "BREACH" in out and "safe" in out

    def test_fig1_single_panel(self, capsys):
        assert main(["fig1", "--panel", "realtime", "--sim-time-us", "200"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1(a)" in out

    def test_run_with_bloom_enforcement(self, capsys):
        rc = main([
            "run", "--sim-time-us", "300", "--attackers", "1",
            "--enforcement", "bloom",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "switch_filtered=" in out

    def test_bakeoff4_prints_memory_chart(self, capsys):
        rc = main([
            "bakeoff4", "--sim-time-us", "400", "--no-cache", "--fp-sweep",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Four-way bake-off" in out
        for mode in ("dpt", "if", "sif", "bloom"):
            assert mode in out
        assert "memory footprint" in out
        assert "Bloom fp-rate axis" in out

    def test_fig6_workers_and_cache_flags(self, capsys, tmp_path):
        argv = [
            "fig6", "--sim-time-us", "250", "--workers", "2",
            "--cache-dir", str(tmp_path), "--progress",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "Figure 6" in cold
        assert "sweep execution profile" in cold
        # second invocation is served entirely from the run cache
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache 8 hit / 0 miss" in warm

    def test_bakeoff4_fp_sweep_prints_one_profile_per_sweep(self, capsys):
        rc = main([
            "bakeoff4", "--sim-time-us", "150", "--no-cache", "--fp-sweep",
            "--progress",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        bakeoff = profile_rows(out, "sweep execution profile")
        fp = profile_rows(out, "fp-rate sweep execution profile")
        assert len(bakeoff) == 8
        assert all("enforcement=" in row for row in bakeoff)
        assert fp and all(row.startswith("bloom_bits=") for row in fp)

    @pytest.mark.parametrize("command, last_label", [
        ("fig6", "70% keyed |"),
        ("bakeoff4", "70% bloom |"),
    ])
    def test_seeds_flag_prints_the_ci_band(self, capsys, command, last_label):
        argv = [command, "--sim-time-us", "200", "--no-cache", "--seeds", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "pooled over 2 seeds" in out
        band = out[out.index("total delay with 95% CI (2 seeds)"):]
        assert last_label in band

    def test_serve_metrics_interrupt_prints_the_clock(self, capsys, monkeypatch):
        """Ctrl-C during the run ends serve-metrics cleanly, naming the
        simulated time it stopped at."""
        from repro.sim.engine import PS_PER_US, Engine

        run = Engine.run

        def interrupted_run(engine, until=None, max_events=None):
            run(engine, until=10 * PS_PER_US)
            raise KeyboardInterrupt

        monkeypatch.setattr(Engine, "run", interrupted_run)
        rc = main(["serve-metrics", "--port", "0", "--linger-s", "0",
                   "--sim-time-us", "150"])
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(r"interrupted at t=10\.0 us: events=[1-9]\d*$", out.strip()), out


class TestTraceCommand:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.command == "trace"
        assert args.enforcement == "sif"
        assert args.attackers == 1
        assert args.jsonl is None and args.packet is None

    def test_trace_prints_sif_timeline(self, capsys):
        rc = main(["trace", "--sim-time-us", "600"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SIF activation timeline" in out
        assert "trap_raised=" in out and "sif_activated=" in out

    def test_trace_jsonl_export_contains_lifecycle_kinds(self, capsys, tmp_path):
        import json

        path = tmp_path / "events.jsonl"
        rc = main(["trace", "--sim-time-us", "800", "--jsonl", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        kinds = {}
        for line in path.read_text().splitlines():
            kinds[json.loads(line)["kind"]] = kinds.get(json.loads(line)["kind"], 0) + 1
        for kind in ("trap_raised", "sif_activated", "sif_deactivated"):
            assert kinds.get(kind, 0) >= 1, kind
        # the printed per-kind summary and the export tell the same story
        for kind, count in kinds.items():
            assert f"{kind}={count}" in out

    def test_trace_jsonl_to_stdout(self, capsys):
        rc = main(["trace", "--sim-time-us", "300", "--jsonl", "-"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.lstrip().startswith("{")

    def test_trace_packet_timeline(self, capsys):
        # twice in one process: ids are per run, so packet 1 is the run's
        # first admitted packet both times
        for _ in range(2):
            rc = main(["trace", "--sim-time-us", "300", "--packet", "1"])
            out = capsys.readouterr().out
            assert rc == 0
            match = re.search(r"^packet 1: (\d+) events$", out, re.MULTILINE)
            assert match and int(match.group(1)) >= 2, out
            assert re.search(r"^ .* created +@hca", out, re.MULTILINE)

    def test_trace_unknown_packet_fails_loudly(self, capsys):
        rc = main(["trace", "--sim-time-us", "300", "--packet", "0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "packet 0: no trace events" in out
        assert re.search(r"admitted packet ids 1\.\.\d+; the ring buffer evicted 0 of", out)

    def test_trace_ring_buffer(self, capsys):
        rc = main(["trace", "--sim-time-us", "400", "--max-events", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ring buffer kept 50/" in out
