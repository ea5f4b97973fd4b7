"""The `repro-sim fuzz` command: deterministic output, non-zero exit on
violation, corpus writing, shrinking, and replay."""

import os

from repro import cli
from repro.fuzz import generators, oracles
from repro.fuzz.oracles import Violation

from tests.fuzz.conftest import busy_scenario


def run_cli(capsys, *argv):
    rc = cli.main(["fuzz", *argv])
    return rc, capsys.readouterr().out


class TestCleanCampaign:
    def test_two_invocations_are_byte_identical_and_exit_zero(self, capsys):
        rc1, out1 = run_cli(capsys, "--runs", "2", "--seed", "0")
        rc2, out2 = run_cli(capsys, "--runs", "2", "--seed", "0")
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert out1.count("ok   ") == 2
        assert out1.rstrip().endswith("2/2 scenarios clean")


class TestSeededFailure:
    def patch_broken(self, monkeypatch):
        monkeypatch.setitem(
            oracles.ORACLES, "broken",
            lambda run: [Violation("broken", run.leg, "always fails")],
        )
        # tiny fixed scenario so the shrink probes stay fast
        monkeypatch.setattr(
            generators, "generate_scenario", lambda seed, index: busy_scenario()
        )

    def test_failure_exits_nonzero_shrinks_and_saves(
        self, capsys, tmp_path, monkeypatch
    ):
        self.patch_broken(monkeypatch)
        corpus_dir = str(tmp_path / "corpus")
        rc, out = run_cli(
            capsys, "--runs", "1", "--seed", "0",
            "--shrink", "--corpus", corpus_dir,
        )
        assert rc == 1
        assert "FAIL busy" in out
        assert "[fast:broken]" in out
        assert "shrunk to:" in out
        assert "tampers=0 injections=0" in out  # minimized line
        assert "saved " in out
        (saved,) = os.listdir(corpus_dir)

        # the saved repro still fails when replayed through the CLI
        rc, out = run_cli(capsys, "--replay", os.path.join(corpus_dir, saved))
        assert rc == 1
        assert "FAIL" in out

    def test_replay_of_fixed_entry_passes_without_broken_oracle(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.fuzz.corpus import entry_for, save_entry

        path = save_entry(str(tmp_path), entry_for(busy_scenario(), []))
        rc, out = run_cli(capsys, "--replay", path)
        assert rc == 0
        assert "no longer fails" in out
