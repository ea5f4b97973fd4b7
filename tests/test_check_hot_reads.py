"""The hot-read lint: the hop-path modules must stay clean, and the checker
must catch the packet property reads and inlined calls it forbids."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_hot_reads.py"


def run_checker(*args):
    return subprocess.run(
        [sys.executable, str(CHECKER), *map(str, args)],
        capture_output=True, text=True,
    )


def write(tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(source)
    return path


class TestRepoIsClean:
    def test_hot_path_modules_have_no_property_reads(self):
        proc = run_checker()
        assert proc.returncode == 0, proc.stderr


class TestCheckerCatchesRegressions:
    @pytest.mark.parametrize("prop", ["vl", "dst", "src", "src_qp", "nonce"])
    def test_packet_property_read_fails(self, tmp_path, prop):
        bad = write(
            tmp_path,
            "class Switch:\n"
            "    def receive(self, packet, in_port):\n"
            f"        return packet.{prop}\n",
        )
        proc = run_checker(bad)
        assert proc.returncode == 1
        assert f"'packet.{prop}'" in proc.stderr
        assert "mod.py:3:" in proc.stderr

    def test_property_read_through_an_entry_fails(self, tmp_path):
        bad = write(
            tmp_path,
            "def reroute(self, entry):\n"
            "    return self.route(entry.packet.dst)\n",
        )
        assert run_checker(bad).returncode == 1

    def test_serialization_ps_call_fails(self, tmp_path):
        bad = write(
            tmp_path,
            "def pump(link, packet, delay):\n"
            "    return link.serialization_ps(packet) + delay\n",
        )
        proc = run_checker(bad)
        assert proc.returncode == 1
        assert "serialization_ps()" in proc.stderr

    def test_every_hit_is_reported(self, tmp_path):
        bad = write(
            tmp_path,
            "def send(self, packet):\n"
            "    vl = packet.vl\n"
            "    return vl, packet.src, self.serialization_ps(packet)\n",
        )
        proc = run_checker(bad)
        assert proc.returncode == 1
        assert "3 hot-path property read(s) found" in proc.stderr


class TestCheckerAllowsSanctionedPatterns:
    def test_direct_header_reads_pass(self, tmp_path):
        ok = write(
            tmp_path,
            "def send(self, packet):\n"
            "    lrh = packet.lrh\n"
            "    ser = packet.wire_length * self.byte_time_ps\n"
            "    return lrh.vl, lrh.dlid, lrh.slid, packet.deth.src_qp, ser\n",
        )
        assert run_checker(ok).returncode == 0

    def test_cold_function_is_exempt(self, tmp_path):
        ok = write(
            tmp_path,
            "class HCA:\n"
            "    def _maybe_trap(self, packet):\n"
            "        return packet.src\n",
        )
        assert run_checker(ok).returncode == 0

    def test_other_objects_fields_pass(self, tmp_path):
        # Only a packet's properties are forbidden: a link's ``dst`` (its
        # receiver) or a config's ``vl`` is a plain attribute.
        ok = write(
            tmp_path,
            "def wire(self, link, cfg):\n"
            "    return link.dst, cfg.vl, self.src\n",
        )
        assert run_checker(ok).returncode == 0

    def test_defining_serialization_ps_passes(self, tmp_path):
        ok = write(
            tmp_path,
            "class Link:\n"
            "    def serialization_ps(self, packet):\n"
            "        return packet.wire_length * self.byte_time_ps\n",
        )
        assert run_checker(ok).returncode == 0
