"""Management-datagram access control: the M_Key gate on a SubnSet() to the
Subnet Manager, the B_Key gate on a baseboard Set, and Table 3's executable
M_Key attack with a captured key."""

import pytest

from repro.core.threats import _management_forgery
from repro.iba.keys import BKey, MKey
from repro.iba.subnet_manager import SubnetManager
from repro.sim.engine import Engine


@pytest.fixture
def sm():
    return SubnetManager(Engine(), mkey=MKey(0xAAAA))


class TestMKeyGate:
    def test_set_without_mkey_rejected(self, sm):
        assert not sm.subn_set(None)

    def test_set_with_wrong_mkey_rejected(self, sm):
        assert not sm.subn_set(MKey(0x1111))

    def test_set_with_correct_mkey_succeeds(self, sm):
        assert sm.subn_set(MKey(0xAAAA))

    def test_unprotected_port_accepts_any_set(self):
        open_sm = SubnetManager(Engine())  # M_Key 0
        assert open_sm.subn_set(None)
        assert open_sm.subn_set(MKey(0x1111))


class TestBKeyGate:
    def test_baseboard_set_needs_bkey(self):
        gate = BKey(0xBBBB)
        assert not gate.permits(None)
        assert not gate.permits(BKey(0x1111))

    def test_baseboard_set_with_captured_bkey(self):
        """Table 3's B_Key row: the captured key opens the baseboard gate."""
        assert BKey(0xBBBB).permits(BKey(0xBBBB))


class TestMKeyAttackScenario:
    def test_captured_mkey_downs_port(self):
        """Stock IBA: the captured plaintext M_Key alone passes SubnSet()."""
        assert _management_forgery(protected=False)

    def test_without_key_attack_fails(self, sm):
        assert not sm.subn_set(None)
        assert not sm.subn_set(MKey(0x1234))
        # With the MAC mechanism the captured key is not enough: the forged
        # MAD also needs a tag under the management partition's secret.
        assert not _management_forgery(protected=True)
