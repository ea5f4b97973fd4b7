"""The simulator's one packet datapath.

Every packet is serialized, CRC'd and MAC'd from its fields (see
:mod:`repro.iba.packet`); there is no alternative datapath and no mode to
select one.  :func:`get_datapath` stays only because the benchmark's
mode check imports it.
"""

from __future__ import annotations


def get_datapath() -> str:
    """The datapath in use: always ``"fast"``."""
    return "fast"
