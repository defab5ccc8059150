import pathlib
from typing import NamedTuple

import pytest

from thabound.channel import ChannelParams, decoy_state, single_photon
from thabound.cli import SWEEP_CSV_HEADER

DATA_DIR = pathlib.Path(__file__).parent / "data"

# Reference link used throughout: 0.2 dB/km fiber, 12.5% detection
# efficiency, 1% optical error, 1e-5 dark counts, f_EC = 1.2.
REFERENCE_CHANNEL = ChannelParams(alpha_db_per_km=0.2, eta_det=0.125,
                                  e_opt=0.01, p_dark=1e-5, f_ec=1.2)


@pytest.fixture
def channel():
    return REFERENCE_CHANNEL


@pytest.fixture
def sp_source():
    return single_photon()


@pytest.fixture
def decoy_source():
    return decoy_state(0.5)


class SweepRow(NamedTuple):
    length_km: float
    mu_out: float
    attack: str
    source: str
    rate: float


def read_sweep_csv(path) -> list[SweepRow]:
    """Re-parse a CSV written by the sweep subcommand."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise ValueError(f"{path}: not a sweep CSV (bad header)")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"{path}: bad row {line!r}")
        rows.append(SweepRow(float(fields[0]), float(fields[1]), fields[2],
                             fields[3], float(fields[4])))
    return rows
