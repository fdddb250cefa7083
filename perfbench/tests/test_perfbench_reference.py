"""The host factor that corrects measured times for the host's speed."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402


def test_host_factor_is_reference_time_over_nominal():
    nominal = reference.REF_UNIT_S * 100
    assert reference.host_factor(nominal, nominal, nominal) == pytest.approx(1.0)
    assert reference.host_factor(2 * nominal, 2 * nominal, nominal) == pytest.approx(2.0)
    # a process between a slow and a fast timing gets their mean
    assert reference.host_factor(1.5 * nominal, 0.5 * nominal, nominal) == pytest.approx(1.0)


def test_corrected_time_cancels_a_uniform_slowdown():
    work, nominal = 4.0, reference.STARTUP_REF_S
    for slowdown in (0.7, 1.0, 1.3):
        factor = reference.host_factor(nominal * slowdown, nominal * slowdown, nominal)
        assert work * slowdown / factor == pytest.approx(work)


def test_references_do_fixed_work():
    assert reference._unit() == reference._unit()
    for threads in (1, 4):
        wall, cpu = reference.reference(4, threads)
        assert wall > 0.0 and cpu > 0.0
    assert reference.startup_reference() > 0.0
