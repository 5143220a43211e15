import pytest

from tame_llc.characters import CharacterSystem
from tame_llc.conjectures import root_number_supported, valid_tuples
from tame_llc.ring_model import build_model
from tame_llc.tame_galois import params_from_q


@pytest.fixture(scope="session")
def sys_ramified():
    """Character system for the ramified quadratic tuple (q=3, e=2, f=1, r=4)."""
    return CharacterSystem(build_model(params_from_q(3, 2, 1, 0, 4)))


@pytest.fixture(scope="session")
def sys_unramified():
    """Character system for the unramified quadratic tuple (q=3, e=1, f=2, r=3)."""
    return CharacterSystem(build_model(params_from_q(3, 1, 2, 0, 3)))


@pytest.fixture(scope="session")
def chi_data_heavy():
    """The benchmark's chi-data workload: the supported tuples of e = f = 2
    in q <= 7, n <= 4, r in 5..8, and (11, 2, 2, 1, 8)."""
    box = [P for P in valid_tuples([3, 5, 7], 4, range(5, 9))
           if (P.e, P.f) == (2, 2) and root_number_supported(P) is None]
    assert len(box) == 24
    return box + [params_from_q(11, 2, 2, 1, 8)]
