"""Mutation rows: each perturbs one computed input of an identity and must
turn at least one check of its box to FAIL, or the input is not
load-bearing (DeMillo, Lipton and Sayward, "Hints on test data
selection", 1978).  A surviving row is a defect, not a row to delete."""

import os
import subprocess
import sys
import textwrap

import pytest

from tame_llc import characters
from tame_llc.conjectures import root_number_supported, valid_tuples, verify_root_number


def _root_number_box():
    """The supported tuples of q <= 7, n <= 4, r in {3, 4}."""
    box = [P for P in valid_tuples([3, 5, 7], 4, [3, 4])
           if root_number_supported(P) is None]
    assert len(box) == 28
    return box


def _negate_tail_constant(monkeypatch):
    # zeta_p^{+l^T A^{-1} l / 4} in the odd-conductor Gauss tail
    complete_square = characters._complete_square

    def mutated(A, lin, p):
        det, const = complete_square(A, lin, p)
        return det, -const % p

    monkeypatch.setattr(characters, "_complete_square", mutated)


def _flip_eta(monkeypatch):
    # -eta(det A) in the odd-conductor Gauss tail
    legendre = characters._legendre
    monkeypatch.setattr(characters, "_legendre", lambda a, p: -legendre(a, p))


ROWS = {
    "gauss_sum: negate the tail constant": (_negate_tail_constant, _root_number_box),
    "gauss_sum: flip eta": (_flip_eta, _root_number_box),
}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_mutation_turns_a_check_to_fail(row, monkeypatch):
    perturb, box = ROWS[row]
    tuples = box()
    perturb(monkeypatch)
    statuses = [verify_root_number(P).status for P in tuples]
    assert "FAIL" in statuses, row


def test_degenerate_tail_form_raises_under_python_O():
    code = textwrap.dedent("""
        from tame_llc import characters
        from tame_llc.conjectures import verify_root_number
        from tame_llc.exactnum import VerificationError
        from tame_llc.tame_galois import params_from_q
        assert False, "asserts are on"
        tail_form = characters._tail_form

        def degenerate(*args):
            A, lin = tail_form(*args)
            return [[0] * len(row) for row in A], lin

        characters._tail_form = degenerate
        try:
            verify_root_number(params_from_q(3, 1, 2, 0, 3))
        except VerificationError as ex:
            print(ex)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "tail quadratic form is degenerate\n"
