"""Mutation rows: each perturbs one computed input of an identity and must
turn at least one check of its box to FAIL or make it raise
VerificationError, or the input is not load-bearing (DeMillo, Lipton and
Sayward, "Hints on test data selection", 1978).  A surviving row is a
defect, not a row to delete."""

import os
import subprocess
import sys
import textwrap

from dataclasses import replace
from fractions import Fraction

import pytest

from tame_llc import characters, conjectures, llc_parameters
from tame_llc.conjectures import (
    root_number_supported,
    valid_tuples,
    verify_formal_degree,
    verify_root_number,
)
from tame_llc.exactnum import VerificationError
from tame_llc.local_factors import gamma_at_zero_abs


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


def _negate_model_lambda(monkeypatch):
    # -lambda(K/F), at the binding adjoint_triple reads
    model_lambda = llc_parameters.model_lambda
    monkeypatch.setattr(llc_parameters, "model_lambda", lambda sys: -model_lambda(sys))


def _trivial_c_char(monkeypatch):
    # the chi-data sign character c replaced by the trivial character
    def trivial(self):
        return characters.MultCharacter(tuple(self.U.orders), (0,) * len(self.U.orders))

    monkeypatch.setattr(characters.CharacterSystem, "c_char", trivial)


def _conductor_plus_one(monkeypatch):
    # every twist's conductor one larger; induced_factor imports
    # conductor_bruteforce from characters on each call, so it sees the patch
    conductor_bruteforce = characters.conductor_bruteforce
    monkeypatch.setattr(characters, "conductor_bruteforce",
                        lambda sys, chi: conductor_bruteforce(sys, chi) + 1)


def _formal_degree_box():
    """The tuples of q <= 5, n <= 4, r in {2, 3}."""
    box = valid_tuples([3, 5], 4, [2, 3])
    assert len(box) == 34
    return box


def _drop_top_principal_exponent(monkeypatch):
    # gamma(0, Ad phi_0) without the factor (1 - q^{-(n-1)} u)^{-1} of its L
    principal_triple = conjectures.principal_triple

    def mutated(n, q):
        data = principal_triple(n, q)
        exps = data.ad_eigen_exponents[:-1]
        # 1/L = prod (1 - q^{-k} u) over the remaining exponents
        l_inv = (Fraction(1),)
        for k in exps:
            l_inv = tuple(c - Fraction(d, q ** k) for c, d in zip(l_inv + (0,), (0,) + l_inv))
        return replace(data, gamma0=gamma_at_zero_abs(q, data.triple.a, l_inv),
                       ad_eigen_exponents=exps)

    monkeypatch.setattr(conjectures, "principal_triple", mutated)


def _doubled(name):
    # twice the value of llc_parameters.<name>, the binding centralizer_order reads
    def perturb(monkeypatch):
        orig = getattr(llc_parameters, name)
        monkeypatch.setattr(llc_parameters, name, lambda P: 2 * orig(P))
    return perturb


ROWS = {
    "gauss_sum: negate the tail constant":
        (_negate_tail_constant, _root_number_box, verify_root_number),
    "gauss_sum: flip eta": (_flip_eta, _root_number_box, verify_root_number),
    "model_lambda: negate it":
        (_negate_model_lambda, _root_number_box, verify_root_number),
    "c_char: make it trivial":
        (_trivial_c_char, _root_number_box, verify_root_number),
    "conductor_bruteforce: add one":
        (_conductor_plus_one, _root_number_box, verify_root_number),
    "principal_triple: drop the top exponent":
        (_drop_top_principal_exponent, _formal_degree_box, verify_formal_degree),
    "norm_index: double it":
        (_doubled("norm_index"), _formal_degree_box, verify_formal_degree),
    "abelianization_order: double it":
        (_doubled("abelianization_order"), _formal_degree_box, verify_formal_degree),
}


def _status(verify, P):
    """The check's status, or the name of the error it raises.

    Only VerificationError counts as killing a row.  PrecisionTooLow (a
    perturbed conductor can ask for more p-adic precision than r gives) is
    recorded so that the rest of the box still runs, but kills nothing.
    """
    try:
        return verify(P).status
    except (VerificationError, characters.PrecisionTooLow) as ex:
        return type(ex).__name__


@pytest.mark.parametrize("row", sorted(ROWS))
def test_mutation_turns_a_check_to_fail(row, monkeypatch):
    perturb, box, verify = ROWS[row]
    tuples = box()
    perturb(monkeypatch)
    statuses = [_status(verify, P) for P in tuples]
    assert "FAIL" in statuses or "VerificationError" in statuses, row


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


def test_chi_data_parity_check_raises_under_python_O():
    code = textwrap.dedent("""
        from tame_llc import characters
        from tame_llc.conjectures import verify_root_number
        from tame_llc.exactnum import VerificationError
        from tame_llc.tame_galois import params_from_q
        assert False, "asserts are on"

        # chi_gamma(-1) read at 1 instead: trivial, where (q_K - 1)/2 is odd
        characters.CharacterSystem.minus_one_coords = lambda self: [0] * len(self.U.orders)
        try:
            verify_root_number(params_from_q(3, 2, 1, 0, 4))
        except VerificationError as ex:
            print(ex)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "chi-data character for GalElt(i=1, j=0) has value 0 at -1, not 1/2\n"


def test_principal_centralizer_checks_raise_under_python_O():
    code = textwrap.dedent("""
        from tame_llc import local_factors
        from tame_llc.exactnum import VerificationError
        assert False, "asserts are on"

        # N_0 + E_02: an image of ad(N_0) leaves degree d + 1
        N0 = [[1 if j == i + 1 or (i, j) == (0, 2) else 0 for j in range(4)]
              for i in range(4)]
        try:
            local_factors._ad_kernel_by_degree(N0)
        except VerificationError as ex:
            print(ex)

        # one block-kernel vector dropped
        left_kernel_basis = local_factors.left_kernel_basis

        def drop_one(rows):
            return left_kernel_basis(rows)[1:]

        local_factors.left_kernel_basis = drop_one
        try:
            local_factors.principal_triple(4, 3)
        except VerificationError as ex:
            print(ex)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == ("ad(N_0) sends E_3,0 outside degree -2\n"
                          "regular nilpotent centralizer must have dimension n\n")
