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

from tame_llc import (
    characters,
    cli,
    conjectures,
    llc_parameters,
    local_factors,
    ring_model,
    tame_galois,
)
from tame_llc.conjectures import (
    root_number_supported,
    valid_tuples,
    verify_formal_degree,
    verify_root_number,
)
from tame_llc.exactnum import VerificationError
from tame_llc.local_factors import gamma_at_zero_abs
from tame_llc.tame_galois import GalElt


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


def _unnormalized_odd_tail(monkeypatch):
    # the odd-conductor tail without its q_K^{-1/2}, at the binding
    # _gauss_stationary reads
    unit_part = characters.unit_part
    monkeypatch.setattr(characters, "unit_part",
                        lambda total, k, q: unit_part(total, k - 1, q))


def _negate_model_lambda(monkeypatch):
    # -lambda(K/F), at the binding adjoint_root_number reads
    model_lambda = llc_parameters.model_lambda
    monkeypatch.setattr(llc_parameters, "model_lambda", lambda sys: -model_lambda(sys))


def _trivial_c_char(monkeypatch):
    # the chi-data sign character c replaced by the trivial character
    def trivial(self):
        return characters.MultCharacter(tuple(self.U.orders), (0,) * len(self.U.orders))

    monkeypatch.setattr(characters.CharacterSystem, "c_char", trivial)


def _flip_c_at_minus_one(monkeypatch):
    # vartheta = c * theta with 1/2 added at -1 and nowhere else: c(-1)
    # flipped, c left as it is on every other unit
    vartheta = characters.CharacterSystem.vartheta

    def mutated(self, w):
        fr = vartheta(self, w)
        if list(w) == self.minus_one_coords():
            fr = (fr + Fraction(1, 2)) % 1
        return fr

    monkeypatch.setattr(characters.CharacterSystem, "vartheta", mutated)


def _conductor_plus_one(monkeypatch):
    # every twist's conductor one larger; induced_factor imports
    # conductor_bruteforce from characters on each call, so it sees the patch
    conductor_bruteforce = characters.conductor_bruteforce
    monkeypatch.setattr(characters, "conductor_bruteforce",
                        lambda sys, chi: conductor_bruteforce(sys, chi) + 1)


def _one_conductor_plus_f(monkeypatch):
    # f added to the conductor a of the first twist piece, its root number
    # left as it is, at the binding adjoint_root_number reads
    induced_factor = llc_parameters.induced_factor

    def mutated(sys, gamma, lam):
        w, a = induced_factor(sys, gamma, lam)
        if gamma != llc_parameters.adjoint_decompose(sys.P).induced[0]:
            return w, a
        return w, a + sys.P.f

    monkeypatch.setattr(llc_parameters, "induced_factor", mutated)


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
        return replace(data, l_inv=l_inv, gamma0=gamma_at_zero_abs(q, data.a, l_inv),
                       ad_eigen_exponents=exps)

    monkeypatch.setattr(conjectures, "principal_triple", mutated)


def _power_out_of_the_kernel(monkeypatch):
    # ad(N_0) with one more entry in the first row of its degree-0 block,
    # so that N_0^0 = 1 no longer lies in the block's kernel
    ad_blocks = local_factors._ad_blocks

    def mutated(N0):
        blocks = ad_blocks(N0)
        blocks[0][0][0] += 1
        return blocks

    monkeypatch.setattr(local_factors, "_ad_blocks", mutated)


def _doubled(name):
    # twice the value of llc_parameters.<name>, the binding centralizer_order reads
    def perturb(monkeypatch):
        orig = getattr(llc_parameters, name)
        monkeypatch.setattr(llc_parameters, name, lambda P: 2 * orig(P))
    return perturb


def _l_top_coefficient_plus_one(module, route):
    # one route of L(s, Ad phi) with 1 added to its top coefficient, at the
    # binding of adjoint_L that module reads
    def perturb(monkeypatch):
        adjoint_L = module.adjoint_L

        def mutated(P, method="closed"):
            l_inv = adjoint_L(P, method)
            if method == route:
                l_inv = l_inv[:-1] + (l_inv[-1] + 1,)
            return l_inv

        monkeypatch.setattr(module, "adjoint_L", mutated)
    return perturb


def _factors_adjoint_L(P):
    """The adjoint_L check of `factors`, the one check that compares the
    closed and decomposition routes."""
    return next(c for c in cli._factors_report(P).checks if c.name == "adjoint_L")


def _conductor_sum_plus_two(monkeypatch):
    # the filtration conductor two larger, at the binding adjoint_conductor reads
    weighted_conductor_sum = llc_parameters.weighted_conductor_sum
    monkeypatch.setattr(llc_parameters, "weighted_conductor_sum",
                        lambda P: weighted_conductor_sum(P) + 2)


def _nonabelian_box():
    """The tuples of q <= 7, n <= 8, r = 2 whose e does not divide q - 1."""
    box = [P for P in valid_tuples([3, 5, 7], 8, [2]) if (P.q - 1) % P.e]
    assert len(box) == 5
    return box


def _forget_the_twist(monkeypatch):
    # rho delta rho^{-1} = delta instead of delta^l, at the binding
    # commutator_subgroup reads
    def mutated(g1, g2, P):
        j = g1.j + g2.j
        carry = P.m if j >= P.f else 0
        return GalElt((g1.i + g2.i + carry) % P.e, j % P.f)

    monkeypatch.setattr(tame_galois, "gal_mul", mutated)


def _ramified_root_number_box():
    """The tuples of the root-number box with e >= 2, where pi^e folds
    into c p."""
    box = [P for P in _root_number_box() if P.e >= 2]
    assert len(box) == 12
    return box


def _perturb_one_cp_image(monkeypatch):
    # the fold table's image of pi^e, c p, plus one in its constant
    # coefficient, at the binding Model.__post_init__ reads
    fold_images = ring_model._fold_images

    def mutated(gr, e, cp):
        images = fold_images(gr, e, cp)
        if e >= 2:
            img = images[e][0]
            images[e][0] = ((img[0] + 1) % gr.mod,) + img[1:]
        return images

    monkeypatch.setattr(ring_model, "_fold_images", mutated)


def _perturb_one_galois_matrix_entry(monkeypatch):
    # entry (0, 0) of the matrix of delta plus one
    galois_matrix = ring_model.Model._galois_matrix

    def mutated(self, g):
        mat = galois_matrix(self, g)
        if g == GalElt(1 % self.P.e, 0):
            mat[0][0] += 1
        return mat

    monkeypatch.setattr(ring_model.Model, "_galois_matrix", mutated)


def _theta_exponent_plus_one(monkeypatch):
    # theta with one added to its exponent on the first generator of U-bar
    # of order > 1
    theta = characters.CharacterSystem.theta.fget

    def mutated(self):
        chi = theta(self)
        k = next((i for i, d in enumerate(chi.orders) if d > 1), None)
        if k is None:
            return chi
        exps = list(chi.exps)
        exps[k] = (exps[k] + 1) % chi.orders[k]
        return replace(chi, exps=tuple(exps))

    monkeypatch.setattr(characters.CharacterSystem, "theta", property(mutated))


ROWS = {
    "gauss_sum: negate the tail constant":
        (_negate_tail_constant, _root_number_box, verify_root_number),
    "gauss_sum: flip eta": (_flip_eta, _root_number_box, verify_root_number),
    "gauss_sum: leave the odd tail unnormalized":
        (_unnormalized_odd_tail, _root_number_box, verify_root_number),
    "model_lambda: negate it":
        (_negate_model_lambda, _root_number_box, verify_root_number),
    "c_char: make it trivial":
        (_trivial_c_char, _root_number_box, verify_root_number),
    "c_char: flip its value at -1 only":
        (_flip_c_at_minus_one, _root_number_box, verify_root_number),
    "conductor_bruteforce: add one":
        (_conductor_plus_one, _root_number_box, verify_root_number),
    "induced_factor: add f to one piece's conductor":
        (_one_conductor_plus_f, _root_number_box, verify_root_number),
    "principal_triple: drop the top exponent":
        (_drop_top_principal_exponent, _formal_degree_box, verify_formal_degree),
    "principal_triple: move N_0^0 out of the kernel":
        (_power_out_of_the_kernel, _formal_degree_box, verify_formal_degree),
    "norm_index: double it":
        (_doubled("norm_index"), _formal_degree_box, verify_formal_degree),
    "abelianization_order: double it":
        (_doubled("abelianization_order"), _formal_degree_box, verify_formal_degree),
    # the matrix route at the binding adjoint_gamma0_abs reads; at f = 1 its
    # L-factor is the constant 1, and doubling it leaves |gamma(0)| as it is
    "adjoint_L: add one to the matrix route's top coefficient":
        (_l_top_coefficient_plus_one(llc_parameters, "matrix"), _formal_degree_box,
         verify_formal_degree),
    # the closed and decomposition routes at the binding _factors_report reads
    "adjoint_L: add one to the closed route's top coefficient":
        (_l_top_coefficient_plus_one(cli, "closed"), _formal_degree_box,
         _factors_adjoint_L),
    "adjoint_L: add one to the decomposition route's top coefficient":
        (_l_top_coefficient_plus_one(cli, "decomposition"), _formal_degree_box,
         _factors_adjoint_L),
    "weighted_conductor_sum: add two":
        (_conductor_sum_plus_two, _formal_degree_box, verify_formal_degree),
    "weighted_conductor_sum: add two, against the twist conductors":
        (_conductor_sum_plus_two, _root_number_box, verify_root_number),
    "gal_mul: forget the twist rho delta rho^-1 = delta^l":
        (_forget_the_twist, _nonabelian_box, verify_formal_degree),
    "fold: perturb one c p image":
        (_perturb_one_cp_image, _ramified_root_number_box, verify_root_number),
    "Galois matrix: perturb one entry":
        (_perturb_one_galois_matrix_entry, _root_number_box, verify_root_number),
    "CharacterSystem.theta: add one to one exponent":
        (_theta_exponent_plus_one, _root_number_box, verify_root_number),
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


# Rows that survive their box today, each a known defect: the mark is
# strict, so a row that starts to kill fails until it leaves this table.
SURVIVORS = {}


@pytest.mark.parametrize("row", [
    pytest.param(row, marks=pytest.mark.xfail(strict=True, reason=SURVIVORS[row]))
    if row in SURVIVORS else row
    for row in sorted(ROWS)
])
def test_mutation_turns_a_check_to_fail(row, monkeypatch):
    perturb, box, verify = ROWS[row]
    tuples = box()
    perturb(monkeypatch)
    statuses = [_status(verify, P) for P in tuples]
    assert "FAIL" in statuses or "VerificationError" in statuses, row


def test_perturbed_fold_is_caught_by_the_pi_e_check(monkeypatch):
    _perturb_one_cp_image(monkeypatch)
    for P in _ramified_root_number_box():
        with pytest.raises(VerificationError, match=r"pi\^e is not c p"):
            verify_root_number(P)


def test_perturbed_galois_matrix_is_caught_by_the_homomorphism_check(monkeypatch):
    _perturb_one_galois_matrix_entry(monkeypatch)
    for P in _root_number_box():
        with pytest.raises(VerificationError, match="action not a homomorphism"):
            verify_root_number(P)


def test_perturbed_piece_conductor_is_caught_by_the_conductor_sum(monkeypatch):
    _one_conductor_plus_f(monkeypatch)
    for P in _root_number_box():
        with pytest.raises(VerificationError, match="twist conductors add up to"):
            verify_root_number(P)


def test_perturbed_theta_is_caught_on_h(monkeypatch):
    # at (3,2,2,0,4) no generator of H has a coordinate on the perturbed
    # generator, so theta still extends chi_beta there; on the other 27
    # tuples it does not
    _theta_exponent_plus_one(monkeypatch)
    messages = []
    for P in _root_number_box():
        try:
            verify_root_number(P)
        except (VerificationError, characters.PrecisionTooLow) as ex:
            messages.append(str(ex))
    assert messages.count("theta does not extend chi_beta on H") == 27, messages


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
            local_factors._ad_blocks(N0)
        except VerificationError as ex:
            print(ex)

        # the rank bound of every block reported one too low
        rank_lower_bound = local_factors._rank_lower_bound
        local_factors._rank_lower_bound = lambda rows: rank_lower_bound(rows) - 1
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
