"""Mutation rows: each perturbs one computed input of an identity and must
turn at least one check of its box to FAIL or make it raise
VerificationError, or the input is not load-bearing (DeMillo, Lipton and
Sayward, "Hints on test data selection", 1978).  A surviving row is a
defect, not a row to delete."""

import os
import re
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
from tame_llc.exactnum import TooLarge, VerificationError
from tame_llc.local_factors import gamma_at_zero_abs
from tame_llc.tame_galois import GAL_ID, GalElt, gal_elements


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


def _gauss_prime_phase_one(monkeypatch):
    # g_p/sqrt(p) taken as 1 in the odd-conductor tail, where it is i for
    # p = 3 mod 4: the field sum (-1)^{d-1} g_p^d p^{-d/2} read as
    # (-1)^{d-1}, at the binding _tail_phase reads
    monkeypatch.setattr(characters, "quadratic_gauss_phase",
                        lambda p, d: Fraction(d - 1, 2) % 1)


def _negate_model_lambda(monkeypatch):
    # -lambda(K/F), half a turn added, at the binding adjoint_root_number
    # reads; the negated fraction of a turn would be the conjugate, which
    # equals lambda whenever lambda = +-1
    model_lambda = llc_parameters.model_lambda
    monkeypatch.setattr(llc_parameters, "model_lambda",
                        lambda sys: (model_lambda(sys) + Fraction(1, 2)) % 1)


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
    # f added to the conductor a of the twist piece of the least gamma != 1,
    # its root number left as it is, at the binding adjoint_root_number reads
    induced_factor = llc_parameters.induced_factor

    def mutated(sys, gamma, lam):
        w, a = induced_factor(sys, gamma, lam)
        if gamma != min(g for g in gal_elements(sys.P) if g != GAL_ID):
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
        # PrincipalData keeps 1/L as integer coefficients over one scale
        scale = q ** sum(exps)
        return replace(data, coeffs=tuple(int(c * scale) for c in l_inv), scale=scale,
                       gamma0=gamma_at_zero_abs(q, data.a, l_inv), ad_eigen_exponents=exps)

    monkeypatch.setattr(conjectures, "principal_triple", mutated)


def _power_out_of_the_kernel(monkeypatch):
    # the image of N_0^0 = 1 under the degree-0 block of ad(N_0) with one
    # added to its first column, as one more entry in the first row of that
    # block gives (N_0^0 has first coordinate 1), so that N_0^0 no longer
    # lies in the block's kernel
    ad_degree = local_factors._ad_degree

    def mutated(d, v, *args):
        image, rank = ad_degree(d, v, *args)
        if d == 0:
            image[0] += 1
        return image, rank

    monkeypatch.setattr(local_factors, "_ad_degree", mutated)


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


def _f4_twisted_box():
    """The tuples (q, 2, 4, 1, r) of q <= 11, r in 4..6: t != 1 at f = 4,
    and at q = 9 also a = 2.  Of the 414 tuples with t != 1 in q <= 27,
    n <= 8, r in 4..6 and q_K <= 10^6, only those with (e, f, m) =
    (2, 4, 1) have a g(pi)/pi that moves when t^{p^{a(f-1)s}} is read as
    t^{p^s}; on the others the order of t divides the difference of the
    two exponents."""
    box = [P for P in valid_tuples([3, 5, 7, 9, 11], 8, [4, 5, 6])
           if (P.e, P.f, P.m) == (2, 4, 1)]
    assert len(box) == 15
    return box


def _rho_raises_t_to_p_s(monkeypatch):
    # g(pi)/pi = tau^k with each rho^s(t) read as t^{p^s}, not t^{p^{a(f-1)s}}
    def mutated(self, g):
        S = sum(self.P.p ** s for s in range(g.j))
        return (self.t_exp * S + self.zeta_exp * g.i) % (self.P.q_K - 1)

    monkeypatch.setattr(ring_model.Model, "pi_multiplier", mutated)


def _perturb_one_frobenius_entry(monkeypatch):
    # entry (0, 0) of the Frobenius matrix plus one, at the binding
    # adjoint_L's matrix route reads; at f = 1 the matrix is empty
    frobenius_matrix = llc_parameters.frobenius_matrix

    def mutated(f):
        m = frobenius_matrix(f)
        if m:
            m[0][0] += 1
        return m

    monkeypatch.setattr(llc_parameters, "frobenius_matrix", mutated)


def _drop_one_action(monkeypatch):
    # U-bar as the kernel of I + sum A_gamma with the first A_gamma left
    # out, at the binding CharacterSystem.__init__ reads
    kernel_of_norm = characters.kernel_of_norm

    def mutated(U, acts):
        return kernel_of_norm(U, {g: a for g, a in acts.items() if g != min(acts)})

    monkeypatch.setattr(characters, "kernel_of_norm", mutated)


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


def _drop_last_h_generator(monkeypatch):
    # H without its last Hermite row, at the binding theta reads
    congruence_subgroup = characters.CharacterSystem.congruence_subgroup
    monkeypatch.setattr(characters.CharacterSystem, "congruence_subgroup",
                        lambda self: congruence_subgroup(self)[:-1])


def _flip_eta_on_even_orders(monkeypatch):
    # eta o res with its parity flipped on each invariant generator h_k of
    # even order: times the character that is half a turn on every such
    # h_k, so still a character of U, wherever K/K_gamma is ramified
    chi_gamma = characters.CharacterSystem.chi_gamma

    def mutated(self, gamma):
        chi = chi_gamma(self, gamma)
        if gamma.j:
            return chi
        return replace(chi, exps=tuple((w + d // 2) % d if d % 2 == 0 else w
                                       for w, d in zip(chi.exps, chi.orders)))

    monkeypatch.setattr(characters.CharacterSystem, "chi_gamma", mutated)


def _transforms_modulo_q_k_minus_one(monkeypatch):
    # U's Smith transforms kept modulo q_K - 1, the order of tau, instead of
    # |U| = (q_K - 1) q_K^{N-1}, at the binding UnitGroupPresentation reads;
    # row 0 of the relations is (q_K - 1, 0, ..., 0)
    smith_normal_form = ring_model.smith_normal_form
    monkeypatch.setattr(ring_model, "smith_normal_form",
                        lambda rows, modulus: smith_normal_form(rows, rows[0][0]))


def _residue_log_plus_one(monkeypatch):
    # one added to every nonzero residue-field logarithm; a Teichmuller
    # digit of x, read for rho's matrix at f > 1, or of a dlog then leaves
    # a remainder that is not 0 mod p, or a unit that is not 1 mod pi
    residue_log = ring_model.Model.residue_log

    def mutated(self, x):
        k = residue_log(self, x)
        return k + 1 if k else k

    monkeypatch.setattr(ring_model.Model, "residue_log", mutated)


def _inv_one_newton_step_short(monkeypatch):
    # Model.inv's iterate from one step before x y = 1: y (2 - x y) from
    # the same start y = 1, stopped one step early
    def mutated(self, x):
        if any(a % self.P.p for a in self.sub(x, self.one())[:self.gr.d]):
            raise ValueError("not a one-unit")
        y = self.one()
        short = y
        while (xy := self.mul(x, y)) != self.one():
            short, y = y, self.mul(y, self.sub(self.from_int(2), xy))
        return short

    monkeypatch.setattr(ring_model.Model, "inv", mutated)


ROWS = {
    "gauss_sum: negate the tail constant":
        (_negate_tail_constant, _root_number_box, verify_root_number),
    "gauss_sum: flip eta": (_flip_eta, _root_number_box, verify_root_number),
    "gauss_sum: take g_p/sqrt(p) as 1 in the odd tail":
        (_gauss_prime_phase_one, _root_number_box, verify_root_number),
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
    # f >= 2 on 18 of the 34 tuples
    "frobenius_matrix: perturb one entry":
        (_perturb_one_frobenius_entry, _formal_degree_box, verify_formal_degree),
    "kernel_of_norm: drop one A_gamma":
        (_drop_one_action, _root_number_box, verify_root_number),
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
    "pi_multiplier: rho^s raises t to p^s, not p^{a(f-1)s}":
        (_rho_raises_t_to_p_s, _f4_twisted_box, verify_root_number),
    # |U| / p would survive: it is still a multiple of every order V and
    # V^{-1} are read by
    "UnitGroupPresentation: Smith transforms modulo q_K - 1":
        (_transforms_modulo_q_k_minus_one, _root_number_box, verify_root_number),
    "residue_log: add one to every nonzero answer":
        (_residue_log_plus_one, _root_number_box, verify_root_number),
    "CharacterSystem.theta: add one to one exponent":
        (_theta_exponent_plus_one, _root_number_box, verify_root_number),
    "congruence_subgroup: drop its last generator":
        (_drop_last_h_generator, _root_number_box, verify_root_number),
    "chi_gamma: flip eta on the generators of even order":
        (_flip_eta_on_even_orders, _root_number_box, verify_root_number),
    "Model.inv: one Newton step short":
        (_inv_one_newton_step_short, _root_number_box, verify_root_number),
}


def _status(verify, P):
    """The check's status, or the name of the error it raises.

    Only VerificationError, subclasses included, counts as killing a row: a
    failed claim, a pole of L(s, Ad phi) at s = 0 or 1, a trace that
    carries the cocycle and a conductor that asks for more p-adic precision
    than r gives among them.  TooLarge (a refused size) is recorded so that
    the rest of the box still runs, but kills nothing.
    """
    try:
        return verify(P).status
    except VerificationError:
        return "VerificationError"
    except TooLarge as ex:
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


def test_rho_raising_t_to_p_s_is_caught_by_the_homomorphism_check(monkeypatch):
    _rho_raises_t_to_p_s(monkeypatch)
    for P in _f4_twisted_box():
        with pytest.raises(VerificationError, match="action not a homomorphism"):
            verify_root_number(P)


def test_perturbed_piece_conductor_is_caught_by_the_conductor_sum(monkeypatch):
    _one_conductor_plus_f(monkeypatch)
    for P in _root_number_box():
        with pytest.raises(VerificationError, match="twist conductors add up to"):
            verify_root_number(P)


def test_perturbed_residue_log_is_caught_by_the_digit_check(monkeypatch):
    # at f > 1 the model reads the Teichmuller digits of x for rho's matrix
    # and dies there; at f = 1, where rho fixes the coefficients, the first
    # dlog's digit check does
    _residue_log_plus_one(monkeypatch)
    messages = {}
    for P in _root_number_box():
        with pytest.raises(VerificationError) as ex:
            verify_root_number(P)
        messages[P] = str(ex.value)
    teichmuller = [P for P, m in messages.items()
                   if m == "Teichmuller digit is not congruent mod p"]
    dlog = [P for P, m in messages.items()
            if re.fullmatch(r"dlog: level \d+ digit not divisible by p\^\d+", m)]
    assert len(teichmuller) == 22 and all(P.f > 1 for P in teichmuller)
    assert len(dlog) == 6 and all(P.f == 1 for P in dlog)


def test_perturbed_frobenius_matrix_fails_every_tuple_with_f_at_least_2(monkeypatch):
    # the matrix route reads M, not the closed form
    _perturb_one_frobenius_entry(monkeypatch)
    statuses = {P: verify_formal_degree(P).status for P in _formal_degree_box()}
    assert sum(P.f >= 2 for P in statuses) == 18
    assert all((status == "FAIL") == (P.f >= 2) for P, status in statuses.items())


def test_dropped_action_is_caught_on_the_norm_one_elements(monkeypatch):
    _drop_one_action(monkeypatch)
    for P in _root_number_box():
        with pytest.raises(characters.NotInSubgroup, match="element is not norm-one"):
            verify_root_number(P)


def test_transforms_modulo_q_k_minus_one_put_units_outside_their_subgroups(monkeypatch):
    _transforms_modulo_q_k_minus_one(monkeypatch)
    messages = []
    for P in _root_number_box():
        with pytest.raises(characters.NotInSubgroup) as ex:
            verify_root_number(P)
        messages.append(str(ex.value))
    assert sorted(set(messages)) == ["element is not norm-one", "x is not in 1 + p^l O_K"]
    assert messages.count("element is not norm-one") == 27, messages


def test_perturbed_theta_is_caught_on_h(monkeypatch):
    # at (3,2,2,0,4) no generator of H has a coordinate on the perturbed
    # generator, so theta still extends chi_beta there; on the other 27
    # tuples it does not
    _theta_exponent_plus_one(monkeypatch)
    messages = []
    for P in _root_number_box():
        try:
            verify_root_number(P)
        except VerificationError as ex:
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
    # each of the five raises of the centralizer certificate, with its message
    code = textwrap.dedent("""
        from tame_llc import local_factors
        from tame_llc.exactnum import VerificationError
        assert False, "asserts are on"

        def report(fn, *args):
            try:
                fn(*args)
            except VerificationError as ex:
                print(ex)

        # N_0 by the (column, entry) pairs of its rows
        N0 = [[(1, 1)], [(2, 1)], [(3, 1)], []]
        # N_0 + E_02: an image of ad(N_0) leaves degree d + 1
        report(local_factors._certify_centralizer, [[(1, 1), (2, 1)]] + N0[1:])
        # N_0 + 1: ad(N_0) is unchanged, but N_0^1 has a diagonal
        report(local_factors._certify_centralizer,
               [[(i, 1)] + row for i, row in enumerate(N0)])
        # 2 N_0: its powers lie in the kernel but are not primitive
        report(local_factors._certify_centralizer,
               [[(j, 2 * x) for j, x in row] for row in N0])

        ad_degree = local_factors._ad_degree
        # the image of N_0^0 with one added to its first column
        def off_the_kernel(d, v, *args):
            image, rank = ad_degree(d, v, *args)
            image[0] += d == 0
            return image, rank

        local_factors._ad_degree = off_the_kernel
        report(local_factors.principal_triple, 4, 3)
        # the rank bound of every block reported one too low
        def rank_one_low(*args):
            image, rank = ad_degree(*args)
            return image, rank - 1

        local_factors._ad_degree = rank_one_low
        report(local_factors.principal_triple, 4, 3)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == ("ad(N_0) sends E_3,0 outside degree -2\n"
                          "N_0^1 has an entry off its diagonal\n"
                          "N_0^1 is not primitive\n"
                          "N_0^0 is not in the kernel of ad(N_0)\n"
                          "regular nilpotent centralizer must have dimension n\n")


def _messages(box):
    """The VerificationError messages that verify_root_number raises on a box."""
    messages = []
    for P in box:
        try:
            verify_root_number(P)
        except VerificationError as ex:
            messages.append(str(ex))
    return messages


def test_dropped_h_generator_is_caught_by_the_conductor_sum(monkeypatch):
    # theta then extends chi_beta from a smaller subgroup, and its twists'
    # conductors no longer add up
    _drop_last_h_generator(monkeypatch)
    messages = _messages(_root_number_box())
    assert len(messages) == 12
    assert all(m.startswith("twist conductors add up to") for m in messages), messages


def test_eta_flipped_on_even_orders_is_caught_at_minus_one(monkeypatch):
    # the flipped chi_gamma is still a character of U, so the odd-order
    # check passes it; the check at -1 catches it where the flip moves
    # chi_gamma(-1), at q = 3 and 7 with e = 2, f = 1
    _flip_eta_on_even_orders(monkeypatch)
    messages = _messages(_root_number_box())
    assert len(messages) == 4
    assert all(re.match(r"chi-data character for .* at -1, not ", m) for m in messages), messages


def test_inverse_one_newton_step_short_is_caught_by_dlog(monkeypatch):
    # U's dlog divides out each digit below half level by a power of a
    # generator's inverse, and subtracts the digits above it.  An inverse
    # one Newton step short is wrong only from about half level on, so the
    # dlog still terminates, but on wrong coordinates: the Galois matrices,
    # and with them U-bar, are wrong, and a norm-one element falls outside
    _inv_one_newton_step_short(monkeypatch)
    messages = _messages(_root_number_box())
    assert messages == ["element is not norm-one"] * 28, messages
