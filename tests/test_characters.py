"""theta and its extensions, chi-data signs, conductors and Gauss sums,
all on the explicit ring models."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import lcm

import pytest

from tame_llc import characters
from tame_llc.characters import (
    LITERAL_GAUSS_THRESHOLD,
    CharacterSystem,
    MultCharacter,
    _closed_tail,
    _critical_point,
    _psi_K_data,
    _tail_phase,
    _values_below,
    chi_beta_fraction,
    conductor_bruteforce,
    gauss_sum,
    gauss_sum_literal,
    regularity_check,
)
from tame_llc.conjectures import root_number_supported, valid_tuples, verify_root_number
from tame_llc.exactnum import (
    Cyclotomic,
    VerificationError,
    quadratic_gauss_phase,
    quadratic_gauss_sum_field,
    quadratic_gauss_sum_prime,
    unit_part,
)
from tame_llc.intlinalg import (
    SubgroupPresentation,
    extend_character,
    intersect_subgroups,
    kernel_subgroup,
)
from tame_llc.llc_parameters import twist_conductor_predicted
from tame_llc.ring_model import (
    GaloisRing,
    TooLarge,
    UnitGroupPresentation,
    build_model,
    find_beta,
    residue_generator,
)
from tame_llc.tame_galois import GAL_ID, gal_elements, order_two_set, params_from_q

from test_exactnum import turn_value


def _systems(sys_ramified, sys_unramified):
    return [sys_ramified, sys_unramified]


def _theta_at(sys, x):
    return sys.theta.value_on_coords(sys.ubar_coords(sys.U.dlog(x)))


def test_theta_extends_chi_beta(sys_ramified, sys_unramified):
    for sys in (sys_ramified, sys_unramified):
        M = sys.M
        for b in sys.congruence_subgroup():
            elt = sys.U.element_from_coords(list(b))
            fr = chi_beta_fraction(M, sys.beta, elt)
            assert _theta_at(sys, elt) == Cyclotomic.root_of_unity(fr.denominator, fr.numerator)


@pytest.mark.parametrize("tup", [(3, 1, 2, 0, 3), (3, 2, 1, 0, 4), (7, 3, 1, 0, 4)])
def test_chi_beta_is_defined_from_pi_to_the_el_on(tup):
    # 1 + p^l O_K = 1 + pi^{el} R: the boundary sits between pi^{el - 1} and pi^{el}
    M = build_model(params_from_q(*tup))
    beta = find_beta(M)
    el = M.e * M.P.level_l
    with pytest.raises(characters.NotInSubgroup, match=r"x is not in 1 \+ p\^l O_K"):
        chi_beta_fraction(M, beta, M.add(M.one(), M.pow(M.pi(), el - 1)))
    fr = chi_beta_fraction(M, beta, M.add(M.one(), M.pow(M.pi(), el)))
    assert isinstance(fr, Fraction) and 0 <= fr < 1


def _smith_basis(orders, rows, rng):
    """The subgroup's invariant-factor basis, the generators it had before."""
    return SubgroupPresentation(orders, rows).basis


def _reshuffled(orders, rows, rng):
    """The rows permuted, with the sum of two of them appended."""
    rows = rng.sample(rows, len(rows))
    if len(rows) >= 2:
        i, j = rng.sample(range(len(rows)), 2)
        rows.append([(a + b) % d for a, b, d in zip(rows[i], rows[j], orders)])
    return rows


def test_theta_and_c_do_not_depend_on_the_generators_of_h(monkeypatch):
    # extend_character is canonical for the subgroup it is given, so H may
    # be given by any generating set: its Hermite rows, its Smith basis, or
    # the rows reshuffled.  Only U's and U-bar's bases reach theta, and c
    # reads no subgroup at all
    box = [P for P in valid_tuples([3, 5, 7], 4, [3, 4]) if root_number_supported(P) is None]
    assert len(box) == 28
    rng = random.Random(0)
    changed = {_smith_basis: 0, _reshuffled: 0}
    for P in box:
        M = build_model(P)
        sys = CharacterSystem(M)
        expected = (sys.theta.exps, sys.c_char().exps)
        for generators in changed:
            differs = []

            def regenerated(route):
                def rows(orders, *args):
                    hermite = route(orders, *args)
                    out = generators(orders, hermite, rng)
                    differs.append(out != hermite)
                    return out
                return rows

            with monkeypatch.context() as m:
                m.setattr(characters, "intersect_subgroups", regenerated(intersect_subgroups))
                other = CharacterSystem(M)
                assert (other.theta.exps, other.c_char().exps) == expected, (
                    P, generators.__name__)
            changed[generators] += any(differs)
    # the other generating sets differ from the Hermite rows on most tuples
    assert min(changed.values()) > len(box) // 2, changed


@pytest.mark.parametrize("tup", [(3, 1, 4, 0, 3), (3, 2, 2, 0, 4)])
def test_root_number_builds_each_level_once(tup, monkeypatch):
    # every twist is read on U's own generators, whatever its level: at
    # e = 1 the Gauss sums sit at level e r, at (3, 2, 2, 0, 4) below it.
    # So the request builds one presentation, U at level e r
    P = params_from_q(*tup)
    built = []
    init = UnitGroupPresentation.__init__

    def counted(self, M, N):
        built.append(N)
        init(self, M, N)

    monkeypatch.setattr(UnitGroupPresentation, "__init__", counted)
    assert verify_root_number(P).status == "OK"
    assert built == [P.e * P.r]


@pytest.mark.parametrize("tup", [(5, 2, 1, 1, 4), (5, 1, 2, 0, 3)])
def test_root_number_reads_each_action_once(tup, monkeypatch):
    # the twists of these tuples are small enough for the literal Gauss
    # sum, which the root-number path must not take; and each Galois action
    # gamma != 1 is read once, as A_gamma, when the system is built: the norm
    # kernel, the chi-data and the twists all read that one matrix
    P = params_from_q(*tup)
    reads = []
    act = UnitGroupPresentation.act_matrix

    def counted(self, gamma):
        reads.append(gamma)
        return act(self, gamma)

    def refused(self, k):
        raise RuntimeError("unit-group enumeration on the root-number path")

    monkeypatch.setattr(UnitGroupPresentation, "act_matrix", counted)
    monkeypatch.setattr(UnitGroupPresentation, "enumerate", refused)
    assert verify_root_number(P).status == "OK"
    assert sorted(reads) == sorted(g for g in gal_elements(P) if g != GAL_ID)


def test_theta_is_multiplicative_on_norm_one_units(sys_ramified):
    sys = sys_ramified
    M = sys.M
    xs = [sys.U.element_from_coords(list(b)) for b in sys.Ubar.basis[:3]]
    for x in xs:
        for y in xs:
            assert _theta_at(sys, M.mul(x, y)) == _theta_at(sys, x) * _theta_at(sys, y)


def test_character_is_regular(sys_ramified, sys_unramified):
    for sys in (sys_ramified, sys_unramified):
        assert regularity_check(sys, sys.theta_tilde)


def test_residue_parity_on_coordinates(sys_ramified, sys_unramified):
    # the chi-data reads the parity of residue_log on U coordinates off
    # U.tau_exps; the element itself, built by element_from_coords, is the
    # oracle
    for sys in (sys_ramified, sys_unramified):
        U, M = sys.U, sys.M
        parities = [t % 2 for t in U.tau_exps]
        for w in [*map(list, sys.Ubar.basis), sys.minus_one_coords(),
                  *(c for c in U.gen_coords if any(c))]:
            assert (sum(a * b for a, b in zip(w, parities)) % 2
                    == M.residue_log(U.element_from_coords(w)) % 2), w


def test_minus_one_coords_are_the_dlog_of_minus_one():
    # read as tau^{(q_K - 1)/2} through U.tau_coords; the dlog of -1 is the
    # oracle, on the root-number box
    box = [P for P in valid_tuples([3, 5, 7], 4, [3, 4]) if root_number_supported(P) is None]
    assert len(box) == 28
    for P in box:
        sys = CharacterSystem(build_model(P))
        M = sys.M
        assert sys.minus_one_coords() == sys.U.dlog(M.sub(M.zero(), M.one())), P


def test_chi_data_sign_value_at_minus_one(sys_ramified, sys_unramified):
    """c = prod chi_gamma^{-1}, and each chi_gamma(-1) is the closed parity
    of (q_K - 1)/2 in the ramified case and trivial in the unramified case
    (c_char raises otherwise), so c(-1) is the product of those signs."""
    for sys in (sys_ramified, sys_unramified):
        o2 = order_two_set(sys.P)
        sign = (-1) ** ((sys.P.q_K - 1) // 2 * sum(g.j == 0 for g in o2 - {GAL_ID}))
        c = sys.c_char().value_on_coords(sys.minus_one_coords())
        assert c == Cyclotomic.from_rational(sign)


def test_odd_tau_exponent_on_an_odd_order_raises(sys_ramified):
    # eta o res is half a turn on h_k of odd tau-exponent, which is no
    # character value when h_k has odd order: tau_exps one larger put an odd
    # exponent on U's odd p-part
    sys = CharacterSystem(sys_ramified.M)
    assert any(d % 2 for d in sys.U.orders)
    sys.U.tau_exps = [t + 1 for t in sys.U.tau_exps]
    with pytest.raises(VerificationError, match="odd tau-exponent on an odd order"):
        sys.c_char()


def _chi_data_heavy():
    """The benchmark's chi-data workload: the supported tuples of e = f = 2
    in q <= 7, n <= 4, r in 5..8, and (11, 2, 2, 1, 8)."""
    box = [P for P in valid_tuples([3, 5, 7], 4, range(5, 9))
           if (P.e, P.f) == (2, 2) and root_number_supported(P) is None]
    assert len(box) == 24
    return box + [params_from_q(11, 2, 2, 1, 8)]


def _fixed_group_chi_gamma(sys, gamma):
    """chi_gamma by extension from the fixed group, an oracle for eta o res:
    the quadratic character of the residue field on the fixed group
    U^gamma = ker(A_gamma - I) when K/K_gamma is ramified, trivial there
    when it is not, and trivial on the generators of 1 + pi^2, extended to U
    by extend_character.  The residue parity of each fixed generator is read
    off the element itself.  Returns the character and the rows it was
    prescribed on."""
    U, M = sys.U, sys.M
    orders = list(U.orders)
    fixed = kernel_subgroup(orders, [
        [(a - (i == j)) % d for j, (a, d) in enumerate(zip(row, orders))]
        for i, row in enumerate(sys.acts[gamma])], orders)
    level2 = [c for c, i in zip(U.gen_coords, U.levels) if i >= 2]
    fracs = [Fraction(M.residue_log(U.element_from_coords(b)) % 2 * (gamma.j == 0), 2)
             for b in fixed] + [Fraction(0)] * len(level2)
    exps = extend_character(orders, fixed + level2, fracs)
    return MultCharacter(tuple(orders), tuple(exps)), fixed + level2


def _fixed_group_c_char(sys):
    """c = prod chi_gamma^{-1} over the extensions of _fixed_group_chi_gamma."""
    total = [0] * len(sys.U.orders)
    for gamma in sorted(order_two_set(sys.P) - {GAL_ID}):
        chi, _ = _fixed_group_chi_gamma(sys, gamma)
        total = [(t - a) % d for t, a, d in zip(total, chi.exps, chi.orders)]
    return MultCharacter(tuple(sys.U.orders), tuple(total))


def test_closed_chi_data_matches_the_fixed_group_extensions(monkeypatch):
    # eta o res against the extension of the fixed groups, on the
    # root-number box and the chi-data workload: each chi_gamma agrees on
    # U^gamma (1 + pi^2), the rows the extension was prescribed on; c(-1)
    # agrees; and the root-number report does not change with the oracle's
    # c, though c itself may differ off those rows
    box = [P for P in valid_tuples([3, 5, 7], 4, [3, 4]) if root_number_supported(P) is None]
    assert len(box) == 28
    reports = {}
    for P in box + _chi_data_heavy():
        sys = CharacterSystem(build_model(P))
        for gamma in sorted(order_two_set(P) - {GAL_ID}):
            oracle, rows = _fixed_group_chi_gamma(sys, gamma)
            closed = sys.chi_gamma(gamma)
            assert ([closed.fraction_on_coords(b) for b in rows]
                    == [oracle.fraction_on_coords(b) for b in rows]), (P, gamma)
        minus_one = sys.minus_one_coords()
        assert (sys.c_char().fraction_on_coords(minus_one)
                == _fixed_group_c_char(sys).fraction_on_coords(minus_one)), P
        reports[P] = verify_root_number(P)
    with monkeypatch.context() as m:
        m.setattr(CharacterSystem, "c_char", _fixed_group_c_char)
        assert {P: verify_root_number(P) for P in reports} == reports


@pytest.mark.parametrize("tup", [(3, 2, 1, 0, 4), (3, 1, 2, 0, 2),
                                 (3, 1, 2, 0, 3), (5, 2, 1, 1, 4)])
def test_twist_conductors_match_prediction(tup):
    P = params_from_q(*tup)
    assert P.supercuspidal_ok  # the break prediction needs l' >= 2(e-1)
    sys = CharacterSystem(build_model(P))
    o2 = order_two_set(P)
    for gamma in sorted(o2):
        if gamma == GAL_ID:
            continue
        tw = sys.theta_tilde_twist(gamma)
        assert conductor_bruteforce(sys, tw) == twist_conductor_predicted(P, gamma)


def test_chi_data_hnf_entries_stay_small(monkeypatch):
    # c is read off U's tau-exponents, so building it takes no Hermite form
    # at all, on the tuples whose fixed-group extensions (the oracle above)
    # take the largest ones
    from tame_llc import intlinalg

    def refused(rows, moduli):
        raise AssertionError("the chi-data takes a Hermite form")

    for tup in [(9, 2, 2, 0, 4), (3, 2, 2, 0, 8), (11, 2, 2, 1, 8)]:
        sys = CharacterSystem(build_model(params_from_q(*tup)))
        with monkeypatch.context() as m:
            m.setattr(intlinalg, "hnf_mod", refused)
            assert any(sys.c_char().exps), tup


def test_gauss_sum_methods_agree():
    # stationary phase against the literal oracle on every twist of the
    # supported box the oracle can sum.  Twists are picked by their
    # predicted conductor, so that only their tuples are built; the
    # prediction is checked on each of them here and on the whole smaller
    # box by test_twist_conductor_breaks.
    tuples, twists = set(), 0
    for P in valid_tuples([3, 5, 7, 9, 11, 13], 6, range(3, 9)):
        if root_number_supported(P) is not None:
            continue
        cs = None
        for gamma in sorted(gal_elements(P)):
            k = twist_conductor_predicted(P, gamma)
            if gamma == GAL_ID or (P.q_K - 1) * P.q_K ** (k - 1) > LITERAL_GAUSS_THRESHOLD:
                continue
            cs = cs or CharacterSystem(build_model(P))
            tw = cs.theta_tilde_twist(gamma)
            assert conductor_bruteforce(cs, tw) == k, (P, gamma)
            assert gauss_sum_literal(cs, tw, k) == turn_value(gauss_sum(cs, tw, k)), (P, gamma)
            with pytest.raises(VerificationError):
                gauss_sum(cs, tw, 1)
            # conductor at most 1 leaves stationary phase no critical point
            with pytest.raises(VerificationError, match="at least 2"):
                gauss_sum(cs, MultCharacter(tuple(cs.U.orders), (0,) * len(cs.U.orders)), 1)
            with pytest.raises(TooLarge):
                gauss_sum_literal(cs, tw, k + 4)
            tuples.add((P.q, P.e, P.f, P.m, P.r))
            twists += 1
    assert (len(tuples), twists) == (9, 9)


def _literal_tail(cs, chi, psi, lev, b, l1):
    """The odd-conductor tail of stationary phase term by term: the sum of
    psi_K-shift(b w pi^{l1}) chi^{-1}(1 + w pi^{l1}) over the Teichmuller
    residues w, one dlog each, at the order N its terms live at."""
    M, P = cs.M, cs.P
    pi_l1 = M.pow(M.pi(), l1)
    plev = P.p ** lev
    N = lcm(plev, *(list(chi.orders) + [2]))
    wts = [w * (N // d) for w, d in zip(chi.exps, chi.orders)]
    residues = [M.zero()]
    tau_j = M.gr.one
    for _ in range(P.q_K - 1):
        residues.append(M.from_gr(tau_j))
        tau_j = M.gr.mul(tau_j, M.tau)
    terms = {}
    for w in residues:
        coords = cs.U.dlog(M.add(M.one(), M.mul(w, pi_l1)))
        key = (psi(M.mul(M.mul(b, w), pi_l1)) * (N // plev)
               - sum(a * c for a, c in zip(wts, coords))) % N
        terms[key] = terms.get(key, 0) + 1
    return Cyclotomic(N, {key: Fraction(v) for key, v in terms.items()})


def test_closed_tail_matches_literal_tail():
    # every odd-conductor twist of the supported box with q_K <= 81: the
    # closed phase of the tail against the literal O(q_K) tail over sqrt(q_K)
    tuples, twists = set(), 0
    for P in valid_tuples([3, 5, 7, 9, 11, 13], 6, range(3, 9)):
        if root_number_supported(P) is not None or P.q_K > 81:
            continue
        cs = None
        for gamma in sorted(gal_elements(P)):
            k = twist_conductor_predicted(P, gamma)
            if gamma == GAL_ID or k % 2 == 0:
                continue
            cs = cs or CharacterSystem(build_model(P))
            tw = cs.theta_tilde_twist(gamma)
            assert conductor_bruteforce(cs, tw) == k, (P, gamma)
            lev, psi = _psi_K_data(cs.M, k)
            l1 = k // 2
            b = _critical_point(cs, _values_below(cs, tw, k), psi, lev, l1, l1 + 1, k)
            literal = _literal_tail(cs, tw, psi, lev, b, l1)
            assert (turn_value(_closed_tail(cs, tw, psi, lev, b, l1))
                    == unit_part(literal, 1, P.q_K)), (P, gamma)
            tuples.add((P.q, P.e, P.f, P.m, P.r))
            twists += 1
    assert (len(tuples), twists) == (65, 121)


def test_gauss_sum_below_the_conductor_raises(sys_ramified, sys_unramified):
    # a twist of conductor k is no character of (R/pi^{k-1})^x
    checked = 0
    for cs in (sys_ramified, sys_unramified):
        for gamma in sorted(order_two_set(cs.P)):
            if gamma == GAL_ID:
                continue
            tw = cs.theta_tilde_twist(gamma)
            k = conductor_bruteforce(cs, tw)
            assert k >= 2
            with pytest.raises(VerificationError, match="factor through level"):
                gauss_sum(cs, tw, k - 1)
            checked += 1
    assert checked == 2


def test_critical_point_raises_when_it_is_not_unique(sys_ramified, sys_unramified):
    # matching only the one-units 1 + v of levels >= ceil(k/2) + 1 fixes b
    # modulo pi^{l1 - 1} alone, so b + pi^{l1 - 1} u is a critical point
    # for every residue u: q_K of them mod pi^{l1}
    checked = 0
    for cs in (sys_ramified, sys_unramified):
        for gamma in sorted(order_two_set(cs.P)):
            if gamma == GAL_ID:
                continue
            tw = cs.theta_tilde_twist(gamma)
            k = conductor_bruteforce(cs, tw)
            lev, psi = _psi_K_data(cs.M, k)
            vals = _values_below(cs, tw, k)
            l2 = -(-k // 2)
            # at the stationary-phase levels the critical point is unique
            assert cs.M.is_unit(_critical_point(cs, vals, psi, lev, k - l2, l2, k))
            with pytest.raises(VerificationError, match="more than one critical point"):
                _critical_point(cs, vals, psi, lev, k - l2, l2 + 1, k)
            checked += 1
    assert checked == 2


def test_level_check_survives_python_O():
    code = textwrap.dedent("""
        from tame_llc.characters import CharacterSystem, conductor_bruteforce, gauss_sum
        from tame_llc.exactnum import VerificationError
        from tame_llc.ring_model import build_model
        from tame_llc.tame_galois import GAL_ID, order_two_set, params_from_q
        assert False, "asserts are on"
        P = params_from_q(3, 2, 1, 0, 4)
        cs = CharacterSystem(build_model(P))
        gamma = next(g for g in sorted(order_two_set(P)) if g != GAL_ID)
        tw = cs.theta_tilde_twist(gamma)
        k = conductor_bruteforce(cs, tw)
        try:
            gauss_sum(cs, tw, k - 1)
        except VerificationError:
            print("raised")
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised\n"


def test_gauss_sum_at_conductor_zero_is_one(sys_ramified):
    sys = sys_ramified
    triv = MultCharacter(tuple(sys.U.orders), (0,) * len(sys.U.orders))
    assert turn_value(gauss_sum(sys, triv, 0)) == Cyclotomic.one()


def _quadratic_gauss_sum_literal(p, d):
    """Normalized sum of eta(t) psi(t) over t in F_{p^d}^x, term by term:
    eta(gen^j) = (-1)^j and psi(t) = zeta_p^{Tr t}."""
    gf = GaloisRing(p, 1, d)
    gen = residue_generator(gf)
    buckets = {}
    N = lcm(2, p)
    cur = gf.one
    for j in range(p ** d - 1):
        fr = Fraction(j % 2, 2) + Fraction(gf.trace_abs(cur) % p, p)
        key = int((fr % 1) * N)
        buckets[key] = buckets.get(key, 0) + 1
        cur = gf.mul(cur, gen)
    total = Cyclotomic(N, {key: Fraction(v) for key, v in buckets.items()})
    return unit_part(total, 1, p ** d)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_closed_phases_match_the_cyclotomic_oracles(p):
    # the phase of the odd tail eta zeta_p^c g_p^d p^{-d/2}, and of the
    # normalized quadratic Gauss sum of F_{p^d}, against their Cyclotomic
    # values: g_p summed term by term, divided by unit_part
    g_p = quadratic_gauss_sum_prime(p)
    for d in range(1, 7):
        assert turn_value(quadratic_gauss_phase(p, d)) == quadratic_gauss_sum_field(p, d), (p, d)
        for c in (0, 1, p - 1):
            for eta in (1, -1):
                oracle = unit_part(g_p ** d * Cyclotomic.root_of_unity(p, c) * eta, 1, p ** d)
                assert turn_value(_tail_phase(p, d, c, eta)) == oracle, (p, d, c, eta)


@pytest.mark.parametrize("p,d", [(3, 1), (5, 1), (7, 1), (3, 2),
                                 (5, 2), (3, 3), (7, 2), (3, 4)])
def test_quadratic_gauss_sum_davenport_hasse(p, d):
    # the closed (-1)^{d-1} g_p^d against the literal field sum
    assert quadratic_gauss_sum_field(p, d) == _quadratic_gauss_sum_literal(p, d)


def test_frohlich_queyrut_value(sys_ramified, sys_unramified):
    """The Gauss-sum root number of a twist times the uniformizer power
    equals theta-tilde at -1."""
    for sys in (sys_ramified, sys_unramified):
        P = sys.P
        dK = P.e - 1
        rhs = sys.theta_tilde.value_on_coords(sys.minus_one_coords())
        o2 = order_two_set(P)
        for gamma in sorted(o2):
            if gamma == GAL_ID:
                continue
            tw = sys.theta_tilde_twist(gamma)
            k = conductor_bruteforce(sys, tw)
            assert turn_value(gauss_sum(sys, tw, k) + tw.value_at_uniformizer * (dK + k)) == rhs
