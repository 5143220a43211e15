"""The benchmark's request sets.

Each request is one `tame-llc verify <identity> ... --format json` call for
one tuple (q, e, f, m, r).  The sets are generated from the package's own
box enumeration once, by `make_reference.py`, and frozen in
`reference.json` together with each request's exit code and stdout digest;
a run reads them from there, so a later change to the package cannot change
what is measured.  `--seed` only shuffles the order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

Request = Tuple[str, Tuple[int, int, int, int, int]]  # (identity, (q, e, f, m, r))

NAMES = ("formal_degree_box", "root_number_box", "chi_data_heavy")

# (q, e, f, m, r) of the one tuple whose chi-data takes 84-105 s in a single
# hnf_row call; it is in no request set.
HNF_OUTLIER = (9, 2, 2, 0, 4)


def argv(request: Request) -> List[str]:
    identity, (q, e, f, m, r) = request
    return ["verify", identity, "--q", str(q), "--e", str(e), "--f", str(f),
            "--m", str(m), "--r", str(r), "--format", "json"]


def _key(P) -> Tuple[int, int, int, int, int]:
    return (P.q, P.e, P.f, P.m, P.r)


def generate(conjectures, tame_galois) -> Dict[str, List[Request]]:
    """All request sets, from the package modules passed in.

    `known_defect` holds the supported q = 9 root-number tuples: each exits
    3 at the reference commit (see README.md), so none is in a workload.
    """
    valid, supported = conjectures.valid_tuples, conjectures.root_number_supported

    def root_number(tuples: Sequence) -> List:
        return [P for P in tuples if supported(P) is None and _key(P) != HNF_OUTLIER]

    box = root_number(valid([3, 5, 7, 9], 4, [3, 4]))
    chi = [P for P in root_number(valid([3, 5, 7], 4, range(5, 9)))
           if P.e == 2 and P.f == 2]
    chi.append(tame_galois.params_from_q(11, 2, 2, 1, 8))
    return {
        "formal_degree_box": [("formal-degree", _key(P))
                              for P in valid([3, 5, 7, 9, 11, 13], 8, range(2, 9))],
        "root_number_box": [("root-number", _key(P)) for P in box if P.q != 9],
        "chi_data_heavy": [("root-number", _key(P)) for P in chi],
        "known_defect": [("root-number", _key(P)) for P in box if P.q == 9],
    }
