#!/usr/bin/env python3
"""Survey the adjoint root number over all supported ring-model tuples.

For each tuple the closed form, the assembled epsilon product and the
character value theta((-1)^{n-1}) are printed side by side with the time
the check took; the three must agree.

Example:
    python scripts/root_number_survey.py --q 3,5,7 --max-n 4 --r 3..4
"""

import argparse
import sys
import time

from tame_llc.cli import _parse_int_list
from tame_llc.conjectures import root_number_supported, valid_tuples, verify_root_number


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", default="3,5,7")
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--r", default="3..4")
    args = ap.parse_args(argv)

    failures = 0
    total = 0
    for P in valid_tuples(_parse_int_list(args.q), args.max_n, _parse_int_list(args.r)):
        if root_number_supported(P) is not None:
            continue
        total += 1
        t0 = time.monotonic()
        res = verify_root_number(P)
        if res.status != "OK":
            failures += 1
        vals = res.method_values
        print(f"(q={P.q}, e={P.e}, f={P.f}, m={P.m}, r={P.r})  n={P.n}  "
              f"closed={vals['closed']}  assembled={vals['assembled']}  "
              f"theta_eps={vals['theta_at_eps']}  "
              f"{res.status}  {time.monotonic() - t0:.1f}s")
    print(f"\n{total} tuples, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
