#!/usr/bin/env python3
"""Print a report for every named code in ``codes.NAMED``: parameters
(computed next to claimed), bounds, verified distances and generators,
the girths of CSS codes' checks, and for the quasi-cyclic examples the
rank of H H^T by elimination and by the polynomial route."""

from stabkit import codes, f2, qc_ldpc


def main():
    for name, entry in codes.NAMED.items():
        code = entry.build()
        print(f"==== {name} ====")
        print(codes.format_report(code), end="")
        if code.css:
            print(f"girth(Hz): {qc_ldpc.girth_exact(code.css.hz)}  "
                  f"girth(Hx): {qc_ldpc.girth_exact(code.css.hx)}")
        for label, e in entry.exponents() if entry.exponents else ():
            h = qc_ldpc.expand(e)
            print(f"{label}: rank(H H^T) {f2.rank(f2.mat_mul(h, h.transpose()))} "
                  f"(polynomial route {qc_ldpc.hermitian_rank_poly(e)}, "
                  f"total gcd degree {qc_ldpc.hermitian_corank_poly(e)})")
        print()


if __name__ == "__main__":
    main()
