"""Eigenvalue inequalities on exactly solvable domains.

The unit square and the unit disk have closed-form Dirichlet spectra, so
every bound can be evaluated with no discretization error.  This walks
through the Berezin-Li-Yau upper bound and its Riesz-mean counterpart from
below, the partial-sum bounds obtained by Legendre transformation, the
ratio bounds on lambda_{k+1}/lambda_1, and the Yang-type inequalities,
printing the signed margin of each (non-negative margin = inequality holds).
"""

import magspec as ms


def show(check):
    status = "ok " if check.passed else "VIOLATED"
    if not check.applicable:
        status = "n/a"
    print(f"  [{status}] {check.name:<22} lhs={check.lhs:>12.5g} "
          f"rhs={check.rhs:>12.5g} margin={check.margin:>+12.5g}")


def main():
    for label, spec in [
        ("unit square", ms.box_spectrum([1.0, 1.0], 300)),
        ("unit disk", ms.disk_spectrum(1.0, 300)),
    ]:
        print(f"\n=== {label} (lambda_1 = {spec.values[0]:.6f}) ===")
        lam = 4.0 * spec.values[0]
        print(f"Riesz mean at lambda = 4 lambda_1 = {lam:.4f}:")
        show(ms.check_berezin_li_yau(spec, lam))
        show(ms.check_riesz_lower(spec, lam))

        print("partial sums and ratios at k = 10:")
        show(ms.check_li_yau(spec, 10))
        show(ms.check_shifted_sum_upper(spec, 10))
        for chk in ms.check_ratio_bounds(spec, 10):
            show(chk)

        print("Yang family at k = 5:")
        show(ms.check_yang(spec, 5))
        for chk in ms.check_yang_corollaries(spec, 5):
            show(chk)

    print("\nPPW-type witness: the disk maximizes lambda_2/lambda_1")
    disk = ms.disk_spectrum(1.0, 3)
    square = ms.box_spectrum([1.0, 1.0], 3)
    print(f"  disk   lambda_2/lambda_1 = {disk.values[1] / disk.values[0]:.4f}  (< 3)")
    print(f"  square lambda_2/lambda_1 = {square.values[1] / square.values[0]:.4f}  (< 3)")


if __name__ == "__main__":
    main()
