"""Tour of the dimensional constants behind the eigenvalue bounds.

For each dimension this prints the unit-ball volume, the ratio constant H_d
entering the spectral inequalities, the sharp sup-norm constant C_d(p) for
p = 1 and p = 2, and the heat-kernel constant that dominates it.  It then
verifies two structural identities numerically: the closed form of C_d(2)
against the Gauss-Jacobi rule for general p, and the algebraic tie
H_d = (2 pi)^d v_d^{-1} C_d(2)^2.
"""

import math

import magspec as ms


def main():
    header = f"{'d':>2} {'v_d':>12} {'H_d':>12} {'C_d(1)':>12} {'C_d(2)':>12} {'heat':>12}"
    print(header)
    print("-" * len(header))
    for d in range(2, 9):
        t = ms.constants_table(d, p_list=(1.0, 2.0))
        print(f"{d:>2} {t.ball_volume:>12.6f} {t.ratio_constant:>12.6f} "
              f"{t.chiti_p[1.0]:>12.6f} {t.chiti_p[2.0]:>12.6f} {t.heat_kernel:>12.6f}")

    print("\nidentity checks at d = 3:")
    t = ms.constants_table(3, p_list=(2.0,))
    quad_vs_closed = abs(t.chiti_p[2.0] - t.chiti_closed) / t.chiti_closed
    print(f"  quadrature C_3(2) vs closed form: rel. diff {quad_vs_closed:.2e}")
    identity = (2 * math.pi) ** 3 / t.ball_volume * t.chiti_closed**2
    print(f"  (2 pi)^3 v_3^-1 C_3(2)^2 = {identity:.12f}  vs  H_3 = {t.ratio_constant:.12f}")
    print(f"  heat-kernel constant dominates: {t.chiti_closed:.6f} <= {t.heat_kernel:.6f}")


if __name__ == "__main__":
    main()
