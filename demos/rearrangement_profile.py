"""Ground-state rearrangement versus the extremal ball profile.

The decreasing rearrangement of a ground state, plotted against set measure,
is dominated from below by the radial profile z of the ball with the same
lowest eigenvalue (after matching sup norms), and its sup norm obeys the
sharp bound ||omega||_inf <= C_d(p) lambda^{d/2p} ||omega||_p with equality
exactly on the ball.  This prints both profiles side by side for the unit
square and reports the sup-norm ratios for the square (strict) and the disk
(near equality).  Each check reads lambda_1 and the ground state from the
grid spectrum that carries them.
"""

import numpy as np

import magspec as ms


def grid_spectrum(shape, h):
    """lambda_1 of the shape's grid operator, with the ground state it carries."""
    dom = ms.build_domain(shape, h)
    op = ms.assemble(dom, ms.GaugeSpec(), ms.PotentialSpec())
    return ms.lowest_eigenpairs(op, 1)[0]


def main():
    h = 1 / 64
    spec = grid_spectrum(ms.Rectangle(1.0, 1.0), h)
    lam = float(spec.values[0])
    s_grid, u_values = ms.decreasing_rearrangement(spec.ground_state, h)
    z0 = ms.z_profile(lam, 2, 0.0)
    scale = z0 / u_values[0]

    print(f"unit square ground state: lambda_1 = {lam:.5f} (exact 2 pi^2 = {2 * np.pi**2:.5f})")
    print(f"\n{'s':>8} {'u*(s) scaled':>14} {'z(s)':>10} {'gap':>10}")
    for frac in (0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8):
        i = int(frac * s_grid.size)
        s = s_grid[i]
        u = scale * u_values[i]
        z = float(ms.z_profile(lam, 2, np.sqrt(s / np.pi)))
        print(f"{s:>8.3f} {u:>14.5f} {z:>10.5f} {u - z:>+10.5f}")
    print("(non-negative gap = the rearranged state dominates the ball profile)")

    inclusion, domination = ms.comparison_check(spec)
    print(f"\ncomparison check: inclusion {inclusion.passed}, "
          f"domination {domination.passed}")

    ode = ms.rearrangement_ode_check(spec)
    print(f"slope inequality (diagnostic): violating fraction "
          f"{ode.context['violating_fraction']:.4f} of nodes")

    print("\nsharp sup-norm bound, ratio ||omega||_inf / (C_2(2) lambda^{1/2} ||omega||_2):")
    chk = ms.chiti_check(spec, p=2.0)[0]
    print(f"  square, h = 1/64: {chk.lhs / chk.rhs:.6f}  (strictly below 1)")
    chk_d = ms.chiti_check(grid_spectrum(ms.Disk(1.0), h), p=2.0)[0]
    print(f"  disk,   h = 1/64: {chk_d.lhs / chk_d.rhs:.6f}  (equality case, -> 1 as h -> 0)")


if __name__ == "__main__":
    main()
