"""Ground-state rearrangement versus the extremal ball profile.

The decreasing rearrangement of a ground state, plotted against set measure,
is dominated from below by the radial profile z of the ball with the same
lowest eigenvalue (after matching sup norms), and its sup norm obeys the
sharp bound ||omega||_inf <= C_d(p) lambda^{d/2p} ||omega||_p with equality
exactly on the ball.  This prints both profiles side by side for the unit
square and reports the sup-norm ratios for the square (strict) and the disk
(near equality).
"""

import numpy as np

import magspec as ms


def ground_state(shape, h):
    dom = ms.build_domain(shape, h)
    op = ms.assemble(dom, ms.GaugeSpec.none(), ms.PotentialSpec.zero())
    spec, pairs = ms.lowest_eigenpairs(op, 1)
    return dom, float(spec.values[0]), pairs[0].vector


def main():
    h = 1 / 64
    dom, lam, omega = ground_state(ms.Rectangle(1.0, 1.0), h)
    profile = ms.decreasing_rearrangement(omega, h)
    z0 = ms.z_profile(lam, 2, 0.0)
    scale = z0 / profile.u_values[0]

    print(f"unit square ground state: lambda_1 = {lam:.5f} (exact 2 pi^2 = {2 * np.pi**2:.5f})")
    print(f"\n{'s':>8} {'u*(s) scaled':>14} {'z(s)':>10} {'gap':>10}")
    for frac in (0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8):
        i = int(frac * profile.s_grid.size)
        s = profile.s_grid[i]
        u = scale * profile.u_values[i]
        z = float(ms.z_profile(lam, 2, np.sqrt(s / np.pi)))
        print(f"{s:>8.3f} {u:>14.5f} {z:>10.5f} {u - z:>+10.5f}")
    print("(non-negative gap = the rearranged state dominates the ball profile)")

    inclusion, domination = ms.comparison_check(omega, h, lam, d=2, measure=dom.measure)
    print(f"\ncomparison check: inclusion {inclusion.passed}, "
          f"domination {domination.passed}")

    ode = ms.rearrangement_ode_check(profile, lam, 2)
    print(f"slope inequality (diagnostic): violating fraction "
          f"{ode.context['violating_fraction']:.4f} of nodes")

    print("\nsharp sup-norm bound, ratio ||omega||_inf / (C_2(2) lambda^{1/2} ||omega||_2):")
    chk = ms.chiti_check(omega, h, lam, d=2, p=2.0)[0]
    print(f"  square, h = 1/64: {chk.lhs / chk.rhs:.6f}  (strictly below 1)")
    dom_d, lam_d, omega_d = ground_state(ms.Disk(1.0), h)
    chk_d = ms.chiti_check(omega_d, h, lam_d, d=2, p=2.0)[0]
    print(f"  disk,   h = 1/64: {chk_d.lhs / chk_d.rhs:.6f}  (equality case, -> 1 as h -> 0)")


if __name__ == "__main__":
    main()
