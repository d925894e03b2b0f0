"""Torsion over Q, growth over a quadratic field, and the local pictures."""

from ellorders.catalog import as_curve, resolve_label
from ellorders.curve import curve, quadratic_twist
from ellorders.reduction import local_data
from ellorders.survey import gcd_orders_quadratic
from ellorders.torsion import (
    division_polynomial,
    odd_torsion_over_quadratic,
    torsion_over_Q,
)

c = curve([1, 1, 0, -700, 34000])
print("curve:", [str(a) for a in c.ainvs])
print("torsion over Q:", torsion_over_Q(c))

tw = quadratic_twist(c, 5)
print("twist by 5 torsion:", torsion_over_Q(tw))

# the twist's ten points live over Q(sqrt 5) on the original curve
c50 = as_curve(resolve_label("50a3", offline=True))
print()
print("50a3 torsion over Q:", torsion_over_Q(c50))
print("odd torsion over Q(sqrt 5):", odd_torsion_over_quadratic(c50, 5))
print("order bound over Q(sqrt 5):", gcd_orders_quadratic(c50, 5, 300))

print()
psi = division_polynomial(c50, 5)
print(f"psi_5 degree {psi.degree}, value at x=0: {psi(0)}")

print()
for p in (2, 5, 7):
    ld = local_data(c50, p)
    kind = ld.rtype.value
    extra = f", {ld.kodaira.label}" if kind != "good" else ""
    print(f"p={p}: {kind}{extra}")
