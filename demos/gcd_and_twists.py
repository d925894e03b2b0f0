"""The gcd-of-orders story: over Q it never exceeds 4, over quadratic
fields it can be larger, and twisting pairs counts to 2p + 2."""

from ellorders.curve import curve, everywhere_good_33, everywhere_good_6
from ellorders.reduction import count_points_fp, twist_count_identity_check
from ellorders.survey import gcd_orders, gcd_orders_quadratic

X = 1000

for ai, note in (
    ([1, -1, 1, -199, 510], "rational 4-torsion"),
    ([0, 1, 0, -333, -3537], "rational 3-torsion"),
    ([0, -1, -1, 0, 0], "kubert5(1), nothing survives the fold"),
):
    g = gcd_orders(curve(ai), X)
    print(f"gcd of orders to {X} for {ai}: {g}  ({note})")

# over a real quadratic field the bound moves; these two curves have
# good reduction everywhere over their field
print()
print("over Q(sqrt 33):", gcd_orders_quadratic(everywhere_good_33(), X=2000))
print("over Q(sqrt 6): ", gcd_orders_quadratic(everywhere_good_6(), X=2000))

print()
c = curve([0, 0, 0, -12, -11])
for p in (7, 13, 41):
    n = count_points_fp(c, p)
    ok = twist_count_identity_check(c, p)
    print(f"p={p}: N={n.count}, twist count {2 * p + 2 - n.count}, identity holds: {ok}")
