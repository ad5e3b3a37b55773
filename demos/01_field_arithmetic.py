"""Exact truncated arithmetic in Q_p and F_p((t)).

Elements carry an exact valuation and a window of known digits; addition
that cancels the whole window refuses to invent digits and returns the
certified vanishing value O(pi^g) instead.
"""

from nonarch import FieldParams, hensel_sqrt, square_class

q3 = FieldParams("padic", 3, 12)

print("== the 3-adic field, 12 digits ==")
x = q3.from_int(7)
print("7 =", x.digits, "at valuation", x.ord)
print("1/2 =", q3.from_int(2).inverse().digits, " (2 + 3 + 9 + ... )")

s = q3.one() + q3.from_int(2)
print("1 + 2 carries into valuation", s.ord, "with digits", s.digits[:4])

print("7 - 7 =", q3.from_int(7) - q3.from_int(7), " (all 12 digits cancel)")

pi_m2 = q3.uniformizer_pow(-2)
print("|pi^-2| =", (pi_m2.ord, pi_m2.abs_q()))

print("\n== square roots by Newton lifting ==")
seven = q3.from_int(7)
root = hensel_sqrt(seven)
print("sqrt(7) =", root.digits[:6], "; squared back:", (root * root).agrees(seven))
print("sqrt(2) exists?", hensel_sqrt(q3.from_int(2)) is not None, " (2 is a nonsquare mod 3)")

print("\n== square classes: F / unit squares ==")
for value in (q3.from_int(4).shift(-2), q3.from_int(2).shift(1)):
    rep, witness = square_class(value)
    print(f"{value!r}: class rep {rep!r}, witness^2 * rep recomposes:",
          (witness * witness * rep).agrees(value))

print("\n== the Laurent-series field F_3((t)) ==")
l3 = FieldParams("laurent", 3, 10)
a = l3.element(-1, [2, 1, 1])  # 2 t^-1 + 1 + t
print("a =", a.digits, "at valuation", a.ord)
print("a * a^-1 = 1:", (a * a.inverse()).agrees(l3.one()))
