"""Orbital integrals three ways: Monte Carlo, the exact oracle, and the
factorized kernel product with its explicit error bound.

Also demonstrates why the comparison bound must be the union form
2(1 - x^2): the superficially tighter 2(1 - x)^2 is violated exactly at
n = r = 1.
"""

from nonarch import (
    FieldParams,
    RandomStream,
    error_bound,
    exact_orbital_integral,
    full_rank_fraction,
    mc_orbital_multi,
    product_formula,
)
from nonarch.sampling import KIND_CONGRUENCE, KIND_TWO_SIDED

q3 = FieldParams("padic", 3, 12)
rng = RandomStream(99)

print("== three routes to one integral (two-sided, n=2) ==")
D, A = [1, 0], [1]  # D = diag(pi^-1, 1), A = pi^-1 e_11
mc = mc_orbital_multi(q3, KIND_TWO_SIDED, D, [A], 50_000, rng.child("mc"))[0]
exact = exact_orbital_integral(q3, KIND_TWO_SIDED, D, A, level=2)
prod = product_formula(q3, KIND_TWO_SIDED, D, A)
bound = error_bound(KIND_TWO_SIDED, 2, 1, 3)
print(f"Monte Carlo : {mc.mean:+.4f}  (stderr {mc.stderr:.4f}, {mc.n_samples} samples)")
print(f"exact       : {exact:+.4f}  (average over GL(2, O/pi^2) pairs)")
print(f"product     : {prod.to_complex(3):+.4f}  = {prod.to_json()}")
print(f"|exact - product| = {abs(exact - prod.to_complex(3)):.4f}"
      f"  <=  bound {float(bound.factorization):.4f}")

print("\n== congruence kind, with an eps-twisted argument ==")
a_eps = q3.eps()
mc2 = mc_orbital_multi(q3, KIND_CONGRUENCE, [1, 0], [[a_eps]], 50_000, rng.child("mc2"))[0]
prod2 = product_formula(q3, KIND_CONGRUENCE, [1, 0], [a_eps])
print(f"Monte Carlo {mc2.mean:+.4f} vs product {prod2.to_complex(3):+.4f}")

print("\n== why the union bound: the n = r = 1 violation ==")
val = exact_orbital_integral(q3, KIND_TWO_SIDED, [0], [1], level=1)
kp = product_formula(q3, KIND_TWO_SIDED, [0], [1]).to_complex(3)
x = float(full_rank_fraction(1, 1, 3))
print(f"exact integral = {val.real:+.4f} (= -1/(q-1)), kernel product = {kp.real:+.4f}")
print(f"gap {abs(val - kp):.4f}: violates 2(1-x)^2 = {2 * (1 - x) ** 2:.4f},"
      f" satisfies 2(1-x^2) = {2 * (1 - x * x):.4f}")
