"""The two families of ergodic measures: finite parameter descriptions,
closed-form characteristic functions, the convolution semigroup, and the
constructive uniqueness arguments.
"""

from nonarch import (
    DeltaParam,
    FieldParams,
    OmegaParam,
    canonicalize_omega,
    convolve,
    distinguishing_argument,
)

q3 = FieldParams("padic", 3, 12)

print("== two-sided family: characteristic function at pi^-ell e_11 ==")
par = DeltaParam(head=(2, 1), tail=-1)
for ell in range(-2, 4):
    print(f"  ell={ell:+d}: {par.char_single(ell).to_json()}")

print("\n== congruence family ==")
om = OmegaParam(k=-1, kk=(1,), kkp=(0,))
for ell in range(-1, 3):
    x = q3.uniformizer_pow(-ell)
    print(f"  x=pi^{-ell}: {om.char_single(x).to_json()}")

print("\n== the semigroup operation (measure convolution) ==")
a = DeltaParam((6, 2, 2), -3)
b = DeltaParam((4, 3, 0, -1), None)
print(f"{a.to_json()} (+) {b.to_json()}")
print("  =", convolve(a, b).to_json())

print("\n== canonicalization: eps-pairs migrate, absorbed levels drop ==")
print(canonicalize_omega(None, (), (1, 1)).to_json())
print(canonicalize_omega(0, (2, 0, -1), ()).to_json())

print("\n== constructive uniqueness ==")
p1, p2 = DeltaParam((2, 2), None), DeltaParam((2,), None)
ell = distinguishing_argument(p1, p2)
print(f"parameters {p1.head} vs {p2.head} separate at ell = {ell}:",
      p1.char_single(ell).to_json(), "vs", p2.char_single(ell).to_json())
