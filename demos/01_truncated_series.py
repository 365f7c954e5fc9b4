"""Tour of exact arithmetic on truncated series over GF(2).

Everything is bit-packed: series coefficients live in a single Python
integer, so addition is XOR and squaring is a bit spread.  Run with
`python demos/01_truncated_series.py`.
"""

from f2puiseux import F2Series, add, inv, kth_root_odd, mul, pow_int, sqrt

# A series is (bits, prec): bit j is the coefficient of t^j, and the
# series is only known modulo t^prec.
a = F2Series(0b11, 8)        # 1 + t
b = F2Series(0b111, 8)       # 1 + t + t^2
print("a          =", a)
print("b          =", b)

# Characteristic 2: adding anything to itself gives zero.
print("a + a      =", add(a, a))
print("a + b      =", add(a, b))

# Multiplication is a carry-less product; (1+t)(1+t+t^2) telescopes.
print("a * b      =", mul(a, b))

# Squaring is the Frobenius map: exponents double, nothing mixes.
print("a^2        =", pow_int(a, 2))
print("(a+b)^2    =", pow_int(add(a, b), 2))
print("a^2 + b^2  =", add(pow_int(a, 2), pow_int(b, 2)))

# Units (constant coefficient 1) form a group of exponent 2^s >= prec,
# so 1/a is the integer power a^(2^s - 1); the geometric series appears
# for 1 + t.
print("1/a        =", inv(a))
print("a * (1/a)  =", mul(a, inv(a)))

# Square roots just gather the even-position bits.
sq = pow_int(b, 2)
print("b^2        =", sq)
print("sqrt(b^2)  =", sqrt(sq))

# Odd k-th roots exist uniquely for any unit: a^(1/k) is the integer
# power a^e with e * k = 1 modulo that exponent 2^s.
for k in (3, 5, 7):
    root = kth_root_odd(a, k)
    print(f"a^(1/{k})   =", root, "  check:", pow_int(root, k))

# Precision propagates as the minimum across binary operations.
short = F2Series(0b1, 3)
print("prec of (prec 8 * prec 3):", mul(a, short).prec)
