"""The n-fold power: the reference scalars.power is tested against.

It forms base^n as ((one * base) * base) ... with n products, whatever the
base, so it shares no code with the squaring in qmpairs.scalars.power.
"""


def nfold_power(one, base, n):
    result = one
    for _ in range(n):
        result = result * base
    return result
