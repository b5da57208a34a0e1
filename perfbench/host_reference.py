"""A fixed pure-Python task that measures how fast the host is right now.

    python3 perfbench/host_reference.py

It uses nothing from symblocks, so no change to the program moves its time.
run.py runs it once per pass and scales that pass's timings by it (see
README.md).  Its work resembles the program's: recursive generation of
partitions as tuples, hook-length products, a dict of results and a sum of
Fractions with large denominators.  It prints a fixed line that run.py checks.
"""

from fractions import Fraction


def partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def main() -> None:
    hooks = {}
    total = Fraction(0)
    for lam in partitions(30):
        conj = [sum(1 for x in lam if x > j) for j in range(lam[0])]
        product = 1
        for i, row in enumerate(lam):
            for j in range(row):
                product *= row - j + conj[j] - i - 1
        hooks[lam] = product
        total += Fraction(1, product)
    print(len(hooks), total.numerator % 1000003, total.denominator % 1000003)


if __name__ == "__main__":
    main()
