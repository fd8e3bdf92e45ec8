"""The grid export's array formatter against Python's own '%.17g'."""

import numpy as np

from mvnsdde._g17 import g17_texts


def _reference(values):
    return [b"%.17g" % v for v in values.tolist()]


def _ties():
    """Doubles exactly halfway between two 17-digit decimals, every exponent.

    (J + 1/2) * 10**-k with J of 17 digits equals q / 2**(k + 1) with
    q = (2J + 1) / 5**k, which is a double when q is an odd integer below
    2**53.
    """
    rng = np.random.default_rng(11)
    ties = [1234567890123456.25]
    for k in range(1, 21):
        low, high = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        for q in rng.integers(low, high - 1, 20).tolist():
            ties.append((q | 1) / 2 ** (k + 1))
    return ties


def test_fast_range_sweep():
    # 10**6 values with 1e-4 <= |v| < 1e17, both signs: half spread over
    # every decade, and half with short texts (dyadic fractions, and
    # integers with trailing zeros)
    rng = np.random.default_rng(20261018)
    n = 10**6
    short = rng.integers(1, 10**6, n // 2).astype(np.float64)
    short[::2] /= 2.0 ** rng.integers(0, 14, n // 4)
    short[1::2] *= 10.0 ** rng.integers(0, 11, n // 4)
    values = np.concatenate([10 ** rng.uniform(-4, 17, n // 2), short])
    values *= rng.choice([-1.0, 1.0], n)
    size = np.abs(values)
    assert ((size >= 1e-4) & (size < 1e17)).all()
    expected = ((b"%.17g\n" * n) % tuple(values.tolist())).split(b"\n")[:-1]
    assert g17_texts(values) == expected


def test_edge_table():
    tens = 10.0 ** np.arange(-4, 17)
    edges = np.concatenate(
        [
            tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
            # the last doubles below the range's ends, and its upper end
            [np.nextafter(1e17, 0.0), np.nextafter(1e-4, 0.0), 1e17],
            _ties(),
            # integers at and above 2**53, where doubles are even integers
            [2.0**53, 2.0**53 + 2, 2.0**54 + 4, 2.0**56, 1e16 + 2],
            # zeros, the smallest and largest subnormals, inf and nan
            [0.0, 5e-324, 2.2250738585072009e-308, np.inf, np.nan],
        ]
    )
    values = np.concatenate([edges, -edges])
    assert g17_texts(values) == _reference(values)


def test_ties_round_half_to_even():
    # 17 digits of 1234567890123456.25 and .75 end in 2 and 8 (even)
    texts = g17_texts(np.array([1234567890123456.25, 1234567890123456.75]))
    assert texts == [b"1234567890123456.2", b"1234567890123456.8"]


def test_any_shape_in_c_order():
    values = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 8.0
    assert g17_texts(values) == _reference(values.ravel())
    assert g17_texts(values[:, ::2]) == _reference(values[:, ::2].ravel())
    assert g17_texts(np.empty((0, 3))) == []
