"""The paper's bound translations as one-sided checks on the certifiers.

A printed constant that breaks a theorem proves its certifier wrong, on
any input and with no oracle.  The list-size checks run on both list-size
paths, the ball path and the split-sum sweep, called directly.

Averaging: the q^n balls of radius r hold |C| * V_q(n, r) (center,
codeword) pairs between them, so the largest holds at least the ceiling of
|C| * V_q(n, r) / q^n codewords.

The link from L-wise distance to list decoding: let T be the least total
pairwise distance of an L-set of codewords, which `lwise_distance`
certifies.  Take L codewords within r <= n/2 of one center, and let k be
the number of them that differ from the center at some coordinate.  Those
that differ from the center there, paired with those that do not, give
k(L - k) differing pairs; over q > 2 symbols, pairs among the k may differ
too, at most k(k - 1)/2 of them.  So the coordinate adds at most f(k) to
the L codewords' total, with f(k) = k(L - k) for q = 2 and
kL - k(k + 1)/2 for q > 2.  The k sum to at most Lr over the n coordinates,
f is concave and increasing up to L/2 >= Lr/n, so the total is at most
n f(Lr/n).  Hence T > n f(Lr/n) forces a max list size <= L - 1 at radius
r.  Both sides are exact: T in integers, n f(Lr/n) in `Fraction`.

Two bounds check `min_distance`, in integers, on group codes (which take
its walk from item 0) and on random codes (which mostly take the full
walk).  Singleton: deleting d - 1 coordinates keeps the codewords
distinct, so |C| <= q^(n - d + 1).  Plotkin, for binary codes with
2d > n: the sum of all pairwise distances is at least C(|C|, 2) d, and a
coordinate where k words hold 1 adds k(|C| - k) <= floor(|C|^2 / 4) to
it.  So |C| <= 2d/(2d - n) for even |C|, and |C| <= 2d/(2d - n) - 1 for
odd |C|; either way |C| <= 2 floor(d / (2d - n)).
Three checks hold for any matrix of N > n unit columns in C^n.  Welch:
its coherence mu has mu^2 >= (N - n) / (n (N - 1)).  Order 2: a pair's
2 x 2 Gram has eigenvalues 1 +- |g|, and 1 - sqrt(1 - x) >= sqrt(1 + x) -
1 on [0, 1], so the RIP-2 constant of order 2 is 1 - sqrt(1 - mu).
Monotonicity: every 2L-column submatrix sits inside a (2L + 2)-column
one, which has no larger sigma_min (interlacing), so `kernel_injectivity`'s
sigma_min does not increase with L.  The float sides compare within the
error bounds stated beside each test.  Two more monotonicity checks are
exact.  `rip2_profile`'s constant of order s is a maximum over the subsets
of size <= s, a set that grows with s, so the constants do not fall with
the order, for any matrix, unit columns or not.  A ball of radius r lies
inside the ball of radius r + 1 about the same center, so the max list
size does not fall with the radius; it is checked on the ball path and on
the sweep, each forced through `list_sizes_at_radii` by its dispatch cost.

L-wise distance bounds RIP-2 from below.  Take the L-set S of codewords
with the least total pairwise distance T, so that the minimum L-wise
distance is l_L = T / (C(L, 2) n).  The normalised Boolean embedding (any
q) has Gram entries G_ij = 1 - d_ij / n, and the spherical embedding of a
binary code 1 - 2 d_ij / n; so 1^T G_S 1 = L^2 - 2 kappa T / n, with kappa
= 1 and 2 in turn.  The uniform vector's Rayleigh quotient gives
lambda_max(G_S) >= 1^T G_S 1 / L = 1 + (L - 1)(1 - kappa l_L), and the
RIP-2 constant of order L, at least sqrt(lambda_max(G_S)) - 1, is at least
sqrt(1 + (L - 1)(1 - kappa l_L)) - 1.

Group testing (Kautz & Singleton; Du & Hwang, Combinatorial Group
Testing): the cover decoder recovers every support of weight <= L exactly
when the design is L-disjunct.  If it is, a column outside a support of
weight <= L meets a test that no column of the support does, which comes
back negative; if it is not, the L columns that cover a target, encoded,
decode with the target too.  So the exhaustive round trip fails nowhere
exactly when `verify_disjunct` holds, and, since L - 1 columns plus any
other column are L columns, an L-disjunct design is (L - 1)-disjunct.
References: MacWilliams & Sloane (1977), Ch. 1-2; Guruswami, *List
Decoding of Error-Correcting Codes*, LNCS 3282 (2004); Welch, IEEE Trans.
IT 20 (1974); Kautz & Singleton, IEEE Trans. IT 10 (1964).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_codes import group_codes, random_codes
from sparsecode import caps, listdecode
from sparsecode.certify import coherence, kernel_injectivity, rip2_profile
from sparsecode.codes import Code, lwise_distance, min_distance
from sparsecode.embeddings import bool_code, sph_code
from sparsecode.group_testing import kautz_singleton, recovers, verify_disjunct

PATHS = pytest.mark.parametrize(
    "path", [listdecode._ball_list_sizes, listdecode._sweep_list_sizes],
    ids=["ball", "sweep"])

# largest n with q^n <= 4096, per alphabet
_MAX_LENGTH = {2: 12, 3: 7, 4: 6, 5: 5, 7: 4}


@st.composite
def _codes(draw, most):
    q = draw(st.sampled_from(sorted(_MAX_LENGTH)))
    n = draw(st.integers(1, _MAX_LENGTH[q]))
    words = st.tuples(*[st.integers(0, q - 1)] * n)
    return Code.from_array(q, draw(st.lists(words, min_size=1, max_size=most, unique=True)))


def _volume(q: int, n: int, r: int) -> int:
    """V_q(n, r): the words within distance r of one word."""
    return sum(math.comb(n, t) * (q - 1) ** t for t in range(r + 1))


def _pair_bound(q: int, L: int, k: Fraction) -> Fraction:
    """f(k): the most one coordinate adds to the total pairwise distance of
    L words, k of which differ from the center there."""
    return k * (L - k) if q == 2 else k * L - k * (k + 1) / 2


@PATHS
@settings(derandomize=True, max_examples=200, deadline=None)
@given(c=_codes(24))
def test_averaging_bound(path, c):
    for r in range(c.n + 1):
        size, _ = path(c, r)
        assert size >= -(-len(c) * _volume(c.q, c.n, r) // c.q**c.n)


@PATHS
@settings(derandomize=True, max_examples=200, deadline=None)
@given(c=_codes(9))
def test_lwise_distance_bounds_the_list_size(path, c):
    radii = list(range(c.n // 2 + 1))
    sizes = [path(c, r)[0] for r in radii]
    words = c.array()
    for L in range(2, len(c) + 1):
        report = lwise_distance(c, L)
        chosen = words[list(report.witness)]
        total = sum(int((chosen[i] != chosen[j]).sum())
                    for i in range(L) for j in range(i + 1, L))
        # T is the printed average distance times C(L, 2)
        assert math.isclose(report.absolute * math.comb(L, 2), total,
                            rel_tol=1e-12, abs_tol=1e-12)
        for r, size in zip(radii, sizes):
            if total > c.n * _pair_bound(c.q, L, Fraction(L * r, c.n)):
                assert size <= L - 1


@pytest.mark.parametrize("cost", [0, math.inf], ids=["ball", "sweep"])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(c=_codes(24))
def test_list_size_does_not_fall_with_the_radius(cost, c):
    # cost 0 sends every call down the ball path, inf down the sweep
    radii = list(range(-1, c.n + 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(listdecode, "_INCREMENT_COST", cost)
        sizes = [listdecode.list_sizes_at_radii(c, r)[0] for r in radii]
    assert sizes == sorted(sizes)
    assert sizes[0] == 0 and sizes[-1] == len(c)


# group codes take min_distance's anchored walk, random codes mostly the full one
KINDS = {"group": group_codes(), "random": random_codes(most=24, longest=10)}
BINARY_KINDS = {"group": group_codes(most=64, primes=(2,)),
                "random": random_codes(most=24, alphabets=(2,), longest=12)}


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_singleton_bound(kind, data):
    c = data.draw(KINDS[kind])
    d = min_distance(c).absolute
    assert len(c) <= c.q ** (c.n - d + 1)


@pytest.mark.parametrize("kind", sorted(BINARY_KINDS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_plotkin_bound(kind, data):
    c = data.draw(BINARY_KINDS[kind])
    d = min_distance(c).absolute
    if 2 * d > c.n:
        assert len(c) <= 2 * (d // (2 * d - c.n))


# the unit roundoff of float64
U = 2.0**-53


@st.composite
def _unit_columns(draw):
    """N > n normalised real or complex Gaussian columns in dimension
    2 <= n <= 6 (in dimension 1 every pair is parallel)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 6))
    shape = n, draw(st.integers(n + 1, 12))
    m = rng.standard_normal(shape)
    if draw(st.booleans()):
        m = m + 1j * rng.standard_normal(shape)
    return m / np.linalg.norm(m, axis=0)


# Each computed Gram entry of these columns, a length-n dot product of
# vectors of norm 1 within 2u, is within (n + 2)u of its exact value
# (Higham, Accuracy and Stability, 2nd ed., Sec. 3.1, with Cauchy-Schwarz
# and complex products' constants), whichever product computes it.


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=_unit_columns())
def test_welch_bound(m):
    n, N = m.shape
    # the computed coherence is within (n + 2)u of the exact one
    assert (coherence(m).value + (n + 2) * U) ** 2 >= (N - n) / (n * (N - 1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=_unit_columns())
def test_rip2_of_order_2_is_the_coherence(m):
    # coherence reads the matmul Gram and RIP-2 the einsum Gram.  Both err
    # by at most (n + 2)u per entry, so the computed lambda_min of the
    # worst pair, (a + b)/2 - sqrt(((a - b)/2)^2 + |g|^2) with diagonals a,
    # b and eigvalsh's few more u, is within 6 (n + 2)u of 1 - mu.  And
    # |sqrt(x) - sqrt(y)| <= |x - y| / sqrt(y), which the roundings of sqrt
    # and 1 - sqrt stay inside with 8 in place of 6.  Over 3,000 such
    # matrices the worst error was 0.7 (n + 2)u / sqrt(1 - mu).
    n = m.shape[0]
    mu = coherence(m).value
    alpha = rip2_profile(m, 2)[1].alpha
    assert abs(alpha - (1 - math.sqrt(1 - mu))) <= 8 * (n + 2) * U / math.sqrt(1 - mu)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=_unit_columns())
def test_kernel_sigma_min_does_not_increase_with_L(m):
    n = m.shape[0]
    # up to the first L with 2L > n, whose sigma_min is 0 by rank
    sigmas = [kernel_injectivity(m, L).min_singular_value for L in range(1, n // 2 + 2)]
    for L, (smaller, larger) in enumerate(zip(sigmas[1:], sigmas), start=2):
        # the SVD's computed sigma_min of s columns is within a few s u
        # ||A||_2 <= s^1.5 u of the exact one, on each side; over 3,000 such
        # matrices no computed sigma_min rose at all
        assert smaller <= larger + 32 * (2 * L) ** 1.5 * U


@st.composite
def _profile_matrices(draw):
    """Unit real or complex Gaussian columns, or a random code's spherical
    or normalised Boolean embedding."""
    kind = draw(st.sampled_from(["gaussian", "sph", "bool"]))
    if kind == "gaussian":
        return draw(_unit_columns())
    c = draw(random_codes(most=10, alphabets=(2, 3, 5), longest=4))
    return sph_code(c) if kind == "sph" else bool_code(c, normalize=True)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=_profile_matrices())
def test_rip2_constants_do_not_fall_with_the_order(m):
    L = min(4, m.shape[1])
    reports = rip2_profile(m, L)
    alphas = [r.alpha for r in reports]
    assert [r.order for r in reports] == list(range(1, L + 1))
    assert alphas == sorted(alphas)


# group codes over q = 7 hold 49 words, whose order-5 RIP-2 walk alone takes
# seconds; these stay within 25 words
LWISE_KINDS = {"group": group_codes(most=25, primes=(2, 3, 5)),
               "random": random_codes(most=13, longest=7)}


@pytest.mark.parametrize("kind", sorted(LWISE_KINDS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_lwise_distance_bounds_rip2_from_below(kind, data):
    c = data.draw(LWISE_KINDS[kind])
    embeddings = [(bool_code(c, normalize=True), 1)]
    if c.q == 2:
        embeddings.append((sph_code(c), 2))
    top = min(5, len(c))
    for m, kappa in embeddings:
        dim = m.shape[0]
        alphas = [r.alpha for r in rip2_profile(m, top)]
        for L in range(2, top + 1):
            ell = lwise_distance(c, L).relative
            bound = math.sqrt(max(0.0, 1 + (L - 1) * (1 - kappa * ell))) - 1
            # the computed Gram of the witness's L columns is within (dim + 2)u
            # per entry, so its lambda_max moves by at most L (dim + 2)u, and
            # eigvalsh adds a few L^2 u; lambda_max >= 1 up to these, so sqrt
            # halves them.  The bound rounds ell and four more values <= L,
            # and its sqrt halves those where its radicand is >= 1; below 1
            # the bound is negative, and alpha >= sqrt(lambda_max) - 1 is not,
            # up to the same errors.
            # Over 1,247 cases of these kinds the worst gap was -0.08 L (dim + L)u.
            assert alphas[L - 1] >= bound - 2 * L * (dim + L) * U, (L, kappa)


@st.composite
def _designs(draw):
    """0/1 designs of 1 to 14 columns over 1 to 12 tests, each column drawn,
    zero or a copy of another."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cols = draw(st.integers(1, 14))
    m = rng.random((draw(st.integers(1, 12)), n_cols)) < draw(st.sampled_from([0.2, 0.4, 0.6]))
    for j in range(n_cols):
        kind = draw(st.sampled_from(["drawn", "drawn", "zero", "copy"]))
        if kind == "zero":
            m[:, j] = False
        elif kind == "copy":
            m[:, j] = m[:, draw(st.integers(0, n_cols - 1))]
    return m


def _disjunct_orders(m, orders):
    """verify_disjunct's verdict at each L in orders, each checked against
    the exhaustive round trip over the supports of weight <= L."""
    n_cols = m.shape[1]
    verdicts = []
    for L in orders:
        _, failed, _ = recovers(m, caps.supports(n_cols, L))
        verdicts.append(verify_disjunct(m, L).disjunct)
        assert (failed == 0) == verdicts[-1], L
    return verdicts


def _nested(verdicts):
    """Whether each L-disjunct verdict implies the (L - 1)-disjunct one."""
    return all(lower or not higher for lower, higher in zip(verdicts, verdicts[1:]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=_designs())
def test_round_trip_fails_exactly_when_not_disjunct(m):
    _disjunct_orders(m, range(min(3, m.shape[1] - 1) + 1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=_designs())
def test_disjunct_orders_are_nested(m):
    orders = range(min(3, m.shape[1] - 1) + 1)
    assert _nested([verify_disjunct(m, L).disjunct for L in orders])


def _ks_orders(q: int, k: int) -> list[int]:
    """The orders L of KS(q, k) whose supports of weight <= L and whose
    disjunct choices both fit the default cap."""
    n_cols, orders, count = q**k, [], 0
    for L in range(n_cols):
        count += math.comb(n_cols, L)  # supports of weight <= L, which only grow
        if count > caps.DEFAULT_SUBSET_CAP:
            break
        if n_cols * math.comb(n_cols - 1, L) <= caps.DEFAULT_SUBSET_CAP:
            orders.append(L)
    return orders


# every Kautz-Singleton matrix whose column pairs fit the default cap
KS_CASES = [(q, k) for q in (2, 3, 5, 7, 11, 13) for k in range(1, q + 1)
            if math.comb(q**k, 2) <= caps.DEFAULT_SUBSET_CAP]


@pytest.mark.parametrize("q, k", KS_CASES)
def test_kautz_singleton_round_trip_and_orders(monkeypatch, q, k):
    monkeypatch.delenv("SPARSECODE_CAP", raising=False)
    m, _ = kautz_singleton(q, k)
    assert _nested(_disjunct_orders(m, _ks_orders(q, k)))
