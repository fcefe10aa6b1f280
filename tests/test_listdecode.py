import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_oracles as oracle
from scalar_oracles import hamming_distance
from sparsecode import certify, cli, codes, listdecode
from sparsecode.certify import rip2_constant
from sparsecode.cli import main
from sparsecode.codes import (Code, balance_closure, enumerate_codewords,
                              random_linear_code_gv, reed_solomon)
from sparsecode.embeddings import sph_code
from sparsecode.errors import DomainError, EnumerationCapError
from sparsecode.listdecode import (
    converse_check,
    johnson_check,
    list_size_at_radius,
    list_sizes_at_radii,
)
from sparsecode.matrixio import write_matrix
from sparsecode.words import Word


def _code(q, *rows):
    return Code(Word(q, row) for row in rows)


def _naive_list_size(c, radius):
    """Independent oracle: direct ball membership counts per center."""
    best = 0
    for center in product(range(c.q), repeat=c.n):
        x = Word(c.q, center)
        count = sum(hamming_distance(x, w) <= radius for w in c)
        best = max(best, count)
    return best


def _chunked_list_sizes(c, radii, chunk=4096):
    """Reference sweep: centers from itertools.product, compared in chunks."""
    words = c.array()
    best = [-1] * len(radii)
    witness = [None] * len(radii)
    centers = product(range(c.q), repeat=c.n)
    while True:
        block = []
        for _ in range(chunk):
            nxt = next(centers, None)
            if nxt is None:
                break
            block.append(nxt)
        if not block:
            break
        arr = np.array(block, dtype=np.int64)
        dists = (arr[:, None, :] != words[None, :, :]).sum(axis=2)
        for ri, r in enumerate(radii):
            counts = (dists <= r).sum(axis=1)
            pos = int(np.argmax(counts))
            if int(counts[pos]) > best[ri]:
                best[ri] = int(counts[pos])
                witness[ri] = Word(c.q, tuple(int(s) for s in arr[pos]))
    return [(best[i], witness[i]) for i in range(len(radii))]


# largest n with q^n <= 4096, per alphabet
_MAX_LENGTH = {2: 12, 3: 7, 4: 6, 5: 5, 7: 4}


@st.composite
def _small_codes(draw):
    q = draw(st.sampled_from(sorted(_MAX_LENGTH)))
    n = draw(st.integers(1, _MAX_LENGTH[q]))
    word = st.tuples(*[st.integers(0, q - 1)] * n)
    rows = draw(st.lists(word, min_size=1, max_size=24))
    return _code(q, *rows)


# cs-ld's list-size shape: the ball path at radius 5, the sweep at 10
_N20_C16 = Code(Word(2, tuple(int(s) for s in row))
                for row in np.random.default_rng(20).integers(0, 2, size=(16, 20)))


class TestBallPath:
    """The ball path against the chunked sweep, and the dispatch between
    the two paths."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(c=_small_codes())
    def test_matches_chunked_sweep(self, c):
        # every radius 0..n, plus radii past n and below 0, one call each
        radii = list(range(-1, c.n + 3))
        want = _chunked_list_sizes(c, radii)
        assert [listdecode._ball_list_sizes(c, r) for r in radii] == want

    @pytest.mark.parametrize("cost", [0, listdecode._INCREMENT_COST, math.inf])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(c=_small_codes(), top=st.integers(-1, 13))
    def test_dispatch_cost_changes_no_report(self, c, top, cost):
        # cost 0 sends every call down the ball path, inf down the sweep
        radii = list(range(-1, min(top, c.n + 2) + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(listdecode, "_INCREMENT_COST", cost)
            got = [list_sizes_at_radii(c, r) for r in radii]
        assert got == _chunked_list_sizes(c, radii)

    @pytest.mark.parametrize("n, size, radius, path", [
        (20, 16, 5, "_ball_list_sizes"),  # cs-ld's n=20 sweep
        (18, 16, 4, "_ball_list_sizes"),  # cs-ld's n=18 sweep
        (16, 20, 0, "_ball_list_sizes"),  # rip-ld's Johnson step
        (14, 16, 3, "_ball_list_sizes"),
        (8, 5, 2, "_sweep_list_sizes"),   # balls of a seventh of the space
        (16, 16, 6, "_sweep_list_sizes"),
        (12, 4096, 0, "_ball_list_sizes"),  # a ball of one center each
        # past the memory bound: 2^21 counts, or 2.7M sphere rows
        (21, 16, 0, "_sweep_list_sizes"),
        (20, 2000, 3, "_sweep_list_sizes"),
    ])
    def test_dispatch(self, n, size, radius, path):
        rng = np.random.default_rng(n)
        c = Code.from_array(2, rng.integers(0, 2, size=(size, n)))
        assert _path_taken(c, radius) == path

    def test_each_radius_picks_its_own_path(self):
        # the CI step's GV code, 8 words of length 14: radius 2's balls are
        # small against the 2^14 centers, radius 7's are not
        c = enumerate_codewords(random_linear_code_gv(2, 14, 0.2, 1))
        assert _path_taken(c, 2) == "_ball_list_sizes"
        assert _path_taken(c, 7) == "_sweep_list_sizes"

    def test_counts_past_the_smallest_dtype(self):
        # 300 codewords need uint16 counts, all within radius n of any center
        c = Code(Word(3, t) for t in islice(product(range(3), repeat=6), 300))
        assert listdecode._ball_list_sizes(c, 6) == (300, Word(3, (0,) * 6))


def _path_taken(c, radius):
    """The path name that list_sizes_at_radii(c, radius) calls."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_ball_list_sizes", "_sweep_list_sizes"):
            mp.setattr(listdecode, name, lambda c, r, name=name:
                       calls.append(name) or (0, None))
        list_sizes_at_radii(c, radius)
    (name,) = calls
    return name


def _memo(table):
    """`table`, computed once per distinct argument list."""
    found = {}

    def memo(q, start, stop, part, dtype):
        key = (q, start, stop, part.shape, part.dtype.str, part.tobytes(), dtype)
        if key not in found:
            found[key] = table(q, start, stop, part, dtype)
        return found[key]
    return memo


class TestSplitSumSweep:
    """The split-sum sweep against the chunked itertools.product sweep.

    Each test calls the sweep itself, not list_sizes_at_radii, which sends
    most of these small codes down the ball path."""

    @pytest.mark.parametrize("block_elements", [listdecode._BLOCK_ELEMENTS, 8])
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(c=_small_codes())
    def test_matches_chunked_sweep(self, c, block_elements):
        # every radius 0..n, plus radii past n and below 0, one call each
        radii = list(range(-1, c.n + 3))
        want = _chunked_list_sizes(c, radii)
        # 4096 prefixes per block leave room for only a few codewords even at
        # the default budget, so the word blocks are many there too.  The
        # sweep reads _MIN_PREFIXES only through its word block, and the
        # prefix block and the cached low table follow from the word block,
        # so values that give one word block run identical sweeps: each word
        # block runs once.  The tables are a pure function of their
        # arguments, so the radii after the first read the first's from a memo.
        lo_size = c.q ** (c.n // 2)
        word_blocks = set()
        for min_prefixes in (1, listdecode._MIN_PREFIXES, 4096):
            word_block = min(len(c), max(1, block_elements // (min_prefixes * lo_size)))
            if word_block in word_blocks:
                continue
            word_blocks.add(word_block)
            with pytest.MonkeyPatch.context() as mp:
                # a tiny block budget puts the worst centers in later blocks
                mp.setattr(listdecode, "_BLOCK_ELEMENTS", block_elements)
                mp.setattr(listdecode, "_MIN_PREFIXES", min_prefixes)
                mp.setattr(listdecode, "_distance_table", _memo(listdecode._distance_table))
                got = [listdecode._sweep_list_sizes(c, r) for r in radii]
            assert got == want

    # random slices are tested directly below, so one block size will do
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(c=_small_codes())
    def test_matches_per_coordinate_tables(self, c):
        radii = list(range(-1, c.n + 2))
        got = [listdecode._sweep_list_sizes(c, r) for r in radii]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(listdecode, "_distance_table", oracle.distance_table)
            mp.setattr(listdecode, "_center_word", oracle.center_word)
            assert got == [listdecode._sweep_list_sizes(c, r) for r in radii]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_distance_table_matches_per_coordinate_loop(self, data):
        q = data.draw(st.sampled_from(sorted(_MAX_LENGTH)))
        k = data.draw(st.integers(0, _MAX_LENGTH[q]))
        start = data.draw(st.integers(0, q**k))
        stop = data.draw(st.integers(start, q**k))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        part = rng.integers(0, q, size=(data.draw(st.integers(1, 30)), k))
        got = listdecode._distance_table(q, start, stop, part, np.uint8)
        want = oracle.distance_table(q, start, stop, part, np.uint8)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_length_one(self, q):
        c = _code(q, (q - 1,), (0,))
        radii = [0, 1, 2]
        got = [listdecode._sweep_list_sizes(c, r) for r in radii]
        assert got == _chunked_list_sizes(c, radii)

    def test_single_codeword(self):
        c = _code(3, (2, 0, 1, 1, 2))
        radii = list(range(7))
        got = [listdecode._sweep_list_sizes(c, r) for r in radii]
        assert got == _chunked_list_sizes(c, radii)
        assert got[0] == (1, Word(3, (2, 0, 1, 1, 2)))

    @pytest.mark.parametrize("q, n", [(2, 12), (3, 6), (5, 4)])
    def test_full_space_code(self, q, n):
        c = Code(Word(q, t) for t in product(range(q), repeat=n))
        radii = list(range(n + 2))
        got = [listdecode._sweep_list_sizes(c, r) for r in radii]
        assert got == _chunked_list_sizes(c, radii)
        assert got[-1] == (q**n, Word(q, (0,) * n))

    def test_cap_checked_first(self):
        c = _code(2, (0,) * 40, (1,) * 40)
        with pytest.raises(EnumerationCapError):
            list_sizes_at_radii(c, 3)

    @pytest.mark.parametrize("c, radii, path", [
        (_N20_C16, [5, 10], "_sweep_list_sizes"),
        (Code(Word(2, t) for t in product(range(2), repeat=12)), [3, 6],
         "_sweep_list_sizes"),
        (_N20_C16, [5], "_ball_list_sizes"),
    ], ids=["n20-C16", "full-2^12", "n20-C16-ball"])
    def test_memory_is_bounded(self, c, radii, path):
        # the sweep's blocks use ~2 MB, and the 2^12 space unblocked would
        # need ~32 MB; the ball path holds 2^20 counts and its last two
        # spheres, ~3.5 MB
        tracemalloc.start()
        try:
            for r in radii:
                getattr(listdecode, path)(c, r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestListSize:
    def test_radius_zero(self):
        c = _code(2, (0, 0, 1), (1, 1, 0), (0, 1, 1))
        rep = list_size_at_radius(c, 0.0)
        assert rep.max_list_size == 1

    def test_radius_one(self):
        c = _code(2, (0, 0, 1), (1, 1, 0), (0, 1, 1))
        assert list_size_at_radius(c, 1.0).max_list_size == 3

    def test_radius_below_half_on_two_words(self):
        c = _code(2, (0, 0), (1, 1))
        rep = list_size_at_radius(c, 0.49)
        assert rep.absolute_radius == 0
        assert rep.max_list_size == 1

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            rows = {tuple(int(s) for s in rng.integers(0, 2, size=n))
                    for _ in range(5)}
            c = _code(2, *rows)
            for rho in (0.0, 0.3, 0.6):
                radius = math.floor(Fraction(str(rho)) * c.n)
                assert (
                    list_size_at_radius(c, rho).max_list_size
                    == _naive_list_size(c, radius)
                )

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(52)
        rows = {tuple(int(s) for s in rng.integers(0, 2, size=8))
                for _ in range(8)}
        c = _code(2, *rows)
        sizes = [list_size_at_radius(c, r / 8).max_list_size for r in range(9)]
        assert sizes == sorted(sizes)
        assert sizes[-1] == len(c)

    def test_worst_center_attains_size(self):
        rng = np.random.default_rng(53)
        rows = {tuple(int(s) for s in rng.integers(0, 2, size=7))
                for _ in range(7)}
        c = _code(2, *rows)
        rep = list_size_at_radius(c, 0.3)
        attained = sum(
            hamming_distance(rep.worst_center, w) <= rep.absolute_radius
            for w in c
        )
        assert attained == rep.max_list_size

    def test_radius_range(self):
        with pytest.raises(DomainError):
            list_size_at_radius(_code(2, (0, 0)), 1.5)

    def test_center_cap(self, monkeypatch):
        monkeypatch.setenv("SPARSECODE_CAP", "100")
        c = _code(2, tuple([0] * 14), tuple([1] * 14))
        with pytest.raises(EnumerationCapError, match="^16384 centers exceed cap 100$"):
            list_size_at_radius(c, 0.5)


class TestExactRadius:
    """The radius is floor(rho n) exactly, for the decimal rho prints as,
    whatever number type rho is.  A slack of 1e-12 once rounded a rho n
    just below an integer up to it."""

    @pytest.mark.parametrize("rho, radius, size", [
        (0.3999999999999, 1, 1), (np.float64(0.3999999999999), 1, 1), (0.4, 2, 2)],
        ids=["float", "float64", "0.4"])
    def test_rs52_just_below_radius_two(self, rho, radius, size):
        rep = list_size_at_radius(reed_solomon(5, 2), rho)
        assert (rep.absolute_radius, rep.max_list_size) == (radius, size)

    def test_a_third_of_twelve(self):
        # 0.3333333333333333 * 12 = 3.9999999999999996, where the float
        # product rounds to 4.0
        c = Code.from_array(2, [[0] * 12, [1] * 12])
        assert list_size_at_radius(c, 1 / 3).absolute_radius == 3
        # an exact third is read as the decimal its float prints as too
        assert list_size_at_radius(c, Fraction(1, 3)).absolute_radius == 3

    @pytest.mark.parametrize("epsilon, radius", [
        (0.4, 1), (0.40000000000001, 0), (0.5, 0)])
    def test_link_floors_half_minus_epsilon_exactly(self, epsilon, radius):
        # at eps = 0.4 the float (1/2 - eps) n is 0.9999999999999998, and
        # the exact radius is 1; at 0.40000000000001 it is 0.9999999999999
        c = Code.from_array(2, np.random.default_rng(5).integers(0, 2, size=(8, 10)))
        assert johnson_check(c, epsilon).detail["radius"] == radius
        assert converse_check(c, 1, epsilon).detail["radius"] == radius


class TestJohnson:
    def test_requires_binary(self):
        with pytest.raises(DomainError):
            johnson_check(_code(3, (0, 0), (1, 1)), 0.5)

    def test_degenerate_epsilon_rejected(self):
        c = _code(2, (0, 0, 0, 0), (1, 1, 1, 1))
        # the decimal 0.7071067811865476 squares to just above 1/2
        with pytest.raises(DomainError):
            johnson_check(c, 0.7071067811865476)
        with pytest.raises(DomainError):
            johnson_check(c, 0.0)

    def test_epsilon_admitted_by_its_decimal(self):
        """1/sqrt(2)'s double prints as 0.7071067811865475, whose decimal
        squares to just below 1/2: Johnson admits it, with L' = 3."""
        c = _code(2, (0, 0, 0, 0), (1, 1, 1, 1))
        rep = johnson_check(c, 1.0 / math.sqrt(2))
        assert (rep.detail["L_prime"], rep.verdict) == (3, "not-applicable")

    @pytest.mark.parametrize("epsilon", [1e-160, 1e-200])
    def test_epsilon_without_finite_inverse_square_rejected(self, epsilon):
        # floor(1/eps^2) once raised an OverflowError (1e-160) or a
        # ZeroDivisionError (1e-200)
        c = _code(2, (0, 0, 0, 0), (1, 1, 1, 1))
        with pytest.raises(DomainError, match=(
                f"^need 1/epsilon\\^2 to be a finite float, got epsilon={epsilon}$")):
            johnson_check(c, epsilon)

    @pytest.mark.parametrize("epsilon, l_prime", [(0.1, 101), (0.2, 26)])
    def test_l_prime_pins(self, epsilon, l_prime):
        # floor(1/eps^2) of the float eps gives 100 and 25 at 0.1 and 0.2
        rep = johnson_check(_code(2, (0, 0), (1, 1)), epsilon)
        assert (rep.detail["L_prime"], rep.conclusion_threshold) == (l_prime, l_prime - 1)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(epsilon=st.floats(1e-150, 1 / math.sqrt(2), exclude_max=True))
    def test_l_prime_floors_the_decimal(self, epsilon):
        """L' = floor(1/eps^2) + 1, exactly for the decimal eps prints as."""
        rep = johnson_check(_code(2, (0, 0), (1, 1)), epsilon)
        assert rep.detail["L_prime"] == math.floor(1 / Fraction(repr(epsilon)) ** 2) + 1

    def test_small_code_not_applicable(self):
        rep = johnson_check(_code(2, (0, 0), (1, 1)), 0.25)
        assert rep.verdict == "not-applicable"

    def test_report_is_hashable_and_its_detail_read_only(self):
        # hash() once raised TypeError on the dict, and a write to it reached
        # the report's JSON
        c = Code.from_array(2, [[0, 0, 0], [0, 1, 1], [1, 1, 1]])
        rep = johnson_check(c, 0.5)
        assert hash(rep) == hash(johnson_check(c, 0.5))
        # detail is left out of the hash but not out of ==
        one, other = (listdecode.JohnsonReport(None, 0.25, None, 4.0, "not-applicable",
                                               {"L_prime": lp}) for lp in (5, 6))
        assert hash(one) == hash(other) and one != other
        with pytest.raises(TypeError):
            rep.detail["x"] = 1
        detail = {"L_prime": 5}
        built = listdecode.JohnsonReport(None, 0.25, None, 4.0, "not-applicable", detail)
        detail["x"] = 1
        assert built.to_dict()["L_prime"] == 5 and "x" not in built.to_dict()

    def test_premise_violation_is_vacuous(self):
        # five words clustered at tiny mutual distance: 5-wise distance ~ 0
        rows = [(0,) * 8]
        for i in range(4):
            row = [0] * 8
            row[i] = 1
            rows.append(tuple(row))
        rep = johnson_check(_code(2, *rows), 0.5)
        assert rep.verdict == "vacuous"
        assert rep.premise_value < rep.premise_threshold

    def test_zero_counterexamples_on_corpus_slice(self, listdecode_corpus):
        verdicts = set()
        for code in listdecode_corpus[:120]:
            rep = johnson_check(code, 0.5)
            assert rep.verdict != "fail"
            verdicts.add(rep.verdict)
        assert "pass" in verdicts


class TestConverse:
    def test_requires_binary(self):
        with pytest.raises(DomainError):
            converse_check(_code(3, (0, 0), (1, 1)), 2, 0.25)

    def test_small_code_not_applicable(self):
        rep = converse_check(_code(2, (0, 0), (1, 1)), 2, 0.25)
        assert rep.verdict == "not-applicable"

    def test_list_decodability_failure_is_vacuous(self):
        # 8 words within radius 1 of zero: huge list at small radius
        rows = [(0,) * 8]
        for i in range(7):
            row = [0] * 8
            row[i] = 1
            rows.append(tuple(row))
        rep = converse_check(_code(2, *rows), 2, 0.25)
        assert rep.verdict == "vacuous"

    def test_zero_counterexamples_on_corpus_slice(self, listdecode_corpus):
        for code in listdecode_corpus[:80]:
            rep = converse_check(code, 2, 0.25)
            assert rep.verdict != "fail"

    def test_epsilon_range(self):
        with pytest.raises(DomainError):
            converse_check(_code(2, (0, 0), (1, 1)), 2, 0.6)

    @pytest.mark.parametrize("L", [0, -3])
    def test_order_below_one_named(self, L):
        # the refusal once named L' = ceil(L/eps) as L
        with pytest.raises(DomainError, match=f"^need L >= 1, got L={L}$"):
            converse_check(_code(2, (0, 0), (1, 1)), L, 0.5)

    def test_epsilon_without_finite_ratio_rejected(self):
        # ceil(L/eps) once raised an OverflowError
        with pytest.raises(DomainError, match=(
                "^need L/epsilon to be a finite float, got epsilon=1e-320$")):
            converse_check(_code(2, (0, 0), (1, 1)), 1, 1e-320)

    @pytest.mark.parametrize("L", [10**400, 2**1024], ids=["10**400", "2**1024"])
    def test_order_past_the_float_range_named(self, L):
        # L / epsilon once raised an internal OverflowError
        with pytest.raises(DomainError, match=(
                r"^need L within the float range, L <= 1\.7976931348623157e\+308$")):
            converse_check(_code(2, (0, 0), (1, 1)), L, 0.5)


@st.composite
def _link_codes(draw):
    """Mostly binary codes of up to 24 distinct words; a ternary one is refused."""
    q = draw(st.sampled_from([2, 2, 2, 3]))
    n = draw(st.integers(1, 8))
    word = st.tuples(*[st.integers(0, q - 1)] * n)
    return _code(q, *draw(st.lists(word, min_size=1, max_size=24, unique=True)))


def _outcome(check, *args):
    """check(*args)'s report, or its refusal as (type, message)."""
    try:
        return check(*args)
    except DomainError as exc:
        return type(exc), str(exc)


class TestLinkReadings:
    """Johnson's check and its converse read one evaluation of the link; the
    scalar oracles are the two checks as each once wrote it out in full."""

    def test_reports_equal_the_oracles(self):
        seen = set()
        cube = _code(2, *product((0, 1), repeat=4))

        # a planted (list size, L'-wise distance) reaches every verdict,
        # "fail" too, which no code does against the theorems' constants;
        # the examples are the two fails, then a list size at Johnson's bound
        # (pass) and at the converse's L (vacuous) and just below it (pass)
        @settings(derandomize=True, max_examples=400, deadline=None)
        @given(c=_link_codes(),
               epsilon=st.sampled_from([1e-320, 1e-160, 0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.6,
                                        0.7, 0.75]),
               L=st.sampled_from([-1, 0, 1, 2, 3, 5, 10**400]),
               planted=st.none() | st.tuples(st.integers(0, 6), st.floats(0.0, 1.0)))
        @example(c=cube, epsilon=0.5, L=-1, planted=(5, 0.5))
        @example(c=cube, epsilon=0.1, L=1, planted=(0, 0.25))
        @example(c=cube, epsilon=0.5, L=4, planted=(4, 0.5))
        @example(c=cube, epsilon=0.5, L=5, planted=(4, 0.5))
        def compare(c, epsilon, L, planted):
            size_of, distance_of = listdecode.list_sizes_at_radii, codes.lwise_distance

            def planted_size(c, r):
                size, center = size_of(c, r)
                return (planted[0] if planted else size), center

            def planted_distance(c, l_prime):
                report = distance_of(c, l_prime)
                return (dataclasses.replace(report, relative=Fraction(planted[1])) if planted
                        else report)

            with pytest.MonkeyPatch.context() as mp:
                for module in (listdecode, oracle):
                    mp.setattr(module, "list_sizes_at_radii", planted_size)
                for module in (listdecode, codes):
                    mp.setattr(module, "lwise_distance", planted_distance)
                for check, args in (("johnson_check", (c, epsilon)),
                                    ("converse_check", (c, L, epsilon))):
                    got = _outcome(getattr(listdecode, check), *args)
                    assert got == _outcome(getattr(oracle, check), *args)
                    seen.add((check, "refused" if isinstance(got, tuple) else got.verdict))

        compare()
        assert seen == {(check, verdict) for check in ("johnson_check", "converse_check")
                        for verdict in ("not-applicable", "vacuous", "pass", "fail",
                                        "refused")}

    def test_converse_takes_the_distance_before_the_list_size(self, monkeypatch):
        # both caps exceeded: the L'-wise distance's refusal comes first,
        # where the converse once named the center cap
        monkeypatch.setenv("SPARSECODE_CAP", "1")
        c = Code.from_array(2, [[0, 0, 0], [0, 1, 1], [1, 1, 0]])
        with pytest.raises(EnumerationCapError, match="^8 centers exceed cap 1$"):
            oracle.converse_check(c, 1, 0.5)
        with pytest.raises(EnumerationCapError,
                           match="^3 subsets of size 2 exceed cap 1$"):
            converse_check(c, 1, 0.5)


class TestExactLinkVerdicts:
    """Johnson's premise d >= 1/2 - eps^2 and the converse's conclusion
    d >= 1/2 - 2 eps compare the exact L'-wise distance with the exact
    threshold for the decimal eps prints as.  A distance planted 1e-13
    below its threshold fails them, where a 1e-12 slack once let it hold."""

    @pytest.fixture
    def plant(self, monkeypatch):
        def plant(relative: Fraction):
            monkeypatch.setattr(listdecode, "lwise_distance", lambda c, L: codes.DistanceReport(
                float(relative) * c.n, relative, tuple(range(L))))
        return plant

    @pytest.mark.parametrize("below, verdict", [(0, "pass"), (Fraction(1, 10**13), "vacuous")])
    def test_johnson_premise(self, plant, below, verdict):
        # eps = 0.2: L' = 26 of the 32 words, and 1/2 - eps^2 = 23/50, which
        # the report prints as the float formula's 0.45999999999999996
        plant(Fraction(23, 50) - below)
        rep = johnson_check(_code(2, *product((0, 1), repeat=5)), 0.2)
        assert (rep.detail["L_prime"], rep.premise_threshold, rep.verdict) == (
            26, 0.45999999999999996, verdict)

    @pytest.mark.parametrize("below, verdict", [(0, "pass"), (Fraction(1, 10**13), "fail")])
    def test_converse_conclusion(self, plant, below, verdict):
        # eps = 0.2, L = 8: a ball of radius 1 holds 7 < 8 of the 64 words,
        # and 1/2 - 2 eps = 1/10
        plant(Fraction(1, 10) - below)
        rep = converse_check(_code(2, *product((0, 1), repeat=6)), 8, 0.2)
        assert (rep.premise_value, rep.verdict) == (7.0, verdict)


def _rip_ld(capsys, tmp_path, m, L, epsilon):
    """`pipeline rip-ld` on m, written to a matrix file: (exit code, report)."""
    path = tmp_path / "m.json"
    write_matrix(m, path)
    code = main(["pipeline", "rip-ld", "--matrix", str(path), "--L", str(L),
                 "--epsilon", str(epsilon)])
    return code, json.loads(capsys.readouterr().out)


# orthonormal +-1/2 columns in dimension 4
_HADAMARD_4 = np.array(
    [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ],
    dtype=float,
).T / 2.0


# eight orthonormal +-1/sqrt(8) columns, so L = 8 fits
_HADAMARD_8 = np.kron(np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]),
                      [[1, 1], [1, -1]]) / math.sqrt(8)


class TestEpsilonFloor:
    def test_values(self, capsys, tmp_path):
        code, report = _rip_ld(capsys, tmp_path, _HADAMARD_8, 8, 0.6)
        assert code == 0
        assert report["epsilon_floor"] == pytest.approx(1.0 / math.sqrt(3))
        assert report["epsilon_floor_attainable"] is True
        assert report["epsilon_above_floor"] is True

    @pytest.mark.parametrize("epsilon, above", [
        ("0.5773502691896257", False), ("0.5773502691896258", True)])
    def test_floor_is_judged_exactly(self, capsys, tmp_path, epsilon, above):
        # at L = 8 the floor is 1/sqrt(3) = 0.57735026918962576...: the
        # first decimal lies below it, though a 1e-12 slack once passed it
        code, report = _rip_ld(capsys, tmp_path, _HADAMARD_8, 8, epsilon)
        assert (code, report["epsilon_above_floor"]) == (0, above)

    def test_above_the_floor_is_sound(self, capsys, tmp_path):
        """A report that says epsilon_above_floor has Johnson's L' within
        floor(L/2): at L = 8 over eps = 0.50, 0.51, ..., 0.70.  The floor is
        one step too strict (ROADMAP, known defects: eps = 0.55 gives
        L' = 4 yet reads false), so the count of trues is only bounded."""
        above = 0
        for hundredths in range(50, 71):
            _, report = _rip_ld(capsys, tmp_path, _HADAMARD_8, 8, f"0.{hundredths}")
            if report["epsilon_above_floor"]:
                above += 1
                assert report["johnson"]["L_prime"] <= 8 // 2, hundredths
        assert above >= 13

    def test_attainable_is_the_float_comparison(self):
        """floor(L/2) >= 4 gives the bool of 1/sqrt(floor(L/2) - 1) <
        1/sqrt(2) at every L, and the same floor: at floor(L/2) = 3 both
        sides are the same float."""
        for L in range(65):
            half = L // 2
            eps = 1.0 / math.sqrt(half - 1) if half >= 2 else 1.0
            assert cli._epsilon_floor(L) == (eps, half >= 2 and eps < 1.0 / math.sqrt(2.0)), L

    def test_unattainable_for_small_orders(self, capsys, tmp_path):
        _, report = _rip_ld(capsys, tmp_path, _HADAMARD_4, 4, 0.5)
        assert (report["epsilon_floor"], report["epsilon_floor_attainable"],
                report["epsilon_above_floor"]) == (1.0, False, False)


class TestRipToListDecoding:
    def test_hadamard_like_columns(self, capsys, tmp_path):
        code, report = _rip_ld(capsys, tmp_path, _HADAMARD_4, 4, 0.5)
        assert code == 0
        assert list(report) == [
            "property", "order", "claimed_rip_constant", "flat_constant",
            "flat_predicted_bound", "flat_ok", "bias_stages", "epsilon",
            "epsilon_floor", "epsilon_floor_attainable", "epsilon_above_floor",
            "johnson", "measured_rip_constant", "pass", "elapsed_ms"]
        assert report["claimed_rip_constant"] == report["measured_rip_constant"] == 0.0
        assert report["flat_ok"]
        assert [list(stage) for stage in report["bias_stages"]] == [
            ["L", "measured_bias", "predicted_bound", "ok"]]
        assert all(stage["ok"] for stage in report["bias_stages"])
        assert report["johnson"]["verdict"] in ("pass", "vacuous", "not-applicable")

    @pytest.mark.parametrize("stage", ["flat", "bias"])
    @pytest.mark.parametrize("above, holds", [(1e-10, False), (1e-13, True)])
    def test_stage_has_the_one_slack(self, capsys, tmp_path, monkeypatch, stage, above,
                                     holds):
        """A stage planted `above` its bound, the flat constant or the 2-wise
        bias: 1e-10 over is violated, as a float stage is judged like a
        float `verify` row, with 1e-12, and 1e-13 over holds."""
        m = sph_code(balance_closure(enumerate_codewords(random_linear_code_gv(2, 12, 0.2,
                                                                               seed=3))))
        _, report = _rip_ld(capsys, tmp_path, m, 6, 0.5)
        if stage == "flat":
            bound, flat_rip_constant = report["flat_predicted_bound"], certify.flat_rip_constant
            monkeypatch.setattr(certify, "flat_rip_constant", lambda m, L: dataclasses.replace(
                flat_rip_constant(m, L), constant=bound + above))
        else:
            bound, lwise_bias = report["bias_stages"][0]["predicted_bound"], codes.lwise_bias
            monkeypatch.setattr(codes, "lwise_bias", lambda c, L: bound + above if L == 2
                                else lwise_bias(c, L))
        code, planted = _rip_ld(capsys, tmp_path, m, 6, 0.5)
        ok = planted["flat_ok"] if stage == "flat" else planted["bias_stages"][0]["ok"]
        assert (code, ok, planted["pass"]) == (int(not holds), holds, holds)

    def test_gv_embedding_end_to_end(self, capsys, tmp_path):
        lc = random_linear_code_gv(2, 12, 0.2, seed=3)
        m = sph_code(balance_closure(enumerate_codewords(lc)))
        L = 6
        code, report = _rip_ld(capsys, tmp_path, m, L, 0.5)
        assert code == 0
        alpha = rip2_constant(m, L).alpha
        assert report["claimed_rip_constant"] == report["measured_rip_constant"] == alpha
        assert report["flat_ok"]
        assert all(stage["ok"] for stage in report["bias_stages"])
        assert report["johnson"]["verdict"] != "fail"
        assert report["epsilon_floor"] == pytest.approx(1.0 / math.sqrt(2))
