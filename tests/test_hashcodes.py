"""Hash code search, bounds, and serialization."""

import random
import sys
from itertools import combinations, product
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from antipodes import hashcodes
from antipodes.hashcodes import (
    BATCH_LIMIT,
    WORD_LIMIT,
    HashCode,
    HashCodeError,
    SearchResult,
    code_from_obj,
    counting_bound,
    dump_code,
    greedy_code,
    is_perfect,
    load_code,
    max_code,
    random_code,
    rate_bounds,
)
from antipodes.rationals import LogRatio, ratio


def brute_max(b, k, m):
    """Independent exhaustive reference for tiny parameter sets."""

    def split(batch):
        return any(len({w[j] for w in batch}) == len(batch) for j in range(m))

    universe = list(product(range(1, b + 1), repeat=m))
    best = 0
    for size in range(len(universe), 0, -1):
        if size <= best:
            break
        for subset in combinations(universe, size):
            if all(split(batch) for batch in combinations(subset, k)):
                best = size
                break
    return best


# ---------------------------------------------------------------------------
# reference searches: the set-based compatibility test the bitset kernel
# replaced, with the forward check to pin down nodes, optimal flags and
# words, and without it to check that the check keeps every optimum


def _ref_compatible(kept, word, k, m):
    """Every order-k batch through the new word stays separated."""
    if len(kept) < k - 1:
        return True
    for rest in combinations(kept, k - 1):
        if not hashcodes._separated(rest + (word,), m):
            return False
    return True


def _agreement(u, v):
    return sum(s == t for s, t in zip(u, v))


def ref_max_code(b, k, m, budget=hashcodes.DEFAULT_BUDGET):
    """The search with its forward check and pair rule in set terms.

    Each level keeps the ascending indices of the words compatible with the
    chosen ones; a child filters its parent's list only through the batches
    that hold the new word.  A compatible word is skipped, but counted,
    when the compatible words from it on cannot lift the chosen words past
    the incumbent.  At order 3 and up with two or more coordinates, the
    second word must be sorted, and a word agreeing with a chosen word in
    more places than the first two words agree is incompatible.
    """
    cap = floor(counting_bound(b, k, m))
    universe = list(product(range(1, b + 1), repeat=m))
    paired = k > 2 and m > 1
    best = []
    nodes = 0
    exhausted = False

    def extend(chosen, compatible, start, maxseen):
        nonlocal best, nodes, exhausted
        ahead = 0  # compatible[ahead] is the first compatible index >= idx
        for idx in range(start, len(universe)):
            if len(chosen) + (len(universe) - idx) <= len(best):
                return
            while ahead < len(compatible) and compatible[ahead] < idx:
                ahead += 1
            word = universe[idx]
            if any(word[j] > maxseen[j] + 1 for j in range(m)):
                continue
            if paired and len(chosen) == 1 and word != tuple(sorted(word)):
                continue
            nodes += 1
            if nodes > budget:
                exhausted = True
                return
            if ahead == len(compatible) or compatible[ahead] != idx:
                continue
            if len(chosen) + len(compatible) - ahead <= len(best):
                continue
            later = [
                j for j in compatible[ahead + 1:]
                if all(
                    hashcodes._separated(rest + (word, universe[j]), m)
                    for rest in combinations(chosen, k - 2)
                )
            ]
            if paired and chosen:
                pair = (chosen + [word])[:2]
                near = pair if len(chosen) == 1 else [word]
                limit = _agreement(*pair)
                later = [
                    j for j in later
                    if all(_agreement(u, universe[j]) <= limit for u in near)
                ]
            chosen.append(word)
            if len(chosen) > len(best):
                best = list(chosen)
            if len(best) < cap:
                extend(
                    chosen, later, idx + 1, [max(a, s) for a, s in zip(maxseen, word)]
                )
            chosen.pop()
            if exhausted or len(best) >= cap:
                return

    extend([], list(range(len(universe))), 0, [0] * m)
    code = HashCode(b, k, m, tuple(best))
    return SearchResult(code=code, optimal=not exhausted, nodes=nodes)


def ref_max_code_plain(b, k, m, budget=hashcodes.DEFAULT_BUDGET):
    """The search without its forward check: it visits more nodes, but its
    optimal flags and sizes must agree wherever it finishes."""
    cap = floor(counting_bound(b, k, m))
    universe = list(product(range(1, b + 1), repeat=m))
    best = []
    nodes = 0
    exhausted = False

    def extend(chosen, start, maxseen):
        nonlocal best, nodes, exhausted
        for idx in range(start, len(universe)):
            if len(chosen) + (len(universe) - idx) <= len(best):
                return
            word = universe[idx]
            if any(word[j] > maxseen[j] + 1 for j in range(m)):
                continue
            nodes += 1
            if nodes > budget:
                exhausted = True
                return
            if not _ref_compatible(chosen, word, k, m):
                continue
            chosen.append(word)
            if len(chosen) > len(best):
                best = list(chosen)
            if len(best) < cap:
                extend(chosen, idx + 1, [max(a, s) for a, s in zip(maxseen, word)])
            chosen.pop()
            if exhausted or len(best) >= cap:
                return

    extend([], 0, [0] * m)
    code = HashCode(b, k, m, tuple(best))
    return SearchResult(code=code, optimal=not exhausted, nodes=nodes)


def ref_greedy_code(b, k, m):
    kept = []
    for word in product(range(1, b + 1), repeat=m):
        if _ref_compatible(kept, word, k, m):
            kept.append(word)
    return HashCode(b, k, m, tuple(kept))


@pytest.fixture
def deep_recursion():
    # The reference recurses once per chosen word, and order 2 keeps all
    # of up to 1296 words.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    yield
    sys.setrecursionlimit(limit)


def _small_instances():
    for b in range(2, 7):
        for k in range(2, min(b, 5) + 1):
            for m in range(1, 5):
                if b**m <= 1300:
                    yield b, k, m


#: A budget that no search over at most 64 words spends: those searches
#: run to the end.
_EXHAUSTIVE = 10**9


def _reference_cases():
    for b, k, m in _small_instances():
        for budget in [1, 2, 37, 1000, 5000] + ([_EXHAUSTIVE] if b**m <= 64 else []):
            yield (b, k, m), budget


def test_max_code_matches_reference(deep_recursion):
    checked = 0
    for (b, k, m), budget in _reference_cases():
        assert max_code(b, k, m, budget) == ref_max_code(b, k, m, budget), (
            b, k, m, budget,
        )
        checked += 1
    assert checked == 315


def test_forward_check_keeps_the_optimum(deep_recursion):
    # The bound is sound: on every exhaustive case the search without it
    # finds a code of the same size, on no fewer nodes.
    exhaustive = 0
    for (b, k, m), budget in _reference_cases():
        if budget == _EXHAUSTIVE:
            plain = ref_max_code_plain(b, k, m, budget)
            result = max_code(b, k, m, budget)
            assert plain.optimal and result.optimal, (b, k, m)
            assert len(result.code) == len(plain.code), (b, k, m)
            assert result.nodes <= plain.nodes, (b, k, m)
            exhaustive += 1
    assert exhaustive == 35


def _representative(words, m):
    """max_code's representative of a code: a pair with the largest
    agreement a becomes 1^m and 1^a 2^(m-a), with the agreeing coordinates
    first, and the rest is renamed until each coordinate's symbols first
    appear in the order 1, 2, 3, ... down the sorted words.  Each renaming
    pass makes the sorted word list lexicographically smaller, so the
    passes stop."""
    u, v = max(combinations(words, 2), key=lambda pair: _agreement(*pair))
    order = sorted(range(m), key=lambda j: u[j] != v[j])
    words = [tuple(w[j] for j in order) for w in words]
    # Symbol u_j goes first in coordinate j, then v_j, then the rest.
    ranks = [sorted(set(col), key=lambda s: (s != u[j], s != v[j], s))
             for j, col in zip(order, zip(*words))]
    words = [tuple(rank.index(s) + 1 for rank, s in zip(ranks, w)) for w in words]
    while True:
        words.sort()
        firsts = [list(dict.fromkeys(col)) for col in zip(*words)]
        renamed = [tuple(first.index(s) + 1 for first, s in zip(firsts, w)) for w in words]
        if renamed == words:
            return words
        words = renamed


@st.composite
def _perfect_codes(draw):
    """A random perfect code: random words, each kept when it leaves every
    batch separated."""
    k = draw(st.sampled_from((3, 4)))
    b = draw(st.integers(k, 5))
    m = draw(st.integers(2, 4))
    universe = list(product(range(1, b + 1), repeat=m))
    order = draw(st.permutations(universe))
    kept = []
    for word in order[:draw(st.integers(2, 40))]:
        if _ref_compatible(kept, word, k, m):
            kept.append(word)
    return b, k, m, kept


@settings(max_examples=150, deadline=None)
@given(_perfect_codes())
def test_pair_rule_admits_every_code_up_to_symmetry(case):
    b, k, m, words = case
    if len(words) < 2:
        return
    words = _representative(words, m)
    assert is_perfect(HashCode(b, k, m, tuple(words))) == (True, None)
    a = _agreement(words[0], words[1])
    # The renaming rule, then the pair rule: 1^m, an ascending second word,
    # and no pair agreeing in more than a coordinates.
    for j, col in enumerate(zip(*words)):
        assert all(s <= max(col[:i], default=0) + 1 for i, s in enumerate(col)), j
    assert words[0] == (1,) * m
    assert words[1] == (1,) * a + (2,) * (m - a)
    assert all(_agreement(u, v) <= a for u, v in combinations(words, 2))
    # The same in max_code's masks: no word is near an earlier one.
    universe = list(product(range(1, b + 1), repeat=m))
    symbol = hashcodes._lex_masks(b, m, len(universe))
    for i, u in enumerate(words):
        near = hashcodes._agreeing(u, a, symbol)
        assert not any(near >> universe.index(v) & 1 for v in words[i + 1:])


#: The capped hash-search instances of the build-measure benchmark and the
#: words each returns once its budget is spent.
CAPPED = {
    (5, 3, 3, 20000): "111 112 113 114 125 135 145 255 355 455 555",
    (4, 3, 4, 20000): "1111 1112 1113 1124 1134 1244 1344 2444 3444 4444",
    (3, 3, 5, 30000): "11111 11112 11223 12133 21323 23133 32323 33233 33313",
    (6, 3, 3, 20000): "111 112 113 114 115 126 136 146 156 266 366 466 566 666",
}


def test_max_code_matches_reference_on_capped_instances():
    for (b, k, m, budget), words in CAPPED.items():
        result = max_code(b, k, m, budget)
        assert result == ref_max_code(b, k, m, budget)
        # A prune strong enough to finish one of these would turn its
        # benchmark job's expected exit 3 into a failure.
        assert result.nodes == budget + 1 and not result.optimal
        assert result.code.words == tuple(
            tuple(map(int, word)) for word in words.split()
        )


def test_max_code_node_pins():
    for (b, k, m), size, nodes in (
        ((3, 3, 2), 4, 12),
        ((3, 3, 3), 6, 116),
        ((3, 3, 4), 9, 12020),
        ((4, 3, 3), 9, 18361),
        ((5, 3, 2), 8, 120),
        ((4, 4, 3), 5, 1327),
    ):
        result = max_code(b, k, m)
        assert result.optimal, (b, k, m)
        assert (len(result.code), result.nodes) == (size, nodes), (b, k, m)


def _record_memo(monkeypatch):
    """Spy on max_code's memo: (size, room) after every batch lookup, every
    batch whose mask is computed, as a tuple of words (pairs at order 3,
    through _pair_blocked), and every (word, agreement) whose mask of near
    words is computed.  bound(n, entries) clears the records and, given
    `entries`, cuts the memo's bound to that many masks over a universe of
    n words."""
    real_newly = hashcodes._newly_blocked
    real_pair, real_blocked = hashcodes._pair_blocked, hashcodes._blocked
    real_agreeing = hashcodes._agreeing
    sizes, computed, near = [], [], []

    def newly(chosen, idx, k, words, symbol, memo, room):
        out = real_newly(chosen, idx, k, words, symbol, memo, room)
        sizes.append((len(memo), room))
        return out

    def pair(u, v, symbol):
        computed.append((u, v))
        return real_pair(u, v, symbol)

    def blocked(batch, symbol):
        computed.append(tuple(batch))
        return real_blocked(batch, symbol)

    def agreeing(word, agree, symbol):
        near.append((word, agree))
        return real_agreeing(word, agree, symbol)

    monkeypatch.setattr(hashcodes, "_newly_blocked", newly)
    monkeypatch.setattr(hashcodes, "_pair_blocked", pair)
    monkeypatch.setattr(hashcodes, "_blocked", blocked)
    monkeypatch.setattr(hashcodes, "_agreeing", agreeing)

    def bound(n, entries=None):
        sizes.clear()
        computed.clear()
        near.clear()
        if entries is not None:
            cost = n + hashcodes._BLOCKED_ENTRY_BITS
            monkeypatch.setattr(hashcodes, "_BLOCKED_CACHE_BITS", (entries + 1) * cost - 1)

    return bound, sizes, computed, near


def test_max_code_computes_each_batch_once(monkeypatch):
    # Near-word masks share the memo; a word meets each batch after its
    # own near mask, so the last size counts both kinds.
    bound, sizes, computed, near = _record_memo(monkeypatch)
    cases = (((4, 3, 3), _EXHAUSTIVE), ((3, 3, 5), 30000), ((4, 4, 3), _EXHAUSTIVE))
    for (b, k, m), budget in cases:
        bound(b**m)
        result = max_code(b, k, m, budget)
        assert result == ref_max_code(b, k, m, budget)
        assert computed and all(len(batch) == k - 1 for batch in computed)
        assert len(computed) == len(set(computed))
        assert len(near) == len(set(near))
        assert len(computed) + len(near) == sizes[-1][0] < sizes[-1][1]
        # (3, 3, 5) spends its budget under the second word 11112, whose
        # agreement 4 = m - 1 forbids no word.
        assert bool(near) == (budget == _EXHAUSTIVE)


def test_max_code_with_a_full_memo_matches_reference(monkeypatch, deep_recursion):
    # A memo of a few masks fills at once; from then on every new batch is
    # computed each time it is met, with the same nodes, flags and words.
    cases = [
        ((5, 3, 3), 20000), ((4, 3, 4), 20000), ((6, 3, 3), 20000), ((3, 3, 5), 30000)
    ]
    # Only order 3 and up with two or more coordinates has batches to keep.
    blocking = [case for case in _reference_cases() if case[0][1] > 2 and case[0][2] > 1]
    cases += random.Random(8).sample(blocking, 40)
    bound, sizes, computed, near = _record_memo(monkeypatch)
    for entries in (0, 3):
        recomputed = {}
        for (b, k, m), budget in cases:
            bound(b**m, entries)
            result = max_code(b, k, m, budget)
            assert result == ref_max_code(b, k, m, budget), (b, k, m, budget)
            assert all(size <= room == entries for size, room in sizes)
            if len(set(computed)) + len(set(near)) > entries:
                assert sizes[-1][0] == entries
            recomputed[k] = recomputed.get(k, 0) + len(computed) - len(set(computed))
        assert recomputed[3] > 0 and recomputed[4] > 0


def test_max_code_keeps_few_masks_over_a_large_universe(monkeypatch):
    # 3**10 = 59 049 words: each mask is 59 049 bits, so the memo may hold
    # only 68 of them.
    bound, sizes, computed, near = _record_memo(monkeypatch)
    bound(3**10)
    result = max_code(3, 3, 10, budget=20000)
    room = hashcodes._BLOCKED_CACHE_BITS // (3**10 + hashcodes._BLOCKED_ENTRY_BITS)
    assert room == 68
    assert sizes and all(size <= r == room for size, r in sizes)
    assert len(computed) == len(set(computed)) == sizes[-1][0]
    assert not near
    assert (len(result.code), result.nodes, result.optimal) == (7, 20001, False)
    assert result.code.words[-1] == (1, 1, 1, 1, 1, 3, 3, 3, 3, 3)


def test_greedy_code_matches_reference():
    for b, k, m in _small_instances():
        assert greedy_code(b, k, m) == ref_greedy_code(b, k, m), (b, k, m)


@st.composite
def _kernel_cases(draw):
    """The lexicographic word list with its symbol masks, and an index
    with a set of partner indices for the batch kernel."""
    k = draw(st.sampled_from((3, 4)))
    b = draw(st.integers(k, 5))
    m = draw(st.integers(2, 3))
    words = list(product(range(1, b + 1), repeat=m))
    symbol = hashcodes._lex_masks(b, m, len(words))
    idx = draw(st.integers(0, len(words) - 1))
    others = st.integers(0, len(words) - 1).filter(lambda i: i != idx)
    chosen = sorted(draw(st.sets(others, max_size=6)))
    room = draw(st.sampled_from((0, 2, 1000)))
    return k, words, symbol, idx, chosen, room


@settings(max_examples=150, deadline=None)
@given(_kernel_cases())
def test_newly_blocked_is_the_or_of_batch_masks(case):
    k, words, symbol, idx, chosen, room = case
    expected = 0
    for rest in combinations(chosen, k - 2):
        expected |= hashcodes._blocked([words[i] for i in rest] + [words[idx]], symbol)
    memo = {}
    # The second call reads back whatever masks the first one kept.
    for _ in range(2):
        assert hashcodes._newly_blocked(chosen, idx, k, words, symbol, memo, room) == expected
        assert len(memo) <= room


def test_order_two_search_goes_deeper_than_the_recursion_limit():
    result = max_code(32, 2, 2)
    assert len(result.code) == 1024
    assert result.optimal
    assert result.nodes == 1024


def test_counting_bound_values():
    assert counting_bound(3, 3, 2) == ratio(9, 2)
    assert counting_bound(2, 2, 5) == 32
    assert counting_bound(4, 3, 1) == 4
    # length zero: only k-1 words can avoid an unseparated batch
    assert counting_bound(3, 3, 0) == 2


def test_counting_bound_rejects_bad_params():
    with pytest.raises(HashCodeError):
        counting_bound(2, 3, 1)
    with pytest.raises(HashCodeError):
        counting_bound(3, 1, 1)
    with pytest.raises(HashCodeError):
        counting_bound(3, 3, -1)


def test_single_letter_codes_use_whole_alphabet():
    for b, k in ((2, 2), (3, 3), (4, 3)):
        result = max_code(b, k, 1)
        assert result.optimal
        assert len(result.code) == b


def test_order_two_codes_take_every_word():
    for m in (1, 2, 3):
        result = max_code(2, 2, m)
        assert result.optimal
        assert len(result.code) == 2**m


def test_ternary_order_three_length_two():
    result = max_code(3, 3, 2)
    assert result.optimal
    assert len(result.code) == 4
    assert result.code.words == ((1, 1), (1, 2), (2, 3), (3, 3))
    assert is_perfect(result.code) == (True, None)
    # Exhaustive reference over all 512 subsets agrees.
    assert brute_max(3, 3, 2) == 4
    # The counting bound is not reached here: floor(9/2) = 4 is, but the
    # unrounded value is strictly larger.
    assert len(result.code) == floor(counting_bound(3, 3, 2))


def test_budget_cuts_search_short():
    result = max_code(3, 3, 2, budget=1)
    assert not result.optimal
    assert len(result.code) >= 1
    with pytest.raises(HashCodeError):
        max_code(3, 3, 2, budget=0)


def test_greedy_is_perfect_but_smaller_here():
    code = greedy_code(3, 3, 2)
    assert is_perfect(code) == (True, None)
    assert code.words == ((1, 1), (1, 2), (1, 3))
    assert len(code) < len(max_code(3, 3, 2).code)


def test_exact_values_are_monotone():
    def n(b, k, m):
        result = max_code(b, k, m)
        assert result.optimal
        return len(result.code)

    assert n(2, 2, 1) <= n(3, 2, 1) <= n(4, 2, 1)
    assert n(2, 2, 1) <= n(2, 2, 2) <= n(2, 2, 3)
    assert n(3, 3, 2) <= n(3, 2, 2)


def test_is_perfect_reports_first_bad_batch():
    code = HashCode(3, 3, 2, ((1, 1), (1, 2), (2, 1)))
    ok, batch = is_perfect(code)
    assert not ok
    assert batch == ((1, 1), (1, 2), (2, 1))


def test_code_validation():
    with pytest.raises(HashCodeError):
        HashCode(3, 3, 2, ((1, 1), (1, 1)))
    with pytest.raises(HashCodeError):
        HashCode(3, 3, 2, ((1, 4),))
    with pytest.raises(HashCodeError):
        HashCode(3, 3, 2, ((1,),))
    with pytest.raises(HashCodeError):
        HashCode(3, 3, 2, ((1, True),))


def test_random_code_deterministic_and_perfect():
    a = random_code(3, 3, 12, seed=7)
    b = random_code(3, 3, 12, seed=7)
    assert a == b
    assert is_perfect(a) == (True, None)
    assert len(a) >= 1


def test_random_code_order_two():
    code = random_code(2, 2, 3, seed=5)
    assert is_perfect(code) == (True, None)
    assert len(set(code.words)) == len(code)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**1500), st.integers(1, 9), st.integers(-1, 1), st.booleans())
def test_iroot_is_the_exact_floor_root(a, r, delta, near_power):
    # Arbitrary values and neighbours of exact powers, far past the range
    # of a float.
    x = max(0, a**r + delta) if near_power else a
    g = hashcodes._iroot(x, r)
    assert g**r <= x < (g + 1) ** r


def test_random_code_needs_integer_seed():
    with pytest.raises(HashCodeError):
        random_code(2, 2, 3, seed="7")


def test_word_limit_is_exact(monkeypatch):
    # The word list is never built here: product is swapped for a recorder.
    built = []
    monkeypatch.setattr(
        hashcodes, "product", lambda *args, **kw: built.append(kw) or iter(())
    )
    assert WORD_LIMIT == 10**5
    greedy_code(10, 3, 5)  # exactly 10**5 words
    max_code(10, 3, 5)
    assert len(built) == 2
    for b, m in ((2, 17), (10**5 + 1, 1), (3, 10**12)):
        for build in (greedy_code, max_code):
            with pytest.raises(HashCodeError, match="word limit"):
                build(b, 2, m)
    assert len(built) == 2


def test_batch_limit_is_exact():
    # At order 2 the sample is all b**m words: 2**10 words make 523 776
    # pairs, 2**11 make 2 096 128.
    assert BATCH_LIMIT == 10**6
    assert len(random_code(2, 2, 10, seed=1)) > 0
    with pytest.raises(HashCodeError, match="batches"):
        random_code(2, 2, 11, seed=1)


def test_rate_bounds_binary_meet():
    lower, upper = rate_bounds(2, 2)
    assert lower == upper == LogRatio(1, 2)


def test_rate_bounds_ternary_gap():
    lower, upper = rate_bounds(3, 3)
    assert upper == LogRatio(1, ratio(3, 2))
    assert LogRatio(0, 1) < lower < upper


def test_roundtrip(tmp_path):
    code = max_code(3, 3, 2).code
    path = tmp_path / "code.json"
    dump_code(code, path)
    assert load_code(path) == code


def test_obj_diagnostics():
    with pytest.raises(HashCodeError, match="words\\[1\\]\\[1\\]"):
        code_from_obj({"b": 3, "k": 3, "m": 2, "words": [[1, 1], [1, "x"]]})
    with pytest.raises(HashCodeError, match="m: missing"):
        code_from_obj({"b": 3, "k": 3, "words": []})
    with pytest.raises(HashCodeError, match="top level"):
        code_from_obj([1, 2])


@st.composite
def _params(draw):
    k = draw(st.integers(2, 3))
    b = draw(st.integers(k, 4))
    m = draw(st.integers(1, 3))
    return b, k, m


@settings(max_examples=40, deadline=None)
@given(_params())
def test_greedy_properties(params):
    b, k, m = params
    code = greedy_code(b, k, m)
    assert is_perfect(code) == (True, None)
    assert len(code) <= floor(counting_bound(b, k, m))


@settings(max_examples=15, deadline=None)
@given(_params())
def test_search_beats_greedy(params):
    b, k, m = params
    if b**m > 30:  # keep the exhaustive search cheap
        return
    result = max_code(b, k, m)
    assert result.optimal
    assert len(result.code) >= len(greedy_code(b, k, m))


@settings(max_examples=25, deadline=None)
@given(_params(), st.randoms(use_true_random=False))
def test_relabeling_preserves_perfection(params, rng):
    b, k, m = params
    code = greedy_code(b, k, m)
    maps = []
    for _ in range(m):
        perm_syms = list(range(1, b + 1))
        rng.shuffle(perm_syms)
        maps.append({i + 1: perm_syms[i] for i in range(b)})
    relabeled = tuple(
        tuple(maps[j][w[j]] for j in range(m)) for w in code.words
    )
    again = HashCode(b, k, m, relabeled)
    assert is_perfect(again) == (True, None)
