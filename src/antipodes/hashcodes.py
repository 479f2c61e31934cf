"""Perfect hash codes over a finite alphabet.

A code of order k is a set of equal-length words over {1..b} such that
any k distinct words share a coordinate where all k symbols are pairwise
different.  Order 2 degenerates to "the words are distinct" and is
allowed for uniformity.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate, combinations, product
from math import comb, factorial, floor, perm
from operator import or_

from .rationals import LogRatio, ratio

__all__ = [
    "BATCH_LIMIT",
    "HashCode",
    "HashCodeError",
    "POWER_BITS_LIMIT",
    "SearchResult",
    "WORD_LIMIT",
    "code_from_obj",
    "code_to_obj",
    "counting_bound",
    "dump_code",
    "greedy_code",
    "is_perfect",
    "load_code",
    "max_code",
    "random_code",
    "rate_bounds",
]

DEFAULT_BUDGET = 500_000

#: max_code and greedy_code list every one of the b**m words; they refuse
#: more than this many before listing any.
WORD_LIMIT = 100_000

#: random_code scans every order-k batch of its sampled words once; it
#: refuses more than this many batches before sampling any, and the
#: hash-verify verb refuses a code file with more before scanning any.
BATCH_LIMIT = 1_000_000

#: random_code computes its sampling target from the exact probability
#: (1 - s)**m, whose denominator divides b**(k*m); it refuses a b**(k*m) of
#: more than this many bits before building any power.
POWER_BITS_LIMIT = 1 << 16

#: max_code keeps the blocked-word mask of each batch it meets, for the
#: length of one call, and stops adding masks once they would take more
#: than _BLOCKED_CACHE_BITS.  Each counts as b**m bits, one per candidate
#: word, plus _BLOCKED_ENTRY_BITS for its key, int header and dict slot.
_BLOCKED_CACHE_BITS = 1 << 22
_BLOCKED_ENTRY_BITS = 1 << 11


class HashCodeError(ValueError):
    pass


def _check_params(b, k, m, min_m: int = 1) -> None:
    for label, value in (("b", b), ("k", k), ("m", m)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise HashCodeError(f"{label}: expected an integer")
    if k < 2:
        raise HashCodeError("k: order must be at least 2")
    if b < k:
        raise HashCodeError("b: alphabet must have at least k symbols")
    if m < min_m:
        raise HashCodeError(f"m: length must be at least {min_m}")


@dataclass(frozen=True)
class HashCode:
    """Validated container; the separation promise itself is checked by
    is_perfect, not on construction."""

    b: int
    k: int
    m: int
    words: tuple

    def __post_init__(self):
        _check_params(self.b, self.k, self.m)
        if not isinstance(self.words, tuple):
            raise HashCodeError("words: expected a tuple of words")
        for w_idx, word in enumerate(self.words):
            if not isinstance(word, tuple) or len(word) != self.m:
                raise HashCodeError(f"words[{w_idx}]: expected a length-{self.m} tuple")
            for s_idx, sym in enumerate(word):
                if not isinstance(sym, int) or isinstance(sym, bool):
                    raise HashCodeError(f"words[{w_idx}][{s_idx}]: expected an integer")
                if not 1 <= sym <= self.b:
                    raise HashCodeError(f"words[{w_idx}][{s_idx}]: symbol outside 1..{self.b}")
        if len(set(self.words)) != len(self.words):
            raise HashCodeError("words: duplicates present")

    def __len__(self) -> int:
        return len(self.words)


def _all_words(b, m) -> list:
    """The b**m words in lexicographic order; refuses more than WORD_LIMIT."""
    # b**m >= 2**(m*(bits-1)): the first test settles every huge b or m,
    # and the exact test then builds a power of a few dozen bits at most.
    if m * (b.bit_length() - 1) > WORD_LIMIT.bit_length() or b**m > WORD_LIMIT:
        raise HashCodeError(
            f"b**m words for b={b}, m={m} exceed the word limit {WORD_LIMIT}"
        )
    return list(product(range(1, b + 1), repeat=m))


def _separated(batch, m) -> bool:
    for j in range(m):
        if len({w[j] for w in batch}) == len(batch):
            return True
    return False


def _tile(pattern, period, n) -> int:
    """The pattern repeated every `period` bits, cut to n bits."""
    while period < n:
        pattern |= pattern << period
        period *= 2
    return pattern & ((1 << n) - 1)


def _lex_masks(b, m, n) -> list:
    """symbol[j][s]: the first n words in lexicographic order that have
    symbol s at coordinate j, as a bitmask over their indices.

    Word idx has symbol s at coordinate j exactly when its base-b digit of
    weight b**(m-1-j) is s-1, so every mask is a tiled block of ones.
    """
    symbol = []
    for j in range(m):
        block = b ** (m - 1 - j)
        ones = (1 << block) - 1
        symbol.append([0] + [_tile(ones << (s * block), b * block, n) for s in range(b)])
    return symbol


def _blocked(batch, symbol) -> int:
    """The words w that leave batch + (w,) unseparated, as a bitmask.

    Only coordinates where the batch is pairwise distinct can separate, and
    there w must avoid every symbol of the batch; -1 (every word) when
    there is no such coordinate.
    """
    out = -1
    for row, col in zip(symbol, zip(*batch)):
        if len(set(col)) == len(col):
            mask = 0
            for s in col:
                mask |= row[s]
            out &= mask
    return out


def _pair_blocked(u, v, symbol) -> int:
    """_blocked((u, v), symbol), without building the batch's columns."""
    out = -1
    for row, s, t in zip(symbol, u, v):
        if s != t:
            out &= row[s] | row[t]
    return out


def _newly_blocked(chosen, idx, k, words, symbol, memo, room) -> int:
    """Words blocked by the order-k batches of words[idx] and the words at
    the `chosen` indices.  Each batch's mask is looked up in `memo` first,
    keyed by its indices: c * n + idx for a pair (c, idx) at order 3, else
    their tuple.  A new mask is kept while `memo` holds fewer than `room`."""
    out = 0
    if k == 3:
        n, word = len(words), words[idx]
        for c in chosen:
            mask = memo.get(c * n + idx)
            if mask is None:
                mask = _pair_blocked(words[c], word, symbol)
                if len(memo) < room:
                    memo[c * n + idx] = mask
            out |= mask
        return out
    for rest in combinations(chosen, k - 2):
        key = rest + (idx,)
        mask = memo.get(key)
        if mask is None:
            mask = _blocked([words[i] for i in key], symbol)
            if len(memo) < room:
                memo[key] = mask
        out |= mask
    return out


def _agreeing(word, agree, symbol) -> int:
    """The words that agree with `word` in more than `agree` coordinates,
    as a bitmask."""
    # at_least[t]: the words that agree with `word` in at least t of the
    # coordinates seen so far.
    at_least = [-1] + [0] * (agree + 1)
    for row, s in zip(symbol, word):
        hit = row[s]
        for t in range(agree + 1, 0, -1):
            at_least[t] |= at_least[t - 1] & hit
    return at_least[-1]


def _near(idx, agree, words, symbol, memo, room) -> int:
    """_agreeing(words[idx], agree, symbol), looked up in `memo` first
    under the key ~(agree * n + idx), apart from every batch key.  A new
    mask is kept while `memo` holds fewer than `room`."""
    key = ~(agree * len(words) + idx)
    mask = memo.get(key)
    if mask is None:
        mask = _agreeing(words[idx], agree, symbol)
        if len(memo) < room:
            memo[key] = mask
    return mask


def is_perfect(code: HashCode):
    """Return (True, None), or (False, first unseparated batch)."""
    for batch in combinations(code.words, code.k):
        if not _separated(batch, code.m):
            return False, batch
    return True, None


def counting_bound(b: int, k: int, m: int):
    """Upper limit on the size of an order-k code: (k-1) * (b/(k-1))**m.

    Projecting away one coordinate and grouping by the surviving symbol
    loses at most a (k-1)/b factor per step, and length-0 codes hold at
    most k-1 words.
    """
    _check_params(b, k, m, min_m=0)
    return ratio(k - 1) * ratio(b, k - 1) ** m


@dataclass(frozen=True)
class SearchResult:
    code: HashCode
    optimal: bool
    nodes: int


def max_code(b: int, k: int, m: int, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Depth-first search over word indices for a largest order-k code.

    Candidates are scanned in lexicographic order.  Per-coordinate symbol
    renaming is factored out: a word may only use symbols at most one above
    the largest seen so far in that coordinate, which keeps exactly one
    member of each renaming class reachable.

    Where batches block words (k > 2 and m > 1), the first two words are
    also a canonical pair, which factors out most coordinate permutations.
    The first word is 1^m, and the second must be ascending, 1^a 2^(m-a);
    a is its agreement with 1^m.  From then on every chosen word, those
    two included, forbids every word that agrees with it in more than a
    coordinates (nothing when a = m - 1).  This keeps an optimal code
    reachable:
      1. take any code and a pair of its words with the largest agreement
         a over all pairs;
      2. permute coordinates so that the pair agrees on the first a, and
         rename symbols so that the pair becomes 1^m and 1^a 2^(m-a);
      3. every other word agrees with 1^m in at most a places, so
         1^a 2^(m-a) is the second-smallest word;
      4. renamings that fix symbol 1 on the first a coordinates, and
         symbols 1 and 2 on the rest, keep 1-3 true, and the lex-least of
         them meets the renaming rule, by the usual swap argument;
      5. all pairwise agreements stay at most a.

    Every word that the renaming and pair rules let through counts as a
    search node.  The search stops early when the incumbent meets the
    counting bound.  A spent node budget returns the incumbent with
    optimal=False.

    Each level keeps two bitmasks over the words after its position: the
    words the renaming and pair rules allow, and those that some order-k
    batch with the chosen words leaves unseparated or that the pair rule
    forbids, so testing a word is one bit test.
    Forward checking (Haralick and Elliott, 1980) dismisses the rest of a
    level once the chosen words plus the unblocked words from the next free
    one on, over the whole tail, cannot beat the incumbent; a dismissed
    word counts as a node, exactly as a blocked word does.  Each batch's
    blocked mask, and each word's mask of the words too near it, is
    computed once per call and then looked up, up to _BLOCKED_CACHE_BITS
    bits of masks.
    """
    _check_params(b, k, m)
    if budget < 1:
        raise HashCodeError("budget: must be positive")
    universe = _all_words(b, m)
    cap = floor(counting_bound(b, k, m))
    n = len(universe)
    # With one coordinate, or at order 2, distinct words always split, so
    # no batch ever blocks a word.
    blocks = k > 2 and m > 1
    symbol = _lex_masks(b, m, n) if m > 1 else []
    prefix = [list(accumulate(row, or_)) for row in symbol]
    # Coordinate 0 is the most significant digit, so its renaming rule is
    # an index bound: words below (maxseen[0] + 1) * lead.
    lead = b ** (m - 1)
    # The ascending words 1^a 2^(m-a), a < m: the only second words.
    ascending = sum(1 << (b**r - 1) // (b - 1) for r in range(1, m + 1))
    agree = m - 1

    def allowed(maxseen, start):
        mask = -1
        for j in range(1, m):
            if maxseen[j] + 1 < b:
                mask &= prefix[j][maxseen[j] + 1]
        return mask >> start

    memo: dict = {}
    room = _BLOCKED_CACHE_BITS // (b**m + _BLOCKED_ENTRY_BITS)
    chosen: list = []
    best: list = []
    best_len = 0
    nodes = 0
    exhausted = False
    # One frame per level: [pos, allowed, forbidden, maxseen]; bit i of
    # each mask stands for universe[pos + i].
    stack = [[0, allowed((0,) * m, 0), 0, (0,) * m]]
    while stack:
        frame = stack[-1]
        pos, allow, forbidden, maxseen = frame
        # Words from hi on are out: past the size bound none can lift the
        # incumbent, and past the bound at coordinate 0 none is allowed.
        hi = min(n + len(chosen) - best_len, (maxseen[0] + 1) * lead) - pos
        window = (1 << hi) - 1 if hi > 0 else 0
        free = allow & ~forbidden & window
        # Forward check: too few unblocked words from the next free one on,
        # over the whole tail, to lift the incumbent dismiss the level.
        if free and (
            ~forbidden & ((1 << (n - pos)) - 1) & -(free & -free)
        ).bit_count() <= best_len - len(chosen):
            free = 0
        span = free ^ (free - 1) if free else window
        nodes += (allow & span).bit_count()
        if nodes > budget:
            nodes = budget + 1
            exhausted = True
            break
        if not free:
            stack.pop()
            # A new incumbent is copied only once the search backs off it.
            if len(chosen) == best_len > len(best):
                best = list(chosen)
            if chosen:
                chosen.pop()
            continue
        step = span.bit_length()
        idx, start = pos + step - 1, pos + step
        allow >>= step
        forbidden >>= step
        frame[:3] = start, allow, forbidden
        if blocks:
            if len(chosen) == 1:
                agree = universe[idx].count(1)
            if chosen and agree < m - 1:
                near = _near(idx, agree, universe, symbol, memo, room)
                if len(chosen) == 1:
                    near |= _near(0, agree, universe, symbol, memo, room)
                forbidden |= near >> start
            forbidden |= _newly_blocked(chosen, idx, k, universe, symbol, memo, room) >> start
        chosen.append(idx)
        best_len = max(best_len, len(chosen))
        if best_len >= cap:
            break
        seen = tuple(map(max, maxseen, universe[idx]))
        if seen != maxseen:
            allow = allowed(seen, start)
            if blocks and idx == 0:
                allow &= ascending >> start
        stack.append([start, allow, forbidden, seen])
    if len(chosen) == best_len > len(best):
        best = list(chosen)
    code = HashCode(b, k, m, tuple(universe[i] for i in best))
    return SearchResult(code=code, optimal=not exhausted, nodes=nodes)


def greedy_code(b: int, k: int, m: int) -> HashCode:
    """Single sweep in lexicographic order keeping every word that
    preserves separation; refuses more than WORD_LIMIT words.  Fast,
    deterministic, and usually short of optimal.  A bitmask over the
    scanned words marks those a batch of kept words already blocks."""
    _check_params(b, k, m)
    words = _all_words(b, m)
    blocks = k > 2 and m > 1
    symbol = _lex_masks(b, m, len(words)) if blocks else []
    kept: list = []
    forbidden = 0
    for idx in range(len(words)):
        if forbidden >> idx & 1:
            continue
        if blocks:
            # A sweep meets each batch once, so it keeps no masks.
            forbidden |= _newly_blocked(kept, idx, k, words, symbol, {}, 0)
        kept.append(idx)
    return HashCode(b, k, m, tuple(words[i] for i in kept))


def _iroot(x: int, r: int) -> int:
    # Largest g with g**r <= x, by integer Newton steps from 2^ceil(bits/r),
    # which is above the root; the steps fall strictly until they reach it.
    if x < 0:
        raise HashCodeError("iroot of a negative number")
    if x == 0 or r == 1:
        return x
    g = 1 << -(-x.bit_length() // r)
    while True:
        step = ((r - 1) * g + x // g ** (r - 1)) // r
        if step >= g:
            return g
        g = step


def random_code(b: int, k: int, m: int, seed: int) -> HashCode:
    """Sample-and-delete construction.

    A uniform coordinate separates a fixed batch of k words with chance
    s = b!/((b-k)! b^k), so a batch survives all m coordinates unsplit
    with chance q = (1-s)^m.  Sampling ((k-1)!/q)^(1/(k-1)) words keeps
    the expected number of unsplit batches near size/k; one deletion
    round (dropping the lexicographically largest word of each unsplit
    batch) then leaves a perfect code.

    Refuses, before sampling anything, a b**(k*m) of more than
    POWER_BITS_LIMIT bits and more than BATCH_LIMIT batches of the
    sampled words.
    """
    _check_params(b, k, m)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise HashCodeError("seed: expected an integer")
    if k * m * b.bit_length() > POWER_BITS_LIMIT:
        raise HashCodeError(
            f"the sampling probability for b={b}, k={k}, m={m} needs more "
            f"than {POWER_BITS_LIMIT} bits"
        )
    s = ratio(perm(b, k), b**k)
    q = (1 - s) ** m
    target = _iroot(floor(ratio(factorial(k - 1)) / q), k - 1)
    if comb(target, k) > BATCH_LIMIT:
        raise HashCodeError(
            f"the sample for b={b}, k={k}, m={m} has more than {BATCH_LIMIT} "
            "batches"
        )
    rng = random.Random(seed)
    sampled: list = []
    seen = set()
    for _ in range(target):
        word = tuple(rng.randint(1, b) for _ in range(m))
        if word not in seen:
            seen.add(word)
            sampled.append(word)
    doomed = set()
    if k > 2:  # distinct words always split at order 2
        for batch in combinations(sampled, k):
            if not _separated(batch, m):
                doomed.add(max(batch))
    words = tuple(w for w in sampled if w not in doomed)
    return HashCode(b, k, m, words)


def rate_bounds(b: int, k: int) -> tuple:
    """Exponential growth window for order-k codes over b symbols.

    Sizes grow like base**m; the counting bound caps the base at
    b/(k-1), while the sample-and-delete construction achieves
    (1/(1-s))^(1/(k-1)).  Returned as (lower, upper) logarithms.
    """
    _check_params(b, k, 1)
    s = ratio(perm(b, k), b**k)
    lower = LogRatio(ratio(1, k - 1), 1 / (1 - s))
    upper = LogRatio(1, ratio(b, k - 1))
    return lower, upper


# ---------------------------------------------------------------------------
# serialization


def code_to_obj(code: HashCode) -> dict:
    return {
        "b": code.b,
        "k": code.k,
        "m": code.m,
        "words": [list(w) for w in code.words],
    }


def code_from_obj(obj) -> HashCode:
    if not isinstance(obj, dict):
        raise HashCodeError("top level: expected an object")
    for field in ("b", "k", "m", "words"):
        if field not in obj:
            raise HashCodeError(f"{field}: missing")
    words = obj["words"]
    if not isinstance(words, list):
        raise HashCodeError("words: expected a list")
    rows = []
    for w_idx, row in enumerate(words):
        if not isinstance(row, list):
            raise HashCodeError(f"words[{w_idx}]: expected a list")
        rows.append(tuple(row))
    return HashCode(obj["b"], obj["k"], obj["m"], tuple(rows))


def load_code(path) -> HashCode:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # As for point-set files (`geometry.load_point_set`).
            raise HashCodeError(f"{path}: not valid JSON ({exc})") from exc
    return code_from_obj(obj)


def dump_code(code: HashCode, path) -> None:
    with open(path, "w") as fh:
        json.dump(code_to_obj(code), fh, indent=2, sort_keys=True)
        fh.write("\n")
