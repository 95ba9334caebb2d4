"""The term-bounded memo: LRU eviction by stored terms, and unchanged results under eviction."""

import random
import sys
import threading

from hsw import halg, memo, reg, wcalc
from hsw.halg import star_words, to_word
from hsw.monoid import UNIT, ZERO
from hsw.memo import term_bounded_cache
from hsw.reg import z_st

from _support import ALPHABET_01Z, ALPHABET_01ZZ2, random_poly, random_word


def test_lru_eviction_by_terms():
    calls = []

    @term_bounded_cache(max_terms=5)
    def digits(n):
        calls.append(n)
        return list(range(n))

    assert digits(2) == [0, 1] and digits(3) == [0, 1, 2]
    assert digits(2) == [0, 1]  # a hit, and 2 becomes the most recent
    digits(1)  # 2 + 3 + 1 terms: the least recently used entry, 3, goes
    info = digits.cache_info()
    assert (info.currsize, info.terms, info.evictions) == (2, 3, 1)
    digits(3)
    assert calls == [2, 3, 1, 3]
    digits(9)  # larger than the whole budget: returned, not stored
    assert digits.cache_info().terms <= 5
    digits.cache_clear()
    assert digits.cache_info() == (0, 0, 0, 0, 5, 0)


def test_results_unchanged_under_eviction(monkeypatch):
    rng = random.Random(71)
    pairs = [
        (random_word(rng, 6, ALPHABET_01ZZ2), random_word(rng, 6, ALPHABET_01ZZ2))
        for _ in range(6)
    ]
    polys = [random_poly(rng, 7, ALPHABET_01Z, max_terms=3) for _ in range(12)]
    # Only whole products are stored: those of weight-6 words exceed the small
    # budget below and are returned unstored, those of weight-3 words evict.
    pairs += [
        (random_word(rng, 3, ALPHABET_01ZZ2), random_word(rng, 3, ALPHABET_01ZZ2))
        for _ in range(6)
    ]
    caches = (halg._star_words_cached, reg._reg_word)
    for cache in caches:
        cache.cache_clear()
    products = [star_words(u, v) for u, v in pairs]
    normal_forms = [z_st(p) for p in polys]
    for cache in caches:
        assert cache.cache_info().evictions == 0
        monkeypatch.setattr(cache, "max_terms", 40)
        cache.cache_clear()
    assert [star_words(u, v) for u, v in pairs] == products
    assert [z_st(p) for p in polys] == normal_forms
    for cache in caches:
        info = cache.cache_info()
        assert info.evictions > 0 and info.terms <= 40
        cache.cache_clear()


def test_threads_keep_the_term_count():
    # many threads hit, miss and evict at once; a lost update would skew the
    # running term count away from the sizes actually stored
    @term_bounded_cache(max_terms=50)
    def digits(n):
        return list(range(n))

    wrong = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(2000):
            n = rng.randrange(1, 12)
            if digits(n) != list(range(n)):
                wrong.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    info = digits.cache_info()
    assert info.terms == sum(n for (n,) in digits._data) <= 50
    assert info.evictions > 0


def test_clear_caches_empties_every_cache():
    caches = (
        halg._star_words_cached, reg._reg_word, reg._e1_star_power,
        wcalc.w_value, wcalc._eval_monomial,
    )
    star_words(to_word((UNIT, ZERO)), to_word((UNIT,)))
    reg._reg_word(to_word((UNIT, ZERO, UNIT, UNIT)))
    reg._e1_star_power(3)
    wcalc._eval_monomial((1, 2), UNIT)
    assert all(cache.cache_info().currsize > 0 for cache in caches)
    halg.clear_caches()
    assert [cache.cache_info().currsize for cache in memo._CACHES] == [0] * len(memo._CACHES)
