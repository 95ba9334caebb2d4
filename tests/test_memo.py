"""The term-bounded memo: LRU eviction by stored terms, unchanged results under eviction,
and the memory a full product memo takes."""

import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

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
    cache = halg._star_words_cached
    cache.cache_clear()
    products = [star_words(u, v) for u, v in pairs]
    normal_forms = [z_st(p) for p in polys]
    assert cache.cache_info().evictions == 0
    monkeypatch.setattr(cache, "max_terms", 40)
    cache.cache_clear()
    assert [star_words(u, v) for u, v in pairs] == products
    assert [z_st(p) for p in polys] == normal_forms
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
    caches = (halg._star_words_cached, reg._e1_star_power, wcalc.w_value, wcalc._eval_monomial)
    star_words(to_word((UNIT, ZERO)), to_word((UNIT,)))
    reg._e1_star_power(3)
    wcalc._eval_monomial((1, 2), UNIT)
    assert all(cache.cache_info().currsize > 0 for cache in caches)
    halg.clear_caches()
    assert [cache.cache_info().currsize for cache in memo._CACHES] == [0] * len(memo._CACHES)


# memo.py's stated bound: MAX_TERMS terms of word-pair products take under 150 MB.
FULL_BUDGET_MB = 150

FILL = """
import json, random, sys
from hsw import halg
from hsw.monoid import UNIT, ZERO, cyclic

def vmrss_kb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmRSS:"))

a, b, max_terms = map(int, sys.argv[1:])
letters = "".join(x.id for x in (ZERO, UNIT, *map(cyclic, range(1, 6))))
rng = random.Random(7)
cache = halg._star_words_cached
cache.max_terms = max_terms
before = vmrss_kb()
while not cache.cache_info().evictions:
    halg.star_terms("".join(rng.choices(letters, k=a)), "".join(rng.choices(letters, k=b)))
print(json.dumps({"grown_kb": vmrss_kb() - before, "terms": cache.cache_info().terms}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS from /proc")
@pytest.mark.parametrize("a, b", [(1, 7), (29, 1)])
def test_full_product_memo_stays_under_its_stated_memory(a, b):
    # Many small products, of short or long words, cost the most bytes a term
    # of the fills memo.py quotes.  A fresh process, so that the growth is the
    # memo's alone.
    max_terms = 100_000
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", FILL, str(a), str(b), str(max_terms)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    fill = json.loads(proc.stdout)
    assert fill["terms"] > 0.9 * max_terms
    assert fill["grown_kb"] * 1024 <= FULL_BUDGET_MB * 2**20 * max_terms / memo.MAX_TERMS
