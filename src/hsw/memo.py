"""Memoization bounded by the number of stored terms, not by the number of entries.

One cached word-pair product can hold hundreds of thousands of terms while the
next holds one, so a cap on entries says nothing about memory: 100 entries of
``star_words`` once took 507 MB.  :func:`term_bounded_cache` keeps the most
recently used results whose summed size (``size(value)``, a term count) stays
within ``max_terms``, and evicts the least recently used ones beyond that.  A
single result larger than the whole budget is returned but not stored.

The wrapped function takes hashable positional arguments and must return a
value that callers treat as read-only, since every hit hands out the same
object.  Bookkeeping is under a lock; the function itself runs outside it, so
recursive calls are fine and concurrent recomputation only stores an equal
value twice.
"""

from __future__ import annotations

import functools
import threading
import weakref
from collections import OrderedDict, namedtuple
from typing import Any, Callable

__all__ = ["MAX_TERMS", "CacheInfo", "TermBoundedCache", "term_bounded_cache", "clear_all"]

# The default budget of one cache.  Filled to it in a fresh process, the
# word-pair products of the 8-30 letter words the drivers produce take 90-127
# MB by VmRSS, 94-133 bytes a term (Python 3.11, x86_64); the most goes to many
# small products, each with its own dict.  So a full cache stays under 150 MB,
# which tests/test_memo.py checks on a smaller budget.  A letter is a worse
# unit: 4-17 bytes over those words.  A product being built is not counted
# until it returns.  No benchmark workload stores over about 46,000 terms in
# one cache (the algebra workload's word-pair products: 199 entries at seed
# 1), so none of them evicts anything.
MAX_TERMS = 1_000_000

CacheInfo = namedtuple("CacheInfo", "hits misses currsize terms max_terms evictions")

# Every live cache, so that one call can empty them all.
_CACHES: weakref.WeakSet = weakref.WeakSet()


class TermBoundedCache:
    """LRU memo of ``fn`` holding at most ``max_terms`` terms, as measured by ``size``."""

    def __init__(self, fn: Callable, size: Callable[[Any], int], max_terms: int):
        functools.update_wrapper(self, fn)
        self.fn = fn
        self.size = size
        self.max_terms = max_terms
        self._data: OrderedDict = OrderedDict()  # args -> (value, size)
        self._lock = threading.Lock()
        self._terms = self._hits = self._misses = self._evictions = 0
        _CACHES.add(self)

    def __call__(self, *args):
        with self._lock:
            entry = self._data.get(args)
            if entry is not None:
                self._data.move_to_end(args)
                self._hits += 1
                return entry[0]
            self._misses += 1
        value = self.fn(*args)
        n = self.size(value)
        if n <= self.max_terms:
            with self._lock:
                old = self._data.pop(args, None)
                if old is not None:
                    self._terms -= old[1]
                self._data[args] = (value, n)
                self._terms += n
                while self._terms > self.max_terms:
                    _, (_, dropped) = self._data.popitem(last=False)
                    self._terms -= dropped
                    self._evictions += 1
        return value

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                self._hits, self._misses, len(self._data), self._terms,
                self.max_terms, self._evictions,
            )

    def cache_clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._terms = self._hits = self._misses = self._evictions = 0


def clear_all() -> None:
    """Empty every :class:`TermBoundedCache` that exists."""
    for cache in list(_CACHES):
        cache.cache_clear()


def term_bounded_cache(size: Callable[[Any], int] = len, max_terms: int = MAX_TERMS):
    """Decorator form of :class:`TermBoundedCache`; ``size`` counts a result's terms."""
    return lambda fn: TermBoundedCache(fn, size, max_terms)
