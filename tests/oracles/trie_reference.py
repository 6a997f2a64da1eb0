"""Test oracle: the per-bit binary prefix trie ``bgp/trie.py`` replaced.

This is the original one-node-per-bit trie, kept verbatim (modulo the
memoised bit extraction) as the always-obviously-correct twin of the
path-compressed :class:`repro.bgp.trie.PrefixTrie`.  The fuzz suite in
``tests/test_trie_fuzz.py`` drives both implementations through identical
operation sequences and asserts identical answers, and
``tests/test_contracts.py`` pins the two public surfaces together.

Do not optimise this module: a /24 costs ~25 nodes here by design, which is
exactly why it cannot host an internet-scale table (and why the compressed
twin exists).
"""

from __future__ import annotations

from sys import getsizeof
from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.bgp.prefix import Prefix

__all__ = ["ReferencePrefixTrie"]

V = TypeVar("V")


def _significant_bits(prefix: Prefix) -> Tuple[int, ...]:
    """The significant bits of ``prefix`` as ints, most significant first."""
    network, length = prefix.network, prefix.length
    return tuple((network >> shift) & 1 for shift in range(31, 31 - length, -1))


class _Node(Generic[V]):
    """A single trie node; ``value`` is set only for inserted prefixes."""

    __slots__ = ("zero", "one", "prefix", "value", "has_value")

    def __init__(self) -> None:
        self.zero: Optional["_Node[V]"] = None
        self.one: Optional["_Node[V]"] = None
        self.prefix: Optional[Prefix] = None
        self.value: Optional[V] = None
        self.has_value = False


class ReferencePrefixTrie(Generic[V]):
    """Map from :class:`~repro.bgp.prefix.Prefix` to arbitrary values.

    Provides dictionary-like exact operations plus longest-prefix-match
    queries on 32-bit addresses.  Iteration order is sorted by prefix.
    """

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._size = 0
        # The bit decomposition of every stored prefix: part of what a
        # per-bit trie costs, so the trie owns it and :meth:`memory_bytes`
        # counts it.
        self._bits: Dict[Prefix, Tuple[int, ...]] = {}

    # -- mutation ---------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored under ``prefix``."""
        bits = self._bits_of(prefix)
        node = self._root
        for bit in bits:
            if bit:
                if node.one is None:
                    node.one = _Node()
                node = node.one
            else:
                if node.zero is None:
                    node.zero = _Node()
                node = node.zero
        if not node.has_value:
            self._size += 1
            self._bits[prefix] = bits
        node.prefix = prefix
        node.value = value
        node.has_value = True

    def remove(self, prefix: Prefix) -> V:
        """Remove ``prefix`` and return its value; raise ``KeyError`` if absent."""
        path: List[Tuple[_Node[V], int]] = []
        node = self._root
        for bit in self._bits_of(prefix):
            path.append((node, bit))
            node = node.one if bit else node.zero
            if node is None:
                raise KeyError(prefix)
        if not node.has_value:
            raise KeyError(prefix)
        value = node.value
        node.has_value = False
        node.prefix = None
        node.value = None
        self._size -= 1
        del self._bits[prefix]
        # Prune now-empty leaf nodes back towards the root.
        for parent, bit in reversed(path):
            child = parent.one if bit else parent.zero
            if child is None:
                break
            if child.has_value or child.zero is not None or child.one is not None:
                break
            if bit:
                parent.one = None
            else:
                parent.zero = None
        return value  # type: ignore[return-value]

    def clear(self) -> None:
        """Remove every entry."""
        self._root = _Node()
        self._size = 0
        self._bits = {}

    # -- exact queries ----------------------------------------------------

    def get(self, prefix: Prefix, default: Optional[V] = None) -> Optional[V]:
        """Return the value stored exactly under ``prefix`` or ``default``."""
        node = self._find_exact(prefix)
        if node is None or not node.has_value:
            return default
        return node.value

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._find_exact(prefix)
        return node is not None and node.has_value

    def __getitem__(self, prefix: Prefix) -> V:
        node = self._find_exact(prefix)
        if node is None or not node.has_value:
            raise KeyError(prefix)
        return node.value  # type: ignore[return-value]

    def __setitem__(self, prefix: Prefix, value: V) -> None:
        self.insert(prefix, value)

    def __delitem__(self, prefix: Prefix) -> None:
        self.remove(prefix)

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # -- longest prefix match ---------------------------------------------

    def lookup(self, address: int) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix-match lookup of a 32-bit address.

        Returns the ``(prefix, value)`` pair of the most specific matching
        entry, or ``None`` when no entry covers the address.
        """
        best: Optional[Tuple[Prefix, V]] = None
        node = self._root
        if node.has_value:
            best = (node.prefix, node.value)  # type: ignore[assignment]
        for depth in range(32):
            bit = (address >> (31 - depth)) & 1
            node = node.one if bit else node.zero
            if node is None:
                break
            if node.has_value:
                best = (node.prefix, node.value)  # type: ignore[assignment]
        return best

    # -- iteration --------------------------------------------------------

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Yield ``(prefix, value)`` pairs in sorted prefix order."""
        yield from self._walk(self._root)

    def keys(self) -> Iterator[Prefix]:
        """Yield stored prefixes in sorted order."""
        for prefix, _ in self.items():
            yield prefix

    def values(self) -> Iterator[V]:
        """Yield stored values in sorted prefix order."""
        for _, value in self.items():
            yield value

    def __iter__(self) -> Iterator[Prefix]:
        return self.keys()

    # -- size accounting ---------------------------------------------------

    def node_count(self) -> int:
        """Number of trie nodes currently allocated (roughly 25x entries)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if node.zero is not None:
                stack.append(node.zero)
            if node.one is not None:
                stack.append(node.one)
        return count

    def memory_bytes(self) -> int:
        """Bytes held by the trie's working set.

        Counts the node objects plus the memoised bit tuple of every stored
        prefix, which this implementation's walks depend on and the trie
        retains for them (the memo dict's own table is left out, so the
        figure is the one ``BENCH_fulltable.json`` has always recorded).
        The stored prefixes and values themselves are references shared with
        the caller and are not counted, so the number is directly comparable
        with the compressed twin's — which needs neither per-bit nodes nor
        bit tuples.
        """
        total = sum(map(getsizeof, self._bits.values()))
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += getsizeof(node)
            if node.zero is not None:
                stack.append(node.zero)
            if node.one is not None:
                stack.append(node.one)
        return total

    # -- internals --------------------------------------------------------

    def _bits_of(self, prefix: Prefix) -> Tuple[int, ...]:
        """``prefix``'s bit tuple: the memo for a stored prefix, else computed."""
        bits = self._bits.get(prefix)
        return _significant_bits(prefix) if bits is None else bits

    def _find_exact(self, prefix: Prefix) -> Optional[_Node[V]]:
        node = self._root
        for bit in self._bits_of(prefix):
            node = node.one if bit else node.zero
            if node is None:
                return None
        return node

    def _walk(self, node: _Node[V]) -> Iterator[Tuple[Prefix, V]]:
        if node.has_value:
            yield node.prefix, node.value  # type: ignore[misc]
        if node.zero is not None:
            yield from self._walk(node.zero)
        if node.one is not None:
            yield from self._walk(node.one)

    def to_dict(self) -> Dict[Prefix, V]:
        """Materialise the trie as a plain dictionary."""
        return dict(self.items())
