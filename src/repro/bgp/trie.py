"""Path-compressed (Patricia) prefix trie with longest-prefix-match lookup.

The Loc-RIB's best-route view needs longest-prefix-match semantics
(``LocRib.best_trie`` / ``best_lookup``).  The original per-bit trie (kept
as the test oracle ``tests/oracles/trie_reference.py``) allocates one node
per significant bit and walks per-prefix bit tuples — at DFZ scale that is
several nodes per route plus a memoised bit decomposition per prefix, which
makes the trie itself the first casualty of internet scale.

This implementation stores *spans*: every node carries the absolute
``(network, length)`` key of the point it occupies — packed into a single
integer slot, ``(network << 6) | length`` — and an edge skips straight from
a node to the next branching point (or stored entry).  Key comparisons are
a handful of integer operations against a precomputed mask table — no
per-bit hops, no bit tuples.  Structural invariants:

* the root always exists with key ``(0, 0)`` (it stores ``0.0.0.0/0``);
* every non-root node either stores an entry or is a branching point with
  two children, so the trie holds at most ``2n - 1`` nodes (plus the root)
  for ``n`` entries — bounded memory per route regardless of prefix length;
* a child's key strictly extends its parent's key, so every walk is bounded
  by 32 levels.

Beyond the reference surface it adds bulk :meth:`PrefixTrie.build_from_sorted`
construction (one linear pass over a sorted table, the full-table load path).
"""

from __future__ import annotations

from sys import getsizeof
from typing import (
    Dict,
    Generic,
    Iterable,
    Iterator,
    Optional,
    Tuple,
    TypeVar,
)

from repro.bgp.prefix import NETMASKS, Prefix

__all__ = ["PrefixTrie"]

V = TypeVar("V")


class _Node(Generic[V]):
    """A trie node occupying the absolute key ``(net, plen)``.

    The key is packed as ``(net << 6) | plen`` into one slot: a DFZ-scale
    trie is millions of nodes, and one slot fewer per node is tens of
    megabytes.  ``prefix`` doubles as the has-value flag: it is set (to the
    stored :class:`Prefix` object) exactly when an entry lives here, and
    ``None`` on purely structural branching nodes.
    """

    __slots__ = ("key", "zero", "one", "prefix", "value")

    def __init__(self, net: int, plen: int) -> None:
        self.key = (net << 6) | plen
        self.zero: Optional["_Node[V]"] = None
        self.one: Optional["_Node[V]"] = None
        self.prefix: Optional[Prefix] = None
        self.value: Optional[V] = None


def _common_length(net_a: int, len_a: int, net_b: int, len_b: int) -> int:
    """Length of the longest common prefix of two ``(network, length)`` keys."""
    limit = len_a if len_a < len_b else len_b
    diff = (net_a ^ net_b) & NETMASKS[limit]
    if diff == 0:
        return limit
    return 32 - diff.bit_length()


class PrefixTrie(Generic[V]):
    """Map from :class:`~repro.bgp.prefix.Prefix` to arbitrary values.

    Provides dictionary-like exact operations plus longest-prefix-match
    queries on 32-bit addresses.  Iteration order is sorted by prefix.
    Drop-in compatible with the per-bit test oracle; see the module
    docstring for the structural differences.
    """

    def __init__(self) -> None:
        self._root: _Node[V] = _Node(0, 0)
        self._size = 0

    # -- mutation ---------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored under ``prefix``."""
        net = prefix.network
        plen = prefix.length
        masks = NETMASKS
        node = self._root
        while True:
            # Invariant: node's key covers (net, plen).
            node_len = node.key & 63
            if node_len == plen:
                if node.prefix is None:
                    self._size += 1
                node.prefix = prefix
                node.value = value
                return
            bit = (net >> (31 - node_len)) & 1
            child = node.one if bit else node.zero
            if child is None:
                leaf: _Node[V] = _Node(net, plen)
                leaf.prefix = prefix
                leaf.value = value
                if bit:
                    node.one = leaf
                else:
                    node.zero = leaf
                self._size += 1
                return
            child_net = child.key >> 6
            child_len = child.key & 63
            common = _common_length(net, plen, child_net, child_len)
            if common == child_len:
                node = child
                continue
            if common == plen:
                # The new prefix sits on the edge above ``child``.
                mid: _Node[V] = _Node(net, plen)
                mid.prefix = prefix
                mid.value = value
                if (child_net >> (31 - plen)) & 1:
                    mid.one = child
                else:
                    mid.zero = child
            else:
                # Keys diverge below the edge: branch at the common point.
                mid = _Node(net & masks[common], common)
                leaf = _Node(net, plen)
                leaf.prefix = prefix
                leaf.value = value
                if (child_net >> (31 - common)) & 1:
                    mid.one = child
                    mid.zero = leaf
                else:
                    mid.zero = child
                    mid.one = leaf
            if bit:
                node.one = mid
            else:
                node.zero = mid
            self._size += 1
            return

    def build_from_sorted(self, items: Iterable[Tuple[Prefix, V]]) -> None:
        """Bulk-load a sorted stream of ``(prefix, value)`` pairs.

        ``items`` must be sorted by ``(network, length)`` — i.e. plain
        ``sorted()`` order of :class:`Prefix` — without duplicate prefixes,
        and the trie must be empty.  Construction is a single linear pass
        maintaining the rightmost spine as a stack: each new key is attached
        (after at most amortised O(1) spine pops) without re-walking the trie
        from the root, which is what makes a ~1M-entry full-table load take
        seconds instead of re-paying a root-to-leaf descent per prefix.
        """
        if self._size:
            raise ValueError("build_from_sorted requires an empty trie")
        masks = NETMASKS
        spine = [self._root]
        size = 0
        previous = (-1, -1)
        for prefix, value in items:
            net = prefix.network
            plen = prefix.length
            key = (net, plen)
            if key <= previous:
                raise ValueError(
                    "build_from_sorted input must be sorted by (network, "
                    f"length) without duplicates; saw {prefix} after "
                    f"{previous}"
                )
            previous = key
            while True:
                top = spine[-1]
                top_net = top.key >> 6
                top_len = top.key & 63
                common = _common_length(net, plen, top_net, top_len)
                if common == top_len:
                    break  # top covers the new key
                below = spine[-2]
                below_len = below.key & 63
                if below_len >= common:
                    spine.pop()
                    continue
                # Split the below->top edge at the divergence point.  The
                # new key always lands on the freshly opened side (sorted
                # input keeps the in-construction region on the spine).
                mid: _Node[V] = _Node(net & masks[common], common)
                if (top_net >> (31 - common)) & 1:
                    mid.one = top
                else:
                    mid.zero = top
                if ((mid.key >> 6) >> (31 - below_len)) & 1:
                    below.one = mid
                else:
                    below.zero = mid
                spine[-1] = mid
                break
            top = spine[-1]
            top_len = top.key & 63
            if top_len == plen:
                # Only reachable for the root / 0.0.0.0/0 with sorted input.
                top.prefix = prefix
                top.value = value
            else:
                leaf: _Node[V] = _Node(net, plen)
                leaf.prefix = prefix
                leaf.value = value
                if (net >> (31 - top_len)) & 1:
                    top.one = leaf
                else:
                    top.zero = leaf
                spine.append(leaf)
            size += 1
        self._size = size

    def remove(self, prefix: Prefix) -> V:
        """Remove ``prefix`` and return its value; raise ``KeyError`` if absent."""
        net = prefix.network
        plen = prefix.length
        masks = NETMASKS
        path = []
        node = self._root
        while node.key & 63 < plen:
            bit = (net >> (31 - (node.key & 63))) & 1
            child = node.one if bit else node.zero
            if child is None:
                raise KeyError(prefix)
            child_len = child.key & 63
            if child_len > plen or (net ^ (child.key >> 6)) & masks[child_len]:
                raise KeyError(prefix)
            path.append(node)
            node = child
        if node.prefix is None or (net ^ (node.key >> 6)) & masks[plen]:
            raise KeyError(prefix)
        value = node.value
        node.prefix = None
        node.value = None
        self._size -= 1
        # Contract: a valueless non-root node with fewer than two children
        # is structurally unnecessary — splice it out (and, after removing a
        # leaf, re-check its parent, which may have become a pass-through).
        while path:
            if node.prefix is not None:
                break
            zero, one = node.zero, node.one
            if zero is not None and one is not None:
                break
            child = zero if zero is not None else one
            parent = path[-1]
            if parent.zero is node:
                parent.zero = child
            else:
                parent.one = child
            if child is not None:
                break
            node = parent
            path.pop()
        return value  # type: ignore[return-value]

    def clear(self) -> None:
        """Remove every entry."""
        self._root = _Node(0, 0)
        self._size = 0

    # -- exact queries ----------------------------------------------------

    def get(self, prefix: Prefix, default: Optional[V] = None) -> Optional[V]:
        """Return the value stored exactly under ``prefix`` or ``default``."""
        node = self._find_exact(prefix)
        if node is None or node.prefix is None:
            return default
        return node.value

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._find_exact(prefix)
        return node is not None and node.prefix is not None

    def __getitem__(self, prefix: Prefix) -> V:
        node = self._find_exact(prefix)
        if node is None or node.prefix is None:
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
        masks = NETMASKS
        best: Optional[Tuple[Prefix, V]] = None
        node = self._root
        while True:
            if node.prefix is not None:
                best = (node.prefix, node.value)  # type: ignore[assignment]
            node_len = node.key & 63
            if node_len == 32:
                return best
            bit = (address >> (31 - node_len)) & 1
            child = node.one if bit else node.zero
            if child is None:
                return best
            child_key = child.key
            if (address ^ (child_key >> 6)) & masks[child_key & 63]:
                return best
            node = child

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
        """Number of trie nodes currently allocated (at most ``2n`` for ``n`` entries)."""
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
        """Bytes held by the trie's node structure itself.

        Counts the node objects only: the stored prefixes and values are
        references shared with the caller (the RIB, the FIB, the backup
        table) and span keys are packed machine integers, so nothing else
        is private to the trie.  Directly comparable with the per-bit
        test oracle's measurement, which additionally owns the memoised
        bit decompositions its walks require.
        """
        total = 0
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

    def _find_exact(self, prefix: Prefix) -> Optional[_Node[V]]:
        net = prefix.network
        plen = prefix.length
        node = self._root
        while node.key & 63 < plen:
            bit = (net >> (31 - (node.key & 63))) & 1
            child = node.one if bit else node.zero
            if child is None or child.key & 63 > plen:
                return None
            node = child
        if node.key != (net << 6) | plen:
            return None
        return node

    def _walk(self, node: _Node[V]) -> Iterator[Tuple[Prefix, V]]:
        if node.prefix is not None:
            yield node.prefix, node.value  # type: ignore[misc]
        if node.zero is not None:
            yield from self._walk(node.zero)
        if node.one is not None:
            yield from self._walk(node.one)

    def to_dict(self) -> Dict[Prefix, V]:
        """Materialise the trie as a plain dictionary."""
        return dict(self.items())
