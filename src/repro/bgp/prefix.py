"""IPv4 prefix representation.

The whole SWIFT pipeline is keyed on prefixes: bursts are counted in
withdrawn prefixes, the RIB maps prefixes to AS paths and the encoding
algorithm tags packets per destination prefix.  This module provides a
compact, hashable, total-ordered :class:`Prefix` value type plus a few
helpers used across the code base.

The implementation deliberately avoids :mod:`ipaddress` so that creating
hundreds of thousands of prefixes (a full Internet table is ~650k routes)
stays cheap: a prefix *is* a ``(network, length)`` tuple — a ``tuple``
subclass with no instance state of its own — so hashing, equality and
ordering run in C.  Every RIB, index and FIB in the pipeline is a dict or
set keyed by prefixes, and a Python-level ``__hash__`` was a third of the
speaker's function calls.  The layout matters as much as the language: the
tuple hash spreads consecutive /24s over the whole table, where a packed
``(network << 6) | length`` int leaves the low bits constant and clusters
open addressing.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "NETMASKS",
    "Prefix",
    "PrefixError",
    "parse_prefix",
    "prefix_block",
    "summarize_prefixes",
]

_MAX_IPV4 = (1 << 32) - 1

#: ``NETMASKS[length]`` keeps the top ``length`` bits of a 32-bit address.
NETMASKS = tuple((_MAX_IPV4 << (32 - length)) & _MAX_IPV4 for length in range(33))


class PrefixError(ValueError):
    """Raised when a prefix string or (network, length) pair is invalid."""


def _dotted_to_int(dotted: str) -> int:
    """Convert a dotted-quad IPv4 address to its integer value."""
    parts = dotted.split(".")
    if len(parts) != 4:
        raise PrefixError(f"invalid IPv4 address {dotted!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise PrefixError(f"invalid IPv4 address {dotted!r}")
        octet = int(part)
        if octet > 255:
            raise PrefixError(f"invalid IPv4 address {dotted!r}")
        value = (value << 8) | octet
    return value


def _int_to_dotted(value: int) -> str:
    """Convert an integer IPv4 address to dotted-quad notation."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class Prefix(tuple):
    """An IPv4 prefix such as ``203.0.113.0/24``.

    Instances are immutable, hashable and totally ordered (first by network
    address, then by prefix length), which makes them usable as dictionary
    keys and sortable for deterministic output.  All three come from the
    ``(network, length)`` tuple underneath: the class defines no
    ``__hash__``, ``__eq__`` or ordering method, so a dict or set probe
    never enters the interpreter.  The price is that a prefix also compares
    equal to the bare tuple ``(network, length)`` — do not key one container
    by both prefixes and 2-int tuples such as AS links.

    Parameters
    ----------
    network:
        Network address as a 32-bit integer.  Host bits below the prefix
        length are masked off automatically.
    length:
        Prefix length in ``[0, 32]``.
    """

    __slots__ = ()

    def __new__(cls, network: int, length: int) -> "Prefix":
        if not 0 <= length <= 32:
            raise PrefixError(f"prefix length {length} out of range [0, 32]")
        if not 0 <= network <= _MAX_IPV4:
            raise PrefixError(f"network {network:#x} out of IPv4 range")
        return tuple.__new__(cls, (network & NETMASKS[length], length))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (a bare address means a /32)."""
        text = text.strip()
        if "/" in text:
            address, _, length_text = text.partition("/")
            if not length_text.isdigit():
                raise PrefixError(f"invalid prefix {text!r}")
            length = int(length_text)
        else:
            address, length = text, 32
        return cls(_dotted_to_int(address), length)

    # -- accessors --------------------------------------------------------

    network = property(itemgetter(0), doc="Network address as a 32-bit integer.")
    length = property(itemgetter(1), doc="Prefix length.")

    @property
    def netmask(self) -> int:
        """Netmask as a 32-bit integer."""
        return NETMASKS[self[1]]

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered by this prefix."""
        return 1 << (32 - self[1])

    def contains_address(self, address: int) -> bool:
        """Return ``True`` if ``address`` (an int) falls inside this prefix."""
        return (address & self.netmask) == self[0]

    def contains(self, other: "Prefix") -> bool:
        """Return ``True`` if ``other`` is equal to or more specific than us."""
        if other[1] < self[1]:
            return False
        return (other[0] & self.netmask) == self[0]

    def supernet(self) -> "Prefix":
        """Return the immediately covering prefix (one bit shorter)."""
        network, length = self
        if length == 0:
            raise PrefixError("0.0.0.0/0 has no supernet")
        return Prefix(network, length - 1)

    def subnets(self) -> Tuple["Prefix", "Prefix"]:
        """Split this prefix into its two halves (one bit longer each)."""
        network, length = self
        if length == 32:
            raise PrefixError("/32 prefixes cannot be subdivided")
        child_length = length + 1
        low = Prefix(network, child_length)
        high = Prefix(network | (1 << (32 - child_length)), child_length)
        return low, high

    def bits(self) -> str:
        """Return the significant bits of the prefix as a ``'0'``/``'1'`` string."""
        network, length = self
        if length == 0:
            return ""
        return format(network >> (32 - length), f"0{length}b")

    # -- dunder protocol ---------------------------------------------------

    def __reduce__(self):
        # Restore via the trusted fast path: the stored fields were already
        # validated and masked at construction, and trace caches serialise
        # millions of prefixes.
        return (_restore_prefix, tuple(self))

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __str__(self) -> str:
        return f"{_int_to_dotted(self[0])}/{self[1]}"


def _restore_prefix(network: int, length: int) -> "Prefix":
    """Unpickle fast path: rebuild a prefix from already-validated fields."""
    return tuple.__new__(Prefix, (network, length))


def parse_prefix(text: str) -> Prefix:
    """Convenience wrapper around :meth:`Prefix.from_string`."""
    return Prefix.from_string(text)


def prefix_block(base: str, count: int, length: int = 24) -> List[Prefix]:
    """Generate ``count`` consecutive prefixes of the given length.

    This is the workhorse used by the topology generators to hand each AS a
    set of prefixes, mirroring the "each AS i originates a distinct set of
    prefixes S_i" setup of the paper's running example (Fig. 1).

    Parameters
    ----------
    base:
        Starting prefix in string form, e.g. ``"10.0.0.0/24"``.  Its length
        must match ``length``.
    count:
        Number of consecutive prefixes to return.
    length:
        Prefix length of every generated prefix.
    """
    start = Prefix.from_string(base)
    if start.length != length:
        raise PrefixError(
            f"base prefix {base} has length {start.length}, expected {length}"
        )
    stride = 1 << (32 - length)
    prefixes: List[Prefix] = []
    network = start.network
    for _ in range(count):
        if network > _MAX_IPV4:
            raise PrefixError("prefix block overflows IPv4 address space")
        prefixes.append(Prefix(network, length))
        network += stride
    return prefixes


def summarize_prefixes(prefixes: Iterable[Prefix]) -> List[Prefix]:
    """Aggregate adjacent sibling prefixes into their supernets.

    The summarisation is exact: the returned list covers exactly the same
    address space as the input (assuming the input contains no duplicates),
    with the minimum number of prefixes.  It is used by the synthetic trace
    generator to emit realistic mixes of prefix lengths.
    """
    working = sorted(set(prefixes))
    merged = True
    while merged:
        merged = False
        result: List[Prefix] = []
        index = 0
        while index < len(working):
            current = working[index]
            if index + 1 < len(working) and current.length == working[index + 1].length:
                sibling = working[index + 1]
                if current.length > 0:
                    parent = current.supernet()
                    if parent.contains(current) and parent.contains(sibling) and (
                        sibling.network == current.network + current.num_addresses
                    ):
                        result.append(parent)
                        index += 2
                        merged = True
                        continue
            result.append(current)
            index += 1
        working = result
    return working


def random_addresses(
    prefixes: Sequence[Prefix], count: int, rng
) -> List[int]:
    """Pick ``count`` random addresses, each from a random prefix.

    Parameters
    ----------
    prefixes:
        Non-empty sequence of candidate prefixes.
    count:
        Number of addresses to draw (with replacement across prefixes).
    rng:
        A :class:`random.Random` instance, for deterministic experiments.
    """
    if not prefixes:
        raise PrefixError("cannot sample addresses from an empty prefix list")
    addresses: List[int] = []
    for _ in range(count):
        prefix = prefixes[rng.randrange(len(prefixes))]
        offset = rng.randrange(prefix.num_addresses)
        addresses.append(prefix.network + offset)
    return addresses
