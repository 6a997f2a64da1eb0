"""Columnar (array-backed) BGP update streams.

A month of replay input is millions of tiny :class:`~repro.bgp.messages`
objects; pickling and — above all — unpickling that object graph dominates
cold-start time, and iterating it keeps the replay hot path busy chasing
pointers.  This module stores a trace as parallel arrays of primitives
(stdlib :mod:`array` only):

* **Interning tables** (:class:`InternPool`): every distinct prefix, AS
  path, community set and attribute set is stored once, as columns, and
  referenced by index.  Real streams repeat a few thousand attribute sets
  across millions of messages, so the tables stay tiny next to the stream.
* **Message columns** (:class:`ColumnarTrace`): one row per message —
  float64 timestamp, peer AS, a kind byte — plus cumulative withdrawal /
  announcement bounds indexing into flat per-prefix columns.

A trace serialises one way: :meth:`ColumnarTrace.to_payload` exports raw
``bytes`` buffers and :meth:`ColumnarTrace.from_payload` restores them at
memcpy cost.  That payload is the trace cache's entry body and the column
store's segment source, and it is what makes a cached month trace reload an
order of magnitude faster than the equivalent pickled object graph.
:data:`COLUMNAR_FORMAT_VERSION` travels in the payload and is checked on
restore, so a stale payload fails loudly (the cache layer treats the
failure as a miss and rebuilds).

Consumers have three access grains:

* :meth:`ColumnarTrace.iter_messages` materialises :class:`BGPMessage`
  objects lazily, sharing the interned prefix/attribute objects — a
  round-trip through the columns yields messages equal to the originals;
* :meth:`ColumnarTrace.iter_batches` yields :class:`ColumnarRun` views —
  consecutive same-peer runs in exactly the shape the batched speaker path
  wants.  A run is a sequence of messages *and* a window onto the raw
  columns, which lets :meth:`repro.bgp.speaker.SpeakerBatch.add_columnar_run`
  apply a run without constructing a single message object;
* :class:`ColumnarMessageView` answers aggregate questions (withdrawal
  counts, time bounds) straight from the columns in O(1).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence as SequenceABC
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.bgp.attributes import ASPath, Community, Origin, PathAttributes
from repro.bgp.messages import (
    Announcement,
    BGPMessage,
    KeepAlive,
    Notification,
    OpenMessage,
    Update,
)
from repro.bgp.prefix import Prefix

__all__ = [
    "COLUMNAR_FORMAT_VERSION",
    "POOL_COLUMNS",
    "TRACE_COLUMNS",
    "ColumnarMessageView",
    "ColumnarRun",
    "ColumnarTrace",
    "InternPool",
    "decode_rib",
    "encode_rib",
    "table_dump",
]

#: Bump whenever the column schema changes; embedded in every payload and
#: checked on restore, so an old payload can never be half-loaded.
COLUMNAR_FORMAT_VERSION = 1

#: The (name, typecode) schema of the interning-table columns, in payload
#: order.  :meth:`InternPool.to_payload` / :meth:`InternPool.from_payload`
#: walk it, so every durable form of a pool follows it.
POOL_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("prefix_net", "I"),
    ("prefix_len", "B"),
    ("path_asns", "I"),
    ("path_bounds", "I"),
    ("comm_packed", "I"),
    ("comm_bounds", "I"),
    ("attr_path", "I"),
    ("attr_next_hop", "q"),
    ("attr_local_pref", "q"),
    ("attr_med", "q"),
    ("attr_origin", "B"),
    ("attr_comms", "I"),
)

#: The (name, typecode) schema of the per-message stream columns.
TRACE_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("msg_time", "d"),
    ("msg_peer", "q"),
    ("msg_kind", "B"),
    ("wd_end", "I"),
    ("ann_end", "I"),
    ("wd_prefix", "I"),
    ("ann_prefix", "I"),
    ("ann_attr", "I"),
)

# Message kind bytes (column ``msg_kind``).
KIND_UPDATE = 0
KIND_OPEN = 1
KIND_KEEPALIVE = 2
KIND_NOTIFICATION = 3

_KIND_OF_TYPE = {
    OpenMessage: KIND_OPEN,
    KeepAlive: KIND_KEEPALIVE,
    Notification: KIND_NOTIFICATION,
}

_object_new = object.__new__
_EMPTY_TUPLE: Tuple = ()

# The slot descriptors of the two message types the materialisation path
# builds; ``descriptor.__set__`` writes a slot past the frozen
# ``__setattr__``.
_set_timestamp = Update.timestamp.__set__
_set_peer_as = Update.peer_as.__set__
_set_announcements = Update.announcements.__set__
_set_withdrawals = Update.withdrawals.__set__
_set_prefix = Announcement.prefix.__set__
_set_attributes = Announcement.attributes.__set__


def _make_update(
    timestamp: float,
    peer_as: int,
    announcements: Tuple[Announcement, ...],
    withdrawals: Tuple[Prefix, ...],
) -> Update:
    """Build an Update without the frozen-dataclass ``__setattr__`` tax.

    The fields are written straight into the instance's slots; equality,
    hashing and pickling behave exactly as for a constructor-built message.
    Used on the lazy materialisation path, where millions of messages may
    be built.
    """
    update = _object_new(Update)
    _set_timestamp(update, timestamp)
    _set_peer_as(update, peer_as)
    _set_announcements(update, announcements)
    _set_withdrawals(update, withdrawals)
    return update


def _make_announcement(prefix: Prefix, attributes: PathAttributes) -> Announcement:
    """Build an Announcement the way :func:`_make_update` builds an Update."""
    announcement = _object_new(Announcement)
    _set_prefix(announcement, prefix)
    _set_attributes(announcement, attributes)
    return announcement


def _rebased(column: array, base: int) -> array:
    """Shift a sliced cumulative-bound column back to a zero origin."""
    if base:
        for index in range(len(column)):
            column[index] -= base
    return column


class InternPool:
    """Interning tables shared by the columns of one (or more) traces.

    Every distinct prefix, AS path, community set and attribute set is
    stored once as primitive columns and referenced by index.  Decoding is
    lazy and memoised per table entry, so two messages referencing the same
    attribute set materialise the *same* :class:`PathAttributes` object —
    which is exactly the identity-sharing the batched decision path groups
    by.
    """

    __slots__ = (
        "prefix_net",
        "prefix_len",
        "path_asns",
        "path_bounds",
        "comm_packed",
        "comm_bounds",
        "attr_path",
        "attr_next_hop",
        "attr_local_pref",
        "attr_med",
        "attr_origin",
        "attr_comms",
        "_maps_stale",
        "_prefix_ids",
        "_path_ids",
        "_comm_ids",
        "_attr_ids",
        "_prefix_cache",
        "_path_cache",
        "_comm_cache",
        "_attr_cache",
    )

    def __init__(self) -> None:
        self.prefix_net = array("I")
        self.prefix_len = array("B")
        self.path_asns = array("I")  # flattened ASNs of every interned path
        self.path_bounds = array("I", (0,))  # cumulative ends, len = paths + 1
        self.comm_packed = array("I")  # (asn << 16) | value, sorted per set
        self.comm_bounds = array("I", (0,))  # entry 0 is the empty set
        self.attr_path = array("I")
        self.attr_next_hop = array("q")
        self.attr_local_pref = array("q")
        self.attr_med = array("q")
        self.attr_origin = array("B")
        self.attr_comms = array("I")
        self._init_transients()
        # The empty community set is always entry 0.
        self.comm_bounds.append(0)
        self._comm_ids[_EMPTY_TUPLE] = 0
        self._comm_cache.append(frozenset())

    def _init_transients(self) -> None:
        self._maps_stale = False
        self._prefix_ids: Dict[Prefix, int] = {}
        self._path_ids: Dict[Tuple[int, ...], int] = {}
        self._comm_ids: Dict[Tuple[int, ...], int] = {}
        self._attr_ids: Dict[PathAttributes, int] = {}
        self._prefix_cache: List[Optional[Prefix]] = []
        self._path_cache: List[Optional[ASPath]] = []
        self._comm_cache: List[Optional[frozenset]] = []
        self._attr_cache: List[Optional[PathAttributes]] = []

    # -- interning (write path) -------------------------------------------

    def intern_prefix(self, prefix: Prefix) -> int:
        """Return the table index of ``prefix``, adding it if new."""
        if self._maps_stale:
            self._rebuild_intern_maps()
        index = self._prefix_ids.get(prefix)
        if index is None:
            index = self._prefix_ids[prefix] = len(self.prefix_net)
            self.prefix_net.append(prefix.network)
            self.prefix_len.append(prefix.length)
            self._prefix_cache.append(prefix)
        return index

    def intern_path(self, path: ASPath) -> int:
        """Return the table index of ``path``, adding it if new."""
        if self._maps_stale:
            self._rebuild_intern_maps()
        asns = path.asns
        index = self._path_ids.get(asns)
        if index is None:
            index = self._path_ids[asns] = len(self.path_bounds) - 1
            self.path_asns.extend(asns)
            self.path_bounds.append(len(self.path_asns))
            self._path_cache.append(path)
        return index

    def intern_communities(self, communities: frozenset) -> int:
        """Return the table index of a community set, adding it if new."""
        if not communities:
            return 0
        if self._maps_stale:
            self._rebuild_intern_maps()
        packed = tuple(
            sorted((community.asn << 16) | community.value for community in communities)
        )
        index = self._comm_ids.get(packed)
        if index is None:
            index = self._comm_ids[packed] = len(self.comm_bounds) - 1
            self.comm_packed.extend(packed)
            self.comm_bounds.append(len(self.comm_packed))
            self._comm_cache.append(frozenset(communities))
        return index

    def intern_attributes(self, attributes: PathAttributes) -> int:
        """Return the table index of an attribute set, adding it if new."""
        if self._maps_stale:
            self._rebuild_intern_maps()
        index = self._attr_ids.get(attributes)
        if index is None:
            index = self._attr_ids[attributes] = len(self.attr_path)
            self.attr_path.append(self.intern_path(attributes.as_path))
            self.attr_next_hop.append(attributes.next_hop)
            self.attr_local_pref.append(attributes.local_pref)
            self.attr_med.append(attributes.med)
            self.attr_origin.append(int(attributes.origin))
            self.attr_comms.append(self.intern_communities(attributes.communities))
            self._attr_cache.append(attributes)
        return index

    # -- materialisation (read path) --------------------------------------

    def prefix_at(self, index: int) -> Prefix:
        """The interned prefix at ``index`` (materialised once)."""
        prefix = self._prefix_cache[index]
        if prefix is None:
            prefix = self._prefix_cache[index] = Prefix(
                self.prefix_net[index], self.prefix_len[index]
            )
        return prefix

    def path_at(self, index: int) -> ASPath:
        """The interned AS path at ``index`` (materialised once)."""
        path = self._path_cache[index]
        if path is None:
            start, stop = self.path_bounds[index], self.path_bounds[index + 1]
            path = self._path_cache[index] = ASPath(self.path_asns[start:stop])
        return path

    def communities_at(self, index: int) -> frozenset:
        """The interned community set at ``index`` (materialised once)."""
        communities = self._comm_cache[index]
        if communities is None:
            start, stop = self.comm_bounds[index], self.comm_bounds[index + 1]
            communities = self._comm_cache[index] = frozenset(
                Community(packed >> 16, packed & 0xFFFF)
                for packed in self.comm_packed[start:stop]
            )
        return communities

    def attributes_at(self, index: int) -> PathAttributes:
        """The interned attribute set at ``index`` (materialised once)."""
        attributes = self._attr_cache[index]
        if attributes is None:
            attributes = self._attr_cache[index] = PathAttributes(
                as_path=self.path_at(self.attr_path[index]),
                next_hop=self.attr_next_hop[index],
                local_pref=self.attr_local_pref[index],
                med=self.attr_med[index],
                origin=Origin(self.attr_origin[index]),
                communities=self.communities_at(self.attr_comms[index]),
            )
        return attributes

    def prefixes_at(self, indices: Sequence[int]) -> List[Prefix]:
        """Materialise many interned prefixes at once.

        The batched form of :meth:`prefix_at`: one C-speed gather over the
        decoded-prefix cache, with a Python fixup only for entries not yet
        decoded.  This is how the fit-score calculator turns a withdrawal
        window's row indices into the interned objects the engine's index
        keys by.
        """
        cache = self._prefix_cache
        prefixes = list(map(cache.__getitem__, indices))
        if None in prefixes:
            prefix_at = self.prefix_at
            for position, prefix in enumerate(prefixes):
                if prefix is None:
                    prefixes[position] = prefix_at(indices[position])
        return prefixes

    # -- sizes -------------------------------------------------------------

    @property
    def prefix_count(self) -> int:
        """Number of interned prefixes."""
        return len(self.prefix_net)

    @property
    def attribute_count(self) -> int:
        """Number of interned attribute sets."""
        return len(self.attr_path)

    def _rebuild_intern_maps(self) -> None:
        """Refill the interning maps of a restored pool (append-after-load)."""
        self._maps_stale = False
        for index in range(len(self.prefix_net)):
            self._prefix_ids[self.prefix_at(index)] = index
        for index in range(len(self.path_bounds) - 1):
            self._path_ids[self.path_at(index).asns] = index
        for index in range(len(self.comm_bounds) - 1):
            start, stop = self.comm_bounds[index], self.comm_bounds[index + 1]
            self._comm_ids[tuple(self.comm_packed[start:stop])] = index
        for index in range(len(self.attr_path)):
            self._attr_ids[self.attributes_at(index)] = index

    # -- raw-buffer payloads ------------------------------------------------

    def to_payload(self) -> Dict[str, bytes]:
        """Export the tables as a flat name -> raw ``bytes`` mapping.

        The payload contains no Python object graph — only the column
        buffers — so it ships across process boundaries (or into the column
        store) at memcpy cost.  Restore with :meth:`from_payload`.
        """
        return {name: getattr(self, name).tobytes() for name, _ in POOL_COLUMNS}

    @classmethod
    def from_payload(cls, payload: Mapping[str, bytes]) -> "InternPool":
        """Rebuild a pool from :meth:`to_payload` buffers (lazy decoding)."""
        pool = _object_new(cls)
        for name, typecode in POOL_COLUMNS:
            column = array(typecode)
            column.frombytes(payload[name])
            setattr(pool, name, column)
        pool._init_transients()
        pool._maps_stale = True
        pool._prefix_cache = [None] * len(pool.prefix_net)
        pool._path_cache = [None] * (len(pool.path_bounds) - 1)
        pool._comm_cache = [None] * (len(pool.comm_bounds) - 1)
        pool._attr_cache = [None] * len(pool.attr_path)
        return pool


class ColumnarTrace:
    """A BGP message stream stored as parallel arrays of primitives.

    Doubles as its own writer: :meth:`append` (or the cheaper
    :meth:`announce` / :meth:`withdraw` fast paths) grow the columns in
    place, which is how the synthetic generator and the MRT reader emit
    straight into columnar form without an intermediate object stream.

    A trace holds its pool, its columns and ``extras``, nothing else: a
    materialised message is built fresh over the pool's interned prefixes
    and attributes and is never kept by the trace.
    """

    __slots__ = (
        "pool",
        "msg_time",
        "msg_peer",
        "msg_kind",
        "wd_end",
        "ann_end",
        "wd_prefix",
        "ann_prefix",
        "ann_attr",
        "extras",
    )

    def __init__(self, pool: Optional[InternPool] = None) -> None:
        self.pool = pool if pool is not None else InternPool()
        self.msg_time = array("d")
        self.msg_peer = array("q")
        self.msg_kind = array("B")
        # Cumulative withdrawal / announcement counts *through* message i;
        # message i's withdrawals are wd_prefix[wd_end[i-1]:wd_end[i]].
        self.wd_end = array("I")
        self.ann_end = array("I")
        self.wd_prefix = array("I")
        self.ann_prefix = array("I")
        self.ann_attr = array("I")
        # Rare non-UPDATE payloads, keyed by message index:
        # OPEN -> (hold_time,), NOTIFICATION -> (error_code, subcode, reason).
        self.extras: Dict[int, tuple] = {}

    # -- write path --------------------------------------------------------

    def announce(
        self, timestamp: float, peer_as: int, prefix: Prefix, attributes: PathAttributes
    ) -> None:
        """Append a single-prefix announcement UPDATE."""
        pool = self.pool
        self.msg_time.append(timestamp)
        self.msg_peer.append(peer_as)
        self.msg_kind.append(KIND_UPDATE)
        self.ann_prefix.append(pool.intern_prefix(prefix))
        self.ann_attr.append(pool.intern_attributes(attributes))
        self.ann_end.append(len(self.ann_prefix))
        self.wd_end.append(len(self.wd_prefix))

    def withdraw(self, timestamp: float, peer_as: int, prefix: Prefix) -> None:
        """Append a single-prefix withdrawal UPDATE."""
        self.msg_time.append(timestamp)
        self.msg_peer.append(peer_as)
        self.msg_kind.append(KIND_UPDATE)
        self.wd_prefix.append(self.pool.intern_prefix(prefix))
        self.wd_end.append(len(self.wd_prefix))
        self.ann_end.append(len(self.ann_prefix))

    def append(self, message: BGPMessage) -> None:
        """Append any BGP message."""
        if isinstance(message, Update):
            pool = self.pool
            self.msg_time.append(message.timestamp)
            self.msg_peer.append(message.peer_as)
            self.msg_kind.append(KIND_UPDATE)
            for prefix in message.withdrawals:
                self.wd_prefix.append(pool.intern_prefix(prefix))
            for announcement in message.announcements:
                self.ann_prefix.append(pool.intern_prefix(announcement.prefix))
                self.ann_attr.append(pool.intern_attributes(announcement.attributes))
            self.wd_end.append(len(self.wd_prefix))
            self.ann_end.append(len(self.ann_prefix))
            return
        kind = _KIND_OF_TYPE.get(type(message))
        if kind is None:
            raise TypeError(f"cannot encode message of type {type(message).__name__}")
        index = len(self.msg_time)
        self.msg_time.append(message.timestamp)
        self.msg_peer.append(message.peer_as)
        self.msg_kind.append(kind)
        self.wd_end.append(len(self.wd_prefix))
        self.ann_end.append(len(self.ann_prefix))
        if kind == KIND_OPEN:
            self.extras[index] = (message.hold_time,)
        elif kind == KIND_NOTIFICATION:
            self.extras[index] = (
                message.error_code,
                message.error_subcode,
                message.reason,
            )

    def extend(self, messages: Iterable[BGPMessage]) -> None:
        """Append a stream of messages."""
        append = self.append
        for message in messages:
            append(message)

    @classmethod
    def from_messages(
        cls, messages: Iterable[BGPMessage], pool: Optional[InternPool] = None
    ) -> "ColumnarTrace":
        """Encode an object stream into columns."""
        trace = cls(pool=pool)
        trace.extend(messages)
        return trace

    # -- aggregate queries (no materialisation) ----------------------------

    def __len__(self) -> int:
        return len(self.msg_time)

    @property
    def message_count(self) -> int:
        """Number of encoded messages."""
        return len(self.msg_time)

    @property
    def withdrawal_total(self) -> int:
        """Total number of withdrawn prefixes across the stream."""
        return len(self.wd_prefix)

    @property
    def announcement_total(self) -> int:
        """Total number of announced prefixes across the stream."""
        return len(self.ann_prefix)

    def withdrawals_between(self, start: int, stop: int) -> int:
        """Withdrawn-prefix count over the message index window [start, stop)."""
        if stop <= start:
            return 0
        low = self.wd_end[start - 1] if start else 0
        return self.wd_end[stop - 1] - low

    def announcements_between(self, start: int, stop: int) -> int:
        """Announced-prefix count over the message index window [start, stop)."""
        if stop <= start:
            return 0
        low = self.ann_end[start - 1] if start else 0
        return self.ann_end[stop - 1] - low

    # -- materialisation ---------------------------------------------------

    def _announcement_at(self, index: int) -> Announcement:
        pool = self.pool
        return _make_announcement(
            pool.prefix_at(self.ann_prefix[index]),
            pool.attributes_at(self.ann_attr[index]),
        )

    def message_at(self, index: int) -> BGPMessage:
        """Materialise the message at ``index``."""
        kind = self.msg_kind[index]
        timestamp = self.msg_time[index]
        peer_as = self.msg_peer[index]
        if kind == KIND_UPDATE:
            wd_low = self.wd_end[index - 1] if index else 0
            ann_low = self.ann_end[index - 1] if index else 0
            wd_high = self.wd_end[index]
            ann_high = self.ann_end[index]
            prefix_at = self.pool.prefix_at
            withdrawals = tuple(
                prefix_at(self.wd_prefix[j]) for j in range(wd_low, wd_high)
            )
            announcements = tuple(
                self._announcement_at(j) for j in range(ann_low, ann_high)
            )
            return _make_update(timestamp, peer_as, announcements, withdrawals)
        if kind == KIND_OPEN:
            (hold_time,) = self.extras.get(index, (90.0,))
            return OpenMessage(timestamp=timestamp, peer_as=peer_as, hold_time=hold_time)
        if kind == KIND_KEEPALIVE:
            return KeepAlive(timestamp=timestamp, peer_as=peer_as)
        error_code, error_subcode, reason = self.extras.get(index, (6, 0, ""))
        return Notification(
            timestamp=timestamp,
            peer_as=peer_as,
            error_code=error_code,
            error_subcode=error_subcode,
            reason=reason,
        )

    def iter_messages(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[BGPMessage]:
        """Materialise messages lazily over [start, stop)."""
        if stop is None:
            stop = len(self.msg_time)
        message_at = self.message_at
        for index in range(start, stop):
            yield message_at(index)

    def to_messages(self) -> List[BGPMessage]:
        """Materialise the whole stream eagerly."""
        return list(self.iter_messages())

    # -- batched views -----------------------------------------------------

    def iter_batches(
        self, max_run: Optional[int] = None, kernel=None
    ) -> Iterator["ColumnarRun"]:
        """Yield consecutive same-peer runs, the batched replay unit.

        Each run is a :class:`ColumnarRun` — a lazy message sequence plus a
        raw-column window — sized so :meth:`BGPSpeaker.receive_batch` /
        :meth:`SpeakerBatch.add_columnar_run` can consume it directly.
        ``max_run`` caps run length (long single-peer streams are split so
        batch state stays bounded); splitting never reorders messages and
        does not change replay results.

        Run segmentation is a kernel (``run_boundaries``); ``kernel``
        overrides the default backend
        (:func:`repro.core.kernels.default_backend`).
        """
        if kernel is None:
            from repro.core import kernels

            kernel = kernels.default_backend()
        peers = self.msg_peer
        for start, stop in kernel.run_boundaries(peers, len(peers), max_run):
            yield ColumnarRun(self, start, stop, peers[start])

    def view(self, indices: Union[range, Sequence[int], None] = None) -> "ColumnarMessageView":
        """A (possibly non-contiguous) lazy message view over the trace."""
        if indices is None:
            indices = range(len(self.msg_time))
        return ColumnarMessageView(self, indices)

    # -- raw-buffer payloads ------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """Export the trace as plain buffers — no object-graph pickling.

        The returned mapping holds only primitives: the format version, one
        raw ``bytes`` buffer per message column, the pool's buffers (nested
        under ``"pool"``) and the tiny ``extras`` dict of non-UPDATE
        payloads.  Pickling the payload is a handful of memcpys, and
        :meth:`from_payload` rebuilds the trace from the buffers without
        ever deserialising a message object graph.
        """
        payload: Dict[str, Any] = {
            "format": COLUMNAR_FORMAT_VERSION,
            "pool": self.pool.to_payload(),
            "extras": dict(self.extras),
        }
        for name, _ in TRACE_COLUMNS:
            payload[name] = getattr(self, name).tobytes()
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ColumnarTrace":
        """Rebuild a trace from :meth:`to_payload` buffers.

        The restore is pure memcpy cost, checking only the format version;
        on disk, the frame CRC of :mod:`repro.traces.columnar_store` guards
        the bytes.
        """
        version = payload.get("format")
        if version != COLUMNAR_FORMAT_VERSION:
            raise ValueError(
                f"columnar format v{version} payload, running code expects "
                f"v{COLUMNAR_FORMAT_VERSION}"
            )
        trace = _object_new(cls)
        trace.pool = InternPool.from_payload(payload["pool"])
        for name, typecode in TRACE_COLUMNS:
            column = array(typecode)
            column.frombytes(payload[name])
            setattr(trace, name, column)
        trace.extras = dict(payload.get("extras") or {})
        return trace

    # -- slices --------------------------------------------------------------

    @property
    def first_timestamp(self) -> Optional[float]:
        """Timestamp of the first message, or ``None`` for an empty trace."""
        return self.msg_time[0] if len(self.msg_time) else None

    @property
    def last_timestamp(self) -> Optional[float]:
        """Timestamp of the last message, or ``None`` for an empty trace."""
        return self.msg_time[-1] if len(self.msg_time) else None

    def slice(self, start: int, stop: int) -> "ColumnarTrace":
        """The sub-trace over the message index window [start, stop)."""
        total = len(self.msg_time)
        start = max(0, min(start, total))
        stop = max(start, min(stop, total))
        w_low = self.wd_end[start - 1] if start else 0
        a_low = self.ann_end[start - 1] if start else 0
        w_high = self.wd_end[stop - 1] if stop else 0
        a_high = self.ann_end[stop - 1] if stop else 0
        trace = _object_new(type(self))
        trace.pool = self.pool
        trace.msg_time = self.msg_time[start:stop]
        trace.msg_peer = self.msg_peer[start:stop]
        trace.msg_kind = self.msg_kind[start:stop]
        trace.wd_end = _rebased(self.wd_end[start:stop], w_low)
        trace.ann_end = _rebased(self.ann_end[start:stop], a_low)
        trace.wd_prefix = self.wd_prefix[w_low:w_high]
        trace.ann_prefix = self.ann_prefix[a_low:a_high]
        trace.ann_attr = self.ann_attr[a_low:a_high]
        trace.extras = {
            index - start: extra
            for index, extra in self.extras.items()
            if start <= index < stop
        }
        return trace


class ColumnarMessageView(SequenceABC):
    """A lazy, list-like view of selected messages of a columnar trace.

    Supports arbitrary index selections (burst membership lists) as well as
    contiguous ranges; aggregate queries are answered from the columns
    without materialising messages.
    """

    __slots__ = ("trace", "_indices")

    def __init__(self, trace: ColumnarTrace, indices: Union[range, Sequence[int]]) -> None:
        self.trace = trace
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self.trace.message_at(index) for index in self._indices[item]]
        return self.trace.message_at(self._indices[item])

    def __iter__(self) -> Iterator[BGPMessage]:
        message_at = self.trace.message_at
        for index in self._indices:
            yield message_at(index)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} messages>"

    @property
    def indices(self) -> Union[range, Sequence[int]]:
        """The trace rows the view selects, in view order."""
        return self._indices

    # -- aggregates --------------------------------------------------------

    def withdrawal_count(self) -> int:
        """Total withdrawn prefixes in the view (column arithmetic only)."""
        indices = self._indices
        trace = self.trace
        if isinstance(indices, range) and indices.step == 1:
            return trace.withdrawals_between(indices.start, indices.stop)
        wd_end = trace.wd_end
        return sum(
            wd_end[index] - (wd_end[index - 1] if index else 0) for index in indices
        )

    def announcement_count(self) -> int:
        """Total announced prefixes in the view (column arithmetic only)."""
        indices = self._indices
        trace = self.trace
        if isinstance(indices, range) and indices.step == 1:
            return trace.announcements_between(indices.start, indices.stop)
        ann_end = trace.ann_end
        return sum(
            ann_end[index] - (ann_end[index - 1] if index else 0) for index in indices
        )

    @property
    def first_timestamp(self) -> Optional[float]:
        """Timestamp of the first message in the view, or ``None``."""
        if not len(self._indices):
            return None
        return self.trace.msg_time[self._indices[0]]

    @property
    def last_timestamp(self) -> Optional[float]:
        """Timestamp of the last message in the view, or ``None``."""
        if not len(self._indices):
            return None
        return self.trace.msg_time[self._indices[-1]]

    def materialise(self) -> List[BGPMessage]:
        """Build the message objects eagerly."""
        return list(self)


class ColumnarRun(ColumnarMessageView):
    """A consecutive same-peer window of a columnar trace.

    The unit yielded by :meth:`ColumnarTrace.iter_batches`:
    ``trace``/``start``/``stop`` expose the raw column window (the
    run-column contract documented in ``src/repro/traces/README.md``) that
    the speaker (:meth:`~repro.bgp.speaker.SpeakerBatch.add_columnar_run`)
    *and* the inference stack
    (:meth:`~repro.core.inference.InferenceEngine.process_columnar_run`)
    apply with zero message-object construction; iterating it still
    materialises messages lazily for consumers that want objects.
    """

    __slots__ = ("start", "stop", "peer_as")

    def __init__(self, trace: ColumnarTrace, start: int, stop: int, peer_as: int) -> None:
        super().__init__(trace, range(start, stop))
        self.start = start
        self.stop = stop
        self.peer_as = peer_as

    def withdrawal_count(self) -> int:
        """Withdrawn prefixes in the run (O(1))."""
        return self.trace.withdrawals_between(self.start, self.stop)

    def announcement_count(self) -> int:
        """Announced prefixes in the run (O(1))."""
        return self.trace.announcements_between(self.start, self.stop)

    def __repr__(self) -> str:
        return (
            f"ColumnarRun(peer_as={self.peer_as}, start={self.start}, "
            f"stop={self.stop})"
        )


# -- RIB columns ------------------------------------------------------------


def encode_rib(
    rib: Mapping[Prefix, ASPath], pool: InternPool
) -> Tuple[array, array]:
    """Encode a prefix -> AS-path table as (prefix index, path index) columns."""
    prefix_column = array("I")
    path_column = array("I")
    intern_prefix = pool.intern_prefix
    intern_path = pool.intern_path
    for prefix, path in rib.items():
        prefix_column.append(intern_prefix(prefix))
        path_column.append(intern_path(path))
    return prefix_column, path_column


def table_dump(
    routes: Mapping[Prefix, ASPath],
    peer_as: int,
    local_pref: int = 100,
    timestamp: float = 0.0,
) -> ColumnarTrace:
    """A session's table dump as single-prefix announcement rows.

    One row per route, in sorted prefix order, every row from ``peer_as`` at
    ``timestamp``, its attributes the route's AS path with ``next_hop`` the
    peer and the given ``local_pref``.  One :class:`PathAttributes` is
    interned per distinct path, so prefixes that share a path share one
    attribute object (the identity the batched decision path groups by);
    rows look the path up by its AS numbers and never hash an attribute set.
    """
    trace = ColumnarTrace()
    pool = trace.pool
    intern_prefix = pool.intern_prefix
    attribute_ids: Dict[Tuple[int, ...], int] = {}
    ann_prefix = trace.ann_prefix
    ann_attr = trace.ann_attr
    for prefix in sorted(routes):
        path = routes[prefix]
        index = attribute_ids.get(path.asns)
        if index is None:
            index = attribute_ids[path.asns] = pool.intern_attributes(
                PathAttributes(as_path=path, next_hop=peer_as, local_pref=local_pref)
            )
        ann_prefix.append(intern_prefix(prefix))
        ann_attr.append(index)
    rows = len(ann_prefix)
    trace.msg_time = array("d", (timestamp,)) * rows
    trace.msg_peer = array("q", (peer_as,)) * rows
    trace.msg_kind = array("B", (KIND_UPDATE,)) * rows
    trace.wd_end = array("I", (0,)) * rows
    trace.ann_end = array("I", range(1, rows + 1))
    return trace


def decode_rib(
    prefix_column: Sequence[int], path_column: Sequence[int], pool: InternPool
) -> Dict[Prefix, ASPath]:
    """Materialise a RIB from its columns, sharing interned objects."""
    prefix_at = pool.prefix_at
    path_at = pool.path_at
    return {
        prefix_at(prefix_index): path_at(path_index)
        for prefix_index, path_index in zip(prefix_column, path_column)
    }
