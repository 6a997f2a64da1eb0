"""Stage 1 of the two-stage FIB against the per-bit reference trie.

Stage 1 is an exact-match dict probed once per present prefix length,
longest first (``repro.dataplane.fib``).  This property drives it through
random interleavings of ``set_tag``, ``load_tags`` (which replaces the
table) and ``update_tags`` (sets, removals, removals of absent prefixes)
over nested prefixes, the default route, /32s and tag ``0``, and after
every step holds ``tag_of`` and ``forward_address`` to
:class:`oracles.trie_reference.ReferencePrefixTrie` on addresses inside and
just outside every stored prefix.  It also holds the probes to the lengths
actually stored: a probe left behind by a departed length answers nothing,
but every lookup would pay for it.
"""

from hypothesis import given, settings, strategies as st

from oracles.trie_reference import ReferencePrefixTrie

from repro.bgp.prefix import Prefix
from repro.core.encoding import WildcardRule
from repro.dataplane.fib import TwoStageForwardingTable

_MAX_ADDRESS = (1 << 32) - 1

#: Few bases and many lengths over each, so most prefixes nest in another.
_BASES = (0x0A010203, 0x0A0103FF, 0xC0A80001, 0x00000000, _MAX_ADDRESS)
_LENGTHS = (0, 1, 8, 16, 23, 24, 25, 31, 32)
_TAGS = 4  # tags 0..3, each with its own stage-2 rule

_prefixes = st.builds(Prefix, st.sampled_from(_BASES), st.sampled_from(_LENGTHS))
_tags = st.integers(0, _TAGS - 1)
_steps = st.one_of(
    st.tuples(st.just("set"), _prefixes, _tags),
    st.tuples(st.just("load"), st.dictionaries(_prefixes, _tags, max_size=8)),
    st.tuples(
        st.just("update"), st.dictionaries(_prefixes, st.one_of(st.none(), _tags), max_size=6)
    ),
)


def _next_hop(tag):
    return 100 + tag


def _table():
    table = TwoStageForwardingTable()
    table.install_rules(
        [WildcardRule(value=tag, mask=_TAGS - 1, next_hop=_next_hop(tag)) for tag in range(_TAGS)]
    )
    return table


def _apply(table, model, step):
    """Apply ``step`` to the table and return the reference trie after it."""
    kind, *args = step
    if kind == "set":
        prefix, tag = args
        table.set_tag(prefix, tag)
        model.insert(prefix, tag)
    elif kind == "load":
        (tags,) = args
        table.load_tags(tags)
        model = ReferencePrefixTrie()
        for prefix, tag in tags.items():
            model.insert(prefix, tag)
    else:
        (patch,) = args
        table.update_tags(patch)
        for prefix, tag in patch.items():
            if tag is not None:
                model.insert(prefix, tag)
            elif prefix in model:
                model.remove(prefix)
    return model


def _probe_addresses(model):
    """Every stored prefix's first and last address and their outer neighbours."""
    addresses = set(_BASES)
    for network, length in model.keys():
        last = network | (_MAX_ADDRESS >> length)
        addresses.update((network, last, max(network - 1, 0), min(last + 1, _MAX_ADDRESS)))
    return sorted(addresses)


@settings(max_examples=150, deadline=None)
@given(st.lists(_steps, min_size=1, max_size=25))
def test_stage1_answers_as_the_reference_trie(steps):
    table, model = _table(), ReferencePrefixTrie()
    for step in steps:
        model = _apply(table, model, step)
        for address in _probe_addresses(model):
            match = model.lookup(address)
            expected = None if match is None else match[1]
            assert table.tag_of(address) == expected, (step, hex(address))
            assert table.forward_address(address) == (
                None if expected is None else _next_hop(expected)
            )
        stored_lengths = sorted({length for _, length in model.keys()}, reverse=True)
        assert [length for _, length in table._probes] == stored_lengths
