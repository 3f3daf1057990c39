"""Differential property suite: storage {list, nd} × flow control
{unbounded, bounded :class:`Channel`}.

Every composition must be *observably identical* to the bare list tape —
same values (and Python types), same lengths, same error types and
messages — across the full repertoire, including rpush gaps, strided
writes, drain, dtype transitions, vector items kept as float64 rows,
degradation to list storage (a second scalar kind, a vector intrusion),
and compaction boundaries.  Seeded random op
sequences are replayed against all four and every single outcome is
compared.

The one place flow control may show is an underflow: a channel *waits*
for its producer instead of raising, so with a zero stall timeout it
reports a ``ChannelStallTimeout`` carrying the same occupancy and demand
the bare tape's ``TapeUnderflow`` message states.

The numpy-free CI lane runs the list half (``list`` vs ``list+channel``);
the nd half needs the ``[vector]`` extra.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.multicore.channels import Channel, ChannelStallTimeout
from repro.runtime.errors import TapeUnderflow, UninitializedRead
from repro.runtime import tape as tape_mod
from repro.runtime.tape import HAVE_NUMPY, NdTape, Tape

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="numpy not installed ([vector] extra)")

#: Compositions replayed against the bare list tape.
DUTS = ("list+channel",) + (("nd", "nd+channel") if HAVE_NUMPY else ())


def make_tape(kind: str, capacity: int = 1, name: str = "x"):
    """One composition by name; channels never wait (zero stall timeout)."""
    storage, _, channel = kind.partition("+")
    tape = NdTape(name) if storage == "nd" else Tape(name)
    if channel:
        return Channel(name, capacity, tape=tape, stall_timeout=0.0)
    return tape


# -- canonicalization ---------------------------------------------------------

def canon(value):
    """Type-tagged canonical form: 1 and 1.0 must NOT compare equal."""
    if isinstance(value, list):
        return ("list", tuple(canon(v) for v in value))
    return (type(value).__name__, repr(value))


def apply_op(tape, op):
    """Run one op; return a canonical (outcome) tuple incl. typed errors."""
    name = op[0]
    try:
        if name == "push":
            tape.push(op[1])
            return ("ok",)
        if name == "pop":
            return ("ok", canon(tape.pop()))
        if name == "peek":
            return ("ok", canon(tape.peek(op[1])))
        if name == "peek_block":
            return ("ok", canon(tape.peek_block(op[1])))
        if name == "rpush":
            tape.rpush(op[1], op[2])
            return ("ok",)
        if name == "advance_writer":
            tape.advance_writer(op[1])
            return ("ok",)
        if name == "advance_reader":
            tape.advance_reader(op[1])
            return ("ok",)
        if name == "write_strided":
            tape.write_strided(op[1], op[2], list(op[3]))
            return ("ok",)
        if name == "drain":
            return ("ok", canon(tape.drain()))
        if name == "len":
            return ("ok", len(tape))
        raise AssertionError(f"unknown op {name!r}")
    except (TapeUnderflow, UninitializedRead, ValueError) as exc:
        return ("err", type(exc).__name__, str(exc))
    except ChannelStallTimeout as exc:
        return ("stall", exc.side, exc.occupancy, exc.needed)


def as_seen_through_channel(op, outcome, occupancy):
    """What a channel shows for the bare tape's ``outcome``: identical,
    except that an underflow becomes a (timed-out) wait for the producer."""
    if outcome[:2] != ("err", "TapeUnderflow"):
        return outcome
    needed = 1 if op[0] == "pop" else op[1] + (op[0] == "peek")
    return ("stall", "pop", occupancy, needed)


# -- random op sequences ------------------------------------------------------

#: One scalar kind each: a tape fed only these never degrades.
_INTS = [0, 1, -3, 7, 12345, 2 ** 40, 2 ** 60]
_FLOATS = [0.0, 2.5, -0.5, 1e300, -1e-9, float("nan"), float("inf")]
#: Both kinds and the intrusions: sequences over these degrade early.
_VALUES = _INTS + [2 ** 64] + _FLOATS + [[1.0, 2.0], [3, 4.5]]


#: Single-width (W = 2) float vectors — NaN, ±inf and −0.0 included …
_ROWS = [[1.0, 2.0], [-0.0, 2.5], [float("nan"), float("inf")],
         [1e300, -1e-9]]
#: … and the intrusions that must degrade a rows tape: ragged, an int
#: lane, a nested vector, scalars.
_INTRUSIONS = [[1.0], [1.0, 2.0, 3.0], [3, 4.5], [[1.0], 2.0], 1.0, 7, True]


def random_op(rng: random.Random, values=_VALUES):
    roll = rng.random()
    value = rng.choice(values)
    if roll < 0.30:
        return ("push", value)
    if roll < 0.45:
        return ("pop",)
    if roll < 0.55:
        return ("peek", rng.randrange(0, 6))
    if roll < 0.62:
        return ("peek_block", rng.randrange(0, 8))
    if roll < 0.72:
        return ("rpush", value, rng.randrange(0, 6))
    if roll < 0.82:
        return ("advance_writer", rng.randrange(0, 6))
    if roll < 0.90:
        return ("advance_reader", rng.randrange(0, 4))
    if roll < 0.97:
        count = rng.randrange(1, 5)
        column = tuple(rng.choice(values) for _ in range(count))
        return ("write_strided", rng.randrange(0, 4),
                rng.randrange(1, 4), column)
    return ("drain",)


def replay_differential(ops, duts=DUTS):
    """Replay ``ops`` on the bare list tape, then on every composition in
    ``duts``, asserting identical outcomes and identical lengths after
    every op.  Channels get a capacity just above the sequence's peak
    occupancy, so the writer side never waits.  Returns the tapes by
    composition name."""
    plain = Tape("x")
    expected = []
    for op in ops:
        before = len(plain)
        expected.append((apply_op(plain, op), before, len(plain)))
    peak = max((after for _, _, after in expected), default=0)
    # Headroom for one uncommitted bulk advance: a chunked commit must
    # reach the storage (and its hole check) in one piece.
    bulk = max((op[1] for op in ops if op[0] == "advance_writer"), default=0)
    tapes = {"list": plain}
    for kind in duts:
        tape = tapes[kind] = make_tape(kind, capacity=max(1, peak + bulk))
        through = as_seen_through_channel if "+" in kind \
            else (lambda op, outcome, occupancy: outcome)
        for step, (op, (outcome, before, after)) in enumerate(
                zip(ops, expected)):
            got = apply_op(tape, op)
            assert got == through(op, outcome, before), (
                f"step {step}: {op!r}\n  list tape: {outcome!r}\n"
                f"  {kind}: {got!r}")
            assert len(tape) == after, (kind, step, op)
        if "+" in kind:
            assert tape.stats.max_occupancy == peak
    if "list+channel" in tapes and "nd+channel" in tapes:
        assert tapes["nd+channel"].stats == tapes["list+channel"].stats
    return tapes


@pytest.mark.parametrize("seed", range(30))
def test_random_op_sequences_match(seed):
    rng = random.Random(seed)
    replay_differential([random_op(rng) for _ in range(250)])


@pytest.mark.parametrize("seed", range(30, 40))
def test_random_op_sequences_match_with_tiny_compaction(seed, monkeypatch):
    """Same differential property with the compaction threshold pulled
    down to 8, so sequences constantly cross the compaction boundary
    (in-place ndarray compaction vs list prefix deletion)."""
    monkeypatch.setattr(tape_mod, "_COMPACT_THRESHOLD", 8)
    rng = random.Random(seed)
    replay_differential([random_op(rng) for _ in range(400)])


@pytest.mark.parametrize("seed", range(20))
def test_random_single_kind_sequences_stay_on_arrays(seed, monkeypatch):
    """One scalar kind per sequence — ints for even seeds, floats for odd
    ones — so the nd storage keeps its array for the whole sequence (the
    mixed sequences above degrade early).  Every fourth seed crosses the
    compaction boundary constantly."""
    if seed % 4 == 3:
        monkeypatch.setattr(tape_mod, "_COMPACT_THRESHOLD", 8)
    values = _INTS if seed % 2 == 0 else _FLOATS
    rng = random.Random(seed)
    tapes = replay_differential([random_op(rng, values)
                                 for _ in range(250)])
    if "nd" in tapes:
        assert tapes["nd"].degrade_reason is None
        assert tapes["nd+channel"].degrade_reason is None


@pytest.mark.parametrize("seed", range(20))
def test_random_vector_sequences_match(seed, monkeypatch):
    """Vector items on all four compositions: even seeds stay on rows
    for the whole sequence, odd seeds mix in intrusions, which degrade
    the nd storage with identical outcomes and lengths.  Every fourth
    seed crosses the compaction boundary constantly."""
    if seed % 4 == 3:
        monkeypatch.setattr(tape_mod, "_COMPACT_THRESHOLD", 8)
    values = _ROWS if seed % 2 == 0 else _ROWS * 20 + _INTRUSIONS
    rng = random.Random(seed)
    tapes = replay_differential([random_op(rng, values)
                                 for _ in range(250)])
    if seed % 2 == 0 and "nd" in tapes:
        assert tapes["nd"].degrade_reason is None
        assert tapes["nd+channel"].degrade_reason is None


# -- pinned scenarios ---------------------------------------------------------

def test_rpush_gap_then_advance_reports_first_hole():
    ops = [("rpush", 1.0, 0), ("rpush", 2.0, 2), ("advance_writer", 3)]
    for tape in replay_differential(ops).values():
        with pytest.raises(UninitializedRead, match="unwritten slot 1"):
            tape.advance_writer(3)


def test_rpush_gap_filled_then_committed():
    replay_differential([
        ("rpush", 1.0, 0), ("rpush", 3.0, 2), ("rpush", 2.0, 1),
        ("advance_writer", 3), ("pop",), ("pop",), ("pop",), ("pop",),
    ])


def test_strided_writes_interleave_exactly():
    replay_differential([
        ("write_strided", 0, 2, (1.0, 2.0, 3.0)),
        ("write_strided", 1, 2, (10.0, 20.0, 30.0)),
        ("advance_writer", 6),
        ("peek_block", 6), ("drain",),
    ])


def test_underflow_messages_match_exactly():
    for op in [("pop",), ("peek", 2), ("peek_block", 3),
               ("advance_reader", 1)]:
        tapes = replay_differential([op])
        assert apply_op(tapes["list"], op)[:2] == ("err", "TapeUnderflow")


def test_negative_argument_messages_match_exactly():
    """One statement per validation message: all compositions — the
    channel included, which states none of its own — raise the same
    ``ValueError`` text (``Channel.peek_block(-1)`` used to say "negative
    block size")."""
    for op in [("peek", -1), ("peek_block", -1), ("rpush", 1.0, -1),
               ("advance_writer", -1), ("advance_reader", -1),
               ("write_strided", -1, 1, (1.0,)),
               ("write_strided", 0, 0, (1.0,))]:
        tapes = replay_differential([("push", 1.0), op])
        kind, error, message = apply_op(tapes["list"], op)
        assert (kind, error) == ("err", "ValueError")
        assert message.startswith("x: ")
    assert apply_op(Channel("t", 4), ("peek_block", -1)) == \
        apply_op(Tape("t"), ("peek_block", -1)) == \
        ("err", "ValueError", "t: negative peek_block count")


@needs_numpy
def test_int_stays_int_float_stays_float():
    """A float after ints degrades the nd storage (no promotion), so every
    pop hands back its exact Python type — through the channel too."""
    tapes = replay_differential([
        ("push", 1), ("push", 2.0), ("push", 3),
        ("pop",), ("pop",), ("pop",)])
    for kind in ("nd", "nd+channel"):
        assert tapes[kind].degrade_reason == "float on an int tape"
        assert tapes[kind].dtype_kind == "list"   # sticky once drained
    # One kind throughout: fully drained -> dtype reset.
    tapes = replay_differential([("push", 1), ("push", 3),
                                 ("pop",), ("pop",)])
    assert tapes["nd"].dtype_kind is None
    assert tapes["nd+channel"].dtype_kind is None


def test_compaction_boundary_exact(monkeypatch):
    """Pin behaviour exactly at/around the compaction trigger."""
    monkeypatch.setattr(tape_mod, "_COMPACT_THRESHOLD", 16)
    ops = []
    for i in range(40):
        ops.append(("push", float(i)))
    for _ in range(17):  # crosses head > threshold with head*2 > capacity
        ops.append(("pop",))
    ops += [("peek_block", 10), ("push", 99.0), ("drain",)]
    replay_differential(ops)


def test_nd_compaction_preserves_staged_suffix(monkeypatch):
    """Staged (uncommitted) rpush slots past the write pointer must
    survive an in-place compaction."""
    monkeypatch.setattr(tape_mod, "_COMPACT_THRESHOLD", 4)
    ops = []
    for i in range(12):
        ops.append(("push", float(i)))
    ops.append(("rpush", 123.0, 1))     # staged past the write pointer
    for _ in range(6):
        ops.append(("pop",))            # triggers compaction
    ops += [("rpush", 122.0, 0), ("advance_writer", 2), ("drain",)]
    replay_differential(ops)


# -- the advance_writer(0) regression (satellite) -----------------------------

def test_advance_writer_zero_does_not_grow_buffer():
    plain = Tape("t")
    plain.advance_writer(0)
    assert len(plain._buf) == 0  # was: one spurious _UNWRITTEN slot
    assert len(plain) == 0
    plain.push(1.0)
    assert plain.drain() == [1.0]


@needs_numpy
def test_advance_writer_zero_is_noop_on_nd_tape():
    nd = NdTape("t")
    nd.advance_writer(0)
    assert len(nd) == 0
    assert nd.dtype_kind is None
    nd.push(1.0)
    assert nd.drain() == [1.0]


def test_advance_writer_zero_after_staging():
    for kind in ("list",) + DUTS:
        t = make_tape(kind, capacity=4)
        t.rpush(5.0, 0)
        t.advance_writer(0)   # stages untouched, nothing committed
        assert len(t) == 0
        t.advance_writer(1)
        assert t.drain() == [5.0]


# -- array-view API (NdTape only) ---------------------------------------------

@needs_numpy
def test_peek_block_array_is_zero_copy_and_readonly():
    import numpy as np
    nd = NdTape("t")
    for i in range(8):
        nd.push(float(i))
    view = nd.peek_block_array(5)
    assert view.dtype == np.float64
    assert view.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert view.base is not None          # a view, not a copy
    assert not view.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        view[0] = 99.0


@needs_numpy
def test_peek_block_array_underflow_and_none_cases():
    nd = NdTape("t")
    with pytest.raises(TapeUnderflow):
        nd.peek_block_array(1)
    assert nd.peek_block_array(0) is None  # no dtype adopted yet
    nd.push(1)
    nd.push(2.5)                           # float on an int tape: degrades
    assert nd.peek_block_array(2) is None  # list storage: no view
    assert nd.peek_block(2) == [1, 2.5]


@needs_numpy
def test_write_strided_array_matches_list_path():
    import numpy as np
    for values in (np.array([1.5, 2.5, 3.5]),
                   np.array([10, 20, 30], dtype=np.int64)):
        nd = NdTape("t")
        plain = Tape("t")
        nd.write_strided(0, 2, values)
        nd.write_strided(1, 2, values)
        nd.advance_writer(6)
        plain.write_strided(0, 2, values.tolist())
        plain.write_strided(1, 2, values.tolist())
        plain.advance_writer(6)
        assert canon(nd.drain()) == canon(plain.drain())


@needs_numpy
def test_write_strided_array_huge_int_degrades_exactly():
    import numpy as np
    nd = NdTape("t")
    nd.push(0.5)                            # float storage
    nd.write_strided(0, 1, np.array([2 ** 60], dtype=np.int64))
    nd.advance_writer(1)
    assert nd.degrade_reason == "int on a float tape"
    got = nd.drain()
    assert got == [0.5, 2 ** 60]            # exact value preserved
    assert [type(v) for v in got] == [float, int]


@needs_numpy
@pytest.mark.parametrize("first, other, reason", [
    (1, 2.5, "float on an int tape"),
    (0.5, 7, "int on a float tape"),
], ids=["float-on-int", "int-on-float"])
def test_other_scalar_kind_degrades_exactly(first, other, reason):
    """The first value fixes a scalar tape's kind; the other kind reaches
    it by push, by an rpush into a hole, inside a list column and as an
    ndarray column, and each degrades with the same reason while the
    staged hole and the values before it survive."""
    import numpy as np
    for stage in ([("push", other)],
                  [("rpush", other, 0), ("advance_writer", 2)],
                  [("write_strided", 0, 1, (other, first)),
                   ("advance_writer", 2)]):
        ops = [("push", first), ("rpush", first, 1), *stage,
               ("peek_block", 3), ("pop",), ("drain",)]
        tapes = replay_differential(ops)
        assert tapes["nd"].degrade_reason == reason, stage
        assert tapes["nd+channel"].degrade_reason == reason, stage
    nd, plain = NdTape("t"), Tape("t")
    for tape, column in ((nd, np.array([other])), (plain, [other])):
        tape.push(first)
        tape.rpush(first, 1)
        tape.write_strided(0, 1, column)
        tape.advance_writer(2)
    assert nd.degrade_reason == reason
    assert canon(nd.drain()) == canon(plain.drain())


@needs_numpy
@pytest.mark.parametrize("intrusion, reason", [
    ([1.0], "ragged vector payload"),
    ([3, 4.5], "non-float vector lane (int)"),
    (1.0, "scalar payload on a vector tape"),
    (True, "non-numeric payload (bool)"),
], ids=["ragged", "int-lane", "scalar", "bool"])
def test_intrusion_degrades_rows_exactly(intrusion, reason):
    """Each intrusion reaches a rows tape by push, by an rpush into a
    hole, and inside a strided column; the staged hole and the rows
    before it survive the degrade."""
    for stage in ([("push", intrusion)],
                  [("rpush", intrusion, 0), ("advance_writer", 2)],
                  [("write_strided", 0, 1, ([7.0, 8.0], intrusion)),
                   ("advance_writer", 2)]):
        ops = [("push", [1.0, 2.0]), ("rpush", [5.0, 6.0], 1), *stage,
               ("peek_block", 3), ("pop",), ("drain",)]
        tapes = replay_differential(ops)
        assert tapes["nd"].degrade_reason == reason, stage
        assert tapes["nd+channel"].degrade_reason == reason, stage


@needs_numpy
def test_write_strided_rows_match_list_of_lists_path():
    import numpy as np
    rows = np.array([[1.5, -0.0], [float("nan"), float("inf")], [3.5, 4.5]])
    nd = NdTape("t")
    plain = Tape("t")
    nd.write_strided(0, 2, rows)
    nd.write_strided(1, 2, rows.tolist())
    nd.advance_writer(6)
    plain.write_strided(0, 2, rows.tolist())
    plain.write_strided(1, 2, rows.tolist())
    plain.advance_writer(6)
    assert nd.dtype_kind == "vector"
    assert canon(nd.drain()) == canon(plain.drain())


@needs_numpy
def test_peek_block_array_of_rows_is_zero_copy_and_readonly():
    import numpy as np
    nd = NdTape("t")
    for i in range(8):
        nd.push([float(i), -float(i), 0.5])
    view = nd.peek_block_array(5)
    assert view.shape == (5, 3) and view.dtype == np.float64
    assert view.tolist() == [[float(i), -float(i), 0.5] for i in range(5)]
    assert np.shares_memory(view, nd._arr)  # a view, not a copy
    assert not view.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        view[0, 0] = 99.0


@needs_numpy
def test_vector_reads_are_fresh_lists():
    """Value semantics: a pushed list is copied into its row, and every
    read hands out a new list.  The interpreter copies a vector on
    ``VPush`` and on every assignment, so no program can tell this from
    list storage, which hands out the pushed object itself."""
    nd = NdTape("t")
    row = [1.0, 2.0]
    nd.push(row)
    row[0] = 99.0
    first, second = nd.peek(0), nd.peek(0)
    assert first == second == [1.0, 2.0] and first is not second
    first[1] = -1.0
    block = nd.peek_block(1)
    assert block == [[1.0, 2.0]]
    block[0][0] = -1.0
    popped = nd.pop()
    assert popped == [1.0, 2.0] and type(popped) is list
    assert all(type(lane) is float for lane in popped)


# -- flow control over nd storage (two threads) --------------------------------

def _stream_blocks(kind, blocks, as_arrays):
    """Producer thread stages ``blocks`` as strided columns and commits
    them; the calling thread consumes them through ``window``.  Returns
    the windows and the channel."""
    import numpy as np
    width = len(blocks[0])
    channel = Channel("t", 2 * width, stall_timeout=5.0,
                      tape=make_tape(kind.partition("+")[0], name="t"))

    def produce():
        for block in blocks:
            column = np.asarray(block) if as_arrays else list(block)
            channel.write_strided(0, 2, column[0::2])
            channel.write_strided(1, 2, column[1::2])
            channel.advance_writer(width)

    producer = threading.Thread(target=produce, daemon=True)
    producer.start()
    windows = []
    for _ in blocks:
        windows.append(channel.window(width))
        channel.advance_reader(width)
    producer.join(5.0)
    assert not producer.is_alive()
    return windows, channel


@needs_numpy
@pytest.mark.parametrize("blocks", [
    [[i + 0.5 * j for j in range(8)] for i in range(40)],
    [[i * 8 + j for j in range(8)] for i in range(40)],
    [[[i + 0.25 * j, -0.5 * j] for j in range(8)] for i in range(40)],
], ids=["float", "int", "rows"])
def test_channel_over_nd_storage_hands_out_array_copies(blocks):
    import numpy as np
    windows, channel = _stream_blocks("nd+channel", blocks, as_arrays=True)
    storage = channel._tape
    assert type(storage) is NdTape and storage.degrade_reason is None
    for window, block in zip(windows, blocks):
        assert isinstance(window, np.ndarray)
        assert window.ndim == np.ndim(block)   # rows stay (count, W)
        # A copy taken under the lock, never a live view: the producer is
        # free to grow, compact or reset the array meanwhile.
        assert storage._arr is None or \
            not np.shares_memory(window, storage._arr)
        assert canon(window.tolist()) == canon(block)
    # List storage has no window: its batches run per firing.
    lists, reference = _stream_blocks("list+channel", blocks,
                                      as_arrays=False)
    assert lists == [None] * len(blocks)
    # Stalls and the high-water mark depend on thread timing; what moved
    # does not.
    for field in ("pushes", "pops", "capacity"):
        assert getattr(channel.stats, field) == \
            getattr(reference.stats, field)
    assert channel.stats.max_occupancy <= channel.capacity


def test_channel_window_refuses_what_can_never_be_resident():
    """window > capacity must report "run per firing" at once — waiting
    could only ever end in a stall timeout.  A resident window is an
    array over nd storage and ``None`` (per firing) over list storage."""
    for kind in DUTS:
        if "+" not in kind:
            continue
        channel = make_tape(kind, capacity=4)
        for i in range(4):
            channel.push(float(i))
        assert channel.window(5) is None
        assert channel.stats.pop_stalls == 0
        window = channel.window(4)
        if kind.startswith("nd"):
            assert window.tolist() == [0.0, 1.0, 2.0, 3.0]
        else:
            assert window is None
