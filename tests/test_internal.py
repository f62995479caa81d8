"""Slice arithmetic, interchange normal forms, and occurrence rewriting."""

import random

import pytest

from layerprop import internal
from layerprop.errors import SortMismatch, UnknownGenerator
from layerprop.internal import InternalDiagram

SIG = {
    "p": (("a",), ("b",)),
    "q": (("b",), ("c",)),
    "r": (("a", "b"), ("c",)),
    "s": ((), ("a",)),
    "t": (("c",), ()),
}


def test_run_slices_tracks_words():
    words = internal.run_slices(("a", "a"), [(0, "p"), (1, "p")], SIG)
    assert words == [("a", "a"), ("b", "a"), ("b", "b")]


def test_run_slices_rejects_bad_offset():
    with pytest.raises(SortMismatch):
        internal.run_slices(("a",), [(1, "p")], SIG)


def test_run_slices_rejects_wrong_symbol():
    with pytest.raises(SortMismatch):
        internal.run_slices(("b",), [(0, "p")], SIG)


def test_run_slices_rejects_unknown_generator():
    with pytest.raises(UnknownGenerator):
        internal.run_slices(("a",), [(0, "nope")], SIG)


def test_canonical_slices_interchange():
    left_first = ((0, "p"), (1, "p"))
    right_first = ((1, "p"), (0, "p"))
    assert (internal.canonical_slices(left_first, SIG)
            == internal.canonical_slices(right_first, SIG))


def test_canonical_slices_respects_dependency():
    dependent = ((0, "p"), (0, "q"))
    assert internal.canonical_slices(dependent, SIG) == dependent


def _random_program(rng: random.Random, steps: int):
    """Random well-typed slice sequence starting from a random word."""
    w = tuple(rng.choice(["a", "b", "c"]) for _ in range(rng.randint(0, 3)))
    dom = w
    slices = []
    for _ in range(steps):
        options = []
        for name, (gd, gc) in SIG.items():
            for off in range(len(w) - len(gd) + 1):
                if w[off:off + len(gd)] == gd:
                    options.append((off, name))
        if not options:
            break
        off, name = rng.choice(options)
        slices.append((off, name))
        gd, gc = SIG[name]
        w = w[:off] + gc + w[off + len(gd):]
    return dom, tuple(slices), w


def test_canonical_invariant_under_random_interchange():
    rng = random.Random(7)
    for _ in range(200):
        dom, slices, cod = _random_program(rng, 6)
        canon = internal.canonical_slices(slices, SIG)
        work = list(slices)
        for _ in range(30):
            if len(work) < 2:
                break
            i = rng.randrange(len(work) - 1)
            sw = internal._commute(work[i], work[i + 1], SIG)
            if sw is not None:
                work[i], work[i + 1] = sw
        assert internal.canonical_slices(tuple(work), SIG) == canon
        # still a valid program with the same endpoints
        assert internal.run_slices(dom, work, SIG)[-1] == cod


def test_orderings_are_exactly_the_interchange_class():
    d = ((0, "p"), (1, "p"), (0, "q"))
    orders, complete = internal.orderings(d, SIG)
    all_orders = set(orders)
    assert complete
    assert len(all_orders) >= 2
    canon = internal.canonical_slices(d, SIG)
    for o in all_orders:
        assert internal.canonical_slices(o, SIG) == canon


def test_rewrite_occurrence_direct():
    host = InternalDiagram("W", ("a",), ("c",), ((0, "p"), (0, "q")))
    lhs = InternalDiagram("W", ("a",), ("c",), ((0, "p"), (0, "q")))
    rhs = InternalDiagram("W", ("a",), ("c",), ())
    # rhs must be parallel to lhs; use a single generator instead
    with pytest.raises(SortMismatch):
        internal.rewrite_occurrences(host, lhs,
                                     InternalDiagram("W", ("a",), ("b",)),
                                     SIG)
    results = internal.rewrite_occurrences(
        host, lhs,
        InternalDiagram("W", ("a",), ("c",), ((0, "p"), (0, "q"))), SIG)
    assert len(results) == 1


def test_rewrite_occurrence_whiskered():
    # host: p beside p, rewrite the right strand only
    host = InternalDiagram("W", ("a", "a"), ("b", "b"), ((0, "p"), (1, "p")))
    lhs = InternalDiagram("W", ("a",), ("b",), ((0, "p"),))
    rhs = InternalDiagram("W", ("a",), ("b",), ((0, "p"),))
    results = internal.rewrite_occurrences(host, lhs, rhs, SIG)
    assert [r.slices for r in results] == [internal.canonical_slices(
        host.slices, SIG)]


def test_rewrite_occurrence_insertion():
    host = InternalDiagram("W", ("a",), ("a",), ())
    lhs = InternalDiagram("W", (), (), ())
    rhs = InternalDiagram("W", (), (), ((0, "s"), (0, "p"), (0, "q"),
                                        (0, "t")))
    with pytest.raises(SortMismatch):
        internal.rewrite_occurrences(
            host, lhs, InternalDiagram("W", (), ("a",), ((0, "s"),)), SIG)
    results = internal.rewrite_occurrences(host, lhs, rhs, SIG)
    assert len(results) >= 1
    for r in results:
        internal.validate(r, SIG)


def test_split_beside():
    d = InternalDiagram("W", ("a", "a"), ("b", "b"), ((0, "p"), (1, "p")))
    splits = internal.split_beside(d, SIG)
    ks = [len(top.dom) for top, _ in splits]
    assert 1 in ks  # the middle split exists
    for top, bottom in splits:
        internal.validate(top, SIG)
        internal.validate(bottom, SIG)
        rebuilt = top.beside(bottom)
        assert (internal.canonical_slices(rebuilt.slices, SIG)
                == internal.canonical_slices(d.slices, SIG))


def test_split_beside_blocked_by_crossing_generator():
    d = InternalDiagram("W", ("a", "b"), ("c",), ((0, "r"),))
    splits = internal.split_beside(d, SIG)
    assert [len(top.dom) for top, _ in splits] == [0, 2]


def test_translate_shifts_offsets():
    images = {"a": ("x", "x"), "b": ("y",), "c": ("z",)}

    def word_image(w):
        return tuple(s for sym in w for s in images[sym])

    gen_images = {
        "p": InternalDiagram("V", ("x", "x"), ("y",), ((0, "join"),)),
    }
    out = internal.translate(
        InternalDiagram("W", ("a", "a"), ("b", "b"), ((1, "p"), (0, "p"))),
        "V", word_image, gen_images.__getitem__, SIG)
    assert out.layer == "V"
    assert out.dom == ("x", "x", "x", "x")
    assert out.cod == ("y", "y")
    assert out.slices == ((2, "join"), (0, "join"))
