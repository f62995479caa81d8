"""Human-writable s-expression syntax for diagram terms.

Grammar (words are bare symbols for length one, or parenthesized lists;
``()`` is the empty word)::

    term := (empty) | (id LAYER WORD) | (gen LAYER NAME)
          | (cup LAYER) | (cap LAYER)
          | (pants LAYER WORD WORD) | (copants LAYER WORD WORD)
          | (refine SOURCE TARGET WORD) | (coarsen SOURCE TARGET WORD)
          | (sym LAYER WORD LAYER WORD)
          | (seq term term+) | (par term term+) | (fuse LAYER term term)

The cell forms (``cup`` to ``sym``) are the tags of ``diagram.CELL_KINDS``
with their label fields in order.  Parentheses nest at most
``errors.MAX_NESTING`` deep.
"""

from __future__ import annotations

from . import diagram as dg
from . import terms
from .errors import MAX_NESTING, MalformedInput
from .internal import Word


def tokenize(text: str) -> list[str]:
    out: list[str] = []
    atom = ""
    for ch in text:
        if ch in "()":
            if atom:
                out.append(atom)
                atom = ""
            out.append(ch)
        elif ch.isspace():
            if atom:
                out.append(atom)
                atom = ""
        else:
            atom += ch
    if atom:
        out.append(atom)
    return out


def _read(tokens: list[str], pos: int, depth: int = 0):
    if pos >= len(tokens):
        raise MalformedInput("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        if depth == MAX_NESTING:
            raise MalformedInput(
                f"term nested deeper than {MAX_NESTING} parentheses")
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos, depth + 1)
            items.append(item)
        if pos >= len(tokens):
            raise MalformedInput("unbalanced parenthesis")
        return items, pos + 1
    if tok == ")":
        raise MalformedInput("unexpected ')'")
    return tok, pos + 1


def _word(node) -> Word:
    if isinstance(node, str):
        return (node,)
    if isinstance(node, list):
        if not all(isinstance(x, str) for x in node):
            raise MalformedInput(f"not an object word: {node!r}")
        return tuple(node)
    raise MalformedInput(f"not an object word: {node!r}")


def _atom(node) -> str:
    if not isinstance(node, str):
        raise MalformedInput(f"expected a symbol, found {node!r}")
    return node


def _term(node) -> terms.Term:
    if not isinstance(node, list) or not node:
        raise MalformedInput(f"expected a term form, found {node!r}")
    head, args = _atom(node[0]), node[1:]
    if head in _CHAINS:
        if len(args) < 2:
            raise MalformedInput(f"({head} ...) needs at least two terms")
        out = _term(args[0])
        for a in args[1:]:
            out = _CHAINS[head](out, _term(a))
        return out
    if head not in _FORMS:
        raise MalformedInput(f"unknown term form {head!r}")
    make, readers = _FORMS[head]
    if len(args) != len(readers):
        raise MalformedInput(f"({head} ...) takes {len(readers)} arguments, "
                             f"got {len(args)}")
    return make(*(read(a) for read, a in zip(readers, args)))


# the forms folding a chain of two or more terms, left to right
_CHAINS = {"seq": terms.Seq, "par": terms.Par}
# every other form: its term's maker and a reader per argument
_FORMS = {
    "empty": (terms.Empty, ()),
    "id": (terms.Id, (_atom, _word)),
    "gen": (terms.Gen, (_atom, _atom)),
    "fuse": (terms.Fuse, (_atom, _term, _term)),
}
# a cell kind's form is its tag with its label fields; a box content has no
# written form, so a box is written with ``gen``, ``seq`` and ``fuse``
_FIELD_READERS = {dg.NAME: _atom, dg.WORD: _word}
_FORMS.update(
    (tag, (lambda *args, kind=kind: terms.Cell(kind, args),
           tuple(_FIELD_READERS[reader] for _, reader in kind.label_fields)))
    for tag, kind in dg.CELL_KINDS.items()
    if all(reader in _FIELD_READERS for _, reader in kind.label_fields))


def parse_term(text: str) -> terms.Term:
    tokens = tokenize(text)
    node, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise MalformedInput("trailing input after term")
    return _term(node)
