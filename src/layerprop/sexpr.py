"""Human-writable s-expression syntax for diagram terms.

Grammar (words are bare symbols for length one, or parenthesized lists;
``()`` is the empty word)::

    term := (empty) | (id LAYER WORD) | (gen LAYER NAME)
          | (cup LAYER) | (cap LAYER)
          | (pants LAYER WORD WORD) | (copants LAYER WORD WORD)
          | (refine SOURCE TARGET WORD) | (coarsen SOURCE TARGET WORD)
          | (sym LAYER WORD LAYER WORD)
          | (seq term term+) | (par term term+) | (fuse LAYER term term)

Parentheses nest at most ``errors.MAX_NESTING`` deep.
"""

from __future__ import annotations

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
    cls, readers = _FORMS[head]
    if len(args) != len(readers):
        raise MalformedInput(f"({head} ...) takes {len(readers)} arguments, "
                             f"got {len(args)}")
    return cls(*(read(a) for read, a in zip(readers, args)))


# the forms folding a chain of two or more terms, left to right
_CHAINS = {"seq": terms.Seq, "par": terms.Par}
# every other form: its term class and a reader per argument
_FORMS = {
    "empty": (terms.Empty, ()),
    "id": (terms.Id, (_atom, _word)),
    "gen": (terms.Gen, (_atom, _atom)),
    "cup": (terms.CupT, (_atom,)),
    "cap": (terms.CapT, (_atom,)),
    "pants": (terms.PantsT, (_atom, _word, _word)),
    "copants": (terms.CopantsT, (_atom, _word, _word)),
    "refine": (terms.RefineT, (_atom, _atom, _word)),
    "coarsen": (terms.CoarsenT, (_atom, _atom, _word)),
    "sym": (terms.SymT, (_atom, _word, _atom, _word)),
    "fuse": (terms.Fuse, (_atom, _term, _term)),
}


def parse_term(text: str) -> terms.Term:
    tokens = tokenize(text)
    node, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise MalformedInput("trailing input after term")
    return _term(node)
