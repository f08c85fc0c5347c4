"""Codec for hierarchical taxonomy codes.

A code names a node in a taxonomy tree::

    code    := (PROFILE ':')? TAX ('.' CAT ('.' ITEM ('.' NUM)*)?)?
    PROFILE := 'IoT' | 'SSI'
    TAX     := two or three uppercase letters, or a registered profile token
    CAT     := one uppercase letter
    ITEM    := one or two uppercase letters
    NUM     := '0' | nonzero decimal without leading zeros

Examples: ``BG``, ``BG.I.A.1``, ``IoT:SI.K.G.2``, ``UE.K.T.1.4.4``.

Parsing is strict about case: ``bg.i.a.1`` and the case-variant ``IOT`` are
rejected unless ``lenient=True``, which upper-cases the input first and then
maps registered tokens back to their canonical spelling.

Every parse goes through one token scanner, which reports the offset of
the first offending character.  A strict parse of an exact ``str`` is
memoized: parsing the same text again returns the same immutable
:class:`TaxonomyCode`, whose canonical text is the parsed text.  The memo
holds at most ``_MEMO_SIZE`` texts of at most ``_MEMO_TEXT_MAX`` characters
each, and is emptied when full.
"""
from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field

from .errors import CodeSyntaxError, EmptyInputError, InvalidCodeError

# Profile tokens that may appear before ':' and also as bare taxonomy tokens.
REGISTERED_PROFILES: tuple[str, ...] = ("IoT", "SSI")

# Taxonomy tokens this code line knows about. WA is reserved: it parses but
# never resolves against a catalog. Profile tokens parse bare as well (and
# likewise never resolve).
KNOWN_TAXONOMIES: tuple[str, ...] = ("BG", "SI", "IMS", "UE", "WA", "IoT", "SSI")

_TAX_RE = re.compile(r"[A-Z]{2,3}")
_CAT_RE = re.compile(r"[A-Z]")
_ITEM_RE = re.compile(r"[A-Z]{1,2}")
_NUM_RE = re.compile(r"0|[1-9][0-9]*")

# Upper-cased spellings of registered tokens mapped back to canonical form.
_FOLDED_TOKENS = {p.upper(): p for p in REGISTERED_PROFILES}

# Bounds of the strict-parse memo: entries, and the longest text kept (the
# bundled catalog's longest code text has 16 characters).
_MEMO_SIZE = 2048
_MEMO_TEXT_MAX = 32
_MEMO: dict[str, TaxonomyCode] = {}  # strictly parsed text -> its code
_MEMO_LOCK = threading.Lock()  # makes the size check and insert one step

# Key in a TaxonomyCode's instance dict under which format_code caches the
# canonical text once the grammar check has passed.
_TEXT = "_text"
_NO_TEXT: dict[str, str] = {}  # stands in for objects without a __dict__


@dataclass(frozen=True)
class TaxonomyCode:
    """A parsed code. ``leaf_path`` is empty unless ``item`` is set, and
    ``item`` requires ``category``."""

    taxonomy: str
    category: str | None = None
    item: str | None = None
    leaf_path: tuple[int, ...] = field(default=())
    profile: str | None = None

    @property
    def depth(self) -> int:
        """0 = taxonomy, 1 = category, 2 = item, 2+n = n leaf segments."""
        if self.category is None:
            return 0
        if self.item is None:
            return 1
        return 2 + len(self.leaf_path)

    @property
    def taxonomy_key(self) -> str:
        """Taxonomy with profile qualifier, e.g. ``IoT:SI`` or plain ``BG``."""
        return f"{self.profile}:{self.taxonomy}" if self.profile else self.taxonomy

    def parent(self) -> TaxonomyCode | None:
        """The code one level up, or None at taxonomy level."""
        if self.leaf_path:
            return TaxonomyCode(self.taxonomy, self.category, self.item,
                                self.leaf_path[:-1], self.profile)
        if self.item is not None:
            return TaxonomyCode(self.taxonomy, self.category, None, (), self.profile)
        if self.category is not None:
            return TaxonomyCode(self.taxonomy, None, None, (), self.profile)
        return None

    def is_prefix_of(self, other: TaxonomyCode) -> bool:
        """True when ``other`` lies in the subtree rooted at this code
        (a code is a prefix of itself)."""
        if (self.profile, self.taxonomy) != (other.profile, other.taxonomy):
            return False
        if self.category is None:
            return True
        if self.category != other.category:
            return False
        if self.item is None:
            return True
        if self.item != other.item:
            return False
        return other.leaf_path[: len(self.leaf_path)] == self.leaf_path

    def __str__(self) -> str:
        return format_code(self)


def _fail(text: str, message: str, offset: int) -> CodeSyntaxError:
    return CodeSyntaxError(message, offset, text)


def parse_code(text: str, lenient: bool = False) -> TaxonomyCode:
    """Parse a code string into a :class:`TaxonomyCode`.

    Raises :class:`EmptyInputError` for the empty string and
    :class:`CodeSyntaxError` (with the offending character offset) for
    anything else the grammar rejects.
    """
    if lenient or type(text) is not str:
        return _scan(text, lenient)
    code = _MEMO.get(text)
    if code is not None:
        return code
    code = _scan(text, False)
    # Strictly parsed text is already canonical: seed format_code's cache.
    code.__dict__[_TEXT] = text
    if len(text) <= _MEMO_TEXT_MAX:
        with _MEMO_LOCK:
            if len(_MEMO) >= _MEMO_SIZE:
                _MEMO.clear()
            _MEMO[text] = code
    return code


def _scan(text: str, lenient: bool) -> TaxonomyCode:
    """Token-by-token parse: raises the documented error with its offset
    for text the grammar rejects, and folds case when lenient.  A strict
    scan accepts only canonical text."""
    if not isinstance(text, str):
        raise _fail("", "code must be a string", 0)
    if text == "":
        raise EmptyInputError()
    work = text.upper() if lenient else text

    profile: str | None = None
    pos = 0
    if ":" in work:
        head, _, _ = work.partition(":")
        canonical = _FOLDED_TOKENS.get(head) if lenient else (
            head if head in REGISTERED_PROFILES else None
        )
        if canonical is None:
            raise _fail(text, f"unknown profile {text[:len(head)]!r}", 0)
        profile = canonical
        pos = len(head) + 1

    taxonomy, pos = _scan_taxonomy(text, work, pos, lenient)
    category: str | None = None
    item: str | None = None
    leaves: list[int] = []

    if pos < len(work):
        pos = _expect_dot(text, work, pos)
        category, pos = _scan_token(text, work, pos, _CAT_RE, "category letter")
    if pos < len(work):
        pos = _expect_dot(text, work, pos)
        item, pos = _scan_token(text, work, pos, _ITEM_RE, "item code")
    while pos < len(work):
        pos = _expect_dot(text, work, pos)
        number, pos = _scan_number(text, work, pos)
        leaves.append(number)

    return TaxonomyCode(taxonomy, category, item, tuple(leaves), profile)


def _expect_dot(text: str, work: str, pos: int) -> int:
    if work[pos] != ".":
        raise _fail(text, f"expected '.' before {text[pos]!r}", pos)
    if pos + 1 >= len(work):
        raise _fail(text, "trailing '.'", pos + 1)
    return pos + 1


def _scan_taxonomy(text: str, work: str, pos: int, lenient: bool) -> tuple[str, int]:
    if not lenient:
        for token in REGISTERED_PROFILES:
            if text.startswith(token, pos):
                return token, pos + len(token)
    match = _TAX_RE.match(work, pos)
    if match is None:
        raise _fail(text, "expected taxonomy token", pos)
    token = match.group(0)
    if token in _FOLDED_TOKENS:
        canonical = _FOLDED_TOKENS[token]
        if lenient:
            return canonical, match.end()
        if text[pos:match.end()] != canonical:
            raise _fail(
                text,
                f"case variant of registered token {canonical!r}",
                pos,
            )
    return token, match.end()


def _scan_token(text: str, work: str, pos: int, pattern: re.Pattern[str],
                what: str) -> tuple[str, int]:
    match = pattern.match(work, pos)
    if match is None:
        raise _fail(text, f"expected {what}", pos)
    return match.group(0), match.end()


def _scan_number(text: str, work: str, pos: int) -> tuple[int, int]:
    if work[pos] == "0" and pos + 1 < len(work) and work[pos + 1].isdigit():
        raise _fail(text, "leading zero in leaf number", pos)
    match = _NUM_RE.match(work, pos)
    if match is None:
        raise _fail(text, "expected leaf number", pos)
    try:
        return int(match.group(0)), match.end()
    except ValueError:  # beyond the interpreter's int() digit limit
        raise _fail(text, "leaf number too long", pos) from None


def format_code(code: TaxonomyCode) -> str:
    """Render a :class:`TaxonomyCode` back to its canonical string.

    Raises :class:`InvalidCodeError` if the structured value violates the
    grammar (a field of the wrong type, bad charset, broken nesting,
    negative leaf numbers) or has a leaf number too long to render.  The
    check runs once per code: the text is cached on the instance when its
    ``leaf_path`` is a tuple (a list could still change).
    """
    cached = getattr(code, "__dict__", _NO_TEXT).get(_TEXT)
    if cached is not None:
        return cached
    if code.profile is not None and code.profile not in REGISTERED_PROFILES:
        raise InvalidCodeError(f"unknown profile {code.profile!r}")
    tax = code.taxonomy
    if tax not in REGISTERED_PROFILES:
        if (not isinstance(tax, str) or _TAX_RE.fullmatch(tax) is None
                or tax in _FOLDED_TOKENS):
            raise InvalidCodeError(f"bad taxonomy token {tax!r}")
    if code.category is None:
        if code.item is not None or code.leaf_path:
            raise InvalidCodeError("item/leaves require a category")
    elif (not isinstance(code.category, str)
          or _CAT_RE.fullmatch(code.category) is None):
        raise InvalidCodeError(f"bad category {code.category!r}")
    if code.item is None:
        if code.leaf_path:
            raise InvalidCodeError("leaves require an item")
    elif (not isinstance(code.item, str)
          or _ITEM_RE.fullmatch(code.item) is None):
        raise InvalidCodeError(f"bad item code {code.item!r}")
    if not isinstance(code.leaf_path, (tuple, list)):
        raise InvalidCodeError(f"bad leaf path {code.leaf_path!r}")
    for number in code.leaf_path:
        if not is_leaf_number(number):
            raise InvalidCodeError(f"bad leaf number {number!r}")

    parts = [tax]
    if code.category is not None:
        parts.append(code.category)
    if code.item is not None:
        parts.append(code.item)
    try:
        parts.extend(str(n) for n in code.leaf_path)
    except ValueError:  # beyond the interpreter's str() digit limit
        raise InvalidCodeError("leaf number too long") from None
    body = ".".join(parts)
    text = f"{code.profile}:{body}" if code.profile else body
    if isinstance(code, TaxonomyCode) and type(code.leaf_path) is tuple:
        code.__dict__[_TEXT] = text
    return text


def is_leaf_number(value: object) -> bool:
    """True for the values the grammar allows as one leaf segment."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def canonicalize(text: str, lenient: bool = False) -> str:
    """Parse then re-format: the fixed-point string form of a code."""
    return format_code(parse_code(text, lenient))
