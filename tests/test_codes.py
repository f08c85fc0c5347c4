"""Grammar codec tests: pinned examples plus oracle-driven generation."""
from __future__ import annotations

import random
import string
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxidma.codes import TaxonomyCode, canonicalize, format_code, parse_code
from taxidma.errors import CodeSyntaxError, EmptyInputError, InvalidCodeError

import grammar_oracle


def test_parse_simple_leaf_code():
    code = parse_code("BG.I.A.1")
    assert code.taxonomy == "BG"
    assert code.category == "I"
    assert code.item == "A"
    assert code.leaf_path == (1,)
    assert code.profile is None
    assert code.depth == 3


def test_parse_profile_qualified_code():
    code = parse_code("IoT:SI.K.G.2")
    assert code.profile == "IoT"
    assert code.taxonomy == "SI"
    assert code.taxonomy_key == "IoT:SI"
    assert format_code(code) == "IoT:SI.K.G.2"


def test_parse_taxonomy_only_and_category_only():
    assert parse_code("IMS").depth == 0
    assert parse_code("UE.K").depth == 1
    assert parse_code("UE.K.T.1.4.4").leaf_path == (1, 4, 4)


def test_zero_is_a_valid_leaf_number():
    assert parse_code("BG.I.A.0").leaf_path == (0,)
    assert parse_code("SI.K.T.1.0").leaf_path == (1, 0)


def test_empty_input_is_its_own_error():
    with pytest.raises(EmptyInputError):
        parse_code("")


def test_double_dot_offset():
    with pytest.raises(CodeSyntaxError) as exc:
        parse_code("BG..A")
    assert exc.value.offset == 3


def test_trailing_dot_rejected():
    with pytest.raises(CodeSyntaxError) as exc:
        parse_code("BG.")
    assert exc.value.offset == 3


def test_leading_zero_rejected_with_offset():
    with pytest.raises(CodeSyntaxError) as exc:
        parse_code("BG.I.A.01")
    assert exc.value.offset == 7


def test_lowercase_rejected_in_strict_mode():
    with pytest.raises(CodeSyntaxError):
        parse_code("bg.i.a.1")


def test_uppercase_iot_is_a_case_variant():
    with pytest.raises(CodeSyntaxError):
        parse_code("IOT:SI.K")
    with pytest.raises(CodeSyntaxError):
        parse_code("IOT.K.G")


def test_lenient_mode_folds_case():
    assert canonicalize("iot:si.k.g.2", lenient=True) == "IoT:SI.K.G.2"
    assert canonicalize("bg.i.a.1", lenient=True) == "BG.I.A.1"
    assert canonicalize("ssi:ue", lenient=True) == "SSI:UE"


def test_unknown_profile_rejected():
    with pytest.raises(CodeSyntaxError) as exc:
        parse_code("BG:SI.K")
    assert exc.value.offset == 0


def test_whitespace_never_valid():
    for bad in (" BG", "BG ", "BG .I", "BG. I", "B G"):
        with pytest.raises(CodeSyntaxError):
            parse_code(bad)


def test_wa_parses_but_is_just_a_token():
    code = parse_code("WA")
    assert code.taxonomy == "WA"


def test_bare_profile_token_parses_as_taxonomy():
    assert parse_code("IoT").taxonomy == "IoT"
    assert parse_code("SSI.T").taxonomy == "SSI"


def test_format_rejects_broken_nesting():
    with pytest.raises(InvalidCodeError):
        format_code(TaxonomyCode("BG", None, "A"))
    with pytest.raises(InvalidCodeError):
        format_code(TaxonomyCode("BG", "I", None, (1,)))
    with pytest.raises(InvalidCodeError):
        format_code(TaxonomyCode("BG", "I", "A", (-1,)))
    with pytest.raises(InvalidCodeError):
        format_code(TaxonomyCode("IOT"))
    with pytest.raises(InvalidCodeError):
        format_code(TaxonomyCode("BG", "ii"))
    for broken in (TaxonomyCode("BG", "K", ("x",)), TaxonomyCode("BG", 1, "T"),
                   TaxonomyCode(["BG"], "K", "T"),
                   TaxonomyCode("BG", "K", "T", 5),
                   TaxonomyCode("BG", "K", "T", None), TaxonomyCode(5),
                   TaxonomyCode("SI", ["K"]), TaxonomyCode("SI", "K", "T", 5)):
        with pytest.raises(InvalidCodeError):
            format_code(broken)


def test_is_prefix_of():
    deep = parse_code("UE.K.T.1.4.4")
    for prefix in ("UE", "UE.K", "UE.K.T", "UE.K.T.1", "UE.K.T.1.4", "UE.K.T.1.4.4"):
        assert parse_code(prefix).is_prefix_of(deep)
    for non_prefix in ("UE.I", "UE.K.B", "UE.K.T.2", "UE.K.T.1.4.4.1",
                       "SI.K.T.1", "IoT:UE.K"):
        assert not parse_code(non_prefix).is_prefix_of(deep)


def test_parent_chain_terminates():
    code = parse_code("IoT:SI.K.G.2")
    chain = []
    node: TaxonomyCode | None = code
    while node is not None:
        chain.append(format_code(node))
        node = node.parent()
    assert chain == ["IoT:SI.K.G.2", "IoT:SI.K.G", "IoT:SI.K", "IoT:SI"]


def test_canonicalize_is_idempotent_on_examples():
    for text in ("BG", "UE.K.T.1.4.4", "IoT:BG.I.O.1", "SSI:IMS.T.L.2.1"):
        once = canonicalize(text)
        assert once == text
        assert canonicalize(once) == once


def test_generated_codes_round_trip_against_oracle():
    rng = random.Random(0xC0DE)
    for _ in range(2000):
        text = grammar_oracle.random_valid(rng)
        assert grammar_oracle.is_valid(text), text
        code = parse_code(text)
        profile, tax, cat, item, leaves = grammar_oracle.expected_parts(text)
        assert (code.profile, code.taxonomy, code.category, code.item,
                code.leaf_path) == (profile, tax, cat, item, leaves)
        assert format_code(code) == text


def test_mutants_agree_with_oracle():
    rng = random.Random(0xBADC0DE)
    rejected = 0
    for _ in range(2000):
        text = grammar_oracle.random_mutant(rng)
        oracle_says = grammar_oracle.is_valid(text)
        try:
            parsed = parse_code(text)
        except CodeSyntaxError:
            parsed = None
        if oracle_says:
            assert parsed is not None, f"scanner rejected valid {text!r}"
            assert format_code(parsed) == text
        else:
            assert parsed is None, f"scanner accepted invalid {text!r}"
            rejected += 1
    assert rejected > 1000  # mutations must actually exercise the reject path


def test_syntax_error_offsets_point_inside_input():
    rng = random.Random(7)
    for _ in range(1000):
        text = grammar_oracle.random_mutant(rng)
        if grammar_oracle.is_valid(text) or not text:
            continue
        with pytest.raises(CodeSyntaxError) as exc:
            parse_code(text)
        assert 0 <= exc.value.offset <= len(text)


def test_prefix_formatting_is_string_prefix():
    rng = random.Random(42)
    for _ in range(500):
        text = grammar_oracle.random_valid(rng)
        code = parse_code(text)
        node = code.parent()
        while node is not None:
            rendered = format_code(node)
            assert text.startswith(rendered)
            assert len(rendered) == len(text) or text[len(rendered)] == "."
            node = node.parent()


def test_strict_parse_text_is_what_a_fresh_code_renders():
    # Strict parsing hands its input to format_code as the rendered text;
    # a copy built from the parsed fields must render the same text.
    rng = random.Random(0x5EED)
    for _ in range(1000):
        text = grammar_oracle.random_mutant(rng)
        try:
            code = parse_code(text)
        except CodeSyntaxError:
            continue
        assert format_code(replace(code)) == text


def test_list_leaf_path_is_checked_on_every_render():
    code = TaxonomyCode("BG", "I", "A", [1])
    assert format_code(code) == "BG.I.A.1"
    code.leaf_path.append(-1)
    with pytest.raises(InvalidCodeError):
        format_code(code)


# -- property: the strict parser against the oracle ---------------------------

CODE_ALPHABET = "IoTSIBGUEWAKXYZ:.0123456789 "
_ALPHABET = "".join(sorted(set(CODE_ALPHABET + CODE_ALPHABET.lower())))
_LETTERS = "".join(sorted(set(CODE_ALPHABET) & set(string.ascii_uppercase)))


def _mostly(shape):
    """Mostly tokens of one grammar shape, sometimes any short text."""
    return st.one_of(shape, shape, shape, st.text(_ALPHABET, max_size=3))


@st.composite
def _code_like_text(draw):
    """Random text over the code alphabet; half of it is built segment by
    segment, which reaches the deeper levels far more often."""
    if draw(st.booleans()):
        return draw(st.text(_ALPHABET, max_size=16))
    head = draw(st.sampled_from(["", "", "IoT:", "SSI:", "IOT:", "ssi:", ":"]))
    segments = [
        draw(_mostly(st.one_of(st.sampled_from(["IoT", "SSI", "IOT"]),
                               st.text(_LETTERS, min_size=2, max_size=3)))),
        draw(_mostly(st.text(_LETTERS, min_size=1, max_size=1))),
        draw(_mostly(st.text(_LETTERS, min_size=1, max_size=2))),
        *draw(st.lists(_mostly(st.text(string.digits, min_size=1,
                                       max_size=3)),
                       min_size=1, max_size=4)),
    ]
    keep = draw(st.one_of(st.just(len(segments)),
                          st.integers(1, len(segments))))
    return head + ".".join(segments[:keep])


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_code_like_text())
def test_strict_parse_accepts_exactly_what_the_oracle_accepts(text):
    if grammar_oracle.is_valid(text):
        code = parse_code(text)
        assert format_code(code) == text
        assert (code.profile, code.taxonomy, code.category, code.item,
                code.leaf_path) == grammar_oracle.expected_parts(text)
    else:
        with pytest.raises(CodeSyntaxError) as exc:
            parse_code(text)
        assert 0 <= exc.value.offset <= len(text)


def test_overlong_leaf_number_is_a_syntax_error():
    # int() refuses this many digits; the parser reports the segment instead.
    with pytest.raises(CodeSyntaxError) as exc:
        parse_code("BG.I.A.1." + "7" * 5000)
    assert exc.value.offset == 9
