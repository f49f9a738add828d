"""One lexical grammar for term text and law text (``fds.core.TOKEN``),
checked against the two scanners it replaced (``tests/reference.py``).

Term text reads as the character scanner read it, apart from these
documented changes:

- identifiers and digits are ASCII: a non-ASCII letter or digit outside a
  string is a ``TermSyntaxError`` (``é(1)`` used to parse, ``f(٣)`` read as
  ``f(3)``, ``f(²)`` raised ``ValueError``);
- no blank between a functor and its ``(``: ``f (1)`` is an error, as it
  always was in law text;
- ``\\n`` and ``\\r`` are blanks, as they always were in law text.

Law text gives the tokens and error positions of the old tokenizer, apart
from two documented changes: a non-ASCII decimal digit (``٣``) is no longer
part of a number, and a backslash may quote a newline inside a string, as
it always could in term text.
"""

import json
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

import reference
from fds import library
from fds.core import Term, TermSyntaxError, parse_term, parse_terms
from fds.harness import build_bundle
from fds.lawlang import LawSyntaxError, _line_col, _tokenize, parse_law

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "src" / "fds" / "scenarios"


def _outcome(fn, text):
    """What ``fn(text)`` returns, by ``repr`` so argument types count, or the
    type of the error it raises."""
    try:
        return repr(fn(text))
    except Exception as exc:  # the reference may raise ValueError
        return type(exc)


# ---------------------------------------------------------------------------
# term text

ASCII_TERM_CHARS = 'abfXY_09(),-;" \t#\\'
NON_ASCII = "é²٣"  # a letter, a digit that is no decimal, a decimal digit
ASCII_STRING_CHARS = 'ab ;,()"\\#'
TERM_FUNCTORS = st.from_regex(r"[a-z_][A-Za-z0-9_]{0,4}", fullmatch=True)


def _terms(string_chars):
    return st.recursive(
        st.one_of(st.integers(-10**6, 10**6),
                  st.text(st.sampled_from(string_chars), max_size=6)),
        lambda children: st.builds(Term, TERM_FUNCTORS,
                                   st.lists(children, max_size=3).map(tuple)),
        max_leaves=8).filter(lambda v: isinstance(v, Term))


TERMS = _terms(ASCII_STRING_CHARS + "\n\r" + NON_ASCII)


@st.composite
def _edited(draw, texts, chars):
    """A text from ``texts`` with a few characters from ``chars`` inserted,
    deleted or overwritten."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(("insert", "delete", "overwrite")))
        c = draw(st.sampled_from(chars))
        if how == "insert":
            text = text[:i] + c + text[i:]
        elif how == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + c + text[i + 1:]
    return text


def _term_texts(chars, terms):
    """Texts over ``chars``, and canonical texts of ``terms`` lists edited
    with ``chars``."""
    canonical = st.lists(terms, max_size=3).map(lambda ts: ";".join(t.canonical() for t in ts))
    return st.one_of(st.text(st.sampled_from(chars), max_size=16), _edited(canonical, chars))


# a blank between an identifier character and "(": outside a string, a
# blank the character scanner skipped before a functor's "("
_BLANK_PAREN = re.compile(r"[A-Za-z0-9_][ \t]+\(")


class TestTermText:
    @settings(max_examples=300)
    @given(_term_texts(ASCII_TERM_CHARS, _terms(ASCII_STRING_CHARS))
           .filter(lambda t: not _BLANK_PAREN.search(t)))
    def test_reads_as_the_character_scanner_read(self, text):
        assert _outcome(parse_terms, text) == _outcome(reference.parse_terms, text)
        assert _outcome(parse_term, text) == _outcome(reference.parse_term, text)

    @settings(max_examples=300)
    @given(_term_texts(ASCII_TERM_CHARS + NON_ASCII, TERMS))
    def test_what_it_reads_the_character_scanner_read_the_same(self, text):
        # every documented change but newlines only rejects more text
        for new, old in ((parse_terms, reference.parse_terms),
                         (parse_term, reference.parse_term)):
            got = _outcome(new, text)
            assert got is TermSyntaxError or isinstance(got, str), got
            if isinstance(got, str) and not re.search(r"[\r\n]", text):
                assert got == _outcome(old, text)

    @given(st.lists(TERMS, max_size=3), st.data())
    def test_blanks_between_tokens_change_nothing(self, terms, data):
        def blank():
            return data.draw(st.text(st.sampled_from(" \t\r\n"), max_size=2))

        def render(v):
            if isinstance(v, Term):
                if not v.args:
                    return v.functor + "()" + blank()
                inner = ",".join(blank() + render(a) for a in v.args)
                return "%s(%s)%s" % (v.functor, inner, blank())
            if isinstance(v, str):
                return '"%s"%s' % (v.replace("\\", "\\\\").replace('"', '\\"'), blank())
            return "%d%s" % (v, blank())

        text = ";".join(blank() + render(t) for t in terms)
        assert _outcome(parse_terms, text) == repr(terms)
        if not re.search(r"[\r\n]", text):
            assert _outcome(reference.parse_terms, text) == repr(terms)

    @given(TERMS)
    def test_every_term_reads_back(self, term):
        assert repr(parse_term(term.canonical())) == repr(term)
        assert repr(parse_terms(term.canonical())) == repr([term])

    @pytest.mark.parametrize("text, old", [
        ("é(1)", "Term(functor='é', args=(1,))"),
        ("fé(1)", "Term(functor='fé', args=(1,))"),
        ("f(é)", "Term(functor='f', args=('é',))"),
        ("f(٣)", "Term(functor='f', args=(3,))"),
        ("f(²)", ValueError),
        ("f (1)", "Term(functor='f', args=(1,))"),
        ("g(f (1))", "Term(functor='g', args=(Term(functor='f', args=(1,)),))"),
    ])
    def test_documented_changes_that_reject(self, text, old):
        assert _outcome(reference.parse_term, text) == old
        with pytest.raises(TermSyntaxError):
            parse_term(text)

    @pytest.mark.parametrize("text, new", [
        ("f(\n1)", Term("f", (1,))),
        ("f(1,\r\n2)\n", Term("f", (1, 2))),
    ])
    def test_newlines_are_blanks(self, text, new):
        assert _outcome(reference.parse_term, text) is TermSyntaxError
        assert parse_term(text) == new

    def test_strings_keep_what_they_quote(self):
        assert parse_term('f("é²٣ #;", "a\\\nb", "")') == Term("f", ("é²٣ #;", "a\nb", ""))

    def test_a_minus_sign_directly_precedes_its_digits(self):
        assert parse_term("f(-1)") == Term("f", (-1,))
        for text in ("f(- 1)", "f(-)", "f(--1)", "f(-a)"):
            with pytest.raises(TermSyntaxError):
                parse_term(text)


# ---------------------------------------------------------------------------
# law text


def _shipped_law_texts():
    texts = [library.make_acme_root(), library.make_division_law("D1"),
             library.make_budget_law(), library.make_cc_law(),
             library.make_rate_control_law("drop", 0),
             library.make_rate_control_law("buffer", 100),
             library.make_token_ring_law(25), library.make_actor_promise_law(80)]
    for path in sorted(SCENARIOS.glob("*.json")):
        cfg = json.loads(path.read_text()).get("laws", {"bundle": "acme"})
        texts.extend(doc.canonical() for doc in build_bundle(cfg).framework.docs.values())
    return texts


SHIPPED_LAWS = _shipped_law_texts()
LAW_CHARS = ' \t\n\r#;"\\(){},:*@<>=!+-_aAzZ09é²'


def _tokens(tokenize, text):
    """The ``(kind, value, pos)`` tokens, or the error's message, line and
    column."""
    try:
        toks = tokenize(text)
    except LawSyntaxError as exc:
        return str(exc), exc.line, exc.col
    return [t if isinstance(t, tuple) else (t.kind, t.value, t.pos) for t in toks]


class TestLawText:
    def test_every_shipped_law_is_read(self):
        assert len(SHIPPED_LAWS) > 10
        for text in SHIPPED_LAWS:
            assert _tokens(_tokenize, text) == _tokens(reference.tokenize_law, text)
            parse_law(text)

    @settings(max_examples=300)
    @given(st.one_of(st.text(st.sampled_from(LAW_CHARS), max_size=30),
                     _edited(st.sampled_from(SHIPPED_LAWS), LAW_CHARS))
           .filter(lambda t: "\\\n" not in t))
    def test_tokens_and_errors_are_the_old_tokenizers(self, text):
        assert _tokens(_tokenize, text) == _tokens(reference.tokenize_law, text)
        # a parse error is placed at a token's position, as the old tokens had it
        try:
            old = reference.tokenize_law(text)
        except LawSyntaxError:
            return
        for t in old:
            assert _line_col(text, t.pos) == (t.line, t.col)

    def test_a_non_ascii_decimal_digit_is_no_number(self):
        text = "law x default pass init { n(1٣) }"
        assert ("number", "1٣", 28) in _tokens(reference.tokenize_law, text)
        assert _tokens(_tokenize, text) == ("unexpected character '٣' at line 1, col 30", 1, 30)

    def test_a_backslash_may_quote_a_newline_in_a_string(self):
        text = 'law x default pass rule r aspect a on exception(_) do { block("a\\\nb") }'
        assert _tokens(reference.tokenize_law, text)[1:] == (1, 63)
        assert parse_law(text).rules[0].ops[0].reason == "a\nb"
