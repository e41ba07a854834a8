"""Unit tests for the C lexer."""

import io
import json

import pytest

from repro.frontend.errors import LexError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind as T


def kinds(source):
    return [tok.kind for tok in tokenize(source)][:-1]  # drop EOF


def values(source):
    return [tok.value for tok in tokenize(source)][:-1]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is T.EOF

    def test_identifier(self):
        assert kinds("foo") == [T.IDENT]
        assert values("foo") == ["foo"]

    def test_identifier_with_underscore_and_digits(self):
        assert values("_foo_2 a1") == ["_foo_2", "a1"]

    def test_keywords_are_distinguished_from_identifiers(self):
        assert kinds("int intx") == [T.INT, T.IDENT]

    def test_all_control_keywords(self):
        source = "if else while do for switch case default break continue return goto"
        assert kinds(source) == [
            T.IF, T.ELSE, T.WHILE, T.DO, T.FOR, T.SWITCH, T.CASE,
            T.DEFAULT, T.BREAK, T.CONTINUE, T.RETURN, T.GOTO,
        ]

    def test_type_keywords(self):
        source = "void char short int long float double signed unsigned struct union enum typedef"
        assert kinds(source) == [
            T.VOID, T.CHAR, T.SHORT, T.INT, T.LONG, T.FLOAT, T.DOUBLE,
            T.SIGNED, T.UNSIGNED, T.STRUCT, T.UNION, T.ENUM, T.TYPEDEF,
        ]


class TestNumbers:
    def test_decimal_integer(self):
        assert values("42") == [42]

    def test_zero(self):
        assert values("0") == [0]

    def test_hex_integer(self):
        assert values("0x1F 0Xff") == [31, 255]

    def test_integer_suffixes_are_swallowed(self):
        assert values("42u 42L 42UL") == [42, 42, 42]

    def test_float(self):
        assert values("3.25") == [3.25]

    def test_float_with_exponent(self):
        assert values("1e3 2.5e-1") == [1000.0, 0.25]

    def test_float_suffix(self):
        assert values("1.5f") == [1.5]

    def test_leading_dot_float(self):
        toks = tokenize("x.5")
        # 'x' '.' '5'?  No: .5 after ident is DOT INT in C; but a bare
        # .5 is a float.
        assert [t.kind for t in tokenize(".5")][:-1] == [T.FLOAT_CONST]

    def test_integer_then_member_access(self):
        assert kinds("a.b") == [T.IDENT, T.DOT, T.IDENT]

    def test_octal_integer(self):
        assert values("010 0777 00 07u") == [8, 0o777, 0, 7]

    def test_leading_zero_float_is_decimal(self):
        assert values("09.5 010e1") == [9.5, 100.0]

    @pytest.mark.parametrize(
        "source,message,column",
        [
            ("x = 08;", "invalid octal constant '08'", 5),
            ("x = 09;", "invalid octal constant '09'", 5),
            ("x = 0789;", "invalid octal constant '0789'", 5),
            ("x = 0x;", "hex constant '0x' has no digits", 5),
            ("x = 0XuL;", "hex constant '0X' has no digits", 5),
        ],
    )
    def test_malformed_constant_names_itself(self, source, message, column):
        with pytest.raises(LexError) as info:
            tokenize("int x;\n" + source)
        assert info.value.message == message
        assert (info.value.loc.line, info.value.loc.column) == (2, column)


class TestServedConstants:
    """Malformed constants reach a served client as a lex diagnostic,
    not as a Python ``ValueError``."""

    def serve(self, tmp_path, source):
        from repro.service.batch import serve
        from repro.service.store import ResultStore

        stdin = io.StringIO(
            json.dumps({"id": 1, "source": source, "query": "points_to:p@L"})
            + "\n"
        )
        stdout = io.StringIO()
        assert serve(stdin, stdout, ResultStore(tmp_path / "store")) == 0
        (response,) = [json.loads(line) for line in stdout.getvalue().splitlines()]
        return response

    def test_octal_constant_served(self, tmp_path):
        source = "int g; int main(){int x; int *p; x = 010; p = &g; L: return 0;}"
        response = self.serve(tmp_path, source)
        assert response["ok"] is True
        assert response["result"] == [["g", "D"]]

    @pytest.mark.parametrize(
        "constant,message",
        [
            ("08", "invalid octal constant '08'"),
            ("09", "invalid octal constant '09'"),
            ("0x", "hex constant '0x' has no digits"),
        ],
    )
    def test_malformed_constant_served(self, tmp_path, constant, message):
        source = f"int main(){{int x; int *p; x = {constant}; L: return 0;}}"
        response = self.serve(tmp_path, source)
        assert response["ok"] is False
        assert response["error"] == f"LexError: <inline>:1:31: {message}"


class TestCharAndString:
    def test_char_constant(self):
        assert values("'a'") == [ord("a")]

    def test_char_escapes(self):
        assert values(r"'\n' '\t' '\0' '\\'") == [10, 9, 0, 92]

    def test_hex_escape(self):
        assert values(r"'\x41'") == [0x41]

    def test_octal_escape(self):
        assert values(r"'\101'") == [0o101]

    def test_string_literal(self):
        assert values('"hello"') == ["hello"]

    def test_string_with_escapes(self):
        assert values(r'"a\nb"') == ["a\nb"]

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unterminated_char_raises(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_multichar_constant_rejected(self):
        with pytest.raises(LexError):
            tokenize("'ab'")


class TestOperators:
    def test_arithmetic(self):
        assert kinds("+ - * / %") == [T.PLUS, T.MINUS, T.STAR, T.SLASH, T.PERCENT]

    def test_comparison(self):
        assert kinds("== != < > <= >=") == [T.EQ, T.NE, T.LT, T.GT, T.LE, T.GE]

    def test_logical_and_bitwise(self):
        assert kinds("&& || & | ^ ~ !") == [
            T.AMP_AMP, T.PIPE_PIPE, T.AMP, T.PIPE, T.CARET, T.TILDE, T.BANG,
        ]

    def test_shifts(self):
        assert kinds("<< >>") == [T.LSHIFT, T.RSHIFT]

    def test_increment_decrement(self):
        assert kinds("++ --") == [T.PLUS_PLUS, T.MINUS_MINUS]

    def test_compound_assignment(self):
        assert kinds("+= -= *= /= %= &= |= ^= <<= >>=") == [
            T.PLUS_ASSIGN, T.MINUS_ASSIGN, T.STAR_ASSIGN, T.SLASH_ASSIGN,
            T.PERCENT_ASSIGN, T.AMP_ASSIGN, T.PIPE_ASSIGN, T.CARET_ASSIGN,
            T.LSHIFT_ASSIGN, T.RSHIFT_ASSIGN,
        ]

    def test_arrow_vs_minus(self):
        assert kinds("-> - >") == [T.ARROW, T.MINUS, T.GT]

    def test_ellipsis(self):
        assert kinds("...") == [T.ELLIPSIS]

    def test_longest_match(self):
        assert kinds("a+++b") == [T.IDENT, T.PLUS_PLUS, T.PLUS, T.IDENT]


class TestTrivia:
    def test_line_comment(self):
        assert kinds("a // comment\n b") == [T.IDENT, T.IDENT]

    def test_block_comment(self):
        assert kinds("a /* x */ b") == [T.IDENT, T.IDENT]

    def test_multiline_block_comment(self):
        assert kinds("a /* x\ny\nz */ b") == [T.IDENT, T.IDENT]

    def test_unterminated_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_preprocessor_lines_skipped(self):
        assert kinds("#include <stdio.h>\nint x;") == [T.INT, T.IDENT, T.SEMI]

    def test_preprocessor_continuation(self):
        assert kinds("#define A \\\n 42\nint") == [T.INT]

    def test_locations_track_lines_and_columns(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].loc.line == 1 and tokens[0].loc.column == 1
        assert tokens[1].loc.line == 2 and tokens[1].loc.column == 3

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("int @ x")
