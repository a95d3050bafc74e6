"""What ``parse_expression`` says when it rejects a text: each case is the
text, the exact ``ParseError`` message and the position it carries.  Every
place in the tokenizer and the parser that raises is reached at least
once."""

import pytest

from starpar import ParseError, parse_expression

CASES = {
    # the tokenizer
    "single bar": ("a | b", "single '|' is not an operator, use '||' (at position 2)", 2),
    "unknown symbol": ("a # b", "unexpected character '#' (at position 2)", 2),
    "digit other than 0 and 1": ("2", "unexpected character '2' (at position 0)", 0),
    "non-ASCII letter": ("é", "unexpected character 'é' (at position 0)", 0),
    # end of input
    "empty text": ("", "unexpected end of input (at position 0)", 0),
    "unclosed parenthesis": ("(a", "unexpected end of input (at position 2)", 2),
    "encap alone": ("encap", "unexpected end of input (at position 5)", 5),
    "unclosed encap body": ("encap{a}(a", "unexpected end of input (at position 10)", 10),
    # a token where an operand must start
    "operator for an operand": ("a + + b", "unexpected '+' (at position 4)", 4),
    "closing parenthesis for an operand": ("a.)", "unexpected ')' (at position 2)", 2),
    # a token left after a whole expression
    "two operands side by side": ("a b", "unexpected 'b' (at position 2)", 2),
    # a token other than the one the grammar expects
    "encap without braces": ("encap + a", "expected '{', found '+' (at position 6)", 6),
    "trailing comma in a blocked set": (
        "encap{a,}(a)",
        "expected action name, found '}' (at position 8)",
        8,
    ),
    "encap body without parentheses": ("encap{a}a", "expected '(', found 'a' (at position 8)", 8),
    "blocked names without a comma": (
        "encap{a b}(a)",
        "expected '}', found 'b' (at position 8)",
        8,
    ),
    "operand for a closing parenthesis": ("(a b", "expected ')', found 'b' (at position 3)", 3),
    # one case for each raise site of the parser loop not reached above
    "closing parenthesis after a whole expression": ("a)", "unexpected ')' (at position 1)", 1),
    "parenthesis for a closing parenthesis": (
        "(a (b))",
        "expected ')', found '(' (at position 3)",
        3,
    ),
    "reserved word as a blocked name": (
        "encap{encap}(a)",
        "expected action name, found 'encap' (at position 6)",
        6,
    ),
    "operator without a right operand": ("a +", "unexpected end of input (at position 3)", 3),
    "encap without a body": ("encap{a}", "unexpected end of input (at position 8)", 8),
}


@pytest.mark.parametrize("case", CASES)
def test_message(case):
    text, message, position = CASES[case]
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert str(err.value) == message
    assert err.value.position == position
