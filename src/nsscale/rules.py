"""Parser and evaluator for the auto-scaling rule DSL.

Grammar (keywords case-insensitive, whitespace-insensitive)::

    rule  := WHEN expr THEN action [COOLDOWN n]
    expr  := term (OR term)*
    term  := factor (AND factor)*
    factor:= NOT factor | '(' expr ')' | comparison
    comparison := agg '(' metric ',' window ')' cmp number
    agg   := avg | max | min
    cmp   := '<' | '<=' | '>' | '>=' | '='
    action:= scale_out | scale_in

`parse_rule` compiles each rule once into a plan (`RuleAst.plan`), which
`evaluate_expr` runs.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import NamedTuple


class RuleSyntaxError(ValueError):
    """Raised on malformed rule text; carries the column of the offending token."""

    def __init__(self, message: str, column: int):
        super().__init__("%s (column %d)" % (message, column))
        self.column = column


AGGREGATES = ("avg", "max", "min")
COMPARATORS = ("<=", ">=", "<", ">", "=")
ACTIONS = ("scale_out", "scale_in")


@dataclass(frozen=True)
class Aggregate:
    func: str
    metric: str
    window: int


@dataclass(frozen=True)
class Comparison:
    left: Aggregate
    op: str
    value: float


@dataclass(frozen=True)
class And:
    operands: tuple


@dataclass(frozen=True)
class Or:
    operands: tuple


@dataclass(frozen=True)
class Not:
    operand: object


@dataclass(frozen=True)
class RuleAst:
    expr: object
    action: str
    cooldown: int = 0
    metric_refs: tuple = field(default=())
    # smallest aggregate window of each metric_refs entry, in the same order
    min_windows: tuple = field(default=())
    # `expr` compiled once at parse time; evaluated by `evaluate_expr`
    plan: object = field(default=None, compare=False, repr=False)


class _Token(NamedTuple):
    kind: str  # ident, number, punct
    text: str
    column: int


# One token after optional whitespace. `ident` also matches the word
# characters that are neither letters nor decimal digits (such as "²" or
# "½"); `_tokenize` rejects those as a token's first character.
_SCANNER = re.compile(r"""\s*(?:
      (?P<punct>[(),]|[<>]=?|=)
    | (?P<number>(?:\d|\.|-(?=\d))(?:[\d.eE]|(?<=[eE])[+-])*)
    | (?P<ident>[^\W\d][\w.-]*)
    | (?P<end>\Z)
    | (?P<bad>.))""", re.VERBOSE)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while True:
        match = _SCANNER.match(text, pos)
        kind = match.lastgroup
        column = match.start(kind)
        if kind == "end":
            tokens.append(_Token("punct", "<end>", column))
            return tokens
        first = text[column]
        if kind == "bad" or (kind == "ident" and not first.isalpha()
                             and first != "_"):
            raise RuleSyntaxError("unexpected character %r" % first, column)
        tokens.append(_Token(kind, match.group(kind), column))
        pos = match.end()


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_keyword(self, word: str):
        tok = self.next()
        if tok.kind != "ident" or tok.text.lower() != word:
            raise RuleSyntaxError("expected %r, got %r" % (word.upper(), tok.text), tok.column)

    def expect_punct(self, text: str):
        tok = self.next()
        if tok.kind != "punct" or tok.text != text:
            raise RuleSyntaxError("expected %r, got %r" % (text, tok.text), tok.column)

    def expect_number(self, what: str, integral: bool = False):
        """The next token's value, which must be a number: a float, or a
        whole number as an int when `integral`, and its column. A token that
        is not such a number, or is too large to count with, raises
        RuleSyntaxError at the token's column."""
        tok = self.next()
        if tok.kind != "number":
            raise RuleSyntaxError("expected %s, got %r" % (what, tok.text), tok.column)
        try:
            value = float(tok.text)
            number = int(value) if integral else value
        except ValueError:
            raise RuleSyntaxError("malformed number %r" % tok.text,
                                  tok.column) from None
        except OverflowError:
            raise RuleSyntaxError("number %r is too large" % tok.text,
                                  tok.column) from None
        if number != value:
            raise RuleSyntaxError("%s %r is not a whole number" % (what, tok.text), tok.column)
        return number, tok.column

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text.lower() == word

    def parse_rule(self) -> RuleAst:
        self.expect_keyword("when")
        expr = self.parse_expr()
        self.expect_keyword("then")
        tok = self.next()
        action = tok.text.lower()
        if tok.kind != "ident" or action not in ACTIONS:
            raise RuleSyntaxError("expected scale_out or scale_in, got %r" % tok.text, tok.column)
        cooldown = 0
        if self.at_keyword("cooldown"):
            self.next()
            cooldown, column = self.expect_number("cooldown tick count",
                                                  integral=True)
            if cooldown < 0:
                raise RuleSyntaxError("cooldown must be >= 0", column)
        end = self.next()
        if end.text != "<end>":
            raise RuleSyntaxError("trailing input %r" % end.text, end.column)
        windows = {}
        _collect_min_windows(expr, windows)
        refs = tuple(sorted(windows))
        index = {ref: i for i, ref in enumerate(refs)}
        return RuleAst(expr, action, cooldown, refs,
                       tuple(windows[ref] for ref in refs),
                       _compile(expr, index))

    def parse_expr(self):
        operands = [self.parse_term()]
        while self.at_keyword("or"):
            self.next()
            operands.append(self.parse_term())
        if len(operands) == 1:
            return operands[0]
        return Or(tuple(operands))

    def parse_term(self):
        operands = [self.parse_factor()]
        while self.at_keyword("and"):
            self.next()
            operands.append(self.parse_factor())
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))

    def parse_factor(self):
        if self.at_keyword("not"):
            self.next()
            return Not(self.parse_factor())
        if self.peek().text == "(":
            self.next()
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        return self.parse_comparison()

    def parse_comparison(self) -> Comparison:
        tok = self.next()
        func = tok.text.lower()
        if tok.kind != "ident":
            raise RuleSyntaxError("expected aggregate, got %r" % tok.text, tok.column)
        if func not in AGGREGATES:
            raise RuleSyntaxError("unknown aggregate %r" % tok.text, tok.column)
        self.expect_punct("(")
        metric = self.next()
        if metric.kind != "ident":
            raise RuleSyntaxError("expected metric name, got %r" % metric.text, metric.column)
        self.expect_punct(",")
        window_len, column = self.expect_number("window length",
                                                integral=True)
        if window_len < 1:
            raise RuleSyntaxError("window length must be >= 1", column)
        self.expect_punct(")")
        op = self.next()
        if op.text not in COMPARATORS:
            raise RuleSyntaxError("expected comparator, got %r" % op.text, op.column)
        value, _ = self.expect_number("number")
        return Comparison(Aggregate(func, metric.text, window_len), op.text, value)


def _collect_min_windows(node, windows: dict):
    """Record in `windows` the smallest window each metric is aggregated
    over anywhere under `node`."""
    if isinstance(node, Comparison):
        metric, window = node.left.metric, node.left.window
        windows[metric] = min(window, windows.get(metric, window))
    elif isinstance(node, (And, Or)):
        for op in node.operands:
            _collect_min_windows(op, windows)
    else:  # a Not, the only other node the parser builds
        _collect_min_windows(node.operand, windows)


def parse_rule(text: str) -> RuleAst:
    return _Parser(text).parse_rule()


def _avg(values: list) -> float:
    return sum(values) / len(values)


_AGGREGATE_FUNCS = {"avg": _avg, "max": max, "min": min}
_OPERATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "=": operator.eq}


def _compile(node, index: dict):
    """Compile an expression tree into a plan: a function `plan(cut, now)`
    returning the expression's truth. A comparison calls `cut(i, window,
    now)` for the values, in arrival order, of its metric `metric_refs[i]`
    in the window; AND and OR stop at the first operand that settles them."""
    if isinstance(node, Comparison):
        i, window = index[node.left.metric], node.left.window
        func = _AGGREGATE_FUNCS[node.left.func]
        compare, bound = _OPERATORS[node.op], node.value

        def comparison(cut, now):
            return compare(func(cut(i, window, now)), bound)
        return comparison
    if isinstance(node, And):
        operands = [_compile(op, index) for op in node.operands]

        def conjunction(cut, now):
            for operand in operands:
                if not operand(cut, now):
                    return False
            return True
        return conjunction
    if isinstance(node, Or):
        operands = [_compile(op, index) for op in node.operands]

        def disjunction(cut, now):
            for operand in operands:
                if operand(cut, now):
                    return True
            return False
        return disjunction
    operand = _compile(node.operand, index)  # a Not

    def negation(cut, now):
        return not operand(cut, now)
    return negation


def evaluate_expr(plan, cut, now: int) -> bool:
    """Evaluate a rule's compiled `plan` (`RuleAst.plan`) at tick `now`.
    `cut(i, window, now)` returns the values, in arrival order, of the
    samples of metric `metric_refs[i]` in the `window` ticks ending at
    `now`; it is called only for the comparisons that decide the result,
    and must not return an empty list."""
    return plan(cut, now)
