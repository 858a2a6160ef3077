import pytest
from hypothesis import given, settings, strategies as st

from nsscale.descriptors import AutoScalingRule
from nsscale.monitoring import (
    MetricSample, MetricStore, RuleVerdict, TimeRegressionError,
    evaluate_rules,
)
from nsscale.rules import (
    ACTIONS, AGGREGATES, COMPARATORS, Aggregate, And, Comparison, Not, Or,
    RuleSyntaxError, _tokenize, evaluate_expr, parse_rule,
)
import sample_catalog as sc
from conftest import rule_state


def test_parse_minimal_rule():
    ast = parse_rule("WHEN avg(cpu_load, 5) > 0.8 THEN scale_out")
    assert ast.action == "scale_out"
    assert ast.cooldown == 0
    assert ast.metric_refs == ("cpu_load",)
    assert ast.expr == Comparison(Aggregate("avg", "cpu_load", 5), ">", 0.8)


def test_parse_cooldown_and_case_insensitivity():
    ast = parse_rule("when MAX(q.depth, 3) >= 100 then SCALE_IN cooldown 12")
    assert ast.action == "scale_in"
    assert ast.cooldown == 12
    assert ast.expr.left == Aggregate("max", "q.depth", 3)


def test_and_binds_tighter_than_or():
    ast = parse_rule(
        "WHEN avg(a, 1) > 1 OR avg(b, 1) > 2 AND avg(c, 1) > 3 "
        "THEN scale_out")
    assert isinstance(ast.expr, Or)
    assert isinstance(ast.expr.operands[1], And)


def test_parentheses_and_not():
    ast = parse_rule(
        "WHEN NOT (avg(a, 1) > 1 OR min(b, 2) < 0) THEN scale_in")
    assert isinstance(ast.expr, Not)
    assert isinstance(ast.expr.operand, Or)
    assert ast.metric_refs == ("a", "b")


@pytest.mark.parametrize("text,fragment", [
    ("avg(a, 1) > 1 THEN scale_out", "WHEN"),
    ("WHEN avg(a, 1) > 1", "THEN"),
    ("WHEN avg(a, 1) > 1 THEN explode", "scale_out"),
    ("WHEN median(a, 1) > 1 THEN scale_out", "aggregate"),
    ("WHEN avg(a, 0) > 1 THEN scale_out", "window"),
    ("WHEN avg(a, 1) ! 1 THEN scale_out", "character"),
    ("WHEN avg(a, 1) > 1 THEN scale_out COOLDOWN -2", "cooldown"),
    ("WHEN avg(a, 1) > 1 THEN scale_out extra", "trailing"),
    ("WHEN avg(a 1) > 1 THEN scale_out", "expected ','"),
    ("WHEN avg(a, b) > 1 THEN scale_out", "expected window length"),
    ("WHEN 5 > 1 THEN scale_out", "expected aggregate"),
    ("WHEN avg(5, 1) > 1 THEN scale_out", "expected metric name"),
    ("WHEN avg(a, 1) 5 THEN scale_out", "expected comparator"),
])
def test_syntax_errors_carry_a_column(text, fragment):
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule(text)
    assert fragment.lower() in str(err.value).lower()
    assert err.value.column >= 0


def char_walk_tokenize(text: str) -> list:
    """Oracle for `_tokenize`: the scanner it replaced, which walked the
    text one character at a time. Returns (kind, text, column) triples."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "(),":
            tokens.append(("punct", c, i))
            i += 1
            continue
        if c in "<>=":
            two = text[i : i + 2]
            if two in ("<=", ">="):
                tokens.append(("punct", two, i))
                i += 2
            else:
                tokens.append(("punct", c, i))
                i += 1
            continue
        if c.isdigit() or c == "." or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            tokens.append(("number", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._-"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise RuleSyntaxError("unexpected character %r" % c, i)
    tokens.append(("punct", "<end>", n))
    return tokens


def outcome(tokenize, text):
    try:
        return [tuple(token) for token in tokenize(text)]
    except RuleSyntaxError as exc:
        return (str(exc), exc.column)


def decimal_or_not_a_digit(c):
    # "²" and the 127 other digits that are not decimal are left out: see
    # test_non_decimal_digits_are_unexpected_characters.
    return c.isdecimal() or not c.isdigit()


rule_fragments = st.sampled_from([
    "WHEN", "then", "avg", "max(", ")", ",", "<=", ">=", "<", ">", "=",
    "==", "!", "1", "-2", "-", ".5", "1e-3", "2E+4", "e", "+", "q.depth",
    "a_b-c", "_x", " ", "\t", "\n", "\x1c", "\u00a0", "\u00e9t\u00e9",
    "\u0663", "\u00bd", "\u2167",
])
rule_like_texts = st.one_of(
    # every character class the scanner tells apart, side by side
    st.text("()<>=,.-+eE_ 09aZ!\t\u00e9\u0663\u00bd\u2167"),
    st.lists(st.one_of(rule_fragments,
                       st.characters().filter(decimal_or_not_a_digit)),
             max_size=24).map("".join),
    st.text(st.characters().filter(decimal_or_not_a_digit)))


@pytest.mark.parametrize("text,message,column", [
    ("WHEN avg(a, 1) > 0.7.1 THEN scale_out", "malformed number '0.7.1'", 17),
    ("WHEN avg(a, 1) > . THEN scale_out", "malformed number '.'", 17),
    ("WHEN avg(a, 1) > 1e THEN scale_out", "malformed number '1e'", 17),
    ("WHEN avg(a, 1.2.3) > 1 THEN scale_out", "malformed number '1.2.3'", 12),
    ("WHEN avg(a, 1e400) > 1 THEN scale_out", "'1e400' is too large", 12),
    ("WHEN avg(a, 1) > 1 THEN scale_out COOLDOWN 1e400",
     "'1e400' is too large", 43),
    ("WHEN avg(a, 1) > 1 THEN scale_out COOLDOWN 5..", "malformed number", 43),
    ("WHEN avg(a, 1.5) > 1 THEN scale_out",
     "window length '1.5' is not a whole number", 12),
    ("WHEN avg(a, 0.5) > 1 THEN scale_out",
     "window length '0.5' is not a whole number", 12),
    ("WHEN avg(a, 1) > 1 THEN scale_out COOLDOWN 2.7",
     "cooldown tick count '2.7' is not a whole number", 43),
    ("WHEN avg(a, 1) > 1 THEN scale_out COOLDOWN -0.5",
     "cooldown tick count '-0.5' is not a whole number", 43),
])
def test_malformed_numbers_are_syntax_errors(text, message, column):
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule(text)
    assert message in str(err.value)
    assert err.value.column == column


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(rule_like_texts)
def test_scanner_matches_the_char_walk(text):
    assert outcome(_tokenize, text) == outcome(char_walk_tokenize, text)


@pytest.mark.parametrize("text, column", [
    ("avg(m, \u00b2)", 7), ("1\u00b2", 1), ("x \u2460", 2)])
def test_non_decimal_digits_are_unexpected_characters(text, column):
    # The char walk made number tokens of them that `float` then refused
    # with a bare ValueError.
    with pytest.raises(RuleSyntaxError) as err:
        _tokenize(text)
    assert err.value.column == column
    assert "unexpected character" in str(err.value)


def cut_of(values: dict, ast):
    """A `cut` that gives each metric's one value as its window."""
    return lambda i, window, now: [values[ast.metric_refs[i]]]


def test_evaluate_all_comparators():
    values = {"m": 5.0}
    for op, expected in (("<", False), ("<=", True), (">", False),
                        (">=", True), ("=", True)):
        ast = parse_rule("WHEN avg(m, 1) %s 5 THEN scale_out" % op)
        assert evaluate_expr(ast.plan, cut_of(values, ast), 0) is expected


def test_evaluate_boolean_structure():
    values = {"a": 10, "b": 0}
    ast = parse_rule(
        "WHEN avg(a, 1) > 5 AND NOT max(b, 1) > 1 THEN scale_out")
    assert evaluate_expr(ast.plan, cut_of(values, ast), 0)
    ast = parse_rule(
        "WHEN avg(a, 1) > 50 OR max(b, 1) >= 0 THEN scale_out")
    assert evaluate_expr(ast.plan, cut_of(values, ast), 0)


def test_metric_refs_are_sorted_and_unique():
    ast = parse_rule(
        "WHEN avg(z, 1) > 1 AND avg(a, 1) > 1 AND max(z, 2) > 1 "
        "THEN scale_out")
    assert ast.metric_refs == ("a", "z")


def test_min_windows_follow_metric_refs():
    ast = parse_rule("WHEN avg(b, 5) > 1 AND max(a, 3) > 1 "
                     "OR NOT min(b, 2) < 0 THEN scale_out")
    assert ast.metric_refs == ("a", "b")
    assert ast.min_windows == (3, 2)


# -- the compiled plan against an oracle --------------------------------------

# Bare and dotted refs over two subjects; nothing ever feeds disk_load, and
# vnfd-a's streams may appear after vnfd-b's, changing what a bare name
# resolves to. Repeats weight the draw towards streams that exist.
REFS = ("cpu_load", "cpu_load", "mem_load", "mem_load", "vnfd-b.cpu_load",
        "vnfd-b.mem_load", "vnfd-a.cpu_load", "disk_load")
# Bounds come from the sample values, so `=` holds now and then.
VALUES = (0.1, 0.5, 0.9, 3.0)

comparisons = st.builds(
    lambda func, ref, window, op, bound: "%s(%s, %d) %s %r"
    % (func, ref, window, op, bound),
    st.sampled_from(AGGREGATES), st.sampled_from(REFS), st.integers(1, 6),
    st.sampled_from(COMPARATORS), st.sampled_from(VALUES))
expressions = st.recursive(comparisons, lambda inner: st.one_of(
    st.lists(inner, min_size=2, max_size=3).map(
        lambda xs: "(%s)" % " AND ".join(xs)),
    st.lists(inner, min_size=2, max_size=3).map(
        lambda xs: "(%s)" % " OR ".join(xs)),
    inner.map(lambda x: "NOT " + x)), max_leaves=5)
rule_texts = st.builds(
    lambda expr, action, cooldown: "WHEN %s THEN %s COOLDOWN %d"
    % (expr, action, cooldown),
    expressions, st.sampled_from(ACTIONS), st.sampled_from((0, 0, 2, 5)))

STREAMS = (("vnfd-b", "cpu_load"), ("vnfd-b", "mem_load"),
           ("vnfd-a", "cpu_load"), ("vnfd-a", "mem_load"))
# Per tick: how far the clock advances (0 adds samples to the tick just
# evaluated), each stream's sample or None, and the offsets from the tick
# to evaluate at (a negative one may lie before the newest sample, and
# raise).
plan_ticks = st.lists(st.tuples(
    st.sampled_from((0, 1, 1, 2, 3)),
    st.tuples(*[st.one_of(st.none(), st.sampled_from(VALUES))] * 4),
    st.lists(st.sampled_from((0, 0, 1, -1, -2, -5)), max_size=2)),
    max_size=25)

ORACLE_AGGREGATES = {"avg": lambda v: sum(v) / len(v), "max": max,
                     "min": min}
ORACLE_COMPARATORS = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
                      ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
                      "=": lambda a, b: a == b}


def oracle_verdict(rule, streams: dict, now: int, cooldowns: dict,
                   dimension_map: dict):
    """A rule's verdict from its expression tree and explicit
    `(tick, value)` streams: a metric is missing when any of its windows
    is empty; the condition is evaluated node by node; a violation inside
    the cooldown is suppressed."""
    def resolve(ref):
        if "." in ref:
            key = tuple(ref.split(".", 1))
            return key if key in streams else None
        subjects = [s for s, n in streams if n == ref]
        return (min(subjects), ref) if subjects else None

    def window(ref, length):
        key = resolve(ref)
        return [v for t, v in streams.get(key, ()) if now - length < t <= now]

    def comparisons_of(node):
        if isinstance(node, Comparison):
            return [node]
        if isinstance(node, Not):
            return comparisons_of(node.operand)
        return [c for op in node.operands for c in comparisons_of(op)]

    def holds(node):
        if isinstance(node, Comparison):
            values = window(node.left.metric, node.left.window)
            return ORACLE_COMPARATORS[node.op](
                ORACLE_AGGREGATES[node.left.func](values), node.value)
        if isinstance(node, Not):
            return not holds(node.operand)
        results = [holds(op) for op in node.operands]
        return all(results) if isinstance(node, And) else any(results)

    missing = frozenset(c.left.metric for c in comparisons_of(rule.ast.expr)
                        if not window(c.left.metric, c.left.window))
    if missing:
        return RuleVerdict(rule.id, True, frozenset(),
                           missing_streams=missing)
    if not holds(rule.ast.expr):
        return RuleVerdict(rule.id, True, frozenset())
    last = cooldowns.get(rule.id)
    if last is not None and now - last < rule.cooldown:
        return RuleVerdict(rule.id, True, frozenset(), cooldown_active=True)
    cooldowns[rule.id] = now
    return RuleVerdict(rule.id, False, frozenset(
        dimension_map[ref.split(".", 1)[-1]] for ref in rule.ast.metric_refs
        if ref.split(".", 1)[-1] in dimension_map))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(rule_texts, min_size=1, max_size=3), plan_ticks)
def test_compiled_rules_match_the_oracle(texts, ticks):
    asts = [parse_rule(text) for text in texts]
    rules = tuple(AutoScalingRule("r%d" % i, text, ast, ast.cooldown,
                                  "scale-out")
                  for i, (text, ast) in enumerate(zip(texts, asts)))
    store = MetricStore()
    streams = {}  # (subject, name) -> [(tick, value)] as ingested
    cooldowns, cache, oracle_cooldowns = {}, {}, {}
    clock = 0
    newest = None  # the tick of the newest sample, None before the first
    for advance, samples, offsets in ticks:
        clock += advance
        for (subject, name), value in zip(STREAMS, samples):
            if value is not None:
                store.ingest(MetricSample(clock, subject, name, value))
                streams.setdefault((subject, name), []).append((clock, value))
                newest = clock
        for offset in offsets:
            now = clock + offset
            if newest is not None and now < newest:
                before = rule_state(store, cooldowns, cache)
                with pytest.raises(TimeRegressionError):
                    evaluate_rules(rules, store, now, sc.DIMENSION_MAP,
                                   cooldowns, cache)
                assert rule_state(store, cooldowns, cache) == before
                continue
            verdicts = evaluate_rules(rules, store, now, sc.DIMENSION_MAP,
                                      cooldowns, cache)
            expected = [oracle_verdict(rule, streams, now, oracle_cooldowns,
                                       sc.DIMENSION_MAP) for rule in rules]
            assert verdicts == expected
            assert cooldowns == oracle_cooldowns
