import pytest

from nsscale.rules import (
    Aggregate, And, Comparison, Not, Or, RuleSyntaxError, evaluate_expr,
    parse_rule,
)


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
])
def test_syntax_errors_carry_a_column(text, fragment):
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule(text)
    assert fragment.lower() in str(err.value).lower()
    assert err.value.column >= 0


def test_evaluate_all_comparators():
    values = {"m": 5.0}

    def lookup(func, metric, window):
        return values[metric]

    for op, expected in (("<", False), ("<=", True), (">", False),
                        (">=", True), ("=", True)):
        ast = parse_rule("WHEN avg(m, 1) %s 5 THEN scale_out" % op)
        assert evaluate_expr(ast.expr, lookup) is expected


def test_evaluate_boolean_structure():
    def lookup(func, metric, window):
        return {"a": 10, "b": 0}[metric]

    ast = parse_rule(
        "WHEN avg(a, 1) > 5 AND NOT max(b, 1) > 1 THEN scale_out")
    assert evaluate_expr(ast.expr, lookup)
    ast = parse_rule(
        "WHEN avg(a, 1) > 50 OR max(b, 1) >= 0 THEN scale_out")
    assert evaluate_expr(ast.expr, lookup)


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
