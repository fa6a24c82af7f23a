"""Tests for the Piet-QL parser."""

import pytest

from repro.errors import PietQLError, PietQLSyntaxError
from repro.pietql import parse
from repro.pietql.ast import DuringClause, GeoCondition, LayerRef


class TestGeometricPart:
    def test_minimal_query(self):
        query = parse("SELECT layer.cities FROM CitySchema")
        assert query.geometric.target == LayerRef("cities")
        assert query.geometric.schema_name == "CitySchema"
        assert query.geometric.conditions == ()
        assert query.moving_objects is None

    def test_select_list(self):
        query = parse(
            "SELECT layer.cities, layer.rivers, layer.stores FROM S"
        )
        assert [r.name for r in query.geometric.select] == [
            "cities",
            "rivers",
            "stores",
        ]

    def test_prefix_condition(self):
        query = parse(
            "SELECT layer.cities FROM S "
            "WHERE intersection(layer.rivers, layer.cities)"
        )
        (condition,) = query.geometric.conditions
        assert condition.predicate == "intersection"
        assert condition.left == LayerRef("rivers")
        assert condition.right == LayerRef("cities")
        assert condition.sublevel is None

    def test_sublevel(self):
        query = parse(
            "SELECT layer.cities FROM S "
            "WHERE intersection(layer.rivers, layer.cities, sublevel.Linestring)"
        )
        (condition,) = query.geometric.conditions
        assert condition.sublevel == "linestring"

    def test_infix_condition_paper_style(self):
        query = parse(
            "SELECT layer.cities FROM S WHERE "
            "(layer.cities) CONTAINS (layer.cities, layer.stores, sublevel.Point)"
        )
        (condition,) = query.geometric.conditions
        assert condition.predicate == "contains"
        assert condition.left == LayerRef("cities")
        assert condition.right == LayerRef("stores")
        assert condition.sublevel == "point"

    def test_multiple_conditions(self):
        query = parse(
            "SELECT layer.cities FROM S "
            "WHERE intersection(layer.rivers, layer.cities) "
            "AND contains(layer.cities, layer.stores)"
        )
        assert len(query.geometric.conditions) == 2

    def test_paper_example_parses(self):
        text = """
        SELECT layer.usa_rivers,layer.usa_cities,
        layer.usa_stores;
        FROM PietSchema;
        WHERE intersection(layer.usa_rivers,
        layer.usa_cities,sublevel.Linestring)
        AND(layer.usa_cities)
        CONTAINS(layer.usa_cities,
        layer.usa_stores, sublevel.Point);
        """
        query = parse(text)
        assert query.geometric.schema_name == "PietSchema"
        # The paper: "returns the identifiers of the geometric objects (in
        # this case, the cities)" — the layer involved in every condition.
        assert query.geometric.target == LayerRef("usa_cities")
        assert len(query.geometric.conditions) == 2

    def test_condition_must_involve_target(self):
        with pytest.raises(PietQLError):
            parse(
                "SELECT layer.cities FROM S "
                "WHERE intersection(layer.rivers, layer.stores)"
            )

    def test_unknown_predicate(self):
        with pytest.raises(PietQLError):
            parse(
                "SELECT layer.cities FROM S "
                "WHERE touches(layer.rivers, layer.cities)"
            )

    def test_syntax_errors(self):
        with pytest.raises(PietQLSyntaxError):
            parse("FROM S")
        with pytest.raises(PietQLSyntaxError):
            parse("SELECT layer FROM S")
        with pytest.raises(PietQLSyntaxError):
            parse("SELECT layer.cities")
        with pytest.raises(PietQLSyntaxError):
            parse("SELECT layer.cities FROM S trailing junk")


class TestMovingObjectsPart:
    def test_count_objects(self):
        query = parse("SELECT layer.cities FROM S | COUNT OBJECTS FROM FM")
        mo = query.moving_objects
        assert mo is not None
        assert mo.count_what == "OBJECTS"
        assert mo.moft_name == "FM"
        assert not mo.through_result
        assert mo.during == ()

    def test_count_samples_through_result(self):
        query = parse(
            "SELECT layer.cities FROM S | COUNT SAMPLES FROM FM THROUGH RESULT"
        )
        mo = query.moving_objects
        assert mo.count_what == "SAMPLES"
        assert mo.through_result

    def test_during_clauses(self):
        query = parse(
            "SELECT layer.cities FROM S | COUNT OBJECTS FROM FM "
            "DURING timeOfDay = 'Morning' DURING dayOfWeek = Monday"
        )
        mo = query.moving_objects
        assert mo.during == (
            DuringClause("timeOfDay", "Morning"),
            DuringClause("dayOfWeek", "Monday"),
        )

    def test_numeric_during(self):
        query = parse(
            "SELECT layer.cities FROM S | COUNT OBJECTS FROM FM DURING hour = 9"
        )
        assert query.moving_objects.during == (DuringClause("hour", "9"),)

    def test_count_requires_objects_or_samples(self):
        with pytest.raises(PietQLSyntaxError):
            parse("SELECT layer.cities FROM S | COUNT THINGS FROM FM")

    def test_through_requires_result(self):
        with pytest.raises(PietQLSyntaxError):
            parse("SELECT layer.cities FROM S | COUNT OBJECTS FROM FM THROUGH")


class TestParsedOnce:
    """A text is parsed once: its AST, every node a frozen dataclass, is
    kept; a text that does not parse raises every time."""

    def test_same_text_same_query_object(self):
        text = (
            "SELECT layer.cities FROM S "
            "| COUNT OBJECTS FROM FM THROUGH RESULT DURING hour = 9"
        )
        assert parse(text) is parse(text)
        # Another text, the same query: equal, not the same object.
        assert parse(" " + text) == parse(text)
        assert parse(" " + text) is not parse(text)

    def test_malformed_text_raises_on_every_call(self):
        text = "SELECT layer.cities FROM S | COUNT THINGS FROM FM"
        for _ in range(3):
            with pytest.raises(PietQLSyntaxError):
                parse(text)
