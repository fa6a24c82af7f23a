"""Round-trip tests: format(parse(q)) and parse(format(ast)) are inverse."""

import pytest
from hypothesis import given, strategies as st

from repro.pietql import parse
from repro.pietql.ast import (
    DuringClause,
    GeoCondition,
    GeometricQuery,
    LayerRef,
    MovingObjectQuery,
    OlapQuery,
    PietQLQuery,
)
from repro.pietql.format import format_query
from repro.pietql.lexer import KEYWORDS

# Whatever the lexer reserves, now or later, is not an identifier.
ident = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s.upper() not in KEYWORDS
)

layer_refs = st.builds(LayerRef, ident)


@st.composite
def geometric_queries(draw):
    target = draw(layer_refs)
    others = draw(st.lists(layer_refs, min_size=0, max_size=2))
    conditions = []
    for other in others:
        predicate = draw(
            st.sampled_from(["intersection", "contains", "within"])
        )
        sublevel = draw(
            st.one_of(st.none(), st.sampled_from(["node", "polyline", "polygon"]))
        )
        conditions.append(GeoCondition(predicate, target, other, sublevel))
    select = [target] + [c.right for c in conditions]
    return GeometricQuery(tuple(select), draw(ident), tuple(conditions))


@st.composite
def full_queries(draw):
    geo = draw(geometric_queries())
    olap = draw(
        st.one_of(
            st.none(),
            st.builds(
                OlapQuery,
                st.sampled_from(["sum", "min", "max", "avg", "count"]),
                ident,
                st.one_of(st.none(), ident),
            ),
        )
    )
    mo = draw(
        st.one_of(
            st.none(),
            st.builds(
                MovingObjectQuery,
                st.sampled_from(["OBJECTS", "SAMPLES"]),
                ident,
                st.booleans(),
                st.lists(
                    st.builds(DuringClause, ident, ident),
                    max_size=2,
                ).map(tuple),
            ),
        )
    )
    return PietQLQuery(geo, mo, olap)


class TestRoundTrip:
    @given(full_queries())
    def test_parse_format_inverse(self, query):
        text = format_query(query)
        reparsed = parse(text)
        assert reparsed == query

    def test_format_of_paper_query(self):
        text = """
        SELECT layer.usa_rivers,layer.usa_cities, layer.usa_stores;
        FROM PietSchema;
        WHERE intersection(layer.usa_rivers, layer.usa_cities,sublevel.Linestring)
        AND(layer.usa_cities) CONTAINS(layer.usa_cities, layer.usa_stores, sublevel.Point);
        """
        query = parse(text)
        canonical = format_query(query)
        assert parse(canonical) == query
        assert "contains(" in canonical

    def test_canonical_is_stable(self):
        text = (
            "SELECT layer.cities FROM S "
            "WHERE intersection(layer.cities, layer.rivers) "
            "| AGGREGATE sum(population) BY country "
            "| COUNT OBJECTS FROM FM THROUGH RESULT DURING hour = '9'"
        )
        once = format_query(parse(text))
        twice = format_query(parse(once))
        assert once == twice
