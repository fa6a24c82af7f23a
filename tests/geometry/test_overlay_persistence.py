"""Tests for overlay cache export/import (Piet precompute persistence)."""

import json

import pytest

from repro.errors import GeometryError
from repro.geometry import LayerOverlay, Point, Polygon, Polyline


def layers():
    return {
        "cities": {
            "a": Polygon.rectangle(0, 0, 10, 10),
            "b": Polygon.rectangle(20, 0, 30, 10),
        },
        "rivers": {
            "r": Polyline([Point(-5, 5), Point(15, 5)]),
        },
    }


def cached(overlay):
    """How many relations the overlay's cache holds."""
    return len(overlay.export_cache()["relations"])


class TestExportImport:
    def test_roundtrip(self):
        source = LayerOverlay(layers())
        source.precompute_all()
        exported = source.export_cache()
        # JSON-compatible end to end.
        blob = json.dumps(exported)

        target = LayerOverlay(layers())
        assert cached(target) == 0
        loaded = target.import_cache(json.loads(blob))
        assert loaded == cached(source)
        assert target.pairs("rivers", "cities") == source.pairs(
            "rivers", "cities"
        )

    def test_imported_cache_skips_recomputation(self):
        source = LayerOverlay(layers())
        expected = source.pairs("rivers", "cities")
        target = LayerOverlay(layers())
        target.import_cache(source.export_cache())
        # The relation is answered from cache, no recomputation needed.
        assert cached(target) == 1
        assert target.pairs("rivers", "cities") == expected

    def test_empty_export(self):
        overlay = LayerOverlay(layers())
        assert overlay.export_cache() == {"relations": []}

    def test_unknown_layer_rejected(self):
        source = LayerOverlay(layers())
        source.pairs("rivers", "cities")
        exported = source.export_cache()
        other = LayerOverlay({"zones": {"z": Polygon.rectangle(0, 0, 1, 1)}})
        with pytest.raises(GeometryError):
            other.import_cache(exported)

    def test_malformed_rejected(self):
        overlay = LayerOverlay(layers())
        with pytest.raises(GeometryError):
            overlay.import_cache({"nope": []})
        with pytest.raises(GeometryError):
            overlay.import_cache({"relations": [{"layer_a": "cities"}]})

    def test_bad_predicate_rejected(self):
        overlay = LayerOverlay(layers())
        with pytest.raises(GeometryError):
            overlay.import_cache(
                {
                    "relations": [
                        {
                            "layer_a": "cities",
                            "layer_b": "rivers",
                            "predicate": "touches",
                            "pairs": [],
                        }
                    ]
                }
            )
