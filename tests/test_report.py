import xml.etree.ElementTree as ET

import pytest

from mobman.report import _condition_axes, markdown_report, write_report

SIMULATE_NAMES = [
    "match_on_label_relative",
    "match_on_label_global",
    "match_off_label_relative",
    "match_off_label_global",
]


def _rows(names):
    return [
        {
            "condition": name,
            "scenario": "nav_reach",
            "success": i % 2,
            "completion_time_s": 20.0 + i,
            "rollbacks": i,
            "jitter": 0,
            "i_star_mean": 1.0,
        }
        for i, name in enumerate(names)
    ]


class TestConditionAxes:
    @pytest.mark.parametrize(
        "name",
        ["control", "second", "baseline_off", "match_on", "match_on_label_relative_x", ""],
    )
    def test_other_names_do_not_parse(self, name):
        assert _condition_axes(name) is None


class TestAblationMatrix:
    def test_simulate_names_get_matrix(self):
        md = markdown_report(_rows(SIMULATE_NAMES))
        assert "## Ablation matrix" in md

    def test_lookalike_names_get_no_matrix(self):
        names = ["control", "control_global", "baseline_off", "baseline_off_global"]
        md = markdown_report(_rows(names))
        assert "## Ablation matrix" not in md


class TestSvgText:
    NAMES = ["a<b&c", 'say "hi"', "x > y & z", "match_on_label_relative"]

    def test_names_with_markup_characters_parse(self, tmp_path):
        _, hist, counts = write_report(_rows(self.NAMES), tmp_path)
        for path, labels in ((hist, self.NAMES), (counts, self.NAMES + ["rollbacks", "jitter"])):
            texts = [t.text for t in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
            assert set(labels) <= set(texts)
