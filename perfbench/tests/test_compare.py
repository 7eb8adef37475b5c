"""The comparer's verdicts."""

from perfbench.compare import compare, exact_verdict, spread, verdict


def _metric(value):
    return {"value": value, "unit": "ms", "spread": 0.0, "samples": 10}


def test_lower_is_better():
    assert verdict([10.0], [10.9], "lower", 0.10) == "ok"
    assert verdict([10.0], [11.1], "lower", 0.10) == "worse"
    assert verdict([10.0], [5.0], "lower", 0.10) == "ok"


def test_higher_is_better():
    assert verdict([100.0], [91.0], "higher", 0.10) == "ok"
    assert verdict([100.0], [89.0], "higher", 0.10) == "worse"
    assert verdict([100.0], [150.0], "higher", 0.10) == "ok"


def test_a_set_stands_for_its_median():
    assert verdict([10.0, 10.1, 30.0], [10.2, 10.0, 10.1], "lower", 0.10) == "ok"
    assert verdict([10.0, 10.1, 10.2], [12.0, 12.1, 11.9], "lower", 0.10) == "worse"


def test_a_spread_wider_than_the_bound_leaves_it_unresolved_unless_better():
    assert spread([10.0, 10.0]) is None
    assert spread([8.0, 10.0, 12.0]) > 0.10
    noisy = [8.0, 10.0, 12.0]
    assert verdict(noisy, [10.5, 10.5, 10.5], "lower", 0.10) == "unresolved"
    assert verdict([10.0, 10.0, 10.0], [9.0, 12.0, 15.0], "lower", 0.10) == "unresolved"
    assert verdict(noisy, [9.0, 9.0, 9.0], "lower", 0.10) == "ok"


def test_exact_metrics():
    assert exact_verdict(0.0, 0.0, "lower") == "ok"
    assert exact_verdict(0.0, 0.01, "lower") == "worse"
    assert exact_verdict(10.0, 40.0, "higher") == "ok"
    assert exact_verdict(40.0, 10.0, "higher") == "worse"
    assert exact_verdict(0.77, 0.78, "equal") == "worse"


def test_report_flags_only_the_worse_metric():
    benchmark = {
        "end_to_end": [
            {"name": "link_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "mentions_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        ]
    }

    def document(p50, rate, fail_share=0.0):
        return {
            "workloads": {
                "link_hot": {
                    "correct": True,
                    "metrics": {
                        "link_p50_ms": _metric(p50),
                        "mentions_per_s": _metric(rate),
                    },
                    "extras": {"fail_share": fail_share, "mention_accuracy": 0.77},
                }
            }
        }

    lines = compare([document(1.0, 1000.0)], [document(1.3, 990.0)], benchmark)
    worse = [line for line in lines if line.endswith("worse")]
    assert len(worse) == 1 and "link_p50_ms" in worse[0] and "x1.300 of A" in worse[0]
    lines = compare([document(1.0, 1000.0)], [document(1.0, 1000.0, fail_share=0.1)], benchmark)
    assert [line.split()[0] for line in lines if line.endswith("worse")] == ["fail_share"]
    lines = compare([document(1.0, 1000.0)], [{"workloads": {}}], benchmark)
    assert lines[0].endswith("worse")
