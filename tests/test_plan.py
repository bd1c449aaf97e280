"""The subject plan: which variants one subject evaluates, and in what order.

``plan_subject`` is pure, so every count here is read off the plan with no
recording built; one test then holds ``process_subject`` to the plan.
"""
import pytest

from actimetrics import DatasetKind, MetricId, PipelineConfig, config_from_dict
from actimetrics import combine, pipeline
from actimetrics.pipeline import plan_subject, process_subject
from actimetrics.preprocess import BUILD_ORDER

REFERENCES = ("ENMO", "HFEN")


def ready(variant) -> int:
    """The build position of the last dataset ``variant`` reads."""
    return max(BUILD_ORDER.index(kind) for kind in variant.datasets)


def labels(variants) -> list[str]:
    return [variant.label for variant in variants]


def kernel_calls(plan) -> list[tuple]:
    """The (metric, kind, squared, policy, integration) of each kernel call ``plan`` makes.

    One call per dataset a variant reads, AI one for its three axes; a
    combination makes none for an input evaluated before it.
    """
    calls, done = [], set()
    for v in plan:
        read = {i.kind for i in v.inputs if i in done}
        calls += [(v.metric, kind, v.squared, v.threshold_policy, v.integration)
                  for kind in ((v.kind,) if v.metric is MetricId.AI else v.datasets)
                  if kind not in read]
        done.add(v)
    return calls


CATALOGS = pytest.mark.parametrize("catalog", [
    {},
    {"exclude": list(REFERENCES)},
    {"exclude": ["ENMO", "*FXYZ*"]},
    {"include": ["PIM*", "AI*", "MAD(UFM)", "HFEN"]},
], ids=["default", "no-references", "no-enmo", "filtered"])


@pytest.mark.parametrize("sweeps", [False, True])
def test_default_plan_is_the_whole_catalog_hfen_first(sweeps):
    variants = PipelineConfig().variants()
    plan = plan_subject(variants, sweeps)
    assert len(plan) == 83 and plan[0].label == "HFEN"
    assert sorted(labels(plan)) == sorted(labels(variants))


@CATALOGS
def test_plan_waits_for_the_last_kind_and_keeps_catalog_order(catalog):
    variants = config_from_dict({"catalog": catalog}).variants()
    plan = plan_subject(variants, True)
    # the references a filter left out come after the catalog, ENMO first
    added = [v for label in REFERENCES for v in plan if v.label == label and v not in variants]
    source = {label: i for i, label in enumerate(labels([*variants, *added]))}
    keys = [(ready(v), source[v.label]) for v in plan]
    assert keys == sorted(keys) and len(plan) == len(source)


@CATALOGS
def test_each_combination_comes_after_its_inputs_in_the_plan(catalog):
    plan = plan_subject(config_from_dict({"catalog": catalog}).variants(), True)
    for at, variant in enumerate(plan):
        assert all(plan.index(i) < at for i in variant.inputs if i in plan), variant.label


def test_default_plan_makes_59_kernel_calls_on_47_bases():
    plan = plan_subject(PipelineConfig().variants(), True)
    calls = kernel_calls(plan)
    # each of the 24 combinations reads the signals of its 3 per-axis inputs
    assert sum(1 for v in plan if v.inputs) == 24
    assert len(calls) == 131 - 24 * 3 == 59
    assert len(set(calls)) == 47


def test_process_subject_makes_the_kernel_calls_the_plan_counts(bout_recording, monkeypatch):
    calls = []

    def counted(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for name in ("pim_corrected_values", "zcm_values", "tat_values", "mad_values",
                 "enmo_values", "hfen_values", "ai_values"):
        monkeypatch.setattr(combine, name, counted(name, getattr(combine, name)))
    process_subject(bout_recording, PipelineConfig())
    plan = plan_subject(PipelineConfig().variants(), False)
    assert len(calls) == len(kernel_calls(plan)) == 59


def test_sweeps_append_exactly_the_left_out_references_after_the_rest():
    variants = config_from_dict({"catalog": {"exclude": list(REFERENCES)}}).variants()
    plan = plan_subject(variants, True)
    assert len(plan) == len(variants) + 2
    assert sorted(set(labels(plan)) - set(labels(variants))) == list(REFERENCES)
    for label in REFERENCES:  # the last entry waiting for its kind
        at = labels(plan).index(label)
        assert all(ready(v) > ready(plan[at]) for v in plan[at + 1:]), label


@pytest.mark.parametrize("catalog, sweeps", [
    ({"exclude": list(REFERENCES)}, False),
    ({}, True),
    ({"include": ["HFEN", "ENMO", "ZCM(UFM)"]}, True),
    ({"include": ["PIM(FX)"]}, False),
], ids=["no-sweeps", "default", "references-kept", "one-variant"])
def test_nothing_is_appended_without_sweeps_or_when_the_references_are_in(catalog, sweeps):
    # an empty include filter would be the whole catalog
    variants = config_from_dict({"catalog": catalog}).variants()
    assert sorted(labels(plan_subject(variants, sweeps))) == sorted(labels(variants))


@pytest.mark.parametrize("catalog", [{}, {"exclude": list(REFERENCES)}],
                         ids=["default", "no-references"])
def test_process_subject_walks_the_plan_and_sweeps_after_the_later_reference(
    bout_recording, monkeypatch, catalog
):
    events = []
    real_compute, real_sweep = pipeline.compute_activity, pipeline.recording_sweep

    def compute_activity(variant, *args, **kwargs):
        events.append(variant.label)
        return real_compute(variant, *args, **kwargs)

    def recording_sweep(*args, **kwargs):
        events.append("sweep")
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(pipeline, "compute_activity", compute_activity)
    monkeypatch.setattr(pipeline, "recording_sweep", recording_sweep)
    config = config_from_dict({"catalog": catalog, "sweep": {"max_steps": 5}})
    process_subject(bout_recording, config, [(MetricId.ZCM, DatasetKind.UFM)])
    plan = labels(plan_subject(config.variants(), True))
    after = max(map(plan.index, REFERENCES)) + 1
    assert events == [*plan[:after], "sweep", *plan[after:]]
