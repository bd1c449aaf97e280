import itertools
from collections import Counter

import numpy as np
import pytest

from actimetrics import (
    AxisTriple,
    CombinationRule,
    DatasetKind,
    IntegrationMethod,
    MetricId,
    PreprocessedSeries,
    ThresholdPolicy,
    VariantDescriptor,
    PipelineConfig,
    catalog,
    compute_activity,
    metrics,
    process_subject,
    vm3,
)
from actimetrics.errors import InapplicableMetric, MissingDataset

SQ = "\N{SUPERSCRIPT TWO}"


class TestVm3:
    def test_triple(self):
        assert vm3(3.0, 4.0, 12.0) == pytest.approx(13.0)

    def test_zero(self):
        assert vm3(0.0, 0.0, 0.0) == 0.0

    def test_single_axis_identity(self):
        assert vm3(7.5, 0.0, 0.0) == pytest.approx(7.5)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        a, b, c = rng.uniform(0, 5, 3)
        assert vm3(a, b, c) == pytest.approx(vm3(c, a, b), rel=1e-15)

    def test_elementwise_on_arrays(self):
        out = vm3(np.array([3.0, 0.0]), np.array([4.0, 1.0]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(out, [5.0, 1.0])


def _axes_with_pim(*per_axis):
    """FX/FY/FZ series whose PIM per 2 s epoch (at 1 Hz) is the given values.

    Each epoch holds the value and a 0, so the Riemann PIM of |x| returns
    the value exactly; the axes may differ in length.
    """
    return {
        kind: PreprocessedSeries(
            kind, np.column_stack([v, np.zeros(len(v))]).ravel(), 1.0
        )
        for kind, v in zip((DatasetKind.FX, DatasetKind.FY, DatasetKind.FZ), per_axis)
    }


def _combined(rule, datasets, metric=MetricId.PIM, te=2.0):
    variant = VariantDescriptor(metric, AxisTriple.FXYZ, rule)
    return compute_activity(variant, datasets, te).values


class TestCombineAxial:
    def test_sum_axes(self):
        out = _combined(CombinationRule.SUM_AXES, _axes_with_pim([1.0], [2.0], [3.0]))
        assert out[0] == pytest.approx(6.0)

    def test_sqrt_of_sum(self):
        out = _combined(CombinationRule.SQRT_OF_SUM_AXES,
                        _axes_with_pim([1.0], [2.0], [6.0]))
        assert out[0] == pytest.approx(3.0)

    def test_sum_of_squares(self):
        out = _combined(CombinationRule.SUM_OF_SQUARES,
                        _axes_with_pim([1.0], [2.0], [2.0]))
        assert out[0] == pytest.approx(9.0)

    def test_vm3_rule(self):
        out = _combined(CombinationRule.VM3, _axes_with_pim([3.0], [4.0], [12.0]))
        assert out[0] == pytest.approx(13.0)

    def test_mismatched_lengths_rejected(self):
        from actimetrics.errors import SeriesMismatch

        # FY one epoch shorter (broadcast silently) or longer (numpy's own
        # ValueError) than FX/FZ: every rule must refuse both
        rng = np.random.default_rng(4)
        for fy_epochs in (1, 3):
            datasets = {
                kind: PreprocessedSeries(
                    kind, rng.normal(size=20 * (fy_epochs if kind is DatasetKind.FY else 2)),
                    10.0,
                )
                for kind in (DatasetKind.FX, DatasetKind.FY, DatasetKind.FZ)
            }
            for rule in (CombinationRule.SUM_AXES, CombinationRule.SQRT_OF_SUM_AXES,
                         CombinationRule.SUM_OF_SQUARES, CombinationRule.VM3):
                with pytest.raises(SeriesMismatch):
                    _combined(rule, datasets, MetricId.MAD)

    def test_rule_none_rejected(self):
        with pytest.raises(InapplicableMetric):
            VariantDescriptor(MetricId.PIM, AxisTriple.FXYZ, CombinationRule.NONE)

    def test_norm_inequality_sum_vs_vm3(self):
        rng = np.random.default_rng(1)
        datasets = _axes_with_pim(*(rng.uniform(0, 3, 40) for _ in range(3)))
        total = _combined(CombinationRule.SUM_AXES, datasets)
        norm = _combined(CombinationRule.VM3, datasets)
        assert (total >= norm - 1e-12).all()

    def test_homogeneity_degrees(self):
        rng = np.random.default_rng(2)
        raw = [rng.uniform(0, 3, 20) for _ in range(3)]
        c = 2.5
        base = _axes_with_pim(*raw)
        scaled = _axes_with_pim(*(c * v for v in raw))
        for rule, degree in ((CombinationRule.SUM_AXES, 1),
                             (CombinationRule.VM3, 1),
                             (CombinationRule.SUM_OF_SQUARES, 2)):
            lhs = _combined(rule, scaled)
            rhs = (c ** degree) * _combined(rule, base)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestMetricOnSquaredAxis:
    def _squared(self, metric, values, te, kind=DatasetKind.FX, fs=10.0, policy=None):
        variant = VariantDescriptor(
            metric, kind, CombinationRule.NONE, True, threshold_policy=policy
        )
        return compute_activity(variant, {kind: PreprocessedSeries(kind, values, fs)}, te)

    def test_mad_on_squared_constant_is_zero(self):
        out = self._squared(MetricId.MAD, [0.5] * 1200, 60.0)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-15)

    def test_pim_on_squared_values(self):
        out = self._squared(MetricId.PIM, [1.0, 2.0], 2.0, fs=1.0)
        assert out.values[0] == pytest.approx(5.0)  # 1 + 4, ts = 1

    def test_zcm_squared_equals_abs_with_mapped_threshold(self):
        # squaring is monotone on |x|: crossings of x^2 vs T^2 match |x| vs T
        rng = np.random.default_rng(3)
        values = rng.normal(size=600)
        t = 0.6
        squared = self._squared(
            MetricId.ZCM, values, 10.0, policy=ThresholdPolicy.fixed(t * t)
        )
        from actimetrics.metrics import zcm_values

        abs_counts = zcm_values(np.abs(values).reshape(6, 100), t)
        np.testing.assert_array_equal(squared.values, abs_counts)

    def test_label_and_units(self):
        out = self._squared(MetricId.MAD, [0.1] * 100, 5.0)
        assert out.label == f"MAD(FX{SQ})"
        assert out.units == f"(g) on g{SQ} input"

    def test_nonaxis_kind_rejected(self):
        with pytest.raises(InapplicableMetric):
            self._squared(MetricId.MAD, [1.0] * 100, 5.0, kind=DatasetKind.UFM)

    def test_enmo_rejected(self):
        with pytest.raises(InapplicableMetric):
            self._squared(MetricId.ENMO, [0.1] * 100, 5.0)


# Every (label, units) pair a descriptor can have over all (metric, kind or
# triple, rule, squared) combinations, with the default policy and
# integration, sorted.
CONSTRUCTIBLE = [
    ("AI(FXYZ)", "g"),
    ("AI(UFXYZ)", "g"),
    ("ENMO", "g"),
    ("HFEN", "g"),
    ("MAD(FMpost)", "g"),
    ("MAD(FMpre)", "g"),
    ("MAD(FX)", "g"),
    ("MAD(FX)²", "(g)²"),
    ("MAD(FX²)", "(g) on g² input"),
    ("MAD(FY)", "g"),
    ("MAD(FY)²", "(g)²"),
    ("MAD(FY²)", "(g) on g² input"),
    ("MAD(FZ)", "g"),
    ("MAD(FZ)²", "(g)²"),
    ("MAD(FZ²)", "(g) on g² input"),
    ("MAD(UFM)", "g"),
    ("MAD(UFNM)", "g"),
    ("MAD(UFX)", "g"),
    ("MAD(UFX)²", "(g)²"),
    ("MAD(UFX²)", "(g) on g² input"),
    ("MAD(UFY)", "g"),
    ("MAD(UFY)²", "(g)²"),
    ("MAD(UFY²)", "(g) on g² input"),
    ("MAD(UFZ)", "g"),
    ("MAD(UFZ)²", "(g)²"),
    ("MAD(UFZ²)", "(g) on g² input"),
    ("PIM(FMpost)", "g*s"),
    ("PIM(FMpre)", "g*s"),
    ("PIM(FX)", "g*s"),
    ("PIM(FX)²", "(g*s)²"),
    ("PIM(FX²)", "(g*s) on g² input"),
    ("PIM(FY)", "g*s"),
    ("PIM(FY)²", "(g*s)²"),
    ("PIM(FY²)", "(g*s) on g² input"),
    ("PIM(FZ)", "g*s"),
    ("PIM(FZ)²", "(g*s)²"),
    ("PIM(FZ²)", "(g*s) on g² input"),
    ("PIM(UFM)", "g*s"),
    ("PIM(UFNM)", "g*s"),
    ("SQRTSUM[MAD,FXYZ]", "g"),
    ("SQRTSUM[MAD,FXYZ²]", "(g) on g² input"),
    ("SQRTSUM[PIM,FXYZ]", "g*s"),
    ("SQRTSUM[PIM,FXYZ²]", "(g*s) on g² input"),
    ("SQRTSUM[TAT,FXYZ]", "s"),
    ("SQRTSUM[TAT,FXYZ²]", "(s) on g² input"),
    ("SQRTSUM[ZCM,FXYZ]", "count"),
    ("SQRTSUM[ZCM,FXYZ²]", "(count) on g² input"),
    ("SUMSQ[MAD,FXYZ]", "(g)²"),
    ("SUMSQ[PIM,FXYZ]", "(g*s)²"),
    ("SUMSQ[TAT,FXYZ]", "(s)²"),
    ("SUMSQ[ZCM,FXYZ]", "(count)²"),
    ("SUM[MAD,FXYZ]", "g"),
    ("SUM[MAD,FXYZ²]", "(g) on g² input"),
    ("SUM[PIM,FXYZ]", "g*s"),
    ("SUM[PIM,FXYZ²]", "(g*s) on g² input"),
    ("SUM[TAT,FXYZ]", "s"),
    ("SUM[TAT,FXYZ²]", "(s) on g² input"),
    ("SUM[ZCM,FXYZ]", "count"),
    ("SUM[ZCM,FXYZ²]", "(count) on g² input"),
    ("TAT(FMpost)", "s"),
    ("TAT(FMpre)", "s"),
    ("TAT(FX)", "s"),
    ("TAT(FX)²", "(s)²"),
    ("TAT(FX²)", "(s) on g² input"),
    ("TAT(FY)", "s"),
    ("TAT(FY)²", "(s)²"),
    ("TAT(FY²)", "(s) on g² input"),
    ("TAT(FZ)", "s"),
    ("TAT(FZ)²", "(s)²"),
    ("TAT(FZ²)", "(s) on g² input"),
    ("TAT(UFM)", "s"),
    ("TAT(UFNM)", "s"),
    ("VM3[MAD,FXYZ]", "g"),
    ("VM3[PIM,FXYZ]", "g*s"),
    ("VM3[TAT,FXYZ]", "s"),
    ("VM3[ZCM,FXYZ]", "count"),
    ("ZCM(FMpost)", "count"),
    ("ZCM(FMpre)", "count"),
    ("ZCM(FX)", "count"),
    ("ZCM(FX)²", "(count)²"),
    ("ZCM(FX²)", "(count) on g² input"),
    ("ZCM(FY)", "count"),
    ("ZCM(FY)²", "(count)²"),
    ("ZCM(FY²)", "(count) on g² input"),
    ("ZCM(FZ)", "count"),
    ("ZCM(FZ)²", "(count)²"),
    ("ZCM(FZ²)", "(count) on g² input"),
    ("ZCM(UFM)", "count"),
    ("ZCM(UFNM)", "count"),
]


class TestVariantDescriptor:
    def test_constructible_pairs_pinned(self):
        pairs = []
        for metric, kind, rule, squared in itertools.product(
            MetricId, [*DatasetKind, *AxisTriple], CombinationRule, (False, True)
        ):
            try:
                variant = VariantDescriptor(metric, kind, rule, squared)
            except (InapplicableMetric, ValueError):
                continue
            pairs.append((variant.label, variant.units))
        assert sorted(pairs) == CONSTRUCTIBLE
        assert len(CONSTRUCTIBLE) == len(set(CONSTRUCTIBLE)) == 89

    def test_labels(self):
        cases = [
            (VariantDescriptor(MetricId.PIM, DatasetKind.UFNM), "PIM(UFNM)"),
            (VariantDescriptor(MetricId.PIM, DatasetKind.UFNM,
                               integration=IntegrationMethod.SIMPSON38), "PIMs(UFNM)"),
            (VariantDescriptor(MetricId.ENMO, DatasetKind.UFM), "ENMO"),
            (VariantDescriptor(MetricId.HFEN, DatasetKind.HFEN_SPECIAL), "HFEN"),
            (VariantDescriptor(MetricId.AI, AxisTriple.FXYZ), "AI(FXYZ)"),
            (VariantDescriptor(MetricId.ZCM, AxisTriple.FXYZ,
                               CombinationRule.VM3), "VM3[ZCM,FXYZ]"),
            (VariantDescriptor(MetricId.MAD, DatasetKind.FY,
                               CombinationRule.SQUARE_EACH_AXIS), f"MAD(FY){SQ}"),
            (VariantDescriptor(MetricId.MAD, DatasetKind.FY, squared=True), f"MAD(FY{SQ})"),
            (VariantDescriptor(MetricId.TAT, AxisTriple.FXYZ,
                               CombinationRule.SUM_AXES, squared=True),
             f"SUM[TAT,FXYZ{SQ}]"),
        ]
        for descriptor, expected in cases:
            assert descriptor.label == expected

    def test_illegal_fig4_cells_cannot_be_constructed(self):
        with pytest.raises(InapplicableMetric):
            VariantDescriptor(MetricId.PIM, DatasetKind.UFX)
        with pytest.raises(InapplicableMetric):
            VariantDescriptor(MetricId.ENMO, DatasetKind.FMPRE)
        with pytest.raises(InapplicableMetric):
            VariantDescriptor(MetricId.AI, DatasetKind.UFM)

    def test_combination_requires_axial_metric(self):
        with pytest.raises(InapplicableMetric):
            VariantDescriptor(MetricId.ENMO, AxisTriple.FXYZ, CombinationRule.SUM_AXES)

    def test_combination_requires_filtered_triple(self):
        with pytest.raises(InapplicableMetric):
            VariantDescriptor(MetricId.MAD, AxisTriple.UFXYZ, CombinationRule.SUM_AXES)

    def test_threshold_policy_only_for_level_metrics(self):
        with pytest.raises(ValueError):
            VariantDescriptor(MetricId.MAD, DatasetKind.UFM,
                              threshold_policy=ThresholdPolicy.adaptive())

    def test_integration_only_for_pim(self):
        with pytest.raises(ValueError):
            VariantDescriptor(MetricId.MAD, DatasetKind.UFM,
                              integration=IntegrationMethod.SIMPSON38)

    def test_defaults_injected(self):
        zcm_variant = VariantDescriptor(MetricId.ZCM, DatasetKind.UFM)
        assert zcm_variant.threshold_policy.mode == "adaptive_sd"
        pim_variant = VariantDescriptor(MetricId.PIM, DatasetKind.UFM)
        assert pim_variant.integration is IntegrationMethod.RIEMANN_SUM


class TestComputeActivity:
    def test_enmo_on_fmpre_inapplicable(self, bout_datasets):
        with pytest.raises(InapplicableMetric):
            compute_activity(
                VariantDescriptor(MetricId.ENMO, DatasetKind.FMPRE),
                bout_datasets, 60.0,
            )

    def test_mad_on_constant_axis_is_zero(self, rest_recording):
        from actimetrics import preprocess_all

        datasets = dict(preprocess_all(rest_recording))
        out = compute_activity(
            VariantDescriptor(MetricId.MAD, DatasetKind.UFX), datasets, 60.0
        )
        np.testing.assert_allclose(out.values, 0.0, atol=1e-15)

    def test_missing_dataset_reported(self, bout_datasets):
        partial = {DatasetKind.UFM: bout_datasets[DatasetKind.UFM]}
        with pytest.raises(MissingDataset):
            compute_activity(
                VariantDescriptor(MetricId.MAD, DatasetKind.FX), partial, 60.0
            )

    def test_combined_equals_manual_combination(self, bout_datasets):
        per_axis = [
            compute_activity(
                VariantDescriptor(MetricId.MAD, kind), bout_datasets, 60.0
            )
            for kind in (DatasetKind.FX, DatasetKind.FY, DatasetKind.FZ)
        ]
        combined = compute_activity(
            VariantDescriptor(MetricId.MAD, AxisTriple.FXYZ, CombinationRule.VM3),
            bout_datasets, 60.0,
        )
        manual = vm3(*(signal.values for signal in per_axis))
        np.testing.assert_allclose(combined.values, manual, rtol=1e-12)

    def test_square_each_axis_squares_activity(self, bout_datasets):
        base = compute_activity(
            VariantDescriptor(MetricId.MAD, DatasetKind.FY), bout_datasets, 60.0
        )
        squared = compute_activity(
            VariantDescriptor(MetricId.MAD, DatasetKind.FY,
                              CombinationRule.SQUARE_EACH_AXIS),
            bout_datasets, 60.0,
        )
        np.testing.assert_allclose(squared.values, base.values ** 2, rtol=1e-12)

    def test_ai_needs_a_noise_estimate(self, bout_datasets, bout_noise):
        variant = VariantDescriptor(MetricId.AI, AxisTriple.UFXYZ)
        with pytest.raises(ValueError, match=r"^AI\(UFXYZ\) needs a noise-variance"):
            compute_activity(variant, bout_datasets, 60.0)
        out = compute_activity(variant, bout_datasets, 60.0, noise=bout_noise)
        assert (out.values >= 0).all()
        assert out.label == "AI(UFXYZ)"

    def test_signal_length_is_floor_of_epochs(self, bout_datasets):
        out = compute_activity(
            VariantDescriptor(MetricId.MAD, DatasetKind.UFM), bout_datasets, 60.0
        )
        assert out.values.size == 10  # 600 s / 60 s


FIG4_EXPECTED = {
    # (metric, column): True means a legal computation exists
    (MetricId.PIM, "UFXYZ"): False,
    (MetricId.PIM, "FXYZ"): True,
    (MetricId.PIM, "UFM"): True,
    (MetricId.PIM, "UFNM"): True,
    (MetricId.PIM, "FMpost"): True,
    (MetricId.PIM, "FMpre"): True,
    (MetricId.ZCM, "UFXYZ"): False,
    (MetricId.ZCM, "FXYZ"): True,
    (MetricId.ZCM, "UFM"): True,
    (MetricId.ZCM, "UFNM"): True,
    (MetricId.ZCM, "FMpost"): True,
    (MetricId.ZCM, "FMpre"): True,
    (MetricId.TAT, "UFXYZ"): False,
    (MetricId.TAT, "FXYZ"): True,
    (MetricId.TAT, "UFM"): True,
    (MetricId.TAT, "UFNM"): True,
    (MetricId.TAT, "FMpost"): True,
    (MetricId.TAT, "FMpre"): True,
    (MetricId.MAD, "UFXYZ"): True,
    (MetricId.MAD, "FXYZ"): True,
    (MetricId.MAD, "UFM"): True,
    (MetricId.MAD, "UFNM"): True,
    (MetricId.MAD, "FMpost"): True,
    (MetricId.MAD, "FMpre"): True,
    (MetricId.ENMO, "UFXYZ"): False,
    (MetricId.ENMO, "FXYZ"): False,
    (MetricId.ENMO, "UFM"): True,
    (MetricId.ENMO, "UFNM"): False,
    (MetricId.ENMO, "FMpost"): False,
    (MetricId.ENMO, "FMpre"): False,
    (MetricId.HFEN, "UFXYZ"): False,
    (MetricId.HFEN, "FXYZ"): False,
    (MetricId.HFEN, "UFM"): False,
    (MetricId.HFEN, "UFNM"): False,
    (MetricId.HFEN, "FMpost"): False,
    (MetricId.HFEN, "FMpre"): False,
    (MetricId.AI, "UFXYZ"): True,
    (MetricId.AI, "FXYZ"): True,
    (MetricId.AI, "UFM"): False,
    (MetricId.AI, "UFNM"): False,
    (MetricId.AI, "FMpost"): False,
    (MetricId.AI, "FMpre"): False,
}

_COLUMN_KINDS = {
    "UFM": [DatasetKind.UFM],
    "UFNM": [DatasetKind.UFNM],
    "FMpost": [DatasetKind.FMPOST],
    "FMpre": [DatasetKind.FMPRE],
    "UFXYZ": list((DatasetKind.UFX, DatasetKind.UFY, DatasetKind.UFZ)),
    "FXYZ": list((DatasetKind.FX, DatasetKind.FY, DatasetKind.FZ)),
}


def _column_variants(metric, column):
    """Every natural descriptor for one applicability-matrix cell."""
    if metric is MetricId.AI:
        return [(MetricId.AI, AxisTriple.UFXYZ if column == "UFXYZ" else
                 AxisTriple.FXYZ)] if column in ("UFXYZ", "FXYZ") else [
            (MetricId.AI, _COLUMN_KINDS[column][0])]
    return [(metric, kind) for kind in _COLUMN_KINDS[column]]


class TestApplicabilityMatrixExhaustive:
    @pytest.mark.parametrize("metric,column", sorted(
        FIG4_EXPECTED, key=lambda mc: (mc[0].value, mc[1])
    ))
    def test_cell(self, metric, column, bout_datasets, bout_noise):
        expected_legal = FIG4_EXPECTED[(metric, column)]
        for metric_id, kind in _column_variants(metric, column):
            if expected_legal:
                variant = VariantDescriptor(metric_id, kind)
                out = compute_activity(variant, bout_datasets, 60.0, noise=bout_noise)
                assert (out.values >= 0).all()
            else:
                with pytest.raises(InapplicableMetric):
                    compute_activity(
                        VariantDescriptor(metric_id, kind), bout_datasets, 60.0
                    )

    def test_hfen_accepts_only_its_dataset(self, bout_datasets):
        variant = VariantDescriptor(MetricId.HFEN, DatasetKind.HFEN_SPECIAL)
        out = compute_activity(variant, bout_datasets, 60.0)
        assert (out.values >= 0).all()


def _family(m):
    """The combination family of one axial metric token, in catalog order."""
    return [
        f"SUM[{m},FXYZ]", f"SQRTSUM[{m},FXYZ]",
        f"{m}(FX){SQ}", f"{m}(FY){SQ}", f"{m}(FZ){SQ}",
        f"SUMSQ[{m},FXYZ]", f"VM3[{m},FXYZ]",
        f"{m}(FX{SQ})", f"{m}(FY{SQ})", f"{m}(FZ{SQ})",
        f"SUM[{m},FXYZ{SQ}]", f"SQRTSUM[{m},FXYZ{SQ}]",
    ]


# The catalog's labels in order, as the paper's 83-variant bundle names them.
_SINGLE_KINDS = ["UFM", "UFNM", "FMpre", "FMpost", "FX", "FY", "FZ"]
_MAD_KINDS = ["UFM", "UFNM", "FMpre", "FMpost", "UFX", "UFY", "UFZ", "FX", "FY", "FZ"]
_LEVEL_AND_REST = (
    [f"ZCM({k})" for k in _SINGLE_KINDS]
    + [f"TAT({k})" for k in _SINGLE_KINDS]
    + [f"MAD({k})" for k in _MAD_KINDS]
    + ["ENMO", "HFEN", "AI(UFXYZ)", "AI(FXYZ)"]
)
DEFAULT_LABELS = (
    [f"PIM({k})" for k in _SINGLE_KINDS]
    + _LEVEL_AND_REST
    + _family("PIM") + _family("ZCM") + _family("TAT") + _family("MAD")
)
BOTH_INTEGRATIONS_LABELS = (
    [f"PIM({k})" for k in _SINGLE_KINDS]
    + [f"PIMs({k})" for k in _SINGLE_KINDS]
    + _LEVEL_AND_REST
    + _family("PIM") + _family("PIMs")
    + _family("ZCM") + _family("TAT") + _family("MAD")
)


class TestCatalog:
    def test_exactly_one_enmo_and_hfen(self):
        labels = [v.label for v in catalog()]
        assert labels.count("ENMO") == 1
        assert labels.count("HFEN") == 1

    def test_no_pim_on_raw_axes(self):
        labels = [v.label for v in catalog()]
        assert not any(l.startswith("PIM(UF") and l[7] in "XYZ" for l in labels)
        assert "PIM(UFX)" not in labels
        assert "ZCM(UFX)" not in labels
        assert "MAD(UFX)" in labels

    def test_deterministic_order_and_labels(self):
        a = [v.label for v in catalog()]
        b = [v.label for v in catalog()]
        assert a == b

    def test_labels_unique(self):
        labels = [v.label for v in catalog()]
        assert len(labels) == len(set(labels))

    def test_default_count(self):
        assert len(catalog()) == 83

    def test_both_integrations_extend_catalog(self):
        labels = [v.label for v in catalog(
            integrations=(IntegrationMethod.RIEMANN_SUM, IntegrationMethod.SIMPSON38)
        )]
        assert "PIM(UFNM)" in labels and "PIMs(UFNM)" in labels
        assert "VM3[PIM,FXYZ]" in labels and "VM3[PIMs,FXYZ]" in labels
        assert len(labels) == 83 + 19

    def test_default_labels_pinned(self):
        assert [v.label for v in catalog()] == DEFAULT_LABELS

    def test_both_integrations_labels_pinned(self):
        variants = catalog(
            integrations=(IntegrationMethod.RIEMANN_SUM, IntegrationMethod.SIMPSON38)
        )
        assert [v.label for v in variants] == BOTH_INTEGRATIONS_LABELS

    def test_include_exclude_globs(self):
        only_pim = catalog(include=("PIM(*",))
        assert only_pim and all(v.label.startswith("PIM(") for v in only_pim)
        no_combined = catalog(exclude=("*[*",))
        assert no_combined and not any("[" in v.label for v in no_combined)

    def test_every_descriptor_computes_on_synthetic_data(self, bout_datasets, bout_noise):
        for variant in catalog():
            out = compute_activity(variant, bout_datasets, 60.0, noise=bout_noise)
            assert (out.values >= 0).all(), variant.label
            assert out.values.size == 10


class TestThresholdMemo:
    def test_catalog_resolves_each_threshold_once(self, bout_datasets, bout_noise, monkeypatch):
        resolved = Counter()
        real = metrics.sd_threshold

        def counting(series, **kwargs):
            resolved[series.kind] += 1
            return real(series, **kwargs)

        monkeypatch.setattr(metrics, "sd_threshold", counting)
        thresholds = {}
        shared = {v.label: compute_activity(v, bout_datasets, 60.0, noise=bout_noise,
                                            thresholds=thresholds)
                  for v in catalog()}
        # 4 magnitudes, 3 filtered axes and their 3 squared series; ZCM and
        # TAT share each one
        assert sum(resolved.values()) == len(thresholds) == 10
        assert resolved == Counter({DatasetKind.UFM: 1, DatasetKind.UFNM: 1,
                                    DatasetKind.FMPRE: 1, DatasetKind.FMPOST: 1,
                                    DatasetKind.FX: 2, DatasetKind.FY: 2,
                                    DatasetKind.FZ: 2})
        for variant in catalog():
            alone = compute_activity(variant, bout_datasets, 60.0, noise=bout_noise)
            assert shared[variant.label].values.tobytes() == alone.values.tobytes()

    def test_process_subject_resolves_ten_thresholds(self, bout_recording, monkeypatch):
        calls = []
        real = metrics.sd_threshold
        monkeypatch.setattr(metrics, "sd_threshold",
                            lambda s, **kwargs: calls.append(s) or real(s, **kwargs))
        process_subject(bout_recording, PipelineConfig())
        assert len(calls) == 10
