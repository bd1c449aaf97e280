"""Acceptance suite: every release criterion, one pass/fail line each.

Criteria 1-9 run on a synthetic corpus of 6 subjects x 24 h at 10 Hz and
are the release gate. Criteria 10-11 additionally need real converted
recordings; point ACTIMETRICS_DATA_DIR at a directory of them to enable
the extended checks, otherwise they are skipped.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass.
"""
import dataclasses
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import sosfreqz

from actimetrics import (
    ActivitySignal,
    AxisTriple,
    Bandpass,
    DatasetKind,
    Domain,
    IntegrationMethod,
    MetricId,
    PipelineConfig,
    PsdParams,
    SyntheticSpec,
    VariantDescriptor,
    catalog,
    compute_activity,
    correlation_matrix,
    design_filter,
    estimate_noise_variance,
    preprocess_all,
    psd,
    subject_correlation,
    synthesize,
    threshold_sweep,
)
from actimetrics.config import SweepConfig, SyntheticConfig
from actimetrics.analysis import recording_sweep
from actimetrics.core import RawRecording, epoch_matrix
from actimetrics.errors import InapplicableMetric
from actimetrics.metrics import enmo_values, hfen_values, mad_values, tat_values, zcm_values
from actimetrics.pipeline import run_pipeline
from oracles import pearson_oracle, tat_oracle, zcm_oracle

EPOCH_S = 60.0


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


# --- synthetic corpus: 6 subjects x 24 h at 10 Hz ---------------------------

_ORIENTATIONS = [
    (0.0, 0.0, 1.0),
    (0.0, 1.0, 0.0),
    (1.0, 0.0, 0.0),
    (0.6, 0.0, 0.8),
    (0.0, 0.6, 0.8),
    (0.48, 0.6, 0.64),
]


def corpus_specs():
    return [
        SyntheticSpec(
            subject_id=f"subject{i:02d}",
            duration_s=86400.0,
            rest_s=1500.0 + 120.0 * i,
            active_s=900.0 + 60.0 * i,
            active_freq_hz=1.0 + 0.2 * i,
            active_amp_g=0.4 + 0.05 * i,
            amp_jitter=0.4,
            orientation=_ORIENTATIONS[i],
            noise_sd_g=0.02,
            seed=1000 + i,
        )
        for i in range(6)
    ]


@pytest.fixture(scope="module")
def corpus():
    return [synthesize(spec) for spec in corpus_specs()]


@pytest.fixture(scope="module")
def corpus_signals(corpus):
    """Full catalog (both PIM integrations) per subject, datasets dropped."""
    variants = catalog(
        integrations=(IntegrationMethod.RIEMANN_SUM, IntegrationMethod.SIMPSON38)
    )
    out = {}
    for rec in corpus:
        datasets = dict(preprocess_all(rec))
        noise = estimate_noise_variance(rec, 60.0)
        out[rec.subject_id] = {
            v.label: compute_activity(v, datasets, EPOCH_S, noise=noise)
            for v in variants
        }
    return out


# --- criterion 1: brute-force oracle equivalence ----------------------------


def test_criterion_1_level_crossing_oracle_equivalence():
    with criterion(1, "zcm/tat match the brute-force scan on 10,000 random epochs"):
        rng = np.random.default_rng(12345)
        for _ in range(10_000):
            n = int(rng.integers(2, 65))
            values = rng.uniform(-2.0, 2.0, n)
            threshold = float(rng.uniform(-2.0, 2.0))
            assert zcm_values([values], threshold)[0] == zcm_oracle(values, threshold)
            assert tat_values([values], threshold, 0.1)[0] == tat_oracle(values, threshold, 0.1)


# --- criterion 2: full-rectification identity -------------------------------


def test_criterion_2_full_rectification(corpus):
    with criterion(2, "tat(|x|) = tat(x) + tat(-x) exactly; rectification ~doubles TAT"):
        rng = np.random.default_rng(777)
        for _ in range(1_000):
            n = int(rng.integers(2, 65))
            x = rng.normal(size=n)
            t = float(rng.uniform(0.01, 2.0))
            # ts = 1 s keeps the count identity exact in float arithmetic
            lhs = tat_values([np.abs(x)], t, 1.0)[0]
            signed = tat_values([x, -x], t, 1.0)
            assert lhs == signed[0] + signed[1]

        # zero-mean symmetric noise: rectification about doubles total TAT
        for i in range(6):
            noise = np.random.default_rng(9000 + i).normal(0.0, 0.05, 200_000)
            t = float(noise.std())
            total_signed = tat_values(noise[None, :], t, 0.1)[0]
            total_abs = tat_values(np.abs(noise)[None, :], t, 0.1)[0]
            ratio = total_abs / total_signed
            assert 1.8 <= ratio <= 2.2, ratio


# --- criterion 3: integration-method agreement ------------------------------


def test_criterion_3_integration_agreement(corpus_signals):
    with criterion(3, "PIM Riemann vs Simpson 3/8 correlate > 0.999 per subject"):
        for kind in ("UFNM", "FMpost", "FMpre", "UFM"):
            for subject, signals in corpus_signals.items():
                r = pearson_oracle(
                    signals[f"PIM({kind})"].values, signals[f"PIMs({kind})"].values
                )
                assert r > 0.999, (subject, kind, r)


# --- criterion 4: filter correctness ----------------------------------------


def _prewarp(f_hz, fs):
    return 2.0 * fs * math.tan(math.pi * f_hz / fs)


def _butter_bandpass_mag(f_hz, f_low, f_high, order, fs):
    w = _prewarp(f_hz, fs)
    wl, wh = _prewarp(f_low, fs), _prewarp(f_high, fs)
    if w == 0.0:
        return 0.0
    x = (w * w - wl * wh) / (w * (wh - wl))
    return 1.0 / math.sqrt(1.0 + (x * x) ** order)


def test_criterion_4_filter_correctness():
    with criterion(4, "bandpass within 0.2 dB of the analytic response; DC and settling"):
        fs = 10.0
        filt = design_filter(Bandpass(), fs)
        for f in (0.1, 0.25, 0.79, 2.5, 4.0):
            _, h = sosfreqz(filt, worN=[f], fs=fs)
            measured = 20 * math.log10(abs(h[0]))
            oracle = 20 * math.log10(_butter_bandpass_mag(f, 0.25, 2.5, 3, fs))
            assert abs(measured - oracle) < 0.2, f
        assert abs(sosfreqz(filt, worN=[0.0], fs=fs)[1][0]) < 1e-6
        from actimetrics.preprocess import filter_values

        step = filter_values(np.ones(1200), filt)
        assert np.max(np.abs(step[600:])) < 1e-3


# --- criterion 5: applicability matrix --------------------------------------

_FIG_COLUMNS = {
    "UFXYZ": (DatasetKind.UFX, DatasetKind.UFY, DatasetKind.UFZ),
    "FXYZ": (DatasetKind.FX, DatasetKind.FY, DatasetKind.FZ),
    "UFM": (DatasetKind.UFM,),
    "UFNM": (DatasetKind.UFNM,),
    "FMpost": (DatasetKind.FMPOST,),
    "FMpre": (DatasetKind.FMPRE,),
}

_APPLICABLE_CELLS = {
    MetricId.PIM: {"FXYZ", "UFM", "UFNM", "FMpost", "FMpre"},
    MetricId.ZCM: {"FXYZ", "UFM", "UFNM", "FMpost", "FMpre"},
    MetricId.TAT: {"FXYZ", "UFM", "UFNM", "FMpost", "FMpre"},
    MetricId.MAD: {"UFXYZ", "FXYZ", "UFM", "UFNM", "FMpost", "FMpre"},
    MetricId.ENMO: {"UFM"},
    MetricId.HFEN: set(),
    MetricId.AI: {"UFXYZ", "FXYZ"},
}


def test_criterion_5_applicability_matrix(corpus):
    with criterion(5, "compute_activity accepts exactly the applicable metric/kind cells"):
        rec = synthesize(dataclasses.replace(corpus_specs()[0], duration_s=600.0))
        datasets = dict(preprocess_all(rec))
        noise = estimate_noise_variance(rec)
        for metric, applicable in _APPLICABLE_CELLS.items():
            for column, kinds in _FIG_COLUMNS.items():
                if metric is MetricId.AI:
                    requests = (
                        [AxisTriple.UFXYZ] if column == "UFXYZ"
                        else [AxisTriple.FXYZ] if column == "FXYZ"
                        else list(kinds)
                    )
                else:
                    requests = list(kinds)
                for kind in requests:
                    if column in applicable:
                        out = compute_activity(
                            VariantDescriptor(metric, kind), datasets, EPOCH_S, noise=noise
                        )
                        assert (out.values >= 0).all()
                    else:
                        with pytest.raises(InapplicableMetric):
                            compute_activity(
                                VariantDescriptor(metric, kind), datasets, EPOCH_S
                            )
        # HFEN runs on its own dataset and nothing else
        out = compute_activity(
            VariantDescriptor(MetricId.HFEN, DatasetKind.HFEN_SPECIAL),
            datasets, EPOCH_S,
        )
        assert (out.values >= 0).all()


# --- criterion 6: metric invariants ------------------------------------------


def test_criterion_6_metric_invariants(corpus, corpus_signals):
    with criterion(6, "MAD/ENMO/AI invariants and TAT monotonicity hold"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            x = rng.normal(size=64)
            c = float(rng.uniform(-50, 50))
            shifted, plain = mad_values([x + c, x])
            assert abs(shifted - plain) < 1e-12

        # noise-free rest: ENMO exactly zero
        rest = synthesize(SyntheticSpec(
            subject_id="rest", duration_s=3600.0, rest_s=3600.0, active_s=0.0,
            noise_sd_g=0.0, seed=5,
        ))
        rest_sets = dict(preprocess_all(rest))
        enmo_sig = compute_activity(
            VariantDescriptor(MetricId.ENMO, DatasetKind.UFM), rest_sets, EPOCH_S
        )
        assert (enmo_sig.values == 0.0).all()

        # constant recording, zero noise variance: AI exactly zero
        const = RawRecording("const", 10.0, np.zeros(36000), np.zeros(36000),
                             np.ones(36000))
        const_sets = dict(preprocess_all(const))
        ai_sig = compute_activity(
            VariantDescriptor(MetricId.AI, AxisTriple.UFXYZ), const_sets, EPOCH_S,
            noise=estimate_noise_variance(const),
        )
        assert (ai_sig.values == 0.0).all()

        # TAT totals monotone non-increasing over a 20-point threshold grid
        for rec in corpus:
            ufm = dict(preprocess_all(rec))[DatasetKind.UFM]
            mat = ufm.values[: (ufm.n_samples // 600) * 600].reshape(-1, 600)
            totals = [
                float(tat_values(mat, thr, 0.1).sum())
                for thr in np.linspace(1.0, 2.0, 20)
            ]
            assert all(a >= b for a, b in zip(totals, totals[1:])), rec.subject_id


# --- criterion 7: correlation engine ------------------------------------------


def test_criterion_7_correlation_engine(corpus_signals):
    with criterion(7, "matrix symmetry/diagonal, Pearson oracle and affine invariance, Parseval"):
        for domain in (Domain.TIME, Domain.FREQUENCY):
            labels = tuple(next(iter(corpus_signals.values())))
            summary = correlation_matrix(
                [subject_correlation(corpus_signals[s], labels, domain, PsdParams())
                 for s in sorted(corpus_signals)],
                domain, labels,
            )
            np.testing.assert_allclose(summary.mean, summary.mean.T, atol=1e-12)
            np.testing.assert_array_equal(np.diag(summary.mean), 1.0)
            np.testing.assert_array_equal(np.diag(summary.sd), 0.0)
            finite = summary.mean[np.isfinite(summary.mean)]
            assert (np.abs(finite) <= 1.0).all()

        rng = np.random.default_rng(31)
        x, y = rng.normal(size=(2, 500))
        pairs = {"x": x, "y": y, "ax": 2.5 * x + 3.0, "ay": -0.5 * y + 1.0}
        r = subject_correlation(
            {k: ActivitySignal(k, EPOCH_S, v) for k, v in pairs.items()}, tuple(pairs))
        base = pearson_oracle(x, y)
        assert abs(r[0, 1] - base) < 1e-12
        assert abs(r[2, 1] - base) < 1e-12
        assert abs(r[0, 3] + base) < 1e-12

        # Parseval on a real activity signal and on white noise
        any_subject = next(iter(corpus_signals.values()))
        for values in (any_subject["ENMO"].values, rng.normal(size=1440)):
            frequencies, power = psd(values, EPOCH_S)
            df = frequencies[1] - frequencies[0]
            total = float(power.sum() * df)
            assert total == pytest.approx(float(np.var(values)), rel=0.05)


# --- criterion 8: SD threshold near-optimality --------------------------------


def test_criterion_8_sd_threshold_near_optimality(corpus):
    with criterion(8, "adaptive SD threshold reaches >= 0.97 of the sweep maximum"):
        references = []  # each subject's (ENMO, HFEN) values, from a build of its own
        for rec in corpus:
            datasets = dict(preprocess_all(
                rec, kinds=(DatasetKind.UFM, DatasetKind.HFEN_SPECIAL)))
            n = int(EPOCH_S * rec.sample_rate_hz)
            references.append((
                enmo_values(epoch_matrix(datasets[DatasetKind.UFM].values, n)),
                hfen_values(epoch_matrix(datasets[DatasetKind.HFEN_SPECIAL].values, n)),
            ))
        for metric in (MetricId.ZCM, MetricId.TAT):
            curve = threshold_sweep([
                recording_sweep(metric, DatasetKind.UFM, rec, EPOCH_S, references=refs)
                for rec, refs in zip(corpus, references)
            ])
            best = float(np.nanmax(curve.r_vs_enmo))
            assert curve.sd_anchor_r_vs_enmo >= 0.97 * best, (metric, best)


# --- criterion 9: determinism --------------------------------------------------


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "two identical pipeline runs produce byte-identical outputs"):
        config = PipelineConfig(
            psd=dataclasses.replace(PipelineConfig().psd, segment_epochs=16),
            sweep=SweepConfig(metrics=("ZCM", "TAT"), kinds=("UFM",), max_steps=60),
            synthetic=SyntheticConfig(subjects=2, duration_s=7200.0),
        )
        recordings = [
            synthesize(SyntheticSpec(
                subject_id=f"d{i}", duration_s=7200.0, rest_s=1500.0, active_s=900.0,
                amp_jitter=0.4, noise_sd_g=0.02, seed=400 + i,
            ))
            for i in range(2)
        ]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        m1 = run_pipeline(config, recordings, out1)
        m2 = run_pipeline(config, recordings, out2)
        assert m1 == m2
        rels = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        assert rels == sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        for rel in rels:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


# --- extended criteria 10-11: real-data reproduction (optional) ---------------

_DATA_DIR = os.environ.get("ACTIMETRICS_DATA_DIR")

needs_data = pytest.mark.skipif(
    not _DATA_DIR,
    reason="set ACTIMETRICS_DATA_DIR to a directory of converted recordings",
)


def _real_recordings():
    from actimetrics.formats import read_recording

    paths = sorted(Path(_DATA_DIR).glob("*.actm")) + sorted(Path(_DATA_DIR).glob("*.csv"))
    return [read_recording(p) for p in paths]


def _mean_r(recordings, label_a, label_b):
    variants = {v.label: v for v in catalog()}
    rs = []
    for rec in recordings:
        datasets = dict(preprocess_all(rec))
        a = compute_activity(variants[label_a], datasets, EPOCH_S)
        b = compute_activity(variants[label_b], datasets, EPOCH_S)
        rs.append(pearson_oracle(a.values, b.values))
    return float(np.mean(rs))


@needs_data
def test_criterion_10_preprocessing_effect_reproduction():
    with criterion(10, "TAT and PIM UFM/UFNM correlations match the published block"):
        recordings = _real_recordings()
        assert abs(_mean_r(recordings, "TAT(UFM)", "TAT(UFNM)") - 0.98971) <= 0.03
        assert abs(_mean_r(recordings, "PIM(UFM)", "PIM(UFNM)") - 0.84771) <= 0.05


@needs_data
def test_criterion_11_metric_comparison_spot_cells():
    with criterion(11, "spot cells of the metric-comparison matrix match"):
        recordings = _real_recordings()
        assert abs(_mean_r(recordings, "PIM(UFM)", "ENMO") - 0.92) <= 0.05
        assert abs(_mean_r(recordings, "MAD(FMpost)", "PIM(FMpost)") - 1.00) <= 0.01
