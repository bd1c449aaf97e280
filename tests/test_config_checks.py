"""One table of invalid settings, each rejected the same way three ways.

A config is checked when it is built, types first, so a setting fails with
one ``ConfigError`` text whether it comes from a config file's dict, from
the constructor of the section that owns it, or from ``dataclasses.replace``
on a valid config; ``actimetrics --config FILE`` prints that text after
``config error: ``. No config that a run could record in its manifest holds
a setting the run would not use. A property test draws whole documents and
holds the three ways to the same error text or the same config hash.
"""
import contextlib
import dataclasses
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from actimetrics import (
    Bandpass,
    Highpass,
    PipelineConfig,
    PsdParams,
    ThresholdPolicy,
    config_from_dict,
)
from actimetrics.cli import main
from actimetrics.config import (
    AiConfig, CatalogConfig, SweepConfig, SyntheticConfig, load_config)
from actimetrics.errors import ConfigError

_KINDS = "['FMpost', 'FMpre', 'FX', 'FY', 'FZ', 'HFEN_SPECIAL', 'UFM', 'UFNM', 'UFX', 'UFY', 'UFZ']"

# (section, or None for a top-level field; field; value; the ConfigError text)
_INVALID = [
    (None, "filter_phase", "zero_phase", "filter_phase must be causal or zero-phase"),
    ("sweep", "metrics", ("MAD",), "sweep.metrics: 'MAD' is not ZCM or TAT"),
    ("sweep", "kinds", ("BOGUS",), f"sweep.kinds: 'BOGUS' is not one of {_KINDS}"),
    ("sweep", "kinds", ("UFX",), "sweep: ZCM(UFX): no threshold can be placed relative "
                                 "to the unknown orientation-dependent gravity level of "
                                 "a raw axis"),
    (None, "pim_integrations", ("simpson",),
     "pim_integrations: 'simpson' is not a valid IntegrationMethod"),
    ("ai", "sigma_sq_override", -1.0, "ai.sigma_sq_override must be >= 0"),
    ("ai", "noise_window_s", 0.0, "ai.noise_window_s must be positive"),
    (None, "seed", -1, "seed must be >= 0"),
    ("synthetic", "subjects", 0, "synthetic.subjects must be >= 1"),
    ("catalog", "include", ("NOPE*",),
     "empty catalog: include/exclude filters left no variants"),
    # a wrong type names the field and the type it expects
    (None, "epoch_s", "60", "epoch_s: expected a finite number, got '60'"),
    (None, "seed", True, "seed: expected an int, got True"),
    (None, "pim_integrations", "riemann",
     "pim_integrations: expected a list of strings, got 'riemann'"),
    ("catalog", "include", "PIM*", "catalog.include: expected a list of strings, got 'PIM*'"),
    ("psd", "window", 3, "psd.window: expected a str, got 3"),
    (None, "ai", 60.0, "ai: expected an object"),
    # the domain sections check their own values, with the section's name
    ("psd", "segment_epochs", 1, "psd: segment_epochs must be >= 2"),
    ("psd", "overlap", 1.0, "psd: overlap must be in [0, 1)"),
    ("bandpass", "f_low_hz", 3.0, "bandpass: need 0 < f_low < f_high, got (3.0, 2.5)"),
    ("hfen_highpass", "order", 0, "hfen_highpass: order must be >= 1"),
    ("threshold", "mode", "fixed", "threshold: fixed threshold needs a finite fixed_g >= 0"),
]

_SECTIONS = {"ai": AiConfig, "catalog": CatalogConfig, "sweep": SweepConfig,
             "synthetic": SyntheticConfig, "bandpass": Bandpass, "hfen_highpass": Highpass,
             "threshold": ThresholdPolicy, "psd": PsdParams}


def _document(section, name, value):
    value = list(value) if isinstance(value, tuple) else value
    return {name: value} if section is None else {section: {name: value}}


def _from_dict(section, name, value):
    return config_from_dict(_document(section, name, value))


def _from_cli(section, name, value):
    """``actimetrics --config FILE catalog``; its one ``config error:`` line, raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(_document(section, name, value)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--config", str(path), "catalog"])
    if code == 1 and err.getvalue().startswith("config error: "):
        raise ConfigError(err.getvalue()[len("config error: "):-1])


def _from_constructor(section, name, value):
    if section is None:
        return PipelineConfig(**{name: value})
    # a section that checks itself raises here; the catalog is checked by
    # the PipelineConfig that holds it
    return PipelineConfig(**{section: _SECTIONS[section](**{name: value})})


def _from_replace(section, name, value):
    valid = PipelineConfig()
    if section is None:
        return dataclasses.replace(valid, **{name: value})
    part = dataclasses.replace(getattr(valid, section), **{name: value})
    return dataclasses.replace(valid, **{section: part})


@pytest.mark.parametrize("build", [_from_dict, _from_constructor, _from_replace, _from_cli])
@pytest.mark.parametrize(
    "section, name, value, text", _INVALID,
    ids=[f"{s or 'config'}.{n}={v!r}" for s, n, v, _ in _INVALID],
)
def test_invalid_setting_is_one_config_error(build, section, name, value, text):
    with pytest.raises(ConfigError) as info:
        build(section, name, value)
    assert str(info.value) == text


# an int past a float's range: its repr raises beyond 4,300 digits, so the
# error cannot show it, and a hash could not serialise it
@pytest.mark.parametrize("build", [_from_dict, _from_constructor, _from_replace])
@pytest.mark.parametrize("digits", [401, 5001])
@pytest.mark.parametrize("section, name, text", [
    (None, "seed", "seed: expected an int within ±1.798e+308"),
    ("bandpass", "order", "bandpass.order: expected an int within ±1.798e+308"),
    ("hfen_highpass", "order", "hfen_highpass.order: expected an int within ±1.798e+308"),
    ("ai", "noise_window_s", "ai.noise_window_s: expected a finite number within ±1.798e+308"),
])
def test_int_past_a_floats_range_is_one_config_error(build, digits, section, name, text):
    with pytest.raises(ConfigError) as info:
        build(section, name, 10 ** (digits - 1))
    assert str(info.value) == text


def test_config_file_with_an_int_too_large_to_parse_names_the_file(tmp_path):
    big = tmp_path / "big.json"
    big.write_text('{"seed": %s}' % ("1" * 5000))
    with pytest.raises(ConfigError, match=f"^{big}: "):
        load_config(big)


@pytest.mark.parametrize("section, name, value", [
    (None, "filter_phase", "zero-phase"),
    ("sweep", "kinds", ("FMpost",)),
    ("ai", "sigma_sq_override", 0.0),
    ("synthetic", "subjects", 1),
    ("psd", "window", "hamming"),
    ("bandpass", "order", 4),
])
def test_valid_setting_builds_alike_three_ways(section, name, value):
    configs = [build(section, name, value)
               for build in (_from_dict, _from_constructor, _from_replace)]
    assert len({config.config_hash() for config in configs}) == 1


@pytest.mark.parametrize("build", [_from_dict, _from_constructor, _from_replace])
@pytest.mark.parametrize("section, name, value", [
    (None, "epoch_s", 60),
    ("sweep", "step_g", 1),
    ("ai", "sigma_sq_override", 0),
    ("bandpass", "f_high_hz", 3),
])
def test_a_float_given_as_an_int_is_that_float(build, section, name, value):
    # one run, one config hash, however the number was written
    config = build(section, name, value)
    stored = getattr(config if section is None else getattr(config, section), name)
    assert type(stored) is float and stored == value
    assert config.config_hash() == build(section, name, float(value)).config_hash()


@pytest.mark.parametrize("section, order", [
    ("bandpass", 1000), ("bandpass", 10**300), ("hfen_highpass", 10**300),
], ids=["bandpass-1000", "bandpass-10**300", "hfen_highpass-10**300"])
def test_an_order_too_high_to_design_names_the_spec_rate_and_order(tmp_path, section, order):
    # a bandpass of order 1000 overflows a float inside SciPy's design, and
    # 10**300 overflows NumPy's array size; an int past a float's range
    # fails its type check instead
    spec = _SECTIONS[section](order=order)
    text = f"{section}: {spec} at 10.0 Hz: order {order} is too high to design"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {"order": order}}))
    for build in (lambda: load_config(path), lambda: PipelineConfig(**{section: spec})):
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value) == text


def test_a_long_psd_segment_is_checked_without_its_full_window():
    tracemalloc.start()
    try:
        PsdParams(segment_epochs=1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the window itself would be 8 MiB


def test_python_only_mistakes_name_what_python_takes():
    # a file's objects and lists become sections and tuples; Python passes its own
    with pytest.raises(ConfigError) as info:
        PipelineConfig(ai={"noise_window_s": 60.0})
    assert str(info.value) == "ai: expected an object"
    with pytest.raises(ConfigError) as info:
        CatalogConfig(include=["PIM*"])
    assert str(info.value) == "catalog.include: expected a tuple of strings, got ['PIM*']"


# --- whole documents: a file, the constructors and replace agree

_NON_OBJECTS = [None, 1, "x", [], ["x"]]
_WRONG = [None, True, "x", [1], {}, ["a", 1], 10**400, math.nan, math.inf]
_ALTERNATIVES = {  # right-typed values a field's default does not suggest
    "filter_phase": ["zero-phase", "zero_phase"], "mode": ["fixed", "other"],
    "window": ["hamming", "kaiser", "bogus"], "pim_integrations": [["simpson38"], ["simpson"]],
    "metrics": [["ZCM", "ZCM"], ["MAD"]], "kinds": [["FMpost"], ["UFX"], ["BOGUS"]],
    "include": [["PIM*"], ["NOPE*"]], "exclude": [["*[*"], ["*"]],
    "fixed_g": [0.1, -0.1], "sigma_sq_override": [0.0, -1.0],
}


def _candidates(name, default):
    """Values to draw for a field: right types, in and out of range, and wrong types."""
    if isinstance(default, bool):
        right = [default, not default]
    elif isinstance(default, int):
        right = [default, default + 1, 1, 0, -1]
    elif isinstance(default, float):
        right = [default, default / 2, 0.0, -1.0, int(default)]
    elif isinstance(default, tuple):
        right = [list(default), [], "x"]
    else:
        right = [default]
    return right + _ALTERNATIVES.get(name, []) + _WRONG


def _section_fields(cls):
    return {f.name: _candidates(f.name, getattr(cls(), f.name)) for f in dataclasses.fields(cls)}


_TOP = {f.name: _candidates(f.name, getattr(PipelineConfig(), f.name))
        for f in dataclasses.fields(PipelineConfig) if f.name not in _SECTIONS}
_SECTION_FIELDS = {name: _section_fields(cls) for name, cls in _SECTIONS.items()}


@st.composite
def documents(draw):
    doc = {}
    for name in draw(st.lists(st.sampled_from(sorted([*_TOP, *_SECTIONS])), max_size=5,
                              unique=True)):
        if name in _TOP:
            doc[name] = draw(st.sampled_from(_TOP[name]))
        elif draw(st.integers(0, 9)) == 7:  # hypothesis favours the ends of a range
            doc[name] = draw(st.sampled_from(_NON_OBJECTS))
        else:
            candidates = _SECTION_FIELDS[name]
            keys = draw(st.lists(st.sampled_from(sorted(candidates)), max_size=3, unique=True))
            doc[name] = {key: draw(st.sampled_from(candidates[key])) for key in keys}
            if draw(st.integers(0, 19)) == 7:
                doc[name]["bogus"] = 1
    if draw(st.integers(0, 19)) == 7:
        doc["bogus"] = 1
    return doc


def _python(value):
    return tuple(value) if isinstance(value, list) else value


def _by_constructors(doc):
    kwargs = {}
    for key, value in doc.items():
        if key in _SECTIONS and isinstance(value, dict):
            value = _SECTIONS[key](**{k: _python(v) for k, v in value.items()})
        kwargs[key] = _python(value)
    return PipelineConfig(**kwargs)


def _by_replace(doc):
    valid = PipelineConfig()
    kwargs = {}
    for key, value in doc.items():
        if key in _SECTIONS and isinstance(value, dict):
            value = dataclasses.replace(getattr(valid, key),
                                        **{k: _python(v) for k, v in value.items()})
        kwargs[key] = _python(value)
    return dataclasses.replace(valid, **kwargs)


def _outcome(build, doc) -> str:
    """The config hash, or the ConfigError text; any other exception escapes."""
    try:
        return f"hash {build(doc).config_hash()}"
    except ConfigError as exc:
        return "unknown keys" if "unknown keys" in str(exc) else f"error {exc}"
    except TypeError as exc:  # Python's own answer to an unknown keyword
        if "unexpected keyword argument" not in str(exc):
            raise
        return "unknown keys"


@settings(database=None, deadline=None, max_examples=300)
@given(documents())
def test_a_document_builds_alike_three_ways(doc):
    from_file = _outcome(config_from_dict, doc)
    if "bogus" in doc:
        # a file names a top-level unknown key before it builds any section,
        # while Python builds each section before it calls PipelineConfig
        assert from_file == "unknown keys"
        return
    assert _outcome(_by_constructors, doc) == from_file
    assert _outcome(_by_replace, doc) == from_file
