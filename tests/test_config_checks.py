"""One table of invalid settings, each rejected the same way three ways.

A config is checked when it is built, so a setting fails with one
``ConfigError`` text whether it comes from a config file's dict, from the
constructor of the section that owns it, or from ``dataclasses.replace``
on a valid config. No config that a run could record in its manifest holds
a setting the run would not use.
"""
import dataclasses

import pytest

from actimetrics import PipelineConfig, config_from_dict
from actimetrics.config import AiConfig, CatalogConfig, SweepConfig, SyntheticConfig
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
]

_SECTIONS = {"ai": AiConfig, "catalog": CatalogConfig, "sweep": SweepConfig,
             "synthetic": SyntheticConfig}


def _from_dict(section, name, value):
    value = list(value) if isinstance(value, tuple) else value
    data = {name: value} if section is None else {section: {name: value}}
    return config_from_dict(data)


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


@pytest.mark.parametrize("build", [_from_dict, _from_constructor, _from_replace])
@pytest.mark.parametrize(
    "section, name, value, text", _INVALID,
    ids=[f"{s or 'config'}.{n}={v!r}" for s, n, v, _ in _INVALID],
)
def test_invalid_setting_is_one_config_error(build, section, name, value, text):
    with pytest.raises(ConfigError) as info:
        build(section, name, value)
    assert str(info.value) == text


@pytest.mark.parametrize("section, name, value", [
    (None, "filter_phase", "zero-phase"),
    ("sweep", "kinds", ("FMpost",)),
    ("ai", "sigma_sq_override", 0.0),
    ("synthetic", "subjects", 1),
])
def test_valid_setting_builds_alike_three_ways(section, name, value):
    configs = [build(section, name, value)
               for build in (_from_dict, _from_constructor, _from_replace)]
    assert len({config.config_hash() for config in configs}) == 1
