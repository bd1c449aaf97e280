"""Whatever the argv, ``cli.main`` ends in a documented exit code.

Exit 0 to 4 (see ``actimetrics.cli``), each failure explained on stderr by
a ``config error:``, ``data error:`` or ``worker error:`` line, and never a
traceback. The argv lists mix flags, subcommands, recordings that do not
exist, a truncated ``.actm`` and bad ``--config`` files. No run gets more
than two short recordings or ``--jobs`` above 2, so none starts more than
two worker processes.
"""
import contextlib
import io
import itertools
import logging

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from actimetrics import SyntheticSpec, synthesize
from actimetrics.cli import main
from actimetrics.formats import write_recording_bin, write_recording_csv

_CONFIGS = {
    "good.json": '{"psd": {"segment_epochs": 8}, "sweep": {"max_steps": 20}}',
    "not_json.json": '{"psd": ',
    "unknown.json": '{"psd": {"segment": 8}}',
    "wrong_type.json": '{"epoch_s": "60"}',
    "bad_value.json": '{"psd": {"segment_epochs": 1}}',
    "empty_catalog.json": '{"catalog": {"include": ["NOPE*"]}}',
    "not_object.json": "[1]",
    "section_not_object.json": '{"ai": 60}',
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    for i, write in ((1, write_recording_bin), (2, write_recording_bin), (3, write_recording_csv)):
        rec = synthesize(SyntheticSpec(subject_id=f"s{i}", duration_s=600.0, rest_s=120.0,
                                       active_s=90.0, noise_sd_g=0.02, seed=i))
        write(rec, root / f"s{i}.{'csv' if i == 3 else 'actm'}")
    (root / "cut.actm").write_bytes((root / "s1.actm").read_bytes()[:1000])
    (root / "taken").write_text("a file where --out wants a directory\n")
    for name, text in _CONFIGS.items():
        (root / name).write_text(text)
    return root


_GOOD = ["s1.actm", "s2.actm", "s3.csv"]
_BAD = ["cut.actm", "missing.actm", "."]
# argv words that name a path under the corpus ("." is the corpus itself)
_PATHS = {*_CONFIGS, "missing.json", *_GOOD, *_BAD, "out.csv", "out.actm", "taken"}
_FAULTS = ["config", "no config", "seed", "out", "rate", "recording", "arguments", "command"]


@st.composite
def argvs(draw):
    """A good argv, or one with a single fault; its paths are names under the corpus."""
    fault = draw(st.sampled_from([None, *_FAULTS]))
    config = {"config": st.sampled_from([*_CONFIGS, "missing.json"]),
              "no config": st.none()}.get(fault, st.just("good.json"))
    argv = ["--jobs", draw(st.sampled_from(["1", "2"]))]
    if draw(config):
        argv += ["--config", draw(config)]
    if fault == "seed":
        argv += ["--seed", draw(st.sampled_from(["-1", "x"]))]
    if fault == "out":
        argv += ["--out", "taken"]
    command = draw(st.sampled_from(["correlate", "preprocess", "synth", "catalog", "convert"]))
    if fault == "command":
        command = draw(st.sampled_from(["bogus", "--help"]))
    argv.append(command)
    recordings = draw(st.lists(st.sampled_from(_GOOD), min_size=1, max_size=2))
    if fault == "recording":
        recordings[-1] = draw(st.sampled_from(_BAD))
    if command == "synth":
        argv += draw(st.sampled_from([[], ["--subjects", "1"], ["--format", "csv"]]))
    elif command in ("preprocess", "correlate"):
        argv += recordings
    elif command == "convert":  # never onto a recording other runs read
        argv += [recordings[0], draw(st.sampled_from(["out.csv", "out.actm", "."]))]
    if fault == "arguments":
        argv = argv[:-1] if command in ("preprocess", "correlate", "convert") else argv + ["x"]
    if fault == "rate":
        argv += ["--sample-rate-hz", draw(st.sampled_from(["0", "nan", "x"]))]
    return argv


_runs = itertools.count()


@settings(database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_ends_in_a_documented_exit_code(corpus, argv):
    argv = [str(corpus / word) if word in _PATHS else word for word in argv]
    if "--out" not in argv:
        argv = ["--out", str(corpus / f"run{next(_runs)}"), *argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(stderr)  # a failed subject's logged traceback
    logger = logging.getLogger("actimetrics")
    logger.addHandler(handler)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help, after printing the usage
                code = exc.code
    finally:
        logger.removeHandler(handler)
    err = stderr.getvalue()
    assert code in range(5), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        assert err.startswith(("config error: ", "data error: ", "worker error: ")), (argv, err)
