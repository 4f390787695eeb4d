"""Config precedence and end-to-end CLI behavior on tiny datasets."""

import argparse
import contextlib
import io
import json
import os
import platform
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alignrec import dream, evaluation, model, train
from alignrec.cli import build_parser, main
from alignrec.config import RunConfig, parse_config_file, parse_value, resolve_config
from alignrec.data import SynthSpec, load_fmat, save_fmat, synth_generate
from alignrec.errors import ConfigError, NumericalError
from alignrec.model import HyperParams, Recommender, load_checkpoint, save_checkpoint
from alignrec.tensor import Tensor, UsageError

METRIC_KEYS = {"epoch", "split", "recall@10", "recall@20", "ndcg@10", "ndcg@20",
               "losses", "wall_ms"}


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    rc = main(["synth", "--out", str(root / "data"), "--users", "30", "--items",
               "20", "--latent-dim", "4", "--interactions-per-user", "5",
               "--visual-dim", "16", "--text-dim", "12", "--seed", "0"])
    assert rc == 0
    return root / "data"


def data_flags(demo):
    return ["--interactions", str(demo / "interactions.tsv"),
            "--visual", str(demo / "visual.fmat"),
            "--text", str(demo / "text.fmat")]


def train_lines(capsys, demo, extra):
    rc = main(["train", *data_flags(demo), "--batch-size", "64", *extra])
    captured = capsys.readouterr()
    assert rc == 0
    return [json.loads(line) for line in captured.out.strip().splitlines()], captured


# ---------------------------------------------------------------------------
# config machinery
# ---------------------------------------------------------------------------

def test_parse_value_types():
    assert parse_value("3") == 3
    assert parse_value("0.25") == 0.25
    assert parse_value("true") is True
    assert parse_value("[1.0, 1.5, 2.0]") == (1.0, 1.5, 2.0)
    assert parse_value("hello") == "hello"
    assert parse_value("[]") == ()


def test_config_file_parse_and_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 5\nbandwidths = [0.5, 1.0]  # comment\n")
    values = parse_config_file(path)
    assert values == {"seed": 5, "bandwidths": (0.5, 1.0)}
    path.write_text("no_such_option = 1\n")
    with pytest.raises(ConfigError, match="no_such_option"):
        parse_config_file(path)
    path.write_text("\ufeffseed = 5\n", encoding="utf-8")  # a byte-order mark
    assert parse_config_file(path) == {"seed": 5}


def test_precedence_flag_over_file_over_default(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 5\nbatch_size = 128\n")
    cfg = resolve_config(str(path), {"seed": 9})
    assert cfg.seed == 9            # flag wins
    assert cfg.batch_size == 128    # file beats default
    assert cfg.max_epochs == RunConfig().max_epochs  # untouched default


def test_resolved_config_lines_round_trip(tmp_path):
    cfg = RunConfig(seed=3, bandwidths=(0.5, 1.0), symmetric_infonce=True,
                    out="123")
    path = tmp_path / "resolved.cfg"
    path.write_text("\n".join(cfg.lines()) + "\n")
    again = resolve_config(str(path), {})
    assert again == cfg
    assert again.out == "123"


@pytest.mark.parametrize("out", ["r#x", "a # b", 'a"#b', "[x]", " padded "])
def test_resolved_config_round_trips_values_that_need_quotes(tmp_path, out):
    cfg = RunConfig(out=out)
    path = tmp_path / "resolved.cfg"
    path.write_text("\n".join(cfg.lines()) + "\n")
    assert resolve_config(str(path), {}).out == out


def test_quoted_config_value_keeps_its_hash(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text('out = "r#x"  # the run directory\nseed = 4 # comment\n')
    cfg = resolve_config(str(path), {})
    assert (cfg.out, cfg.seed) == ("r#x", 4)


def subcommand_actions(command: str) -> list[argparse.Action]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]._actions


def subcommand_flags(command: str) -> dict[str, list[str]]:
    """Each destination of `command`'s options with their spellings."""
    flags = {}
    for action in subcommand_actions(command):
        flags.setdefault(action.dest, []).extend(action.option_strings)
    return flags


def test_every_field_has_exactly_one_flag():
    """Spelled `--<field-name-with-dashes>`, but `--ks` for `eval_ks`.
    `train` takes every field but `checkpoint`, and the restore commands
    take only the restore fields."""
    restore = set(train.RESTORE_FIELDS)
    run_fields = {f.name for f in fields(RunConfig)}
    for cls, command, names, extra in [
            (RunConfig, "train", run_fields - {"checkpoint"}, {"config"}),
            (RunConfig, "evaluate", restore, set()),
            (RunConfig, "align-stats", restore - {"eval_ks"}, {"export"}),
            (SynthSpec, "synth", {f.name for f in fields(SynthSpec)}, {"out"})]:
        flags = subcommand_flags(command)
        assert set(flags) - {"help"} == names | extra, command
        for name in names:
            spelling = "--ks" if name == "eval_ks" else "--" + name.replace("_", "-")
            assert flags[name] == [spelling]
    assert restore == {"interactions", "visual", "text", "eval_ks", "checkpoint"}


def readme_commands() -> list[list[str]]:
    """Each `alignrec ...` line of README's fenced blocks as argv, its `\\`
    continuations joined, its `#` comment and its `...` tokens dropped."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    commands, fenced, joined = [], False, ""
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced:
            joined += line
            if joined.endswith("\\"):
                joined = joined[:-1]
                continue
            if joined.startswith("alignrec "):
                tokens = shlex.split(joined, comments=True)
                commands.append([t for t in tokens[1:] if t != "..."])
            joined = ""
    return commands


def test_readme_commands_parse():
    """A command the docs name, `ablate` once, must still be in the CLI."""
    commands = readme_commands()
    assert len(commands) >= 8
    assert ["train", "--variant", "no-ga"] in commands
    for argv in commands:
        build_parser().parse_args(argv)


def test_restore_help_names_the_run_as_the_default():
    """A restore's `--checkpoint` is required and its other fields default
    to the run's own values, not to the built-in defaults `train` prints."""
    for command in ("evaluate", "align-stats"):
        helps = {a.dest: a.help for a in subcommand_actions(command)
                 if a.dest in train.RESTORE_FIELDS}
        assert helps.pop("checkpoint") == "str | None, required"
        assert helps and all(h.endswith(", default: the run's own value")
                             for h in helps.values()), command
    train_helps = {a.dest: a.help for a in subcommand_actions("train")}
    assert train_helps["eval_ks"] == "tuple[int, ...], comma-separated, default [10, 20]"


def test_train_help_lists_the_variants_of_the_table(monkeypatch):
    def variant_help():
        return {a.dest: a.help for a in subcommand_actions("train")}["variant"]

    assert variant_help() == ("str, one of full, no-la, no-ga, text-only, "
                              "visual-only, default full")
    monkeypatch.setitem(model.VARIANTS, "extra", model.VARIANTS["full"])
    assert ", extra, default full" in variant_help()


def test_flags_and_config_file_resolve_alike(demo, tmp_path, capsys):
    """The refinement and InfoNCE settings set from flags write the same
    resolved_config.txt as when set from a file."""
    run = tmp_path / "run"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("attention_reduction = 2\ndilations = [4, 8, 16]\n"
                        "symmetric_infonce = true\n")
    resolved = []
    for extra in (["--config", str(cfg_file)],
                  ["--attention-reduction", "2", "--dilations", "4,8,16",
                   "--symmetric-infonce", "true"]):
        train_lines(capsys, demo, ["--max-epochs", "0", "--out", str(run), *extra])
        resolved.append((run / "resolved_config.txt").read_bytes())
    assert resolved[0] == resolved[1]
    for line in (b"attention_reduction = 2\n", b"dilations = [4, 8, 16]\n",
                 b"symmetric_infonce = true\n"):
        assert line in resolved[0]


def test_direct_construction_is_range_checked():
    with pytest.raises(ConfigError, match="batch_size"):
        RunConfig(batch_size=0)
    with pytest.raises(ConfigError, match="branch_channels"):
        RunConfig(branch_channels=0)
    with pytest.raises(ConfigError, match="bandwidths"):
        RunConfig(bandwidths=(-1.0,))


@pytest.mark.parametrize("cls", [HyperParams, RunConfig], ids=lambda c: c.__name__)
def test_config_instances_hold_only_their_fields(cls):
    # A value derived from the fields and stored on the frozen instance would
    # be a second copy of the settings, out of reach of `fields()`.
    assert set(vars(cls())) == {f.name for f in fields(cls)}


_SCALARS = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(0, 400).map(lambda e: str(10 ** e)),  # past the float range
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0.5", "-0.0", "true",
                     "false", "none", '"7"', "full", "no-mmd", ""]),
    st.text(st.characters(blacklist_categories=["Cs"]), max_size=8),
)
_VALUES = st.one_of(
    _SCALARS, st.lists(_SCALARS, max_size=4).map(lambda v: f"[{', '.join(v)}]"))
_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from([f.name for f in fields(RunConfig)]),
              _VALUES),
    st.builds("{} = {}".format, st.text(max_size=8), _VALUES),  # mostly unknown
    st.text(st.characters(blacklist_categories=["Cs"]), max_size=20),
    st.sampled_from(["", "# comment", "seed = 3  # trailing comment", "= 4"]),
)


@st.composite
def config_files(draw):
    text = "\n".join(draw(st.lists(_LINES, max_size=8))).encode("utf-8")
    if draw(st.booleans()):  # bytes that may not be UTF-8
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.binary(min_size=1, max_size=6)) + text[at:]
    return text


@given(config_files())
@settings(max_examples=300, deadline=None)
def test_config_fuzz_raises_only_config_error(content):
    """A config file either resolves to a `RunConfig` that reads back equal
    from its own `lines()`, or is rejected with `ConfigError`, which `train`
    reports as an `error:` line and exit 2 before any data is read."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(content)
        try:
            cfg = resolve_config(str(path), {})
        except ConfigError:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main(["train", "--config", str(path)])
            assert rc == 2
            assert err.getvalue().startswith("error:"), err.getvalue()
            return
        path.write_text("\n".join(cfg.lines()) + "\n", encoding="utf-8")
        assert resolve_config(str(path), {}) == cfg


# ---------------------------------------------------------------------------
# CLI behavior
# ---------------------------------------------------------------------------

def test_synth_writes_four_files_and_reports_density(demo, capsys):
    rc = main(["synth", "--out", str(demo.parent / "again"), "--users", "10",
               "--items", "8", "--interactions-per-user", "2",
               "--latent-dim", "3", "--visual-dim", "6", "--text-dim", "5"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["density"] == 20 / 80
    assert len([k for k in ("interactions", "visual", "text", "latents")
                if k in out]) == 4


def test_synth_past_float32_range_exits_4_and_writes_nothing(tmp_path, capsys):
    """`--noise 1e300` is finite in float64 but not in the float32 of an
    FMAT file; nothing is written, not even interactions.tsv."""
    out = tmp_path / "d"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["synth", "--out", str(out), "--noise", "1e300"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == "" and caught == []
    assert captured.err.count("error:") == 1
    assert "float32" in captured.err
    assert not out.exists()


def test_train_emits_schema_lines_and_checkpoint(demo, tmp_path, capsys):
    lines, _ = train_lines(capsys, demo,
                           ["--max-epochs", "3", "--out", str(tmp_path / "run")])
    assert len(lines) == 4  # three validation epochs plus one test line
    for record in lines:
        assert METRIC_KEYS <= set(record)
        assert set(record["losses"]) == {"bpr", "mmd", "infonce", "reg"}
    assert [r["split"] for r in lines] == ["validation"] * 3 + ["test"]
    assert (tmp_path / "run" / "checkpoint.mrec").exists()
    assert (tmp_path / "run" / "resolved_config.txt").exists()
    assert (tmp_path / "run" / "users.tsv").exists()


def test_train_outputs_are_whole_and_leave_no_temp_files(demo, tmp_path, capsys):
    run = tmp_path / "run"
    _, captured = train_lines(capsys, demo, ["--max-epochs", "2", "--out", str(run)])
    assert sorted(p.name for p in run.iterdir()) == [
        "checkpoint.mrec", "items.tsv", "metrics.jsonl", "resolved_config.txt",
        "users.tsv"]
    assert (run / "metrics.jsonl").read_text() == captured.out
    resolved = resolve_config(str(run / "resolved_config.txt"), {})
    assert (run / "resolved_config.txt").read_text() == "\n".join(resolved.lines()) + "\n"


def test_non_finite_term_names_epoch_step_and_term(demo, tmp_path, capsys, monkeypatch):
    """The MMD term turns infinite at the second step of the second epoch
    (two steps per epoch at batch 64). Until training ends metrics.jsonl is
    a temp file; then it holds the first epoch's line and nothing else."""
    import alignrec.model
    from alignrec.tensor import Tensor

    run, calls, original = tmp_path / "run", [], alignrec.model.mmd_squared

    def mmd_squared(first, second, cfg, expect=1.0):
        calls.append(1)
        if len(calls) < 4:
            return original(first, second, cfg, expect)
        assert not (run / "metrics.jsonl").exists()
        assert len(list(run.glob(".metrics.jsonl.*.tmp"))) == 1
        return Tensor(np.array(np.inf))

    monkeypatch.setattr(alignrec.model, "mmd_squared", mmd_squared)
    rc = main(["train", *data_flags(demo), "--batch-size", "64", "--max-epochs", "3",
               "--out", str(run)])
    captured = capsys.readouterr()
    assert rc == 4
    assert "error: non-finite loss at epoch 2, step 2 (mmd)" in captured.err
    lines = (run / "metrics.jsonl").read_text().splitlines()
    assert lines == captured.out.splitlines() and len(lines) == 1
    assert json.loads(lines[0])["epoch"] == 1
    assert sorted(p.name for p in run.iterdir()) == [
        "items.tsv", "metrics.jsonl", "resolved_config.txt", "users.tsv"]


def test_train_zero_epochs_single_line(demo, capsys):
    lines, _ = train_lines(capsys, demo, ["--max-epochs", "0"])
    assert len(lines) == 1
    assert lines[0]["split"] == "test" and lines[0]["epoch"] == 0


def test_config_echo_reflects_flag_override(demo, tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 5\n")
    rc = main(["train", *data_flags(demo), "--config", str(cfg_file),
               "--seed", "9", "--max-epochs", "0", "--batch-size", "64"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "  seed = 9" in captured.err


def test_train_streams_identical_under_seed(demo, tmp_path, capsys):
    def run(out_dir):
        lines, _ = train_lines(capsys, demo, ["--max-epochs", "3", "--seed", "3",
                                              "--out", str(out_dir)])
        return lines

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    for ra, rb in zip(a, b):
        ra.pop("wall_ms")
        rb.pop("wall_ms")
    assert a == b
    assert ((tmp_path / "a" / "checkpoint.mrec").read_bytes()
            == (tmp_path / "b" / "checkpoint.mrec").read_bytes())


# Recorded before ranking was vectorized (x86-64, numpy 2.4, OpenBLAS); a
# speed-up must leave every metric and loss where it was.
GOLDEN_SEED3_LINES = [
    '{"epoch": 1, "split": "validation", "ndcg@10": 0.3176265513315325, "ndcg@20": 0.4150627982408109, "recall@10": 0.6333333333333333, "recall@20": 1.0, "losses": {"bpr": 0.6279848023315924, "mmd": 0.01693179993303123, "infonce": 8.498002188290346, "reg": 166.63435083079747}}',
    '{"epoch": 2, "split": "validation", "ndcg@10": 0.35825855423256986, "ndcg@20": 0.42844793535820364, "recall@10": 0.7333333333333333, "recall@20": 1.0, "losses": {"bpr": 0.6288917507820551, "mmd": 0.018695546741122906, "infonce": 8.144682988861575, "reg": 165.7269865334166}}',
    '{"epoch": 3, "split": "validation", "ndcg@10": 0.3800841365991149, "ndcg@20": 0.43185563661073245, "recall@10": 0.8, "recall@20": 1.0, "losses": {"bpr": 0.6228372863743158, "mmd": 0.012001972372004333, "infonce": 8.700217081744979, "reg": 164.8421228885599}}',
    '{"epoch": 1, "split": "test", "ndcg@10": 0.3089863103622919, "ndcg@20": 0.3958944083998862, "recall@10": 0.6666666666666666, "recall@20": 1.0, "losses": {"bpr": 0.0, "mmd": 0.0, "infonce": 0.0, "reg": 0.0}}',
]


# Recorded with `ablate --variant`, the command `train --variant` replaced.
GOLDEN_SEED3_NO_GA_LINES = [
    '{"epoch": 1, "split": "validation", "variant": "no-ga", "ndcg@10": 0.3176265513315325, "ndcg@20": 0.4150627982408109, "recall@10": 0.6333333333333333, "recall@20": 1.0, "losses": {"bpr": 0.6279932830426809, "mmd": 0.0, "infonce": 0.0, "reg": 166.62516336288527}}',
    '{"epoch": 2, "split": "validation", "variant": "no-ga", "ndcg@10": 0.37375796956158047, "ndcg@20": 0.4253511543104722, "recall@10": 0.8, "recall@20": 1.0, "losses": {"bpr": 0.6289009594649597, "mmd": 0.0, "infonce": 0.0, "reg": 165.67194670657648}}',
    '{"epoch": 3, "split": "validation", "variant": "no-ga", "ndcg@10": 0.3800841365991149, "ndcg@20": 0.43185563661073245, "recall@10": 0.8, "recall@20": 1.0, "losses": {"bpr": 0.6227565532708509, "mmd": 0.0, "infonce": 0.0, "reg": 164.7359579463194}}',
    '{"epoch": 1, "split": "test", "variant": "no-ga", "ndcg@10": 0.3089863103622919, "ndcg@20": 0.3958944083998862, "recall@10": 0.6666666666666666, "recall@20": 1.0, "losses": {"bpr": 0.0, "mmd": 0.0, "infonce": 0.0, "reg": 0.0}}',
]
GOLDEN_SEED3_TEXT_ONLY_LINES = [
    '{"epoch": 1, "split": "validation", "variant": "text-only", "ndcg@10": 0.3747326256146779, "ndcg@20": 0.4442298428806565, "recall@10": 0.7333333333333333, "recall@20": 1.0, "losses": {"bpr": 0.6268656687353842, "mmd": 0.0, "infonce": 0.0, "reg": 119.2868880056298}}',
    '{"epoch": 2, "split": "validation", "variant": "text-only", "ndcg@10": 0.37515853106730834, "ndcg@20": 0.44483406359601274, "recall@10": 0.7333333333333333, "recall@20": 1.0, "losses": {"bpr": 0.6275147689078948, "mmd": 0.0, "infonce": 0.0, "reg": 119.03382062963615}}',
    '{"epoch": 3, "split": "validation", "variant": "text-only", "ndcg@10": 0.3945566803995787, "ndcg@20": 0.45584452644227275, "recall@10": 0.7666666666666667, "recall@20": 1.0, "losses": {"bpr": 0.6253886561912401, "mmd": 0.0, "infonce": 0.0, "reg": 118.78154399362609}}',
    '{"epoch": 1, "split": "test", "variant": "text-only", "ndcg@10": 0.27331424779855656, "ndcg@20": 0.3804376266512398, "recall@10": 0.6, "recall@20": 1.0, "losses": {"bpr": 0.0, "mmd": 0.0, "infonce": 0.0, "reg": 0.0}}',
]


@pytest.mark.parametrize("command, golden", [
    (["train"], GOLDEN_SEED3_LINES),
    (["train", "--variant", "full"], GOLDEN_SEED3_LINES),
    (["train", "--variant", "no-ga"], GOLDEN_SEED3_NO_GA_LINES),
    (["train", "--variant", "text-only"], GOLDEN_SEED3_TEXT_ONLY_LINES),
], ids=["train", "ablate-full", "ablate-no-ga", "ablate-text-only"])
def test_train_stream_matches_golden_record(demo, capsys, command, golden):
    rc = main([*command, *data_flags(demo), "--batch-size", "64",
               "--max-epochs", "3", "--seed", "3"])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rc == 0
    for record in lines:
        record.pop("wall_ms")
    assert [json.dumps(record) for record in lines] == golden


# ---------------------------------------------------------------------------
# allocator settings
# ---------------------------------------------------------------------------

def fresh_interpreter_env():
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


class FakeLibc:
    """Records `mallopt` calls and answers each with `accepts`."""

    def __init__(self, accepts):
        self.calls = []

        def mallopt(param, value):  # a function, so it takes `argtypes`
            self.calls.append((param, value))
            return accepts

        self.mallopt = mallopt


# Three of a planted-large step's array sizes: a DREAM map, an MMD kernel
# and a propagated embedding table.
ALLOC_CYCLES = """
import resource
import numpy as np
from alignrec.train import _keep_freed_memory
_keep_freed_memory()
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones((2000, 40, 12)), np.ones((1300, 1300)), np.ones((5000, 64))]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
def test_freed_step_arrays_are_reused_without_page_faults():
    """Set before any large allocation, as `run_training` does; trimming or
    mapping these sizes anew faults ~1.7k pages or more per cycle."""
    result = subprocess.run([sys.executable, "-c", ALLOC_CYCLES],
                            capture_output=True, text=True,
                            env=fresh_interpreter_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    faults = json.loads(result.stdout)
    assert faults[1] < 100 and faults[2] < 100, faults


def test_keep_freed_memory_without_mallopt_is_a_no_op():
    train._keep_freed_memory(libc=object())


@pytest.mark.parametrize("accepts, expected", [
    (1, [(-3, 64 << 20), (-1, 512 << 20), (-8, 1)]),
    (0, [(-3, 64 << 20), (-8, 1)]),
], ids=["accepted", "refused"])
def test_trim_threshold_is_raised_only_after_the_mmap_threshold(accepts, expected):
    libc = FakeLibc(accepts)
    train._keep_freed_memory(libc=libc)
    assert libc.calls == expected


def test_refused_mmap_threshold_keeps_the_golden_stream(demo, capsys, monkeypatch):
    libc = FakeLibc(0)
    keep = train._keep_freed_memory
    monkeypatch.setattr(train, "_keep_freed_memory", lambda: keep(libc=libc))
    test_train_stream_matches_golden_record(demo, capsys, ["train"],
                                            GOLDEN_SEED3_LINES)
    assert libc.calls == [(-3, 64 << 20), (-8, 1)]


def test_train_stream_does_not_depend_on_blas_threads(tmp_path, capsys):
    """The package runs OpenBLAS on one thread whatever the environment asks.
    Unpinned, this run's last MMD loss differs in its last bits between one
    thread and four."""
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--users", "600", "--items", "400"]) == 0
    capsys.readouterr()
    streams = []
    for threads in ("1", "4"):
        result = subprocess.run(
            [sys.executable, "-m", "alignrec", "train", *data_flags(data),
             "--max-epochs", "4"],
            capture_output=True, text=True, timeout=120,
            env={**fresh_interpreter_env(), "OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr
        records = [json.loads(line) for line in result.stdout.splitlines()]
        for record in records:
            del record["wall_ms"]
        streams.append(records)
    assert len(streams[0]) == 5
    assert streams[0] == streams[1]


def test_evaluate_reproduces_train_test_metrics(demo, tmp_path, capsys):
    lines, _ = train_lines(capsys, demo, ["--max-epochs", "2",
                                          "--out", str(tmp_path / "run")])
    test_line = lines[-1]
    rc = main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint.mrec")])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    for key in ("recall@10", "recall@20", "ndcg@10", "ndcg@20"):
        assert out[key] == test_line[key]


@pytest.mark.parametrize("variant", ["full", "no-la", "text-only"])
def test_evaluate_restores_the_run_from_its_checkpoint_alone(demo, tmp_path, capsys,
                                                             variant):
    """`evaluate` rebuilds the model from the run's own resolved_config.txt,
    variant included, and prints the run's test record bit for bit; after
    the data moves, the three path flags say where it went."""
    data, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(demo, data)
    rc = main(["train", "--variant", variant, *data_flags(data), "--batch-size", "64",
               "--max-epochs", "3", "--seed", "2", "--graph-layers", "1",
               "--ks", "5,10", "--out", str(run)])
    test_line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 0
    expected = {"split": "test", **{k: test_line[k] for k in
                                    ("ndcg@10", "ndcg@5", "recall@10", "recall@5")}}
    evaluate = ["evaluate", "--checkpoint", str(run / "checkpoint.mrec")]
    assert main(evaluate) == 0
    assert capsys.readouterr().out == json.dumps(expected) + "\n"

    moved = data.rename(tmp_path / "moved")
    assert main(evaluate) == 3
    assert "interactions.tsv" in capsys.readouterr().err
    assert main([*evaluate, *data_flags(moved)]) == 0
    captured = capsys.readouterr()
    assert captured.out == json.dumps(expected) + "\n"
    assert f"interactions = {moved / 'interactions.tsv'}\n" in captured.err
    assert f"checkpoint = {run / 'checkpoint.mrec'}\n" in captured.err


def test_evaluate_restores_a_run_config_in_the_old_line_order(demo, tmp_path, capsys):
    """Runs from before `variant` became a model setting list it last in
    resolved_config.txt; the file is read by key, so such a run restores."""
    run = tmp_path / "run"
    rc = main(["train", "--variant", "no-la", *data_flags(demo), "--batch-size", "64",
               "--max-epochs", "2", "--seed", "2", "--out", str(run)])
    test_line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 0
    resolved = run / "resolved_config.txt"
    lines = resolved.read_text().splitlines()
    assert lines[[f.name for f in fields(RunConfig)].index("variant")] == "variant = no-la"
    lines.remove("variant = no-la")
    resolved.write_text("\n".join([*lines, "variant = no-la"]) + "\n")
    assert main(["evaluate", "--checkpoint", str(run / "checkpoint.mrec")]) == 0
    expected = {"split": "test", **{k: test_line[k] for k in
                                    ("ndcg@10", "ndcg@20", "recall@10", "recall@20")}}
    assert capsys.readouterr().out == json.dumps(expected) + "\n"


@pytest.mark.parametrize("command", ["evaluate", "align-stats"])
@pytest.mark.parametrize("flags", [["--seed", "5"], ["--graph-layers", "3"],
                                   ["--lambda-mmd", "0.5"], ["--config", "run.cfg"]],
                         ids=["seed", "graph-layers", "lambda-mmd", "config"])
def test_restore_commands_take_no_run_setting(capsys, command, flags):
    """A setting that fixes the split or the model is the run's own, so a
    restore command has no flag to change it."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--checkpoint", "run/checkpoint.mrec", *flags])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in err
    assert "Traceback" not in err


def test_restore_without_run_config_exits_3(demo, tmp_path, capsys):
    train_lines(capsys, demo, ["--max-epochs", "1", "--out", str(tmp_path / "run")])
    lone = tmp_path / "lone" / "checkpoint.mrec"
    lone.parent.mkdir()
    shutil.copy(tmp_path / "run" / "checkpoint.mrec", lone)
    for command in ("evaluate", "align-stats"):
        assert main([command, "--checkpoint", str(lone)]) == 3
        assert capsys.readouterr().err == \
            f"error: no run configuration at {lone.parent / 'resolved_config.txt'}\n"
    assert main(["evaluate", "--checkpoint", str(tmp_path / "run" / "none.mrec")]) == 3
    assert "none.mrec" in capsys.readouterr().err


@pytest.mark.parametrize("damage", [lambda text: text + "bogus = 1\n",
                                    lambda text: text.replace("\nseed = 0\n",
                                                              "\nseed = abc\n")],
                         ids=["unknown-key", "bad-value"])
def test_damaged_run_config_exits_3(demo, tmp_path, capsys, damage):
    """A fault in the run's own resolved_config.txt is a data fault, named
    by that file; a bad restore flag stays a usage fault."""
    run = tmp_path / "run"
    train_lines(capsys, demo, ["--max-epochs", "1", "--out", str(run)])
    evaluate = ["evaluate", "--checkpoint", str(run / "checkpoint.mrec")]
    assert main([*evaluate, "--ks", "0"]) == 2
    assert "eval_ks" in capsys.readouterr().err
    config = run / "resolved_config.txt"
    text = config.read_text()
    config.write_text(damage(text))
    assert config.read_text() != text
    for command in (evaluate, ["align-stats", *evaluate[1:]]):
        assert main(command) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: damaged run configuration {config}: ")
        assert err.count("\n") == 1


def test_restore_model_sets_only_the_restore_fields(demo, tmp_path, capsys):
    train_lines(capsys, demo, ["--max-epochs", "1", "--out", str(tmp_path / "run")])
    checkpoint = tmp_path / "run" / "checkpoint.mrec"
    with pytest.raises(UsageError, match="a restore sets only interactions, "
                                         "visual, text, eval_ks, checkpoint"):
        train.restore_model(checkpoint, {"seed": 5})
    _, _, cfg = train.restore_model(checkpoint, {"eval_ks": (3,)})
    capsys.readouterr()
    assert (cfg.eval_ks, cfg.checkpoint, cfg.batch_size) == ((3,), str(checkpoint), 64)


def test_dataset_without_held_out_pairs_exits_3_before_training(tmp_path):
    """Two interactions per user leave no validation or test pair. In a
    fresh interpreter: one `error:` line before epoch 1, no checkpoint and
    no metrics file, where the run used to train an epoch and exit 2."""
    data, run = tmp_path / "data", tmp_path / "run"
    synth_generate(SynthSpec(users=20, items=30, interactions_per_user=2), data)
    result = subprocess.run(
        [sys.executable, "-m", "alignrec", "train", *data_flags(data),
         "--max-epochs", "2", "--out", str(run)],
        capture_output=True, text=True, env=fresh_interpreter_env(), timeout=120)
    assert result.returncode == 3
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: no user has the three interactions a held-out pair "
                      "needs, so nothing can be validated or tested"]
    assert result.stderr.splitlines()[-1] == errors[0]
    assert "(train 40, val 0, test 0)" in result.stderr
    assert list(run.iterdir()) == []


def demo_config(demo, **settings):
    return RunConfig(interactions=str(demo / "interactions.tsv"),
                     visual=str(demo / "visual.fmat"), text=str(demo / "text.fmat"),
                     batch_size=64, **settings)


def test_each_parameter_state_is_forwarded_and_ranked_once(demo, monkeypatch):
    """In a 3-epoch run of S steps, each epoch's first step reuses the
    previous validation forward and the test split reads the best epoch's
    ranking: 3S + 1 forwards (3S + 4 before) and 3 rankings (4 before)."""
    calls = dict.fromkeys(("total_loss", "representations", "top_k"), 0)

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(Recommender, "total_loss")
    count(Recommender, "representations")
    count(evaluation, "top_k")
    train.run_training(demo_config(demo, max_epochs=3), stdout=io.StringIO())
    steps = calls["total_loss"]
    assert steps == 3 * 2  # two batches of 64 per epoch
    assert calls["representations"] == steps + 1
    assert calls["top_k"] == 3


@pytest.mark.parametrize("settings, epochs, best", [
    (dict(base_lr=0.03, max_epochs=4), 4, 4),
    (dict(base_lr=0.03, max_epochs=8, patience=2), 6, 4),
    (dict(base_lr=0.1, max_epochs=8, patience=2, graph_layers=0), 5, 3),
], ids=["best-last", "early-stop", "graph-layers-0"])
def test_test_record_equals_a_fresh_forward_of_the_checkpoint(
        demo, tmp_path, monkeypatch, settings, epochs, best):
    """The test split is scored from the best epoch's validation ranking,
    over copies of its arrays: equal, bit for bit, to ranking a fresh
    forward of the saved checkpoint. At 0 graph layers the user
    representation is `user_emb` itself, which Adam updates in place after
    the best epoch."""
    tested = []
    original = train.evaluate

    def evaluate(user_repr, item_repr, split, which, ks, ranking=None):
        if which == "test":
            tested.append((user_repr.tobytes(), item_repr.tobytes()))
        return original(user_repr, item_repr, split, which, ks, ranking=ranking)

    monkeypatch.setattr(train, "evaluate", evaluate)
    cfg = demo_config(demo, eval_ks=(2, 5), out=str(tmp_path / "run"), **settings)
    stream = io.StringIO()
    summary = train.run_training(cfg, stdout=stream)
    lines = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert len(lines) == epochs + 1
    assert summary["best_epoch"] == lines[-1]["epoch"] == best

    model, split, _ = train.restore_model(summary["checkpoint"])
    user_repr, item_repr, _ = model.representations()
    assert tested == [(user_repr.data.tobytes(), item_repr.data.tobytes())]
    fresh = evaluation.evaluate(user_repr.data, item_repr.data, split, "test", cfg.eval_ks)
    assert summary["test_metrics"] == fresh
    assert {key: lines[-1][key] for key in fresh} == fresh


def test_check_finite_names_the_first_non_finite_array_in_order():
    """Encodings come before the item representation they feed; an absent
    modality's encoding is skipped."""
    finite = Tensor(np.ones((2, 2)))
    bad = Tensor(np.array([[1.0, np.inf], [np.nan, 1.0]]))
    train.check_finite((finite, finite, {"text": finite}), 1)
    arrays = [finite] * 4  # user, item, visual, text
    for index, name in ((1, "item representation"), (0, "user representation"),
                        (3, "text encoding"), (2, "visual encoding")):
        arrays[index] = bad
        with pytest.raises(NumericalError, match=f"non-finite {name} at epoch 7"):
            train.check_finite((*arrays[:2], dict(zip(model.MODALITIES, arrays[2:]))), 7)


@pytest.mark.parametrize("cut", [None, 4, 6],
                         ids=["bad-magic", "header-cut-at-4", "header-cut-at-6"])
def test_evaluate_corrupted_checkpoint_exits_3(demo, tmp_path, capsys, cut):
    train_lines(capsys, demo, ["--max-epochs", "1", "--out", str(tmp_path / "run")])
    ckpt = tmp_path / "run" / "checkpoint.mrec"
    blob = ckpt.read_bytes()
    ckpt.write_bytes(b"ZZZZ" + blob[4:] if cut is None else blob[:cut])
    rc = main(["evaluate", "--checkpoint", str(ckpt)])
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert rc == 3


def test_evaluate_undecodable_parameter_name_exits_3(demo, tmp_path, capsys):
    train_lines(capsys, demo, ["--max-epochs", "1", "--out", str(tmp_path / "run")])
    ckpt = tmp_path / "run" / "checkpoint.mrec"
    blob = bytearray(ckpt.read_bytes())
    blob[10] = 0xFF  # first byte of the first name: magic, version, u16 length
    ckpt.write_bytes(bytes(blob))
    rc = main(["evaluate", "--checkpoint", str(ckpt)])
    assert "not UTF-8" in capsys.readouterr().err
    assert rc == 3


@pytest.mark.parametrize("flags, config_text", [
    (["--bandwidths", "1,x"], None),
    (["--batch-size", "0"], None),
    (["--batch-size", "-3"], None),
    ([], "batch_size = foo\n"),
    ([], "attention_reduction = 0\n"),
    (["--base-lr", "-1"], None),
    (["--base-lr", "nan"], None),
    (["--kcore", "-1"], None),
    (["--ks", "0"], None),
    (["--ks", "20,20"], None),
    ([], "eval_ks = []\n"),
    (["--bandwidths", "0"], None),
    (["--temperature", "-1"], None),
    (["--temperature", "1e-300"], None),
    (["--temperature", "0.0028"], None),
    (["--bandwidths", "0"], "variant = no-ga\n"),
    (["--temperature", "-1"], "variant = no-ga\n"),
    ([], "branch_channels = 0\n"),
    ([], "branch_channels = 3\n"),
    ([], "dilations = [0]\n"),
    ([], "dilations = [6, 6]\n"),
    ([], "dilations = [6, 12]\n"),
    ([], "variant = bogus\n"),
    (["--branch-channels", "0"], None),
    (["--seed", "-1"], None),
    ([], "base_lr = 1" + "0" * 400 + "\n"),
    ([], "lambda_cl = nan\n"),
    (["--lambda-mmd", "inf"], None),
    ([], "temperature = inf\n"),
    (["--id-dim", "100000000000000000000"], None),
    ([], "branch_channels = 100000000000000000000\n"),
    (["--reduction", "100000000000000000000"], None),
    (["--graph-layers", "100000000000000000000"], None),
    (["--bandwidths", "inf"], None),
    (["--seed", "none"], None),
    (["--seed", "abc"], None),
    (["--symmetric-infonce", "maybe"], None),
], ids=["bandwidth-not-a-number", "batch-size-zero", "batch-size-negative",
        "batch-size-text-in-file", "attention-reduction-zero-in-file",
        "base-lr-negative", "base-lr-nan", "kcore-negative", "ks-zero",
        "ks-repeated", "ks-empty-in-file", "bandwidth-zero", "temperature-negative",
        "temperature-1e-300", "temperature-below-floor",
        "no-ga-bandwidth-zero", "no-ga-temperature-negative",
        "branch-channels-zero-in-file", "branch-channels-indivisible-in-file",
        "dilation-zero-in-file", "dilations-repeated-in-file",
        "dilations-two-in-file",
        "variant-unknown-in-file", "branch-channels-zero", "seed-negative",
        "base-lr-int-past-float-range-in-file", "lambda-cl-nan-in-file",
        "lambda-mmd-inf", "temperature-inf-in-file", "id-dim-1e20",
        "branch-channels-1e20-in-file", "reduction-1e20", "graph-layers-1e20",
        "bandwidth-inf", "seed-none", "seed-text", "symmetric-infonce-maybe"])
def test_invalid_config_value_exits_2(demo, tmp_path, capsys, flags, config_text):
    if config_text is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config_text)
        flags = [*flags, "--config", str(path)]
    rc = main(["train", *data_flags(demo), "--max-epochs", "1", *flags])
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    assert "dataset:" not in err  # rejected before any data is loaded
    assert rc == 2


@pytest.mark.parametrize("variant, given, missing", [
    ("full", "--text", "--visual"), ("text-only", "--visual", "--text"),
    ("visual-only", "--text", "--visual")])
def test_missing_feature_path_exits_2_before_any_file_is_read(
        demo, tmp_path, capsys, variant, given, missing):
    """The interactions path does not exist, so reading it would exit 3."""
    features = {"--visual": "visual.fmat", "--text": "text.fmat"}
    rc = main(["train", "--variant", variant,
               "--interactions", str(tmp_path / "absent.tsv"),
               given, str(demo / features[given])])
    err = capsys.readouterr().err
    assert f"error: variant requires {missing} features" in err
    assert rc == 2


@pytest.mark.parametrize("command", [
    ["synth", "--seed", "-1"],
    ["synth", "--noise", "nan"],
    ["synth", "--noise", "inf"],
    ["gradcheck", "--seed", "-1"],
    ["gradcheck", "--h", "0"],
    ["gradcheck", "--tol", "nan"],
    ["gradcheck", "--tol", "-1"],
    ["synth", "--users", "100000000000000000000"],
    ["synth", "--visual-dim", "100000000000000000000"],
    ["synth", "--latent-dim", "100000000000000000000"],
], ids=["synth-seed-negative", "synth-noise-nan", "synth-noise-inf",
        "gradcheck-seed-negative",
        "gradcheck-h-zero", "gradcheck-tol-nan", "gradcheck-tol-negative",
        "synth-users-beyond-u32", "synth-visual-dim-beyond-u32",
        "synth-latent-dim-beyond-u32"])
def test_invalid_synth_or_gradcheck_value_exits_2(tmp_path, capsys, command):
    out = tmp_path / "data"
    if command[0] == "synth":
        command = [*command, "--out", str(out)]
    rc = main(command)
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no report and no synth summary
    assert not out.exists()
    assert rc == 2


@pytest.mark.parametrize("case", [
    "interactions-not-utf8", "config-not-utf8", "interactions-is-directory",
    "visual-is-directory", "config-is-directory", "interactions-empty",
    "out-under-file", "visual-non-finite"])
def test_bad_input_file_exits_with_its_code(demo, tmp_path, capsys, case):
    # config error or unusable output path, data error
    code = 2 if case.startswith(("config", "out")) else 3
    flags = data_flags(demo)
    bad = tmp_path / "bad"
    if case.endswith("not-utf8"):
        bad.write_bytes(b"u1\ti1\nu2\t\xff\xfe\n")
    elif case.endswith("empty"):
        bad.write_text("# no pairs\n")
    elif case.endswith("under-file"):
        bad.write_text("a file, not a directory\n")
    elif case.endswith("non-finite"):
        values = load_fmat(demo / "visual.fmat")
        values[3, 1] = np.inf
        save_fmat(bad, values)
    else:
        bad.mkdir()
    if case.startswith("config"):
        flags += ["--config", str(bad)]
    elif case.startswith("out"):
        flags += ["--out", str(bad / "run")]
    else:
        option = "--" + case.split("-")[0]
        flags[flags.index(option) + 1] = str(bad)
    rc = main(["train", *flags, "--max-epochs", "1"])
    err = capsys.readouterr().err
    assert "error:" in err and str(bad) in err
    assert "Traceback" not in err
    assert rc == code
    if code == 2:
        assert "dataset:" not in err  # rejected before any data is loaded
    if case == "interactions-not-utf8":
        assert f"{bad}:2:" in err  # names the line
    if case == "visual-non-finite":
        assert "row 3" in err


def test_user_with_every_item_exits_3_before_the_first_epoch(demo, tmp_path, capsys):
    """Token c holds both items of a 2-item catalog, so no negative item can
    be drawn for it."""
    dense = tmp_path / "dense.tsv"
    dense.write_text("a\t0\nb\t1\nc\t0\nc\t1\nd\t0\n")
    flags = data_flags(demo)
    flags[flags.index("--interactions") + 1] = str(dense)
    rc = main(["train", *flags, "--max-epochs", "1"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: user 'c' interacted with every item" in captured.err
    assert "Traceback" not in captured.err
    assert rc == 3


@pytest.mark.parametrize("message", [
    "Unable to allocate 800. GiB for an array with shape (327680, 327680) "
    "and data type float64", ""], ids=["numpy", "bare"])
def test_allocation_failure_exits_2_with_one_error_line(demo, capsys, monkeypatch,
                                                         message):
    """A configuration inside every cap can ask for more memory than there
    is: `--branch-channels 65536 --attention-reduction 1` asks numpy for a
    327680² weight. The allocation is faked, since a real one may wake the
    host's OOM killer instead of failing."""
    def allocate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(train.ModelParams, "create", allocate)
    rc = main(["train", *data_flags(demo), "--max-epochs", "1"])
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {message or 'out of memory'}"]
    assert "Traceback" not in err
    assert rc == 2


def test_missing_interactions_exits_usage(demo, capsys):
    rc = main(["train", "--visual", str(demo / "visual.fmat"),
               "--text", str(demo / "text.fmat")])
    capsys.readouterr()
    assert rc == 2


def test_ablate_rejects_unknown_variant(demo, capsys):
    rc = main(["train", "--variant", "bogus", *data_flags(demo)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: unknown variant 'bogus'; valid: full, no-la, no-ga, " \
        "text-only, visual-only\n" in err
    assert "dataset:" not in err
    with pytest.raises(SystemExit) as exc:  # the `ablate` subcommand is gone
        main(["ablate", "--variant", "no-ga"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_ablate_no_ga_zeroes_alignment_losses(demo, capsys):
    rc = main(["train", "--variant", "no-ga", *data_flags(demo),
               "--max-epochs", "2", "--batch-size", "64"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert all(r["variant"] == "no-ga" for r in lines)
    assert all(r["losses"]["mmd"] == 0.0 and r["losses"]["infonce"] == 0.0
               for r in lines)


def test_ablate_text_only_runs_without_visual_losses(demo, capsys):
    rc = main(["train", "--variant", "text-only", *data_flags(demo),
               "--max-epochs", "2", "--batch-size", "64"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert all(r["losses"]["mmd"] == 0.0 and r["losses"]["infonce"] == 0.0
               for r in lines)
    assert all(r["variant"] == "text-only" for r in lines)


@pytest.mark.parametrize("variant, projection", [
    ("full", 3 * (16 + 12)), ("text-only", 12 * 3), ("visual-only", 16 * 4)])
def test_params_line_counts_the_present_projections(demo, capsys, variant,
                                                     projection):
    """On the demo's 16-wide visual and 12-wide text features at reduction 4,
    a single-modality variant sizes d from its own features: 3 for text, 4
    for visual, and 3 = min(16, 12) // 4 for both."""
    rc = main(["train", "--variant", variant, *data_flags(demo),
               "--max-epochs", "0", "--reduction", "4"])
    err = capsys.readouterr().err
    assert rc == 0
    assert f", projection {projection} at reduction 4\n" in err


def test_gradcheck_passes_and_fault_injection_fails(capsys, monkeypatch):
    rc = main(["gradcheck"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["passed"]
    assert set(report["groups"]) == {"dream_forward", "mmd_squared", "infonce",
                                     "bpr_loss", "l2_penalty", "propagate",
                                     "total_loss"}

    # a backward helper that is 5% off fails the groups that use it: InfoNCE
    # and the joint objective, which holds an InfoNCE term
    from alignrec import align
    normalize_rows_grad = align._normalize_rows_grad
    monkeypatch.setattr(align, "_normalize_rows_grad",
                        lambda *args: normalize_rows_grad(*args) * 1.05)
    rc = main(["gradcheck"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 4 and not report["passed"]
    failed = {name for name, group in report["groups"].items()
              if not group["passed"]}
    assert failed == {"infonce", "total_loss"}


def test_gradcheck_non_finite_evaluation_exits_4(capsys):
    rc = main(["gradcheck", "--h", "1e300"])  # a perturbed loss overflows
    captured = capsys.readouterr()
    assert "error:" in captured.err and "non-finite" in captured.err
    assert captured.out == ""
    assert rc == 4


def test_gradcheck_overflow_prints_only_the_error_line():
    """In a fresh interpreter, so that a numpy RuntimeWarning would reach
    stderr instead of pytest's warning capture."""
    result = subprocess.run(
        [sys.executable, "-W", "default", "-m", "alignrec", "gradcheck", "--h", "1e300"],
        capture_output=True, text=True, env=fresh_interpreter_env(), timeout=120)
    assert result.returncode == 4
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert "non-finite" in lines[0]


@pytest.mark.parametrize("sigma", ["1e-300", "1e-160"])
def test_bandwidth_below_the_floor_exits_2_before_data_loads(demo, capsys, sigma):
    """2 sigma^2 underflowed to 0 at 1e-300 (a ZeroDivisionError traceback
    in MMD), and at 1e-160 the kernel coefficient overflowed (exit 4 after
    set-up)."""
    rc = main(["train", *data_flags(demo), "--max-epochs", "1", "--bandwidths", sigma])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (f"error: bandwidths must be finite and >= 5.274e-155, "
                            f"got ({float(sigma)!r},)\n")


def test_evaluate_stops_on_a_non_finite_restored_forward(demo, tmp_path, capsys):
    """The restored forward is checked as training checks its own: one
    `error:` line naming the first non-finite array, no metrics line and
    no numpy warning, instead of exit 0 with every metric 0.0."""
    run = tmp_path / "run"
    train_lines(capsys, demo, ["--max-epochs", "1", "--out", str(run)])
    checkpoint = run / "checkpoint.mrec"
    arrays = load_checkpoint(checkpoint)
    with np.errstate(over="ignore"):
        arrays["item_emb"] = arrays["item_emb"] * 1e300 * 1e300  # +-inf
    save_checkpoint(checkpoint, {name: Tensor(a) for name, a in arrays.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["evaluate", "--checkpoint", str(checkpoint)])
    captured = capsys.readouterr()
    assert rc == 4 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == ["error: non-finite user representation from the restored checkpoint"]
    assert captured.err.splitlines()[-1] == errors[0]


@pytest.fixture(scope="module")
def synth_40x30(tmp_path_factory):
    return synth_generate(SynthSpec(users=40, items=30, latent_dim=4,
                                    interactions_per_user=8, visual_dim=16, text_dim=12),
                          tmp_path_factory.mktemp("synth_40x30"))


def test_evaluate_stops_when_a_user_has_no_finite_score(synth_40x30, tmp_path, capsys):
    """Item embeddings x 1e200 leave the representations finite (~1e199),
    but every score overflows, and `evaluate` never ranks a non-finite
    score: this printed every metric 0.0 and exited 0."""
    paths = synth_40x30
    run = tmp_path / "run"
    assert main(["train", "--interactions", paths["interactions"], "--visual",
                 paths["visual"], "--text", paths["text"], "--max-epochs", "1",
                 "--out", str(run)]) == 0
    checkpoint = run / "checkpoint.mrec"
    arrays = load_checkpoint(checkpoint)
    arrays["item_emb"] = arrays["item_emb"] * 1e200
    save_checkpoint(checkpoint, {name: Tensor(a) for name, a in arrays.items()})
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["evaluate", "--checkpoint", str(checkpoint)])
    captured = capsys.readouterr()
    assert rc == 4 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == ["error: no finite score for user 0 from the restored checkpoint"]
    assert captured.err.splitlines()[-1] == errors[0]


@pytest.mark.parametrize("reduce_scale, fuse_scale, name", [
    (1e160, 1e-160, "mmd at bandwidth 1.0"),
    (np.nan, 1.0, "text encoding"),
], ids=["statistic", "forward"])
def test_align_stats_stops_on_a_non_finite_statistic(synth_40x30, tmp_path, capsys,
                                                     reduce_scale, fuse_scale, name):
    """`text_reduce` x 1e160 leaves the encodings (~1e160) and the item
    representations finite, but the statistics overflow: this printed NaN
    MMDs and a 0.0 cosine, warned five times and exited 0. The restored
    forward is checked as `evaluate` checks it."""
    paths = synth_40x30
    run = tmp_path / "run"
    assert main(["train", "--interactions", paths["interactions"], "--visual",
                 paths["visual"], "--text", paths["text"], "--max-epochs", "2",
                 "--out", str(run)]) == 0
    checkpoint = run / "checkpoint.mrec"
    arrays = load_checkpoint(checkpoint)
    arrays["text_reduce"] = arrays["text_reduce"] * reduce_scale
    arrays["text_fuse"] = arrays["text_fuse"] * fuse_scale
    save_checkpoint(checkpoint, {name: Tensor(a) for name, a in arrays.items()})
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["align-stats", "--checkpoint", str(checkpoint)])
    captured = capsys.readouterr()
    assert rc == 4 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: non-finite {name} from the restored checkpoint"]
    assert captured.err.splitlines()[-1] == errors[0]
    assert not (run / "item_repr.fmat").exists()


def test_collapse_names_only_the_loaded_widths(synth_40x30, capsys):
    """A text-only run reads no visual file, so the message names no visual
    width: it said `(visual 12, text 12)` of a 12-wide text file."""
    rc = main(["train", "--interactions", synth_40x30["interactions"],
               "--text", synth_40x30["text"], "--variant", "text-only",
               "--reduction", "100"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == \
        "error: reduction factor 100 collapses feature dims (text 12) below 1"


def test_validation_stops_when_a_user_has_no_finite_score(synth_40x30, tmp_path, capsys):
    """One Adam step at `--base-lr 1e120` leaves the no-la variant's
    representations finite and its every score past the float range. This
    exited 0 with every validation and test metric 0.0."""
    paths = synth_40x30
    rc = main(["train", "--interactions", paths["interactions"], "--visual",
               paths["visual"], "--text", paths["text"], "--variant", "no-la",
               "--base-lr", "1e120", "--max-epochs", "1", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 4 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == ["error: no finite score for user 0 at epoch 1"]
    assert not (tmp_path / "checkpoint.mrec").exists()


def test_train_stream_does_not_depend_on_the_lane(demo, tmp_path, capsys, monkeypatch):
    """With one CPU the modalities are refined in order on the calling
    thread, and with two the text modality is refined on the lane. The
    stream and the checkpoint are the same bytes."""
    monkeypatch.setattr(dream, "_LANE", None)
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        run = tmp_path / f"cpus{cpus}"
        train_lines(capsys, demo, ["--max-epochs", "3", "--seed", "3", "--out", str(run)])
        assert (dream._LANE is not None) == (cpus == 2)
        records = [json.loads(line) for line in
                   (run / "metrics.jsonl").read_text().splitlines()]
        for record in records:
            del record["wall_ms"]
        outputs.append((records, (run / "checkpoint.mrec").read_bytes()))
    dream._LANE.shutdown()
    assert outputs[0] == outputs[1]


def test_importing_the_package_starts_no_thread():
    """The lane starts on its first use, never at import."""
    result = subprocess.run(
        [sys.executable, "-c", "import threading, alignrec, alignrec.cli; "
                               "print([t.name for t in threading.enumerate()])"],
        capture_output=True, text=True, env=fresh_interpreter_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['MainThread']\n"


# Two modalities refined once in a process with a lane, then again in a
# forked child, which inherits the lane's executor but not its thread.
FORK_AFTER_LANE = """
import os
import signal
import numpy as np
os.sched_getaffinity = lambda pid: {0, 1}
from alignrec.dream import DreamParams, dream_forward
from alignrec.model import HyperParams
from alignrec.tensor import Tensor
rng = np.random.default_rng(0)
params = [DreamParams.create(HyperParams(), rng) for _ in range(2)]
rows = [Tensor(rng.standard_normal((4, 12))) for _ in range(2)]
expected = [out.data.copy() for out in dream_forward(rows, params)]
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a child waiting on a lane thread it lacks dies
    same = all(np.array_equal(out.data, e)
               for out, e in zip(dream_forward(rows, params), expected))
    os._exit(0 if same else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_a_lane_of_its_own():
    result = subprocess.run([sys.executable, "-c", FORK_AFTER_LANE],
                            capture_output=True, text=True,
                            env=fresh_interpreter_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


def test_adam_overflow_stops_train_with_one_error_line(demo):
    """A gradient whose square overflows in Adam used to warn, freeze the
    parameter and exit 0. In a fresh interpreter, as above."""
    result = subprocess.run(
        [sys.executable, "-W", "default", "-m", "alignrec", "train", *data_flags(demo),
         "--batch-size", "64", "--max-epochs", "3", "--lambda-mmd", "1e308"],
        capture_output=True, text=True, env=fresh_interpreter_env(), timeout=120)
    assert result.returncode == 4
    assert result.stdout == ""
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and result.stderr.splitlines()[-1] == errors[0]
    assert "non-finite Adam update of 'visual_reduce' at step 1" in errors[0]


def test_overflowing_forward_exits_4_without_a_checkpoint(tmp_path):
    """One step at `--base-lr 1e300` leaves every parameter near 1e300, and
    the validation forward overflows. In a fresh interpreter, as above: one
    `error:` line naming the first non-finite array, no numpy warning and
    no checkpoint, instead of exit 0 with recall 0.0."""
    data, run = tmp_path / "data", tmp_path / "run"
    synth = SynthSpec(users=40, items=40, interactions_per_user=8)
    paths = synth_generate(synth, data)
    result = subprocess.run(
        [sys.executable, "-W", "default", "-m", "alignrec", "train",
         "--interactions", str(paths["interactions"]), "--visual", str(paths["visual"]),
         "--text", str(paths["text"]), "--base-lr", "1e300", "--max-epochs", "1",
         "--out", str(run)],
        capture_output=True, text=True, env=fresh_interpreter_env(), timeout=120)
    assert result.returncode == 4
    assert result.stdout == ""
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: non-finite visual encoding at epoch 1"]
    assert result.stderr.splitlines()[-1] == errors[0]
    assert not (run / "checkpoint.mrec").exists()


def start_endless_train(demo, run, stderr=subprocess.PIPE):
    """`train` in a fresh interpreter, with epoch and patience budgets it
    does not reach, writing its outputs to `run`."""
    return subprocess.Popen(
        [sys.executable, "-m", "alignrec", "train", *data_flags(demo),
         "--batch-size", "64", "--max-epochs", "100000", "--patience", "100000",
         "--out", str(run)],
        stdout=subprocess.PIPE, stderr=stderr, text=True,
        env=fresh_interpreter_env())


def stopped_run(proc, err, printed, run):
    """The lines a stopped `train` wrote to metrics.jsonl, and a summary of
    the run for assertion messages."""
    path = run / "metrics.jsonl"
    written = path.read_text().splitlines() if path.exists() else []
    return written, (f"exit {proc.returncode}, {len(printed)} lines printed, "
                     f"{len(written)} written ({'present' if path.exists() else 'no file'}); "
                     f"stderr ends {err[-600:]!r}")


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                         ids=["sigterm", "sigint"])
def test_signal_stops_train_with_whole_outputs(demo, tmp_path, signum):
    """A signal after the first epoch line ends `train` with one error line
    and exit 128 + the signal number; metrics.jsonl holds every line that
    was printed (and at most the one being printed) and no temp file is
    left."""
    run = tmp_path / "run"
    proc = start_endless_train(demo, run)
    try:
        first = proc.stdout.readline()
        assert first.startswith('{"epoch": 1, '), proc.stderr.read()
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    printed = (first + out).split("\n")[:-1]  # whole lines only
    written, why = stopped_run(proc, err, printed, run)
    assert proc.returncode == 128 + signum, why
    assert "Traceback" not in err, why
    assert err.splitlines()[-1:] == [
        f"error: interrupted by {signal.Signals(signum).name}"], why
    assert written[:len(printed)] == printed, why
    assert len(written) - len(printed) <= 1, why
    assert all(json.loads(line)["split"] == "validation" for line in written), why
    assert not list(run.glob(".*.tmp")), why


@pytest.mark.parametrize("shared", [False, True], ids=["own-stderr", "shared-pipe"])
def test_closed_stdout_stops_train_with_exit_141(demo, tmp_path, shared):
    """A reader that closes stdout after the first epoch line ends `train`
    with one error line and exit 141 (128 + SIGPIPE), not the data-error
    code; metrics.jsonl holds whole lines, starting with the one read.
    With stderr on the same pipe (`2>&1 | head -1`) the error line goes
    nowhere, and the exit code is still 141."""
    run = tmp_path / "run"
    proc = start_endless_train(demo, run, subprocess.STDOUT if shared else subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        while shared and first and not first.startswith("{"):  # log lines
            first = proc.stdout.readline()
        assert first.startswith('{"epoch": 1, '), first + (proc.stderr or proc.stdout).read()
        proc.stdout.close()
        err = proc.communicate(timeout=120)[1] or ""
    finally:
        proc.kill()
        proc.wait()
    written, why = stopped_run(proc, err, [first], run)
    assert proc.returncode == 141, why
    if not shared:
        assert "Traceback" not in err, why
        # one error line, and nothing after it from the interpreter's exit flush
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: stdout was closed by its reader"] == err.splitlines()[-1:], why
    assert written[:1] == [first.rstrip("\n")], why
    assert all(json.loads(line)["split"] == "validation" for line in written), why
    assert not list(run.glob(".*.tmp")), why


def test_main_restores_signal_handlers(capsys):
    before = [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]
    assert main(["gradcheck", "--h", "0"]) == 2
    capsys.readouterr()
    assert [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)] == before


def test_align_stats_reports_and_exports(demo, tmp_path, capsys):
    train_lines(capsys, demo, ["--max-epochs", "2", "--out", str(tmp_path / "run")])
    export = tmp_path / "items.fmat"
    rc = main(["align-stats",
               "--checkpoint", str(tmp_path / "run" / "checkpoint.mrec"),
               "--export", str(export)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert set(out["mmd"]) == {"1.0", "1.5", "2.0"}
    assert out["mmd_mean"] >= -1e-12
    exported = load_fmat(export)
    assert exported.shape == (out["items"], 64)


def test_align_stats_exports_beside_the_checkpoint_by_default(demo, tmp_path, capsys):
    train_lines(capsys, demo, ["--max-epochs", "1", "--out", str(tmp_path / "run")])
    run = tmp_path / "run"
    rc = main(["align-stats", "--checkpoint", str(run / "checkpoint.mrec")])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["export"] == str(run / "item_repr.fmat")
    assert load_fmat(run / "item_repr.fmat").shape == (out["items"], 64)


def test_align_stats_identical_modalities_mmd_zero():
    from alignrec.diagnostics import align_stats
    from alignrec.model import MODALITIES, HyperParams, ModelParams, Recommender, \
        build_propagation_operator
    from alignrec.tensor import Tensor

    hp = HyperParams(reduction=2, id_dim=4, branch_channels=4, variant="no-la")
    rng = np.random.default_rng(0)
    params = ModelParams.create(3, 5, dict.fromkeys(MODALITIES, 8), hp, rng)
    params.branches["text"].reduce.data = params.branches["visual"].reduce.data.copy()
    pairs = np.array([[0, 0], [1, 1], [2, 2]], dtype=np.int64)
    operator = build_propagation_operator(pairs, 3, 5)
    features = Tensor(rng.standard_normal((5, 8)))
    model = Recommender(params, hp, {"visual": features,
                                     "text": Tensor(features.data.copy())}, operator)
    stats = align_stats(model)
    assert abs(stats["mmd_mean"]) <= 1e-12
    assert stats["mean_cosine"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# exit codes over every flag
# ---------------------------------------------------------------------------

# Extreme values, one of which a flag takes at a time.
EXTREMES = ("0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1", "-1",
            "1e300", "-1e300", "1e-300", "-1e-300", "1.7976931348623157e+308",
            "inf", "-inf", "nan", str(2 ** 31), str(2 ** 63), str(10 ** 20))
# The most a field may draw: the widths that size the model's arrays, the
# hops run per forward, the synth counts and the epochs run. A value above
# its cap is an `@example` that is refused before anything is allocated.
DRAW_CAPS = {**dict.fromkeys(("reduction", "id_dim", "branch_channels", "graph_layers",
                              "users", "items", "latent_dim", "interactions_per_user",
                              "visual_dim", "text_dim"), 1024),
             "max_epochs": 2}


@st.composite
def cli_inputs(draw):
    """A subcommand, one of its flags and a value for it from `EXTREMES`."""
    command = draw(st.sampled_from(("train", "evaluate", "align-stats", "synth",
                                    "gradcheck")))
    flag, dest = draw(st.sampled_from(
        [(a.option_strings[0], a.dest) for a in subcommand_actions(command)
         if a.option_strings and a.dest not in ("help", "config")]))
    cap = DRAW_CAPS.get(dest)
    values = [v for v in EXTREMES
              if cap is None or not v.lstrip("-").isdigit() or int(v) <= cap]
    return command, flag, draw(st.sampled_from(values))


@pytest.fixture(scope="module")
def exit_code_base(demo, tmp_path_factory):
    """Each subcommand's arguments on the demo data and a trained run, and
    a working directory for the relative paths a drawn value names."""
    root = tmp_path_factory.mktemp("exit_codes")
    assert main(["train", *data_flags(demo), "--max-epochs", "1",
                 "--out", str(root / "base")]) == 0
    checkpoint = str(root / "base" / "checkpoint.mrec")
    return root, {
        "train": ["train", *data_flags(demo), "--max-epochs", "1", "--batch-size", "64",
                  "--out", "run"],
        "evaluate": ["evaluate", "--checkpoint", checkpoint],
        "align-stats": ["align-stats", "--checkpoint", checkpoint],
        "synth": ["synth", "--out", "synth", "--users", "20", "--items", "15",
                  "--latent-dim", "4", "--interactions-per-user", "5",
                  "--visual-dim", "16", "--text-dim", "12"],
        "gradcheck": ["gradcheck"],
    }


@given(cli_inputs())
@settings(max_examples=60, deadline=None)
@example(("train", "--id-dim", str(2 ** 31)))
@example(("train", "--graph-layers", str(2 ** 63)))
@example(("train", "--branch-channels", str(10 ** 20)))
@example(("synth", "--users", str(2 ** 63)))
@example(("synth", "--visual-dim", str(10 ** 20)))
@example(("synth", "--noise", "1.7976931348623157e+308"))  # its features overflowed
def test_every_flag_value_exits_with_a_documented_code(exit_code_base, case):
    """One flag of one subcommand takes one extreme value, given after the
    subcommand's own arguments so that it overrides them: `cli.main` exits
    0, 2, 3 or 4, a failure prints exactly one `error:` line, and no
    exception or warning escapes."""
    root, base = exit_code_base
    command, flag, value = case
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main([*base[command], flag, value])
            except SystemExit as stop:  # argparse refuses a value's type
                code = stop.code
    finally:
        os.chdir(cwd)
    err = stderr.getvalue()
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err and "Warning" not in err
    if code:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
