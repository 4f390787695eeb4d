"""Truncated and byte-flipped FMAT and MREC files.

The loaders may only raise `DataFormatError`, and the CLI maps a rejected
file to exit 3 with an `error:` line after its configuration echo and no
traceback.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrec.cli import main
from alignrec.data import load_fmat
from alignrec.errors import DataFormatError
from alignrec.model import load_checkpoint


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A tiny dataset and the checkpoint of one training epoch on it."""
    root = tmp_path_factory.mktemp("fuzz")
    rc, _, _ = cli(["synth", "--out", str(root / "data"), "--users", "30",
                    "--items", "20", "--latent-dim", "4", "--interactions-per-user",
                    "5", "--visual-dim", "16", "--text-dim", "12", "--seed", "0"])
    assert rc == 0
    rc, _, _ = cli(["train", *data_flags(root), "--max-epochs", "1",
                    "--batch-size", "64", "--out", str(root / "run")])
    assert rc == 0
    return root


def data_flags(root, visual=None):
    data = root / "data"
    return ["--interactions", str(data / "interactions.tsv"),
            "--visual", str(visual or data / "visual.fmat"),
            "--text", str(data / "text.fmat")]


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@st.composite
def corrupted(draw, blob: bytes) -> bytes:
    """`blob` cut short, or with one to four bytes XOR-ed with a non-zero mask."""
    if draw(st.booleans()):
        return blob[:draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(blob) - 1))
        out[at] ^= draw(st.integers(1, 255))
    return bytes(out)


def rejected(loader, path) -> bool:
    """Whether `loader` rejects the file; any error but DataFormatError fails."""
    try:
        loader(path)
    except DataFormatError:
        return True
    return False


def assert_exit_for(rc, err, is_rejected):
    assert "Traceback" not in err
    if is_rejected:  # the configuration echo, then one error line
        assert rc == 3
        errors = [line for line in err.splitlines() if not line.startswith(" ")]
        assert errors[-1].startswith("error:") and len(errors) <= 2, err
        assert not any(line.startswith("dataset:") for line in errors), err
    else:  # still a well-formed file: the run goes ahead on altered values
        assert rc in (0, 3, 4), err


@settings(max_examples=300)
@given(data=st.data())
def test_load_fmat_raises_only_data_format_error(run, data):
    path = run / "bad.fmat"
    path.write_bytes(data.draw(corrupted((run / "data" / "visual.fmat").read_bytes())))
    rejected(load_fmat, path)


@settings(max_examples=300)
@given(data=st.data())
def test_load_checkpoint_raises_only_data_format_error(run, data):
    path = run / "bad.mrec"
    path.write_bytes(data.draw(corrupted((run / "run" / "checkpoint.mrec").read_bytes())))
    rejected(load_checkpoint, path)


@settings(max_examples=25)
@given(data=st.data())
def test_train_on_corrupted_fmat_exits_3(run, data):
    path = run / "train_bad.fmat"
    path.write_bytes(data.draw(corrupted((run / "data" / "visual.fmat").read_bytes())))
    is_rejected = rejected(load_fmat, path)
    rc, _, err = cli(["train", *data_flags(run, visual=path), "--max-epochs", "1",
                      "--batch-size", "64"])
    assert_exit_for(rc, err, is_rejected)


@settings(max_examples=25)
@given(data=st.data())
def test_evaluate_on_corrupted_checkpoint_exits_3(run, data):
    path = run / "run" / "eval_bad.mrec"  # beside its run's resolved_config.txt
    path.write_bytes(data.draw(corrupted((run / "run" / "checkpoint.mrec").read_bytes())))
    is_rejected = rejected(load_checkpoint, path)
    rc, _, err = cli(["evaluate", "--checkpoint", str(path)])
    assert_exit_for(rc, err, is_rejected)
