"""The benchmark's instrumentation (perfbench/instrument.py) still fits the
training loop it wraps, so a rename in the package fails here first. That
includes the test evaluation it times and checks: `load_state` starts its
window, and `train.evaluate(..., "test", ...)` ends it and is captured for
the benchmark's ranking oracle."""

from pathlib import Path

from alignrec import train
from alignrec.config import RunConfig
from alignrec.data import SynthSpec, synth_generate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_recorder_and_tracer_wrap_a_training_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from instrument import EpochRecorder, Patches, Tracer

    paths = synth_generate(SynthSpec(users=30, items=20, latent_dim=4,
                                     interactions_per_user=5, visual_dim=16,
                                     text_dim=12, seed=0), tmp_path / "data")
    cfg = RunConfig(interactions=paths["interactions"], visual=paths["visual"],
                    text=paths["text"], batch_size=64, max_epochs=2, patience=3)
    tracer = Tracer()
    recorder = EpochRecorder(tracer)
    patches = Patches()
    tracer.install(patches)  # fails if an attribute it patches is gone
    recorder.install(patches)
    originals = {}  # the first value saved per attribute, some are wrapped twice
    for owner, name, old in patches._saved:
        originals.setdefault((owner, name), old)
    try:
        train.run_training(cfg, stdout=recorder.sink)
    finally:
        patches.restore()

    epochs = recorder.complete_epochs()
    assert len(epochs) == 2
    assert recorder.test_capture is not None
    assert recorder.test_start < recorder.test_end
    # split_811 holds out test and validation items for the same users
    assert recorder.test_users == epochs[0]["users"] > 0
    assert tracer.counts.get("tensor.tape_nodes", 0) > 0
    assert tracer.nesting_errors == 0
    assert originals
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original, name
