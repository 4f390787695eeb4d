"""Data layer: parsing, k-core peeling, binary feature files, synth generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alignrec.data import (
    SynthSpec,
    atomic_open,
    kcore_filter,
    load_dataset,
    load_fmat,
    load_interactions,
    remap,
    save_fmat,
    save_mapping,
    synth_generate,
)
from alignrec.errors import DataFormatError, NumericalError
from alignrec.evaluation import evaluate, split_811
from alignrec.tensor import ParameterError


# ---------------------------------------------------------------------------
# interaction files and remapping
# ---------------------------------------------------------------------------

def test_load_interactions_basic(tmp_path):
    path = tmp_path / "inter.tsv"
    path.write_text("alice\t0\n# comment line\n\nbob\t1\nalice\t1\nalice\t0\n")
    raw = load_interactions(path)
    assert raw == [("alice", "0"), ("bob", "1"), ("alice", "1")]
    pairs, users, items = remap(raw)
    assert users == ["alice", "bob"]
    assert len(users) == 2 and sorted(set(pairs[:, 0])) == [0, 1]
    # A byte-order mark is not part of the first user's token.
    path.write_text("\ufeffu0\t0\nu0\t1\nu1\t0\n", encoding="utf-8")
    assert remap(load_interactions(path))[1] == ["u0", "u1"]


def test_load_interactions_malformed_line_names_lineno(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\t1\nnot-a-pair\nb\t2\n")
    with pytest.raises(DataFormatError, match=r":2:"):
        load_interactions(path)


@given(st.lists(st.tuples(st.text(alphabet="abcxyz", min_size=1, max_size=3),
                          st.text(alphabet="0123", min_size=1, max_size=2)),
                min_size=1, max_size=30))
def test_remap_round_trips_tokens(pair_list):
    raw = list(dict.fromkeys(pair_list))
    pairs, users, items = remap(raw)
    rebuilt = [(users[u], items[i]) for u, i in pairs]
    assert rebuilt == raw


def test_save_mapping(tmp_path):
    path = tmp_path / "map.tsv"
    save_mapping(path, ["x", "y"])
    assert path.read_text() == "x\t0\ny\t1\n"


def test_atomic_open_leaves_old_or_whole_new_content(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError), atomic_open(path) as fh:
        fh.write("new\n")
        raise RuntimeError
    assert path.read_text() == "old\n"
    with atomic_open(path) as fh:
        fh.write("new\n")
        fh.flush()
        assert path.read_text() == "old\n"  # until the rename
    assert path.read_text() == "new\n"
    with atomic_open(path, "wb") as fh:
        fh.write(b"\xff")
    assert path.read_bytes() == b"\xff"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_open_keep_partial_renames_after_an_error(tmp_path):
    path = tmp_path / "lines.jsonl"
    with pytest.raises(KeyboardInterrupt), atomic_open(path, keep_partial=True) as fh:
        fh.write("{}\n")
        raise KeyboardInterrupt
    assert path.read_text() == "{}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["lines.jsonl"]


def test_atomic_open_unusable_path_leaves_no_temp_file(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError), atomic_open(tmp_path / "taken") as fh:
        fh.write("x")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    with pytest.raises(OSError), atomic_open(tmp_path / "missing" / "x"):
        pass


# ---------------------------------------------------------------------------
# k-core
# ---------------------------------------------------------------------------

def test_kcore_fixpoint_on_already_filtered_input():
    pairs = [(f"u{u}", f"i{i}") for u in range(5) for i in range(5)]
    filtered = kcore_filter(pairs, 5)
    assert filtered == pairs
    assert kcore_filter(filtered, 5) == filtered


def test_kcore_star_graph_empties_out():
    with pytest.raises(DataFormatError, match="removed every"):
        kcore_filter([("hub", f"i{i}") for i in range(10)], 5)


def test_kcore_k_validation():
    with pytest.raises(ParameterError):
        kcore_filter([("a", "b")], 0)


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                min_size=1, max_size=60), st.integers(1, 4))
def test_kcore_output_degrees_at_least_k(edges, k):
    pairs = list(dict.fromkeys((f"u{u}", f"i{i}") for u, i in edges))
    try:
        filtered = kcore_filter(pairs, k)
    except DataFormatError:
        return
    from collections import Counter
    user_deg = Counter(u for u, _ in filtered)
    item_deg = Counter(i for _, i in filtered)
    assert all(d >= k for d in user_deg.values())
    assert all(d >= k for d in item_deg.values())
    assert kcore_filter(filtered, k) == filtered


# ---------------------------------------------------------------------------
# FMAT binary format
# ---------------------------------------------------------------------------

def test_fmat_round_trip_and_resave_bytes(tmp_path):
    values = np.array([[1.25, -3.5, 0.0], [7.0, 2.5, -0.125]])
    path = tmp_path / "m.fmat"
    save_fmat(path, values)
    loaded = load_fmat(path)
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded, values)  # exact: values representable in f32

    resaved = tmp_path / "m2.fmat"
    save_fmat(resaved, loaded)
    assert path.read_bytes() == resaved.read_bytes()


def test_fmat_f32_precision_is_the_contract(tmp_path):
    path = tmp_path / "m.fmat"
    value = np.array([[0.1]])
    save_fmat(path, value)
    assert load_fmat(path)[0, 0] == np.float64(np.float32(0.1))


def test_fmat_header_only_claiming_rows_errors(tmp_path):
    import struct
    path = tmp_path / "trunc.fmat"
    path.write_bytes(b"FMAT" + struct.pack("<III", 1, 10, 4))
    with pytest.raises(DataFormatError, match="176.*16|expected"):
        load_fmat(path)


def test_fmat_non_finite_value_names_first_row(tmp_path):
    values = np.zeros((5, 3))
    values[2, 0] = np.nan
    values[4, 2] = -np.inf
    path = tmp_path / "m.fmat"
    save_fmat(path, values)
    with pytest.raises(DataFormatError, match=r"m\.fmat: row 2 "):
        load_fmat(path)


def test_fmat_value_past_float32_range_names_row_and_writes_nothing(tmp_path):
    values = np.zeros((4, 3))
    values[2, 1] = 1e39  # finite in float64, inf in float32
    values[3, 0] = 1e300
    path = tmp_path / "m.fmat"
    with pytest.raises(NumericalError, match=r"m\.fmat: row 2 .*float32"):
        save_fmat(path, values)
    assert list(tmp_path.iterdir()) == []


def test_fmat_bad_magic_and_version(tmp_path):
    import struct
    path = tmp_path / "bad.fmat"
    path.write_bytes(b"XMAT" + struct.pack("<III", 1, 0, 0))
    with pytest.raises(DataFormatError, match="magic"):
        load_fmat(path)
    path.write_bytes(b"FMAT" + struct.pack("<III", 9, 0, 0))
    with pytest.raises(DataFormatError, match="version"):
        load_fmat(path)


def test_feature_rows_must_cover_item_tokens(tmp_path):
    inter = tmp_path / "i.tsv"
    inter.write_text("u0\t0\nu0\t7\nu1\t0\nu1\t7\n")
    save_fmat(tmp_path / "v.fmat", np.zeros((3, 4)))
    with pytest.raises(DataFormatError, match="row 7.*3 rows"):
        load_dataset(inter, {"visual": tmp_path / "v.fmat"})


def test_non_integer_item_tokens_rejected_for_features(tmp_path):
    inter = tmp_path / "i.tsv"
    inter.write_text("u0\titemA\n")
    save_fmat(tmp_path / "v.fmat", np.zeros((3, 4)))
    with pytest.raises(DataFormatError, match="itemA"):
        load_dataset(inter, {"visual": tmp_path / "v.fmat"})


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_synth_writes_four_files_and_density(tmp_path):
    spec = SynthSpec(users=20, items=15, latent_dim=4, interactions_per_user=3,
                     visual_dim=10, text_dim=8, seed=1)
    result = synth_generate(spec, tmp_path)
    for key in ("interactions", "visual", "text", "latents"):
        assert (tmp_path / result[key].split("/")[-1]).exists()
    assert result["density"] == (20 * 3) / (20 * 15)
    latents = load_fmat(result["latents"])
    assert latents.shape == (35, 4)


def test_synth_deterministic_bytes(tmp_path):
    spec = SynthSpec(users=10, items=8, latent_dim=3, interactions_per_user=2,
                     visual_dim=6, text_dim=5, seed=7)
    a = synth_generate(spec, tmp_path / "a")
    b = synth_generate(spec, tmp_path / "b")
    for key in ("interactions", "visual", "text", "latents"):
        with open(a[key], "rb") as fa, open(b[key], "rb") as fb:
            assert fa.read() == fb.read()


@pytest.mark.parametrize("spec, digest", [
    (SynthSpec(), "d296b9290aeac89db86582ae1a2106720cb4c400eeeb4b51d6c35f08d5cb1616"),
    (SynthSpec(users=3000, items=2000, seed=1),
     "885941cdb5cd7062901dc2e0cd88d709eb9a4a77977f5b0bfb05bfeab6919f2d"),
    (SynthSpec(users=40, items=30, latent_dim=2),
     "271f055a002431ecdff40acc35a07b8e39f9e731bd03f247bf6b6a3ea81c3e89"),
], ids=["default", "3000x2000-seed1", "40x30-latent2"])
def test_synth_files_keep_their_bytes(tmp_path, spec, digest):
    """The sha256 of the four files, recorded from the generator that ranked
    each user by a full `np.argsort(-affinity[u], kind="stable")`; the same
    at 1, 2 and 4 OpenBLAS threads."""
    synth_generate(spec, tmp_path)
    sha = hashlib.sha256()
    for name in ("interactions.tsv", "visual.fmat", "text.fmat", "latents.fmat"):
        sha.update((tmp_path / name).read_bytes())
    assert sha.hexdigest() == digest


def test_synth_noiseless_features_are_exact_latent_images(tmp_path):
    spec = SynthSpec(users=12, items=30, latent_dim=8, interactions_per_user=4,
                     visual_dim=16, text_dim=12, noise=0.0, seed=3)
    result = synth_generate(spec, tmp_path)
    latents = load_fmat(result["latents"])[spec.users:]
    visual = load_fmat(result["visual"])
    text = load_fmat(result["text"])

    # exact linear image: residual after projecting onto the latent column
    # space is zero (up to f32 storage)
    for feats in (visual, text):
        coeffs, *_ = np.linalg.lstsq(latents, feats, rcond=None)
        assert np.max(np.abs(latents @ coeffs - feats)) <= 1e-6

    # top canonical correlation across modalities is maximal
    qv, _ = np.linalg.qr(visual - visual.mean(axis=0))
    qt, _ = np.linalg.qr(text - text.mean(axis=0))
    top = np.linalg.svd(qv.T @ qt, compute_uv=False)[0]
    assert top >= 1.0 - 1e-6


def test_synth_validation():
    with pytest.raises(ParameterError):
        SynthSpec(interactions_per_user=10, items=10)
    with pytest.raises(ParameterError):
        SynthSpec(noise=-0.5)
    with pytest.raises(ParameterError):
        SynthSpec(noise=float("nan"))
    with pytest.raises(ParameterError):
        SynthSpec(noise=float("inf"))
    with pytest.raises(ParameterError):
        SynthSpec(seed=-1)
    with pytest.raises(ParameterError):
        SynthSpec(users=0)


def test_synth_is_learnable_by_latent_oracle(tmp_path):
    spec = SynthSpec(users=60, items=50, latent_dim=6, interactions_per_user=10,
                     visual_dim=24, text_dim=20, noise=0.1, seed=0)
    result = synth_generate(spec, tmp_path)
    ds = load_dataset(result["interactions"],
                      {m: result[m] for m in ("visual", "text")})
    assert list(ds.features) == ["visual", "text"]
    assert list(load_dataset(result["interactions"], {"text": result["text"]})
                .features) == ["text"]
    split = split_811(ds.pairs, ds.n_users, ds.n_items, seed=0)

    latents = load_fmat(result["latents"])
    user_latents = np.array([latents[int(tok[1:])] for tok in ds.user_tokens])
    item_latents = np.array([latents[spec.users + int(tok)]
                             for tok in ds.item_tokens])
    metrics = evaluate(user_latents, item_latents, split, "test", ks=(20,))
    assert metrics["recall@20"] > 0.5
