from __future__ import annotations

import hashlib
import json
import os

import pytest
from helpers import to_bracketed

from splitread import dataset
from splitread.synth import make_demo_dataset
from splitread.trees import parse_conllu, parse_ptb

# sha256 of (triples.jsonl, judgments.jsonl) per make_demo_dataset call.
# The files are a pure function of the arguments, so these hold on every
# platform for one numpy release. numpy does not promise Generator streams
# across versions; test_golden_features in test_cli.py already depends on
# them in the same way.
GOLDEN = [
    (
        dict(n_triples=221, n_workers=7, seed=3),
        "81113d960a921f10831442a0321090ecb6d0ad935b19978a9499fdbc8d325f1f",
        "ac1772af8703d2b76df786969d91efdc03a74b463aac6c9b30f6bf210307f334",
    ),
    (
        dict(n_triples=221, n_workers=7, seed=3, bart_fraction=113 / 221),
        "460857371af49f6f0c3e45b900e744b549ef9e6bc87f9f9db5120283269a8f6d",
        "ac1772af8703d2b76df786969d91efdc03a74b463aac6c9b30f6bf210307f334",
    ),
    (
        dict(n_triples=24, n_workers=7, seed=3),
        "099adbe3e710c25526dc130750bc26528ee3d6154a3756b7d40b84ecbf45946a",
        "16034bda713a745627ba0c96fc5a0977dac91fb8e7b595516955b9484d5c3654",
    ),
    (
        dict(n_triples=4, n_workers=2),
        "e279f00b8a7603b5b27c9806915d32b6a267a89f3d3fba4759de8d2529c12cb3",
        "23d472659ab21d0eaa0c1d81b01e38dda82d5fcbc83fa7dab968ac869614ee65",
    ),
    (
        dict(n_triples=4, n_workers=2, seed=8, bart_fraction=0.0),
        "9d895805f5cff816349798130b40718590da17704658d72cd79a2b059a4c1f54",
        "8c7bf531ec29228726a47f92e377cd2c7cbfcea19f0eeea47f6c6b882506f254",
    ),
    (
        dict(n_triples=4, n_workers=2, seed=8, bart_fraction=1.0),
        "e6eefbce0ae3bdd425ee195f552c06341a03452af41f898ba5331ebefe1e51f8",
        "8c7bf531ec29228726a47f92e377cd2c7cbfcea19f0eeea47f6c6b882506f254",
    ),
    (
        dict(n_triples=12, n_workers=3, seed=99),
        "9b01db1047be74a04853443c990b79a91a69ecdd0d8a6a48b1114067c89fc0d9",
        "3ed6002794ec658be25e193000b32a9a1be061d1d5c04f9243734f614c683290",
    ),
    (
        dict(n_triples=2, n_workers=1, seed=4),
        "b60692f638e1de2dcee8bc626ddf6a3e53911eda832d52bd8be5e5b4d98106e9",
        "150283abaf92d43bfcc514e6bf723c629f2b50d7890a999841c4a9bf5fae2cd5",
    ),
]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestMakeDemoDataset:
    @pytest.mark.parametrize(
        "kwargs,triples_sha,judgments_sha",
        GOLDEN,
        ids=[",".join(f"{k}={v}" for k, v in g[0].items()) for g in GOLDEN],
    )
    def test_golden_bytes(self, tmp_path, kwargs, triples_sha, judgments_sha):
        triples, judgments = make_demo_dataset(tmp_path, **kwargs)
        assert (_sha256(triples), _sha256(judgments)) == (triples_sha, judgments_sha)

    def test_files_are_written_atomically(self, tmp_path):
        old = os.umask(0o022)
        try:
            triples, judgments = make_demo_dataset(tmp_path / "new", 4, 2, seed=8)
        finally:
            os.umask(old)
        for path in (triples, judgments):
            assert path.stat().st_mode & 0o777 == 0o644
        assert sorted(p.name for p in triples.parent.iterdir()) == [
            "judgments.jsonl",
            "triples.jsonl",
        ]

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        # A generation cut off while writing leaves the previous triples
        # file whole, not a truncated one, and no temp file beside it.
        triples, _ = make_demo_dataset(tmp_path, 4, 2, seed=8)
        before = triples.read_bytes()

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(dataset.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            make_demo_dataset(tmp_path, 6, 2, seed=9)
        assert triples.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_triples=24, n_workers=7, seed=3),
            dict(n_triples=12, n_workers=3, seed=99),
            dict(n_triples=2, n_workers=1, seed=4),
        ],
    )
    def test_records_agree_with_their_trees(self, tmp_path, kwargs):
        # Holds whatever numbers numpy's stream gives: each bracketed string
        # is the text of the trees it parses to, and the plain text and the
        # FORMs of the CoNLL-U text, one graph per tree, are those trees'
        # tokens.
        triples, _ = make_demo_dataset(tmp_path, **kwargs)
        lines = triples.read_text("utf-8").splitlines()
        assert len(lines) == kwargs["n_triples"]
        for line in lines:
            record = json.loads(line)
            for name, sentences in (("source", 1), ("a", 2), ("b", 3)):
                ptb = record[name]["ptb"]
                trees = [tree for s in ptb for tree in parse_ptb(s)]
                assert len(ptb) == len(trees) == sentences
                assert [to_bracketed(t) for t in trees] == ptb
                assert all(t.label == "S" for t in trees)
                tokens = [t.tokens() for t in trees]
                text = " . ".join(" ".join(toks) for toks in tokens) + " ."
                assert record[name]["text"] == text
                conllu = record["conllu"][name]
                assert len(parse_conllu(conllu)) == sentences
                forms = [
                    [line.split("\t")[1] for line in block.split("\n")]
                    for block in conllu.rstrip("\n").split("\n\n")
                ]
                assert forms == tokens
