from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import types
import typing
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture_gen
from kbvqa import cli as cli_module
from kbvqa import kb as kb_module
from kbvqa import records
from kbvqa.backend import EndpointConfig, MockBackend
from kbvqa.cli import INDEX_DIGESTS, build_parser, main
from kbvqa.errors import EvalError, KbvqaError
from kbvqa.kb import SPLIT_TAGS, Query, export_queries, ingest_kb, ingest_queries, load_manifest
from kbvqa.metrics import (
    MatchVerdict, MetricReport, read_report_json, write_report_json, write_verdicts,
)
from kbvqa.mining import MiningRecord, read_records, write_records
from kbvqa.pipeline import PipelineRunner, PipelineTrace, read_traces, write_traces
from kbvqa.retrieval import (
    FlatIndex, RetrievalResult, read_results, search_batch, write_results,
)

from http_stub import LocalServer


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def ws(bundle, tmp_path_factory):
    """One full CLI workflow over the planted fixture, shared by the tests."""
    root = tmp_path_factory.mktemp("cli_ws")
    d = SimpleNamespace(**{n: root / n for n in (
        "ingest", "index", "retrieve", "run", "probe",
        "mine_prki", "mine_vtki", "export", "score", "report", "sweep",
    )})
    kb_flags = ["--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest)]
    q_flag = ["--queries", str(bundle.queries_path)]

    assert main(["ingest", *kb_flags, *q_flag, "--out-dir", str(d.ingest)]) == 0
    assert main(["index", *kb_flags, "--kb-embeddings", str(bundle.kb_embeddings),
                 "--out-dir", str(d.index)]) == 0
    assert main(["retrieve", *kb_flags, "--index", str(d.index / "index.npz"),
                 *q_flag, "--query-manifest", str(bundle.query_manifest),
                 "--query-embeddings", str(bundle.query_embeddings),
                 "--k", "10", "--out-dir", str(d.retrieve)]) == 0
    retrievals = ["--retrievals", str(d.retrieve / "retrieval_results.jsonl")]
    backend = ["--mock-script", str(bundle.mock_script)]
    assert main(["run", "--variant", "core", *kb_flags, *q_flag, *retrievals,
                 *backend, "--top-k", "5", "--workers", "2",
                 "--out-dir", str(d.run)]) == 0
    assert main(["probe-unimodal", *kb_flags, *q_flag, *retrievals, *backend,
                 "--top-k", "5", "--out-dir", str(d.probe)]) == 0
    traces = str(d.run / "traces.jsonl")
    assert main(["mine-prki", "--traces-int", traces, "--traces-ext", traces,
                 *q_flag, "--out-dir", str(d.mine_prki)]) == 0
    assert main(["mine-vtki", "--probe-traces", str(d.probe / "probe_traces.jsonl"),
                 *kb_flags, *q_flag, "--out-dir", str(d.mine_vtki)]) == 0
    assert main(["export-training", "--records",
                 str(d.mine_prki / "d_int.jsonl"), str(d.mine_prki / "d_ext.jsonl"),
                 "--objective", "prki", *kb_flags, *q_flag,
                 "--out-dir", str(d.export)]) == 0
    score_flags = ["--traces", traces, *q_flag, *retrievals, *kb_flags]
    assert main(["score", *score_flags, "--out-dir", str(d.score)]) == 0
    assert main(["score", *score_flags, "--compare-to", str(d.score / "report.json"),
                 "--out-dir", str(d.report)]) == 0
    assert main(["sweep", "--top-m", "5", "--variant", "core", *kb_flags, *q_flag,
                 *retrievals, *backend, "--out-dir", str(d.sweep)]) == 0
    return d


class TestWorkflowArtifacts:
    def test_ingest_summary(self, ws):
        summary = json.loads((ws.ingest / "ingest_summary.json").read_text())
        assert summary == {
            "entries": 100, "queries": 20,
            "splits": {"other": 6, "unseen_e": 7, "unseen_q": 7},
        }
        assert len(read_jsonl(ws.ingest / "entries_normalized.jsonl")) == 100
        assert len(read_jsonl(ws.ingest / "queries_normalized.jsonl")) == 20

    def test_index_artifact(self, ws, bundle):
        # Five strings and no matrix: the three digests, the embedding file's
        # path and its stat identity, "" when it was not settled.
        with np.load(ws.index / "index.npz", allow_pickle=False) as saved:
            assert sorted(saved.files) == sorted(
                [*INDEX_DIGESTS.values(), "kb_embeddings", "kb_embeddings_identity"])
            assert {(saved[name].shape, saved[name].dtype.kind) for name in saved.files} == {
                ((), "U")}
            assert saved["kb_embeddings"].item() == str(bundle.kb_embeddings.resolve())
            assert saved["kb_embeddings_identity"].item() in (
                "", records.stat_identity(bundle.kb_embeddings.stat()))
        assert (ws.index / "index.npz").stat().st_size < 4096

    def test_retrieval_results(self, ws):
        rows = read_jsonl(ws.retrieve / "retrieval_results.jsonl")
        assert len(rows) == 20
        assert all(len(r["hits"]) == 10 for r in rows)

    def test_run_traces(self, ws):
        rows = read_jsonl(ws.run / "traces.jsonl")
        assert len(rows) == 20
        assert sum(1 for r in rows if r["prki_flag"] is True) == 12
        assert not any(r["failed"] for r in rows)

    def test_probe_traces(self, ws):
        rows = read_jsonl(ws.probe / "probe_traces.jsonl")
        assert sum(1 for r in rows if r["vtki_flag"] is True) == 9

    def test_prki_mining_outputs(self, ws):
        assert len(read_jsonl(ws.mine_prki / "d_int.jsonl")) == 6
        assert len(read_jsonl(ws.mine_prki / "d_ext.jsonl")) == 6
        counters = json.loads((ws.mine_prki / "mining_summary.json").read_text())
        assert counters["differing"] == 12 and counters["equal_answers"] == 8

    def test_vtki_mining_outputs(self, ws):
        assert len(read_jsonl(ws.mine_vtki / "d_v.jsonl")) == 5
        assert len(read_jsonl(ws.mine_vtki / "d_t.jsonl")) == 3
        counters = json.loads((ws.mine_vtki / "mining_summary.json").read_text())
        assert counters["gold_absent"] == 3

    def test_training_export(self, ws):
        rows = read_jsonl(ws.export / "training_prki.jsonl")
        assert len(rows) == 12
        assert all(r["bucket"] in ("d_int", "d_ext") for r in rows)

    def test_score_report(self, ws):
        report = json.loads((ws.score / "report.json").read_text())
        assert report["recall"] == {"1": 0.2, "2": 0.4, "5": 0.85, "10": 0.95}
        assert report["accuracy_overall"] == 1.0
        strata = {k: v["count"] for k, v in report["accuracy_by_stratum"].items()}
        assert strata == {"1": 4, "2": 4, "3-5": 9, ">5": 3}
        assert len(read_jsonl(ws.score / "verdicts.jsonl")) == 20
        assert (ws.score / "report.csv").read_text().startswith(
            "metric,stratum,split,count,value_pct\n")
        assert not (ws.score / "deltas.csv").exists()

    def test_report_with_baseline(self, ws):
        """`score --compare-to` writes what `score` does, and deltas.csv."""
        for name in ("report.json", "verdicts.jsonl", "report.csv"):
            assert (ws.report / name).read_bytes() == (ws.score / name).read_bytes(), name
        deltas = (ws.report / "deltas.csv").read_text().splitlines()
        assert deltas[0] == "metric,run_a_pct,run_b_pct,delta_pct"
        assert all(line.endswith("+0.0") for line in deltas[1:])

    @pytest.mark.parametrize("ext", ["same", "same_file", "copy"])
    def test_mine_prki_reads_a_file_named_by_both_flags_once(self, ws, bundle, tmp_path,
                                                             monkeypatch, ext):
        traces = ws.run / "traces.jsonl"
        other = {"same": traces, "same_file": ws.run / ".." / "run" / "traces.jsonl",
                 "copy": tmp_path / "traces.jsonl"}[ext]
        if ext == "copy":
            other.write_bytes(traces.read_bytes())
        real_read_traces = cli_module.read_traces
        calls = []

        def read_traces(path, *args):
            calls.append(path)
            return real_read_traces(path, *args)

        monkeypatch.setattr(cli_module, "read_traces", read_traces)
        out = tmp_path / "out"
        assert main(["mine-prki", "--traces-int", str(traces), "--traces-ext", str(other),
                     "--queries", str(bundle.queries_path), "--out-dir", str(out)]) == 0
        assert len(calls) == (2 if ext == "copy" else 1)
        for name in ("d_int.jsonl", "d_ext.jsonl", "mining_summary.json"):
            assert (out / name).read_bytes() == (ws.mine_prki / name).read_bytes(), name

    def test_sweep_table(self, ws):
        assert (ws.sweep / "sweep.csv").read_text() == (
            "top_m,failed,accuracy_overall_pct,delta_vs_first_pct\n"
            "5,0,100.0,+0.0\n"
        )
        assert (ws.sweep / "traces_top5.jsonl").exists()
        assert (ws.sweep / "report_top5.json").exists()

    def test_run_config_records_resolution(self, ws):
        cfg = json.loads((ws.run / "run_config.json").read_text())
        assert cfg["command"] == "run"
        assert cfg["variant"] == "core"
        assert cfg["top_k"] == 5          # CLI value
        assert cfg["char_budget"] == 2000  # built-in default


class TestStdout:
    def test_retrieve_prints_recall(self, bundle, tmp_path, capsys):
        rc = main([
            "retrieve", "--kb", str(bundle.entries_path),
            "--kb-manifest", str(bundle.kb_manifest),
            "--kb-embeddings", str(bundle.kb_embeddings),
            "--queries", str(bundle.queries_path),
            "--query-manifest", str(bundle.query_manifest),
            "--query-embeddings", str(bundle.query_embeddings),
            "--k", "10", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Recall@1 0.200  Recall@2 0.400  Recall@5 0.850  Recall@10 0.950" in out

    def test_retrieve_over_no_queries_skips_recall(self, bundle, tmp_path, capsys):
        """An empty query file retrieves nothing and exits 0, as ingest and run do."""
        empty = tmp_path / "queries.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        rc = main([
            "retrieve", "--kb", str(bundle.entries_path),
            "--kb-manifest", str(bundle.kb_manifest),
            "--kb-embeddings", str(bundle.kb_embeddings),
            "--queries", str(empty),
            "--query-manifest", str(bundle.query_manifest),
            "--query-embeddings", str(bundle.query_embeddings),
            "--out-dir", str(out),
        ])
        assert rc == 0, capsys.readouterr().err
        assert "recall skipped (no queries)" in capsys.readouterr().out
        assert (out / "retrieval_results.jsonl").read_bytes() == b""
        assert json.loads((out / "run_config.json").read_text())["command"] == "retrieve"

    def test_run_prints_trace_summary(self, ws, bundle, tmp_path, capsys):
        rc = main([
            "run", "--variant", "core", "--kb", str(bundle.entries_path),
            "--kb-manifest", str(bundle.kb_manifest),
            "--queries", str(bundle.queries_path),
            "--retrievals", str(ws.retrieve / "retrieval_results.jsonl"),
            "--mock-script", str(bundle.mock_script),
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        assert "20 traces, 0 failed, prki_true=12" in capsys.readouterr().out


class TestConfigFile:
    def _retrieve_args(self, bundle, out, extra=()):
        return [
            "retrieve", "--kb", str(bundle.entries_path),
            "--kb-manifest", str(bundle.kb_manifest),
            "--kb-embeddings", str(bundle.kb_embeddings),
            "--queries", str(bundle.queries_path),
            "--query-manifest", str(bundle.query_manifest),
            "--query-embeddings", str(bundle.query_embeddings),
            "--out-dir", str(out), *extra,
        ]

    def test_config_supplies_value(self, bundle, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3}))
        out = tmp_path / "out"
        assert main(self._retrieve_args(bundle, out, ["--config", str(cfg)])) == 0
        rows = read_jsonl(out / "retrieval_results.jsonl")
        assert all(len(r["hits"]) == 3 for r in rows)
        assert json.loads((out / "run_config.json").read_text())["k"] == 3

    def test_cli_flag_beats_config(self, bundle, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3}))
        out = tmp_path / "out"
        assert main(self._retrieve_args(
            bundle, out, ["--config", str(cfg), "--k", "2"])) == 0
        rows = read_jsonl(out / "retrieval_results.jsonl")
        assert all(len(r["hits"]) == 2 for r in rows)

    def test_unknown_config_key_rejected(self, bundle, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc = main(self._retrieve_args(bundle, tmp_path / "out",
                                      ["--config", str(cfg)]))
        assert rc == 2
        assert "unknown keys: ['bogus']" in capsys.readouterr().err

    def test_missing_config_file(self, bundle, tmp_path, capsys):
        rc = main(self._retrieve_args(bundle, tmp_path / "out",
                                      ["--config", str(tmp_path / "nope.json")]))
        assert rc == 2
        assert "cannot load config file" in capsys.readouterr().err

    def test_config_must_be_object(self, bundle, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        rc = main(self._retrieve_args(bundle, tmp_path / "out",
                                      ["--config", str(cfg)]))
        assert rc == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def _run_args(self, ws, bundle, out, extra=()):
        return [
            "run", "--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest),
            "--queries", str(bundle.queries_path),
            "--retrievals", str(ws.retrieve / "retrieval_results.jsonl"),
            "--mock-script", str(bundle.mock_script), "--out-dir", str(out), *extra,
        ]

    @pytest.mark.parametrize("command, values, message", [
        # a variant that --variant does not offer
        ("run", {"variant": "probe"},
         "config key 'variant' must be one of param, oracle, one_stage, two_stage, mmstar, "
         "core, got \"probe\""),
        # a string where the flag takes an integer
        ("run", {"variant": "core", "workers": "2"},
         "config key 'workers' must be an integer, got \"2\""),
        # a string where the flag is a switch
        ("retrieve", {"no_url_dedup": "false"},
         "config key 'no_url_dedup' must be true or false, got \"false\""),
        # a fraction where the flag takes an integer
        ("retrieve", {"k": 2.9}, "config key 'k' must be an integer, got 2.9"),
        ("retrieve", {"k": "3"}, "config key 'k' must be an integer, got \"3\""),
        ("retrieve", {"k": True}, "config key 'k' must be an integer, got true"),
        ("retrieve", {"k": None}, "config key 'k' must be an integer, got null"),
    ], ids=["variant-probe", "workers-string", "switch-string", "k-fraction", "k-string",
            "k-bool", "k-null"])
    def test_config_value_checked_against_flag(self, ws, bundle, tmp_path, capsys,
                                               command, values, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        make_args = (functools.partial(self._run_args, ws) if command == "run"
                     else self._retrieve_args)
        assert main(make_args(bundle, out, ["--config", str(cfg)])) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, values", [
        ("retrieve", {"no_url_dedup": True, "k": 3}),
        ("sweep", {"variant": "mmstar", "tolerance": 1, "ks": "1,2"}),
        ("score", {"tolerance": 0.1, "stratum_mode": "cumulative"}),
        ("export-training", {"records": "d_int.jsonl", "objective": "sft", "sample": 4}),
        ("export-training", {"records": ["d_int.jsonl", "d_ext.jsonl"]}),
    ])
    def test_config_values_of_the_flag_types_resolve(self, command, values, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        args = build_parser().parse_args([command, "--config", str(cfg)])
        resolved = cli_module._resolve(args)
        assert {key: resolved[key] for key in values} == values

    @pytest.mark.parametrize("command, values", [
        ("sweep", {"variant": "param"}),
        ("score", {"stratum_mode": "nested"}),
        ("score", {"tolerance": "0.1"}),
        ("export-training", {"records": []}),
        ("export-training", {"records": ["d_int.jsonl", 3]}),
        ("export-training", {"objective": "dpo"}),
        ("ingest", {"kb": 3}),
    ])
    def test_config_values_outside_the_flag_rejected(self, command, values, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        args = build_parser().parse_args([command, "--config", str(cfg)])
        key = next(iter(values))
        with pytest.raises(cli_module.IngestError, match=f"config key '{key}' must be"):
            cli_module._resolve(args)


class TestIndexFile:
    def _retrieve(self, bundle, index, out, entries=None):
        return main([
            "retrieve", "--kb", str(entries or bundle.entries_path),
            "--kb-manifest", str(bundle.kb_manifest),
            "--index", str(index), "--queries", str(bundle.queries_path),
            "--query-manifest", str(bundle.query_manifest),
            "--query-embeddings", str(bundle.query_embeddings), "--out-dir", str(out),
        ])

    def test_index_from_another_kb_exits_two_before_writing(self, ws, bundle, tmp_path, capsys):
        other = tmp_path / "other_entries.jsonl"
        rows = read_jsonl(bundle.entries_path)
        for row in rows:
            row["entry_id"] = "other-" + row["entry_id"]
        other.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        rc = self._retrieve(bundle, ws.index / "index.npz", tmp_path, entries=other)
        assert rc == 2
        assert "does not match --kb" in capsys.readouterr().err
        assert not (tmp_path / "retrieval_results.jsonl").exists()

    @staticmethod
    def _members(ws) -> dict:
        with np.load(ws.index / "index.npz", allow_pickle=False) as saved:
            return {name: saved[name] for name in saved.files}

    def test_pickled_index_rejected(self, ws, bundle, tmp_path, capsys):
        members = self._members(ws)
        members["kb_sha256"] = np.array([members["kb_sha256"].item()], dtype=object)
        pickled = tmp_path / "pickled.npz"
        np.savez(pickled, **members)
        assert self._retrieve(bundle, pickled, tmp_path) == 2
        assert "not an intact pickle-free index" in capsys.readouterr().err
        assert not (tmp_path / "retrieval_results.jsonl").exists()

    # dim-not-scalar and no-dim are indexes of an older format, which holds no
    # digests; digest-not-0-d holds the right digest twice instead of once.
    @pytest.mark.parametrize("arrays", [
        lambda members: {"entry_ids": np.array(["e000"]), "dim": np.array([16, 16]),
                         "matrix": np.zeros((1, 16), dtype=np.float32)},
        lambda members: {"entry_ids": np.array(["e000"]),
                         "matrix": np.zeros((1, 16), dtype=np.float32)},
        lambda members: {**members, "kb_sha256": np.array([members["kb_sha256"].item()] * 2)},
        None,
    ], ids=["dim-not-scalar", "no-dim", "digest-not-0-d", "plain-npy"])
    def test_malformed_index_rejected(self, ws, bundle, tmp_path, capsys, arrays):
        path = tmp_path / "index.npz"
        if arrays is None:
            with path.open("wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            np.savez(path, **arrays(self._members(ws)))
        assert self._retrieve(bundle, path, tmp_path) == 2
        assert "rebuild it with `kbvqa index`" in capsys.readouterr().err
        assert not (tmp_path / "retrieval_results.jsonl").exists()

    def test_retrieve_config_with_workers_rejected(self, bundle, tmp_path, capsys):
        config = tmp_path / "retrieve.json"
        config.write_text(json.dumps({"workers": 2}), encoding="utf-8")
        rc = main(["retrieve", "--config", str(config), "--kb", str(bundle.entries_path),
                   "--kb-manifest", str(bundle.kb_manifest), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "unknown keys: ['workers']" in capsys.readouterr().err


def _flip_byte(path, offset):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0x01
    path.write_bytes(bytes(raw))


class TestDigestBoundIndex:
    """`retrieve --index` trusts the index only for the exact files it was built from."""

    @pytest.fixture
    def kb_copy(self, bundle, tmp_path):
        """Copies of the KB files, and an index built from them."""
        d = tmp_path / "kb"
        d.mkdir()
        files = SimpleNamespace(
            kb=d / "entries.jsonl", kb_manifest=d / "manifest.json", kb_embeddings=d / "kb.f32",
            index=d / "index" / "index.npz", out=tmp_path / "out",
        )
        files.kb.write_bytes(bundle.entries_path.read_bytes())
        files.kb_manifest.write_bytes(bundle.kb_manifest.read_bytes())
        files.kb_embeddings.write_bytes(bundle.kb_embeddings.read_bytes())
        assert main(["index", *self._kb_flags(files), "--kb-embeddings", str(files.kb_embeddings),
                     "--out-dir", str(files.index.parent)]) == 0
        return files

    @staticmethod
    def _kb_flags(files):
        return ["--kb", str(files.kb), "--kb-manifest", str(files.kb_manifest)]

    def _retrieve(self, bundle, files, *extra):
        return main([
            "retrieve", *self._kb_flags(files), "--index", str(files.index), *extra,
            "--queries", str(bundle.queries_path),
            "--query-manifest", str(bundle.query_manifest),
            "--query-embeddings", str(bundle.query_embeddings), "--out-dir", str(files.out),
        ])

    def _assert_rejected(self, capsys, files, text="does not match --kb"):
        err = capsys.readouterr().err
        assert text in err and "rebuild it with `kbvqa index`" in err
        assert not (files.out / "retrieval_results.jsonl").exists()

    def test_index_holds_digests_and_urls(self, kb_copy):
        """The sha256 of each file and where the embedding file is; the URLs
        are no longer stored, `retrieve` takes them from the KB."""
        with np.load(kb_copy.index, allow_pickle=False) as saved:
            for key, member in INDEX_DIGESTS.items():
                expected = hashlib.sha256(getattr(kb_copy, key).read_bytes()).hexdigest()
                assert saved[member].item() == expected
            assert saved["kb_embeddings"].item() == str(kb_copy.kb_embeddings.resolve())

    def test_matching_index_never_parses_the_kb(self, ws, bundle, kb_copy, monkeypatch, capsys):
        """With the KB catalog beside --kb, no entry line is parsed."""
        assert main(["ingest", *self._kb_flags(kb_copy), "--queries", str(bundle.queries_path),
                     "--out-dir", str(kb_copy.out.parent / "ingest")]) == 0

        def refuse(*_args, **_kwargs):
            raise AssertionError("an entry line was parsed")
        monkeypatch.setattr(kb_module, "_parse_kb", refuse)
        monkeypatch.setattr(kb_module, "_entry_from_dict", refuse)
        assert self._retrieve(bundle, kb_copy, "--k", "10") == 0
        assert "Recall@1 0.200  Recall@2 0.400  Recall@5 0.850  Recall@10 0.950" in (
            capsys.readouterr().out)
        assert (kb_copy.out / "retrieval_results.jsonl").read_bytes() == (
            ws.retrieve / "retrieval_results.jsonl").read_bytes()

    def test_flipped_entries_byte_rejected(self, bundle, kb_copy, capsys):
        # A byte of one entry's title: still a valid KB, but not the indexed one.
        _flip_byte(kb_copy.kb, kb_copy.kb.read_bytes().index(b"Entry 042"))
        assert self._retrieve(bundle, kb_copy) == 2
        self._assert_rejected(capsys, kb_copy, "is not the file it was built from")

    def test_flipped_manifest_byte_rejected(self, bundle, kb_copy, capsys):
        # "count": 100 becomes 101: still a valid manifest, but not the indexed one.
        raw = kb_copy.kb_manifest.read_bytes()
        _flip_byte(kb_copy.kb_manifest, raw.index(b'"count": 100') + len(b'"count": 10'))
        assert self._retrieve(bundle, kb_copy) == 2
        self._assert_rejected(capsys, kb_copy)

    def test_flipped_embedding_byte_rejected(self, bundle, kb_copy, capsys):
        _flip_byte(kb_copy.kb_embeddings, 4 * 16 * 7 + 1)
        assert self._retrieve(bundle, kb_copy, "--kb-embeddings", str(kb_copy.kb_embeddings)) == 2
        self._assert_rejected(capsys, kb_copy, f"--kb-embeddings {kb_copy.kb_embeddings} is not")
        assert self._retrieve(bundle, kb_copy) == 2  # the file the index records
        self._assert_rejected(capsys, kb_copy, f"--kb-embeddings {kb_copy.kb_embeddings.resolve()}")

    def test_remade_embedding_file_rejected_without_the_flag(self, bundle, kb_copy, capsys):
        """kb.f32 made again after `index`, beside a byte-identical KB and manifest."""
        matrix = np.fromfile(kb_copy.kb_embeddings, dtype="<f4").reshape(100, 16)
        kb_copy.kb_embeddings.write_bytes(matrix[::-1].tobytes())
        assert self._retrieve(bundle, kb_copy) == 2
        self._assert_rejected(capsys, kb_copy, "--kb-embeddings")

    def test_moved_embedding_file_needs_the_flag(self, ws, bundle, kb_copy, tmp_path, capsys):
        recorded = kb_copy.kb_embeddings.resolve()
        moved = tmp_path / "moved.f32"
        kb_copy.kb_embeddings.rename(moved)
        assert self._retrieve(bundle, kb_copy) == 2
        err = capsys.readouterr().err
        assert f"--kb-embeddings {recorded}, which is not there" in err
        assert "pass --kb-embeddings" in err
        assert not (kb_copy.out / "retrieval_results.jsonl").exists()
        assert self._retrieve(bundle, kb_copy, "--k", "10", "--kb-embeddings", str(moved)) == 0
        assert (kb_copy.out / "retrieval_results.jsonl").read_bytes() == (
            ws.retrieve / "retrieval_results.jsonl").read_bytes()

    def test_index_of_the_matrix_format_rejected(self, bundle, kb_copy, capsys):
        """An index as written before it held only digests: digests that match,
        the matrix, ids and URLs, but no embedding path."""
        with np.load(kb_copy.index, allow_pickle=False) as saved:
            digests = {name: saved[name] for name in INDEX_DIGESTS.values()}
        matrix = np.fromfile(kb_copy.kb_embeddings, dtype="<f4").reshape(100, 16)
        np.savez(kb_copy.index, entry_ids=np.array([f"e{i:03d}" for i in range(100)]),
                 dim=np.int64(16), matrix=matrix, **digests)
        assert self._retrieve(bundle, kb_copy) == 2
        self._assert_rejected(capsys, kb_copy, "holds no path of --kb-embeddings")

    def test_swapped_entry_lines_rejected(self, bundle, kb_copy, capsys):
        lines = kb_copy.kb.read_bytes().splitlines(keepends=True)
        lines[3], lines[4] = lines[4], lines[3]
        kb_copy.kb.write_bytes(b"".join(lines))
        assert self._retrieve(bundle, kb_copy) == 2
        self._assert_rejected(capsys, kb_copy)

    def test_same_ids_over_another_matrix_rejected(self, bundle, kb_copy, tmp_path, capsys):
        matrix = np.fromfile(kb_copy.kb_embeddings, dtype="<f4").reshape(100, 16)
        other = tmp_path / "other.f32"
        other.write_bytes(matrix[::-1].tobytes())
        assert self._retrieve(bundle, kb_copy, "--kb-embeddings", str(other)) == 2
        self._assert_rejected(capsys, kb_copy, "--kb-embeddings")

    def test_missing_embedding_file_exits_two(self, bundle, kb_copy, tmp_path, capsys):
        absent = tmp_path / "absent.f32"
        assert self._retrieve(bundle, kb_copy, "--kb-embeddings", str(absent)) == 2
        assert f"cannot read {absent}" in capsys.readouterr().err
        assert not (kb_copy.out / "retrieval_results.jsonl").exists()

    def test_digestless_index_rejected(self, bundle, kb_copy, capsys):
        with np.load(kb_copy.index, allow_pickle=False) as saved:
            arrays = {name: saved[name] for name in saved.files
                      if name not in INDEX_DIGESTS.values()}
        np.savez(kb_copy.index, **arrays)
        assert self._retrieve(bundle, kb_copy) == 2
        self._assert_rejected(capsys, kb_copy, "holds no sha256 of --kb")

    @pytest.mark.parametrize("change, message", [
        (lambda a: {"kb_embeddings": None}, "holds no path of --kb-embeddings"),
        (lambda a: {"kb_embeddings": np.int64(7)}, "its kb_embeddings is not one string"),
        (lambda a: {"kb_embeddings": np.array([a["kb_embeddings"].item()], dtype=object)},
         "not an intact pickle-free index"),
    ], ids=["no-path", "path-not-a-string", "pickled-path"])
    def test_malformed_index_with_matching_digests_rejected(
            self, bundle, kb_copy, capsys, change, message):
        with np.load(kb_copy.index, allow_pickle=False) as saved:
            arrays = {name: saved[name] for name in saved.files}
        arrays.update(change(arrays))
        np.savez(kb_copy.index, **{k: v for k, v in arrays.items() if v is not None})
        assert self._retrieve(bundle, kb_copy) == 2
        self._assert_rejected(capsys, kb_copy, message)

    def test_truncated_index_rejected(self, bundle, kb_copy, capsys):
        raw = kb_copy.index.read_bytes()
        kb_copy.index.write_bytes(raw[:len(raw) // 2])
        assert self._retrieve(bundle, kb_copy) == 2
        self._assert_rejected(capsys, kb_copy)

    def test_interrupted_index_keeps_the_previous_file(self, kb_copy, monkeypatch):
        before = kb_copy.index.read_bytes()

        def interrupted(fh, **_arrays):
            fh.write(b"PK partial")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["index", *self._kb_flags(kb_copy), "--kb-embeddings",
                  str(kb_copy.kb_embeddings), "--out-dir", str(kb_copy.index.parent)])
        assert kb_copy.index.read_bytes() == before
        assert sorted(p.name for p in kb_copy.index.parent.iterdir()) == [
            "index.npz", "run_config.json"]


# Non-ASCII, blank-looking and JSON-looking URLs; duplicates come from sampling.
_URL = st.text(min_size=1, max_size=10) | st.sampled_from(
    [" ", "\t", "\u200b", "null", '""', "https://kb.example/café", "漢字"])


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_retrieve_with_index_matches_retrieve_from_embeddings(data):
    n = data.draw(st.integers(1, 12), label="n")
    dim = data.draw(st.integers(1, 6), label="dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    raw = rng.normal(size=(n, dim))
    # Rows the manifest calls unnormalized are normalized on every load, also
    # when the index's digest lets `retrieve` skip the row checks.
    normalized = data.draw(st.booleans(), label="normalized")
    if normalized:
        matrix = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).astype(np.float32)
    else:
        matrix = (raw * data.draw(st.sampled_from([0.01, 3.0, 250.0]), label="scale")).astype(
            np.float32)
    for src, dst in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                       max_size=6), label="copies"):
        matrix[dst] = matrix[src]
    rows = data.draw(st.permutations(range(n)), label="rows")
    urls = data.draw(st.lists(_URL, min_size=n, max_size=n), label="urls")
    with_gold = data.draw(st.booleans(), label="with_gold")
    queries = []
    for i in range(data.draw(st.integers(1, 5), label="queries")):
        query = {"query_id": f"q{i}", "question": "?", "gold_answers": ["a"],
                 "query_embedding_row": i}
        if with_gold:
            query["gold_entry_url"] = data.draw(st.sampled_from(urls))
        queries.append(query)
    k = data.draw(st.integers(1, n + 2), label="k")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        fixture_gen.write_jsonl(root / "entries.jsonl", [
            {"entry_id": f"e{i}", "url": url, "embedding_row": row}
            for i, (url, row) in enumerate(zip(urls, rows))
        ])
        kb_manifest, kb_data = fixture_gen.write_matrix(root, "kb", matrix)
        if not normalized:
            kb_manifest.write_text(json.dumps({"dim": dim, "count": n, "normalized": False}),
                                   encoding="utf-8")
        fixture_gen.write_jsonl(root / "queries.jsonl", queries)
        q_raw = rng.normal(size=(len(queries), dim))
        q_manifest, q_data = fixture_gen.write_matrix(
            root, "query", fixture_gen._normalize_rows(q_raw))
        kb_flags = ["--kb", str(root / "entries.jsonl"), "--kb-manifest", str(kb_manifest)]
        assert main(["index", *kb_flags, "--kb-embeddings", str(kb_data),
                     "--out-dir", str(root / "index")]) == 0

        def retrieve(*source):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(["retrieve", *kb_flags, *source,
                             "--queries", str(root / "queries.jsonl"),
                             "--query-manifest", str(q_manifest), "--query-embeddings", str(q_data),
                             "--k", str(k), "--out-dir", str(root / "out")]) == 0
            return stdout.getvalue(), (root / "out" / "retrieval_results.jsonl").read_bytes()

        assert retrieve("--index", str(root / "index" / "index.npz")) == retrieve(
            "--kb-embeddings", str(kb_data))


# Each case's subcommand: every subcommand, and `report`, which is `score`
# against a baseline.
_CASES = {**{command: command for command in cli_module.COMMANDS}, "report": "score"}
# Beside the flags its subcommand requires, what each case needs to succeed
# on the workspace: the flags its conditional checks require, a backend, and
# the baseline of `report`.
_COMPLETING = {"retrieve": ("kb_embeddings",), "run": ("retrievals", "endpoint_config"),
               "probe-unimodal": ("endpoint_config",), "sweep": ("endpoint_config",),
               "report": ("compare_to",)}
# (case, the flag left out): each flag of each required tuple, the two
# conditional checks, and None for the complete command line.
_MISSING_CASES = [
    *((case, flag) for case, command in _CASES.items()
      for flag in cli_module.COMMANDS[command][3]),
    ("retrieve", "kb_embeddings"), ("run", "retrievals"),
    *((case, None) for case in _CASES),
]


@pytest.fixture(scope="module")
def letter_server():
    """A stub that answers every call with a reference letter."""
    with LocalServer(reply=lambda body: "[Reference A]") as server:
        yield server


def _files_under(*roots: Path) -> dict[Path, tuple[int, int]]:
    return {path: (path.stat().st_mtime_ns, path.stat().st_size)
            for root in roots for path in root.rglob("*") if path.is_file()}


class TestExitCodes:
    @pytest.mark.parametrize("case, flag", _MISSING_CASES,
                             ids=[f"{c}-{f or 'none'}" for c, f in _MISSING_CASES])
    def test_missing_required_flag(self, ws, bundle, letter_server, tmp_path, capsys, case,
                                   flag):
        """A missing flag stops the subcommand before it reads an input, calls
        the backend or writes a file; with every flag given, it runs."""
        traces = str(ws.run / "traces.jsonl")
        endpoint = tmp_path / "endpoint.json"
        out = tmp_path / "out"
        values = {
            "kb": str(bundle.entries_path), "kb_manifest": str(bundle.kb_manifest),
            "kb_embeddings": str(bundle.kb_embeddings), "queries": str(bundle.queries_path),
            "query_manifest": str(bundle.query_manifest),
            "query_embeddings": str(bundle.query_embeddings),
            "retrievals": str(ws.retrieve / "retrieval_results.jsonl"),
            "variant": "core", "traces": traces, "traces_int": traces,
            "traces_ext": traces, "probe_traces": str(ws.probe / "probe_traces.jsonl"),
            "records": str(ws.mine_prki / "d_int.jsonl"), "objective": "prki",
            "endpoint_config": str(endpoint), "compare_to": str(ws.score / "report.json"),
            "out_dir": str(out),
        }
        command = _CASES[case]
        names = (*cli_module.COMMANDS[command][3], *_COMPLETING.get(case, ()))
        argv = [command]
        for name in names:
            if name != flag:
                argv += ["--" + name.replace("_", "-"), values[name]]
        letter_server.requests.clear()
        endpoint.write_text(json.dumps({"base_url": letter_server.url, "model": "m"}))
        before = _files_under(tmp_path, bundle.entries_path.parent)
        rc = main(argv)
        err = capsys.readouterr().err
        if flag is None:
            assert rc == 0, err
            assert (out / "run_config.json").is_file()
            assert bool(letter_server.requests) == ("endpoint_config" in names)
            assert (out / "deltas.csv").is_file() == ("compare_to" in names)
            return
        assert rc == 2
        assert f"missing required --{flag.replace('_', '-')}" in err
        assert _files_under(tmp_path, bundle.entries_path.parent) == before
        assert not out.exists()
        assert letter_server.requests == []

    def test_required_flags_are_flags_without_defaults(self):
        parser = build_parser()
        for command, (_handler, _help_line, _entries, required) in cli_module.COMMANDS.items():
            rows = parser.parse_args([command]).flag_rows
            assert len(set(required)) == len(required), command
            for flag in required:
                assert flag in rows, (command, flag)
                assert rows[flag].get("default") is None, (command, flag)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_non_positive_char_budget_makes_no_call(self, ws, bundle, letter_server, tmp_path,
                                                    capsys, command):
        letter_server.requests.clear()
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"base_url": letter_server.url, "model": "m"}))
        rc = main([
            command, "--variant", "core", "--kb", str(bundle.entries_path),
            "--kb-manifest", str(bundle.kb_manifest), "--queries", str(bundle.queries_path),
            "--retrievals", str(ws.retrieve / "retrieval_results.jsonl"),
            "--endpoint-config", str(endpoint), "--char-budget", "0",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "char_budget must be positive, got 0" in capsys.readouterr().err
        assert letter_server.requests == []
        assert not (tmp_path / "out").exists()

    def test_backend_flags_are_exclusive(self, bundle, tmp_path, capsys):
        rc = main([
            "run", "--variant", "param", "--kb", str(bundle.entries_path),
            "--kb-manifest", str(bundle.kb_manifest),
            "--queries", str(bundle.queries_path),
            "--mock-script", "a.jsonl", "--endpoint-config", "b.json",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "exactly one of --mock-script and --endpoint-config" in capsys.readouterr().err

    def test_no_backend_flag(self, bundle, tmp_path, capsys):
        """Checked before any input is read: neither --queries nor --retrievals exists."""
        for command in ("run", "probe-unimodal", "sweep"):
            rc = main([
                command, *(["--variant", "param"] if command == "run" else []),
                "--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest),
                "--queries", str(tmp_path / "nope.jsonl"),
                "--retrievals", str(tmp_path / "nope_retrievals.jsonl"),
                "--out-dir", str(tmp_path / "out"),
            ])
            assert rc == 2, command
            assert ("exactly one of --mock-script and --endpoint-config is required"
                    in capsys.readouterr().err), command
            assert not (tmp_path / "out").exists()

    def test_export_rejects_non_positive_char_budget_before_writing(self, ws, bundle, tmp_path,
                                                                    capsys):
        rc = main([
            "export-training", "--records", str(ws.mine_prki / "d_int.jsonl"),
            "--objective", "prki", "--kb", str(bundle.entries_path),
            "--kb-manifest", str(bundle.kb_manifest), "--queries", str(bundle.queries_path),
            "--char-budget", "0", "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "--char-budget must be positive, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_partial_failure_exits_one(self, ws, bundle, tmp_path):
        # drop one scripted stage so exactly one trace fails
        kept = [
            line for line in bundle.mock_script.read_text().splitlines()
            if not (json.loads(line)["query_id"] == "q19"
                    and json.loads(line)["stage"] == "core_param")
        ]
        script = tmp_path / "script.jsonl"
        script.write_text("\n".join(kept) + "\n")
        rc = main([
            "run", "--variant", "core", "--kb", str(bundle.entries_path),
            "--kb-manifest", str(bundle.kb_manifest),
            "--queries", str(bundle.queries_path),
            "--retrievals", str(ws.retrieve / "retrieval_results.jsonl"),
            "--mock-script", str(script), "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        rows = read_jsonl(tmp_path / "out" / "traces.jsonl")
        failed = [r["query_id"] for r in rows if r["failed"]]
        assert failed == ["q19"]

    def test_bad_variant_choice_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--variant", "banana"])
        assert exc.value.code == 2

    def test_bad_workers_value(self, bundle, tmp_path, capsys):
        rc = main([
            "run", "--variant", "param", "--kb", str(bundle.entries_path),
            "--kb-manifest", str(bundle.kb_manifest),
            "--queries", str(bundle.queries_path),
            "--mock-script", str(bundle.mock_script),
            "--workers", "0", "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "--workers must be positive" in capsys.readouterr().err

    def test_bad_max_in_flight_value(self, bundle, tmp_path, capsys):
        """--workers is the one concurrency setting; --max-in-flight is gone."""
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--variant", "param", "--kb", str(bundle.entries_path),
                "--kb-manifest", str(bundle.kb_manifest),
                "--queries", str(bundle.queries_path),
                "--mock-script", str(bundle.mock_script),
                "--max-in-flight", "0", "--out-dir", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-in-flight" in capsys.readouterr().err

    def test_max_in_flight_config_key_rejected(self, bundle, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"max_in_flight": 8}), encoding="utf-8")
        rc = main([
            "run", "--config", str(config), "--variant", "param",
            "--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest),
            "--queries", str(bundle.queries_path),
            "--mock-script", str(bundle.mock_script), "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "unknown keys: ['max_in_flight']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row", ["1", True, -1, 1.0])
    def test_bad_query_embedding_row(self, bundle, tmp_path, capsys, row):
        rows = read_jsonl(bundle.queries_path)
        rows[1]["query_embedding_row"] = row
        bad = tmp_path / "queries.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        rc = main([
            "retrieve", "--kb", str(bundle.entries_path),
            "--kb-manifest", str(bundle.kb_manifest),
            "--kb-embeddings", str(bundle.kb_embeddings), "--queries", str(bad),
            "--query-manifest", str(bundle.query_manifest),
            "--query-embeddings", str(bundle.query_embeddings),
            "--out-dir", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        want = "a non-negative integer or null" if row == -1 else "an integer or null"
        assert f"{bad}:2: field 'query_embedding_row' must be {want}, got {json.dumps(row)}" in err
        assert not (tmp_path / "out" / "retrieval_results.jsonl").exists()

    def test_mock_script_that_is_not_utf8(self, bundle, tmp_path, capsys):
        raw = bytearray(bundle.mock_script.read_bytes())
        third = raw.index(b"\n", raw.index(b"\n") + 1) + 1
        raw[raw.index(b'"text": "', third) + 9] = 0xFF
        bad = tmp_path / "mock_script.jsonl"
        bad.write_bytes(bytes(raw))
        rc = main([
            "run", "--variant", "param", "--kb", str(bundle.entries_path),
            "--kb-manifest", str(bundle.kb_manifest),
            "--queries", str(bundle.queries_path),
            "--mock-script", str(bad), "--out-dir", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{bad}:3: not UTF-8" in err and "0xff" in err

    def test_mock_script_text_with_a_lone_surrogate(self, bundle, tmp_path, capsys):
        lines = bundle.mock_script.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = json.dumps({**json.loads(lines[2]), "text": "[x\ud800]"}) + "\n"
        bad = tmp_path / "mock_script.jsonl"
        bad.write_text("".join(lines), encoding="ascii")
        rc = main([
            "run", "--variant", "param", "--kb", str(bundle.entries_path),
            "--kb-manifest", str(bundle.kb_manifest),
            "--queries", str(bundle.queries_path),
            "--mock-script", str(bad), "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert f"{bad}:3: text must be a string with no lone surrogate" in capsys.readouterr().err
        assert not (tmp_path / "out" / "traces.jsonl").exists()

    @pytest.mark.parametrize("case", ["score", "report", "sweep"])
    @pytest.mark.parametrize("ks", ["0,-1", "1,0", "-3"])
    def test_non_positive_recall_cutoffs_rejected(self, ws, bundle, tmp_path, capsys,
                                                  case, ks):
        flags = {
            "score": ["--traces", str(ws.run / "traces.jsonl")],
            "report": ["--traces", str(ws.run / "traces.jsonl"),
                       "--compare-to", str(ws.score / "report.json")],
            "sweep": ["--variant", "core", "--mock-script", str(bundle.mock_script)],
        }[case]
        rc = main([
            _CASES[case], *flags, "--queries", str(bundle.queries_path),
            "--retrievals", str(ws.retrieve / "retrieval_results.jsonl"),
            "--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest),
            "--ks", ks, "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert f"--ks values must be positive, got '{ks}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("top_m", ["1,9", "0", "2,6"])
    def test_sweep_top_m_out_of_range_exits_before_the_first_pass(
            self, ws, bundle, tmp_path, capsys, top_m):
        rc = main([
            "sweep", "--top-m", top_m, "--variant", "core", "--queries", str(bundle.queries_path),
            "--retrievals", str(ws.retrieve / "retrieval_results.jsonl"),
            "--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest),
            "--mock-script", str(bundle.mock_script), "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert f"--top-m values must be within 1..5, got '{top_m}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("top_m", ["1,1", "2,5,2"])
    def test_sweep_repeated_top_m_makes_no_call(self, ws, bundle, letter_server, tmp_path,
                                                capsys, top_m):
        """A value given twice would run, write and tabulate its pass twice."""
        letter_server.requests.clear()
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"base_url": letter_server.url, "model": "m"}))
        rc = main([
            "sweep", "--top-m", top_m, "--variant", "core", "--queries", str(bundle.queries_path),
            "--retrievals", str(ws.retrieve / "retrieval_results.jsonl"),
            "--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest),
            "--endpoint-config", str(endpoint), "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert f"--top-m values must be distinct, got '{top_m}'" in capsys.readouterr().err
        assert letter_server.requests == []
        assert not (tmp_path / "out").exists()

    def test_report_is_not_a_command(self, ws, bundle, tmp_path, capsys):
        """`score` writes every report file; `report` is an unknown command."""
        with pytest.raises(SystemExit) as exc:
            main(["report", *_reader_flags(ws, bundle).score, "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "invalid choice: 'report'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_table_that_fails_keeps_the_previous_file(self, ws, bundle, tmp_path,
                                                             monkeypatch):
        class Unscalable(float):
            """An accuracy whose percentage fails, so the table's second row does."""

            def __rmul__(self, other):
                raise ArithmeticError("cannot scale")

        real_score_run = cli_module.score_run
        calls = []

        def score_run(*args, **kwargs):
            scored = real_score_run(*args, **kwargs)
            calls.append(scored)
            if len(calls) == 1:
                return scored
            report = dataclasses.replace(
                scored.report, accuracy_overall=Unscalable(scored.report.accuracy_overall))
            return dataclasses.replace(scored, report=report)

        out = tmp_path / "out"
        out.mkdir()
        (out / "sweep.csv").write_bytes(b"top_m,failed\n1,0\n")
        monkeypatch.setattr(cli_module, "score_run", score_run)
        with pytest.raises(ArithmeticError):
            main(["sweep", "--top-m", "1,2", "--variant", "core",
                  "--queries", str(bundle.queries_path),
                  "--retrievals", str(ws.retrieve / "retrieval_results.jsonl"),
                  "--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest),
                  "--mock-script", str(bundle.mock_script), "--out-dir", str(out)])
        assert len(calls) == 2
        assert (out / "sweep.csv").read_bytes() == b"top_m,failed\n1,0\n"
        assert not [p for p in out.iterdir() if p.suffix == ".tmp"]


# id -> (role of the file under test, a field to drop, argv given the
# workspace's paths and the bad file).
_READER_CASES = {
    "kb_entries": ("entries", "url", lambda c, bad: [
        "ingest", "--kb", bad, "--kb-manifest", c.manifest, *c.queries]),
    "queries": ("queries", "question", lambda c, bad: [
        "ingest", *c.kb, "--queries", bad]),
    "retrievals": ("retrievals", "hits", lambda c, bad: [
        "run", "--variant", "one_stage", *c.kb, *c.queries, "--retrievals", bad, *c.mock]),
    "traces": ("traces", "variant", lambda c, bad: [
        "mine-prki", "--traces-int", bad, "--traces-ext", c.traces, *c.queries]),
    "records": ("records", "bucket", lambda c, bad: [
        "export-training", "--records", bad, "--objective", "prki", *c.kb, *c.queries]),
    "mock_script": ("mock", "stage", lambda c, bad: [
        "run", "--variant", "param", *c.kb, *c.queries, "--mock-script", bad]),
}


def _reader_flags(ws, bundle) -> SimpleNamespace:
    """The workspace's paths, as the _READER_CASES and _JSON_FILE_CASES
    argv builders take them."""
    kb = ["--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest)]
    queries = ["--queries", str(bundle.queries_path)]
    return SimpleNamespace(
        kb=kb, entries=str(bundle.entries_path), manifest=str(bundle.kb_manifest),
        queries=queries, mock=["--mock-script", str(bundle.mock_script)],
        traces=str(ws.run / "traces.jsonl"),
        score=["--traces", str(ws.run / "traces.jsonl"), *queries, *kb,
               "--retrievals", str(ws.retrieve / "retrieval_results.jsonl")],
    )


def _reader_source(ws, bundle, role: str) -> Path:
    """A good file of the role, to copy and break."""
    return {
        "entries": bundle.entries_path, "queries": bundle.queries_path,
        "retrievals": ws.retrieve / "retrieval_results.jsonl",
        "traces": ws.run / "traces.jsonl", "records": ws.mine_prki / "d_int.jsonl",
        "mock": bundle.mock_script,
    }[role]


class TestReaderErrors:
    """A missing JSONL input or a line without a required field exits 2 with
    the file named, never with a traceback."""

    @pytest.mark.parametrize("fault", ["missing_file", "missing_field"])
    @pytest.mark.parametrize("case", sorted(_READER_CASES))
    def test_exits_two_naming_the_file(self, ws, bundle, tmp_path, capsys, case, fault):
        role, field, argv = _READER_CASES[case]
        bad = tmp_path / f"bad_{role}.jsonl"
        if fault == "missing_field":
            rows = read_jsonl(_reader_source(ws, bundle, role))
            del rows[1][field]
            bad.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        rc = main([*argv(_reader_flags(ws, bundle), str(bad)), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(bad) in err and "Traceback" not in err
        if fault == "missing_field":
            assert f"{bad}:2: missing field '{field}'" in err


@pytest.mark.parametrize("role", ["traces", "retrievals"])
def test_duplicate_query_id_exits_two_naming_both_lines(ws, bundle, tmp_path, capsys, role):
    """score on traces, and run on retrieval results, with the first line
    repeated at the end, stop before writing instead of keeping the last copy."""
    source = _reader_source(ws, bundle, role)
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    bad = tmp_path / f"dup_{role}.jsonl"
    bad.write_text("".join(lines) + lines[0], encoding="utf-8")
    c = _reader_flags(ws, bundle)
    argv = {"traces": ["score", *c.score, "--traces", str(bad)],
            "retrievals": ["run", "--variant", "one_stage", *c.kb, *c.queries, *c.mock,
                           "--retrievals", str(bad)]}[role]
    rc = main([*argv, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    qid = json.loads(lines[0])["query_id"]
    assert (f"{bad}:{len(lines) + 1}: duplicate query_id {qid!r} (first seen on line 1)"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


# The ids name each case as it was first written, before messages named the
# field as `field 'x'` and gave the value as JSON.
@pytest.mark.parametrize("role, field, value, match", [
    pytest.param("queries", "gold_answers", "Paris",
                 "field 'gold_answers' must be a list of strings, got \"Paris\"",
                 id="queries-gold_answers-Paris-gold_answers must be a non-empty list"),
    pytest.param("entries", "image_refs", "img.jpg",
                 "field 'image_refs' must be a list of strings, got \"img.jpg\"",
                 id="entries-image_refs-img.jpg-image_refs must be a list of strings"),
    pytest.param("entries", "content", 12345, "field 'content' must be a string, got 12345",
                 id="entries-content-12345-content must be a string, got 12345"),
    pytest.param("queries", "query_id", 5, "field 'query_id' must be a string, got 5",
                 id="queries-query_id-5-query_id must be a non-empty string, got 5"),
    pytest.param("queries", "gold_entry_url", 7,
                 "field 'gold_entry_url' must be a string or null, got 7",
                 id="queries-gold_entry_url-7-gold_entry_url must be a string or null, got 7"),
])
@pytest.mark.parametrize("command", ["ingest", "run"])
def test_field_of_the_wrong_type_exits_two(bundle, tmp_path, capsys, role, field, value, match,
                                           command):
    """A field of the wrong JSON type stops ingest and run with exit 2 and
    the line named, instead of being split into letters or failing later
    with a traceback."""
    source = {"queries": bundle.queries_path, "entries": bundle.entries_path}[role]
    rows = read_jsonl(source)
    rows[1][field] = value
    bad = tmp_path / f"bad_{role}.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    files = {"queries": bundle.queries_path, "entries": bundle.entries_path, role: bad}
    argv = ["--kb", str(files["entries"]), "--kb-manifest", str(bundle.kb_manifest),
            "--queries", str(files["queries"]), "--out-dir", str(tmp_path / "out")]
    if command == "run":
        argv = ["run", "--variant", "oracle", "--mock-script", str(bundle.mock_script), *argv]
    else:
        argv = ["ingest", *argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2: {match}" in err
    assert "Traceback" not in err


# Each record format as a written oracle, apart from the dataclasses the
# readers check against: {field: the JSON types it takes}, and its required
# fields. "int" is a JSON integer and "float" a JSON number with a fraction
# or exponent; a bool is neither.
_FORMATS = {
    "entries": ({"entry_id": "str", "url": "str", "title": "str", "content": "str",
                 "image_refs": "list", "embedding_row": "int null"}, ("entry_id", "url")),
    "queries": ({"query_id": "str", "question": "str", "image_ref": "str",
                 "gold_answers": "list", "gold_entry_url": "str null", "split_tag": "str",
                 "answer_type": "str", "query_embedding_row": "int null"},
                ("query_id", "question")),
    "results": ({"query_id": "str", "hits": "list", "k": "int"}, ("query_id", "hits", "k")),
    "hits": ({"entry_id": "str", "score": "int float"}, ("entry_id", "score")),
    "traces": ({"query_id": "str", "variant": "str", "mode": "str null", "y_int": "str null",
                "i_v": "int null", "i_t": "int null", "i_tv": "int null", "y_ext": "str null",
                "y_final": "str", "prki_flag": "bool null", "vtki_flag": "bool null",
                "context_entry_ids": "list", "warnings": "list", "failed": "bool",
                "error": "str null", "transcripts": "list"}, ("query_id", "variant")),
    "transcripts": ({"stage": "str", "prompt_sha256": "str", "text": "str",
                     "latency_ms": "int float", "raw": "str", "temperature": "int float",
                     "max_new_tokens": "int"},
                    ("stage", "prompt_sha256", "text", "latency_ms", "raw", "temperature",
                     "max_new_tokens")),
    "records": ({"query_id": "str", "bucket": "str", "objective": "str", "target": "str int",
                 "gold_answer": "str", "context_entry_ids": "list", "provenance": "dict"},
                ("query_id", "bucket", "objective", "target", "gold_answer",
                 "context_entry_ids", "provenance")),
    "mock": ({"query_id": "str", "stage": "str", "text": "str"}, ("query_id", "stage", "text")),
    "endpoint": ({"base_url": "str", "path": "str", "model": "str", "api_key_env": "str",
                  "timeout_s": "int float"}, ("base_url",)),
    "manifest": ({"dim": "int", "count": "int", "normalized": "bool", "dtype": "str"},
                 ("dim", "count", "normalized")),
    "report": ({"recall": "dict", "accuracy_overall": "int float", "accuracy_by_split": "dict",
                "accuracy_by_stratum": "dict", "stratum_mode": "str", "total": "int",
                "tolerance": "int float", "query_digest": "str"},
               ("recall", "accuracy_overall", "accuracy_by_split", "accuracy_by_stratum",
                "stratum_mode", "total", "tolerance", "query_digest")),
    "stratum_cells": ({"fraction": "int float", "count": "int"}, ("fraction", "count")),
}
_JSON_VALUES = {
    "null": st.none(), "bool": st.booleans(), "int": st.integers(-3, 3),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=4), "list": st.lists(st.integers(0, 3) | st.text(max_size=2), max_size=2),
    "dict": st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
}
# case -> (the role of the file that holds it, its format, the key of the
# nested record under test on line 2 (in its first list item or first object
# value), or None for line 2 itself). A JSON file's one record stands for
# line 2.
_RECORD_CASES = {
    "entries": ("entries", "entries", None),
    "queries": ("queries", "queries", None),
    "results": ("retrievals", "results", None),
    "hits": ("retrievals", "hits", "hits"),
    "traces": ("traces", "traces", None),
    "transcripts": ("traces", "transcripts", "transcripts"),
    "records": ("records", "records", None),
    "mock_script": ("mock", "mock", None),
    "endpoint_config": ("endpoint", "endpoint", None),
    "manifest": ("manifest", "manifest", None),
    "report": ("report", "report", None),
    "stratum_cells": ("report", "stratum_cells", "accuracy_by_stratum"),
}
_ENDPOINT = {"base_url": "http://127.0.0.1:9", "path": "/v1/chat/completions", "model": "m",
             "api_key_env": "KBVQA_TEST_KEY", "timeout_s": 5}
# role of a file holding one JSON object -> (how its errors name it, argv
# given the workspace's paths and the bad file).
_JSON_FILE_CASES = {
    "endpoint": ("endpoint config", lambda c, bad: [
        "run", "--variant", "param", *c.kb, *c.queries, "--endpoint-config", bad]),
    "manifest": ("embedding manifest", lambda c, bad: [
        "ingest", "--kb", c.entries, "--kb-manifest", bad, *c.queries]),
    "report": ("report", lambda c, bad: ["score", *c.score, "--compare-to", bad]),
}


def _record_rows(ws, bundle, role: str) -> list:
    if role == "endpoint":
        return [dict(_ENDPOINT)]
    if role in _JSON_FILE_CASES:
        source = bundle.kb_manifest if role == "manifest" else ws.score / "report.json"
        return [json.loads(source.read_text(encoding="utf-8"))]
    return read_jsonl(_reader_source(ws, bundle, role))


def _write_broken(root: Path, case: str, rows: list, fault: str, name,
                  value) -> tuple[Path, str, str]:
    """Break the record under test of case in rows and write them under root:
    replace its field name by value, drop that field, or put value in place
    of the whole record. The file, where its error must point, and how the
    error's message must start."""
    role, _, nested = _RECORD_CASES[case]
    holder, key, prefix = rows, 0 if role in _JSON_FILE_CASES else 1, ""
    if nested:
        holder = rows[key][nested]
        key = 0 if type(holder) is list else next(iter(holder))
        prefix = f"{nested}[{json.dumps(key)}]."
    if fault == "replace":
        holder[key][name] = value
        message = f"field '{prefix}{name}' must be "
    elif fault == "drop":
        del holder[key][name]
        message = f"missing field '{prefix}{name}'"
    else:
        holder[key] = value
        message = (f"field '{prefix[:-1]}' must be an object, got " if prefix
                   else "record must be an object, got ")
    if role in _JSON_FILE_CASES:
        bad = root / f"{role}.json"
        bad.write_text(json.dumps(rows[0]), encoding="utf-8")
        return bad, f"{_JSON_FILE_CASES[role][0]} {bad}", message
    bad = root / f"bad_{role}.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return bad, f"{bad}:2", message


def _main_on_broken(ws, bundle, root: Path, case: str, fault: str, name, value,
                    message: str | None = None) -> None:
    """Run the command that reads case's file, broken as _write_broken breaks
    it: it must exit 2 with the error, given message or not, no traceback
    and no output."""
    role = _RECORD_CASES[case][0]
    bad, where, start = _write_broken(root, case, _record_rows(ws, bundle, role), fault, name,
                                      value)
    if role in _JSON_FILE_CASES:
        reader = _JSON_FILE_CASES[role][1]
    else:
        reader = next(argv for r, _, argv in _READER_CASES.values() if r == role)
    argv = reader(_reader_flags(ws, bundle), str(bad))
    out = root / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = main([*argv, "--out-dir", str(out)])
    err = stderr.getvalue()
    assert rc == 2, err
    assert f"{where}: {message or start}" in err
    assert "Traceback" not in err
    assert not list(out.glob("*.json*")), "a command that rejected its input wrote output"


class TestRecordFormats:
    """Every JSON record reader checks each field's JSON type against its
    record class: a record of another shape exits 2 naming the file, the
    line and the field, never with a traceback and never accepted."""

    @pytest.mark.parametrize("case", sorted(_RECORD_CASES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_bad_record_is_rejected_naming_file_line_and_field(
            self, ws, bundle, tmp_path_factory, case, data):
        """Each field in turn replaced by a value of another JSON type, each
        required field in turn dropped, or the record replaced by a value
        that is not an object."""
        role, fmt, _ = _RECORD_CASES[case]
        fields, required = _FORMATS[fmt]
        read = {"entries": lambda path: ingest_kb(path, bundle.kb_manifest, use_catalog=False),
                "queries": ingest_queries, "retrievals": read_results, "traces": read_traces,
                "records": read_records, "mock": MockBackend.from_script_file,
                "endpoint": EndpointConfig.from_json_file, "manifest": load_manifest,
                "report": read_report_json}[role]
        source = _record_rows(ws, bundle, role)
        root = tmp_path_factory.mktemp("record")
        fault = data.draw(st.sampled_from(["replace", "drop", "not_an_object"]), label="fault")
        for name in {"replace": sorted(fields), "drop": required, "not_an_object": [None]}[fault]:
            taken = fields[name].split() if fault == "replace" else ["dict"]
            value = data.draw(st.one_of([values for kind, values in _JSON_VALUES.items()
                                         if kind not in taken]), label=str(name))
            bad, where, start = _write_broken(root, case, json.loads(json.dumps(source)), fault,
                                              name, value)
            with pytest.raises(KbvqaError) as got:  # main exits 2 on any KbvqaError
                read(bad)
            assert str(got.value).startswith(f"{where}: {start}")

    @pytest.mark.parametrize("fault", ["replace", "drop", "not_an_object"])
    @pytest.mark.parametrize("case", sorted(_RECORD_CASES))
    def test_bad_record_exits_two_with_no_output(self, ws, bundle, tmp_path, case, fault):
        fields, required = _FORMATS[_RECORD_CASES[case][1]]
        name = sorted(fields)[0] if fault == "replace" else required[0]
        value = [1] if fields.get(name) != "list" else "x"
        _main_on_broken(ws, bundle, tmp_path, case, fault, name, value)

    @pytest.mark.parametrize("case, name, value, message", [
        ("entries", "embedding_row", -1, "field 'embedding_row' must be a non-negative integer "
                                         "or null, got -1"),
        ("entries", "schema_version", 2, "field 'schema_version' must be 1, got 2"),
        ("queries", "split_tag", "train", "field 'split_tag' must be one of unseen_q, unseen_e, "
                                          "other, got \"train\""),
        ("queries", "answer_type", "bool", "field 'answer_type' must be one of text, numeric, "
                                           "numeric_range, got \"bool\""),
        ("results", "k", "3", "field 'k' must be an integer, got \"3\""),
        ("hits", "score", "nan", "field 'hits[0].score' must be a number, got \"nan\""),
        ("hits", "entry_id", 7, "field 'hits[0].entry_id' must be a string, got 7"),
        ("traces", "failed", "no", "field 'failed' must be true or false, got \"no\""),
        ("traces", "warnings", "ab", "field 'warnings' must be a list of strings, got \"ab\""),
        ("traces", "query_id", 7, "field 'query_id' must be a string, got 7"),
        ("transcripts", "latency_ms", "5", "field 'transcripts[0].latency_ms' must be a number, "
                                           "got \"5\""),
        ("records", "provenance", [], "field 'provenance' must be an object, got []"),
        ("records", "target", 1.5, "field 'target' must be a string or an integer, got 1.5"),
        ("endpoint_config", "timeout_s", "5", "field 'timeout_s' must be a number, got \"5\""),
        ("endpoint_config", "timeout_s", 0, "field 'timeout_s' must be a finite positive "
                                            "number, got 0"),
        ("endpoint_config", "base_url", 5, "field 'base_url' must be a string, got 5"),
        ("endpoint_config", "base_url", "", "field 'base_url' must be a non-empty string, "
                                            "got \"\""),
        ("manifest", "dim", 0, "field 'dim' must be a positive integer, got 0"),
        ("manifest", "count", -1, "field 'count' must be a non-negative integer, got -1"),
        ("manifest", "dtype", "f16le", "field 'dtype' must be \"f32le\", got \"f16le\""),
        ("report", "recall", {"1": "0.5"}, "field 'recall' must be an object of numbers keyed "
                                           "by integers, got {\"1\": \"0.5\"}"),
        ("report", "recall", {"01": 0.5}, "field 'recall' must be an object of numbers keyed "
                                          "by integers, got {\"01\": 0.5}"),
        ("report", "accuracy_by_split", {"other": None}, "field 'accuracy_by_split' must be an "
                                                         "object of numbers, got {\"other\": null}"),
        ("report", "accuracy_by_stratum", {"1": [1.0, 4]}, "field 'accuracy_by_stratum[\"1\"]' "
                                                           "must be an object, got [1.0, 4]"),
        ("stratum_cells", "count", 4.5, "field 'accuracy_by_stratum[\"1\"].count' must be an "
                                        "integer, got 4.5"),
    ])
    def test_value_rejected_with_its_message(self, ws, bundle, tmp_path, case, name, value,
                                             message):
        _main_on_broken(ws, bundle, tmp_path, case, "replace", name, value, message)

    @pytest.mark.parametrize("fields, message", [
        ({"accuracy_overall": "0.5"},
         "report {bad}: field 'accuracy_overall' must be a number, got \"0.5\""),
        ({"query_digest": "0" * 64},
         "cannot compare runs over different query universes (20 vs 20 queries)"),
    ], ids=["mistyped", "other-queries"])
    def test_bad_baseline_given_to_compare_to_exits_two(self, ws, bundle, tmp_path, capsys,
                                                         fields, message):
        """A baseline report.json whose accuracy_overall is a string is
        rejected when it is read, not by a TypeError while deltas are taken;
        neither it nor one over other queries leaves any output."""
        report = json.loads((ws.score / "report.json").read_text(encoding="utf-8"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**report, **fields}), encoding="utf-8")
        rc = main(["score", *_reader_flags(ws, bundle).score, "--compare-to", str(bad),
                   "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {message.format(bad=bad)}\n" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_report_map_value_of_another_type_is_rejected(self, ws, tmp_path_factory, data):
        """Each value of each of report.json's maps in turn replaced by a
        value of another JSON type; and recall given keys that int() may
        read but that are not an integer as json.dumps writes one."""
        report = json.loads((ws.score / "report.json").read_text(encoding="utf-8"))
        bad = tmp_path_factory.mktemp("report") / "report.json"
        for field, taken, want in (("recall", ("int", "float"), "an object of numbers keyed by "
                                                                "integers"),
                                   ("accuracy_by_split", ("int", "float"), "an object of numbers"),
                                   ("accuracy_by_stratum", ("dict",), None)):
            for key in report[field]:
                value = data.draw(st.one_of([values for kind, values in _JSON_VALUES.items()
                                             if kind not in taken]), label=f"{field}.{key}")
                broken = json.loads(json.dumps(report))
                broken[field][key] = value
                bad.write_text(json.dumps(broken), encoding="utf-8")
                with pytest.raises(KbvqaError) as got:
                    read_report_json(bad)
                if want is None:
                    message = f"field '{field}[{json.dumps(key)}]' must be an object, got "
                else:
                    message = f"field '{field}' must be {want}, got {json.dumps(broken[field])}"
                assert str(got.value).startswith(f"report {bad}: {message}")
        for key in ("01", " 1", "1 ", "+1", "1_0", "-0", "1.0", "1e1", "\u0663", "", "a"):
            broken = {**report, "recall": {**report["recall"], key: 0.5}}
            bad.write_text(json.dumps(broken), encoding="utf-8")
            with pytest.raises(KbvqaError) as got:
                read_report_json(bad)
            assert str(got.value).startswith(f"report {bad}: field 'recall' must be an object "
                                             f"of numbers keyed by integers, got ")

    # Checks across lines and the lone-surrogate check name the line as the
    # field checks do.
    @pytest.mark.parametrize("role, patch, message", [
        ("entries", {"entry_id": "e000"}, "duplicate entry_id 'e000' (first seen on line 1)"),
        ("queries", {"query_id": "q00"}, "duplicate query_id 'q00' (first seen on line 1)"),
        ("entries", {"embedding_row": 100}, "embedding_row 100 out of range for manifest count "
                                            "100 (entry 'e001')"),
        ("queries", {"answer_type": "numeric_range", "gold_answers": ["20..10"]},
         "numeric_range has lo > hi: '20..10'"),
        ("entries", {"title": "\ud800"}, "title holds a lone surrogate, which UTF-8 cannot "
                                         "encode (entry 'e001')"),
    ], ids=["duplicate-entry-id", "duplicate-query-id", "row-past-the-count",
            "bad-numeric-range-gold", "lone-surrogate"])
    def test_line_error_names_path_and_line(self, ws, bundle, tmp_path, capsys, role, patch,
                                            message):
        rows = read_jsonl(_reader_source(ws, bundle, role))
        rows[1].update(patch)
        bad = tmp_path / f"bad_{role}.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="ascii")
        argv = next(argv for r, _, argv in _READER_CASES.values() if r == role)
        out = tmp_path / "out"
        rc = main([*argv(_reader_flags(ws, bundle), str(bad)), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {bad}:2: {message}\n" in err
        assert "Traceback" not in err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("flag, where", [
        ("--kb-manifest", "cannot load embedding manifest {bad}"),
        ("--queries", "{bad}:1: malformed JSON"), ("--config", "cannot load config file {bad}")])
    def test_json_nested_too_deep_exits_two_naming_the_file(self, bundle, tmp_path, capsys,
                                                           flag, where):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="ascii")
        files = {"--kb-manifest": bundle.kb_manifest, "--queries": bundle.queries_path, flag: bad}
        rc = main(["ingest", "--kb", str(bundle.entries_path), *(
            arg for name, path in files.items() for arg in (name, str(path))),
            "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{where.format(bad=bad)}: maximum recursion depth exceeded" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--config", "--endpoint-config"])
    @pytest.mark.parametrize("raw", [b'{"k": "\xff"}', b'["base_url"]', b"{"])
    def test_json_file_that_cannot_be_read_exits_two_naming_it(self, bundle, tmp_path, capsys,
                                                               flag, raw):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        rc = main(["run", "--variant", "param", "--kb", str(bundle.entries_path),
                   "--kb-manifest", str(bundle.kb_manifest),
                   "--queries", str(bundle.queries_path), flag, str(bad),
                   *(["--mock-script", str(bundle.mock_script)] if flag == "--config" else []),
                   "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(bad) in err and "Traceback" not in err


# Strings hold no lone surrogate, which UTF-8 cannot encode, and numbers are
# finite, as in every record a run writes.
_RECORD_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
_RECORD_SCALARS = {str: _RECORD_TEXT, int: st.integers(), bool: st.booleans(),
                   float: st.floats(allow_nan=False, allow_infinity=False), type(None): st.none()}


def _records_of(cls, **overrides):
    """Instances of a record class, each field drawn from its annotation
    unless overrides gives it; a bare dict field holds scalars."""
    def of(hint):
        if isinstance(hint, types.UnionType):
            return st.one_of(*map(of, typing.get_args(hint)))
        if typing.get_origin(hint) is tuple:
            return st.lists(of(typing.get_args(hint)[0]), max_size=3).map(tuple)
        if typing.get_origin(hint) is dict:
            keys, values = typing.get_args(hint)
            return st.dictionaries(of(keys), of(values), max_size=3)
        if hint is dict:
            return st.dictionaries(_RECORD_TEXT, st.one_of(*_RECORD_SCALARS.values()), max_size=3)
        return _RECORD_SCALARS[hint] if hint in _RECORD_SCALARS else _records_of(hint)

    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{name: overrides[name] if name in overrides else of(hint)
                             for name, hint in hints.items()})


def _read_verdicts(path):
    return records.read_jsonl(path, lambda obj, _: records.from_record(MatchVerdict, obj),
                              EvalError)


# case -> (the writer, the reader, the records of one file)
_ROUND_TRIPS = {
    "queries": (export_queries, ingest_queries, st.lists(_records_of(
        Query, query_id=st.text(st.characters(blacklist_categories=("Cs",)), min_size=1),
        gold_answers=st.lists(_RECORD_TEXT, min_size=1, max_size=3).map(tuple),
        split_tag=st.sampled_from(SPLIT_TAGS), answer_type=st.sampled_from(("text", "numeric")),
        query_embedding_row=st.none() | st.integers(0)), max_size=3,
        unique_by=lambda query: query.query_id)),
    "traces": (write_traces, read_traces, st.lists(_records_of(PipelineTrace), max_size=3,
                                                    unique_by=lambda trace: trace.query_id)),
    "results": (write_results, read_results, st.lists(_records_of(RetrievalResult), max_size=3,
                                                       unique_by=lambda result: result.query_id)),
    "records": (write_records, read_records, st.lists(_records_of(MiningRecord), max_size=3)),
    "verdicts": (write_verdicts, _read_verdicts, st.lists(_records_of(MatchVerdict), max_size=3)),
    "report": (lambda reports, path: write_report_json(reports[0], path),
               lambda path: [read_report_json(path)], st.tuples(_records_of(MetricReport))),
}


class TestRecordRoundTrip:
    """Every record written through records.to_record reads back equal
    through its reader, and the file holds its class's fields in declaration
    order."""

    @pytest.mark.parametrize("case", sorted(_ROUND_TRIPS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_written_records_read_back_equal(self, case, data):
        write, read, strategy = _ROUND_TRIPS[case]
        written = list(data.draw(strategy, label=case))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.json"
            write(written, path)
            assert list(read(path)) == written
            raw = path.read_bytes()
        # Split as bytes: str.splitlines also splits at U+0085 and U+2028.
        objs = [json.loads(raw)] if case == "report" else list(map(json.loads, raw.splitlines()))
        for obj, record in zip(objs, written):
            assert list(obj) == list(typing.get_type_hints(type(record)))

    @settings(max_examples=40, deadline=None)
    @given(traces=st.lists(_records_of(PipelineTrace), max_size=3,
                           unique_by=lambda trace: trace.query_id))
    def test_traces_written_without_transcripts_read_back_without_them(self, traces):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traces.jsonl"
            write_traces(traces, path, include_transcripts=False)
            assert read_traces(path) == [dataclasses.replace(t, transcripts=()) for t in traces]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), entries=st.integers(1, 40), dim=st.integers(1, 8),
           queries=st.integers(1, 4), k=st.integers(1, 12))
    def test_search_batch_results_read_back_equal(self, seed, entries, dim, queries, k):
        """search_batch builds each hit with the score the results file holds."""
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(entries, dim))
        index = FlatIndex([f"e{i}" for i in range(entries)],
                          matrix / np.linalg.norm(matrix, axis=1, keepdims=True))
        results = search_batch(index, list(rng.normal(size=(queries, dim))),
                               [f"q{i}" for i in range(queries)], k)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "retrieval_results.jsonl"
            write_results(results, path)
            assert read_results(path) == results


def test_traced_cli_sees_every_layer(ws, bundle, tmp_path):
    """The per-layer benchmark wraps functions by name; a refactor that moves
    them out of its reach would leave these spans empty."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    common = ["--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest),
              "--queries", str(bundle.queries_path), "--mock-script", str(bundle.mock_script),
              "--workers", "1"]
    names = set()
    for label, variant in (
        ("core", ["--variant", "core", "--core-mode", "staged",
                  "--retrievals", str(ws.retrieve / "retrieval_results.jsonl")]),
        ("oracle", ["--variant", "oracle"]),
    ):
        spans = tmp_path / f"spans_{label}.json"
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "traced_cli.py"), str(spans),
             "run", *variant, *common, "--out-dir", str(tmp_path / label)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        names |= {row[1] for row in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    assert {"kb.ingest_kb", "pipeline.run_query", "prompts.render", "answers.parse",
            "backend.generate", "kb.entry_by_url"} <= names


def test_traced_cli_counts_each_core_staged_call(ws, bundle, tmp_path):
    """A core staged run over the 20 fixture queries renders, calls the
    backend and parses 4 times per query. The benchmark's traced run wraps
    pipeline.render, pipeline.extract_answer, pipeline.parse_reference_letter
    and MockBackend.generate by name, so a binding that moves shows here as
    a count short of 80."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"),
         str(spans), "run", "--variant", "core",
         "--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest),
         "--queries", str(bundle.queries_path), "--mock-script", str(bundle.mock_script),
         "--retrievals", str(ws.retrieve / "retrieval_results.jsonl"),
         "--out-dir", str(tmp_path / "run")],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts: dict[str, int] = {}
    for row in json.loads(spans.read_text(encoding="utf-8"))["spans"]:
        counts[row[1]] = counts.get(row[1], 0) + 1
    wanted = ("prompts.render", "answers.parse", "backend.generate", "pipeline.run_query")
    assert {name: counts.get(name, 0) for name in wanted} == {
        "prompts.render": 80, "answers.parse": 80, "backend.generate": 80,
        "pipeline.run_query": 20,
    }


def test_cli_import_leaves_requests_unloaded():
    """Only an HTTP run pays for importing requests."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kbvqa.cli; print('requests' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_the_http_stack_unloaded():
    """Commands that never talk to an endpoint do not pay for loading
    http.client, ssl and urllib.request, nor those without --plugin for
    subprocess and shlex: every command imports kbvqa.cli."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    modules = ("kbvqa.transport", "http.client", "ssl", "urllib.request", "subprocess", "shlex")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, kbvqa.cli; print([m for m in {modules!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    root = Path(__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))


def test_cli_import_leaves_numpy_unloaded():
    """Only commands that read embeddings or an index pay for importing numpy."""
    env = _src_env()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kbvqa, kbvqa.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# The modules that only the commands which prompt, call a backend, mine or
# score load.
_LATE_MODULES = ("kbvqa.prompts", "kbvqa.pipeline", "kbvqa.backend", "kbvqa.mining",
                 "kbvqa.metrics", "kbvqa.transport")


def _modules_after(argv: list[str]) -> set[str]:
    """The modules in sys.modules after cli.main(argv) in a fresh interpreter."""
    code = ("import json, sys; from kbvqa.cli import main; rc = main(sys.argv[1:]); "
            "print(json.dumps([rc, sorted(sys.modules)]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0, proc.stdout
    return set(modules)


def test_cli_import_loads_no_late_module():
    code = "import json, sys, kbvqa.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert loaded.isdisjoint({*_LATE_MODULES, "concurrent.futures", "numpy"})


def test_each_command_loads_only_the_modules_it_runs(ws, bundle, tmp_path):
    kb = ["--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest)]
    q = ["--queries", str(bundle.queries_path)]
    light = {
        "ingest": ["ingest", *kb, *q],
        "index": ["index", *kb, "--kb-embeddings", str(bundle.kb_embeddings)],
        "retrieve": ["retrieve", *kb, "--index", str(ws.index / "index.npz"), *q,
                     "--query-manifest", str(bundle.query_manifest),
                     "--query-embeddings", str(bundle.query_embeddings)],
    }
    for command, argv in light.items():
        loaded = _modules_after([*argv, "--out-dir", str(tmp_path / command)])
        assert loaded.isdisjoint(_LATE_MODULES), (command, sorted(loaded & set(_LATE_MODULES)))
        assert ("numpy" in loaded) == (command != "ingest")
    loaded = _modules_after([
        "run", "--variant", "core", *kb, *q,
        "--retrievals", str(ws.retrieve / "retrieval_results.jsonl"),
        "--mock-script", str(bundle.mock_script), "--out-dir", str(tmp_path / "run")])
    assert {"kbvqa.pipeline", "kbvqa.backend"} <= loaded
    assert loaded.isdisjoint({"kbvqa.mining", "kbvqa.metrics", "concurrent.futures"})


def test_scoring_and_mining_load_no_backend(ws, bundle, tmp_path):
    """The modules that score and mine, and the commands that run them, make
    no backend call and load neither backend nor transport."""
    code = "import json, sys, kbvqa.metrics, kbvqa.mining; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)).isdisjoint({"kbvqa.backend", "kbvqa.transport"})
    kb = ["--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest)]
    q = ["--queries", str(bundle.queries_path)]
    traces = str(ws.run / "traces.jsonl")
    for argv in (
        ["score", "--traces", traces, *q, *kb,
         "--retrievals", str(ws.retrieve / "retrieval_results.jsonl")],
        ["mine-prki", "--traces-int", traces, "--traces-ext", traces, *q],
        ["mine-vtki", "--probe-traces", str(ws.probe / "probe_traces.jsonl"), *kb, *q],
        ["export-training", "--records", str(ws.mine_prki / "d_int.jsonl"),
         "--objective", "prki", *kb, *q],
    ):
        loaded = _modules_after([*argv, "--out-dir", str(tmp_path / argv[0])])
        assert "kbvqa.pipeline" in loaded or argv[0] == "export-training", argv[0]
        assert loaded.isdisjoint({"kbvqa.backend", "kbvqa.transport"}), argv[0]


def test_every_exported_name_imports_from_the_package():
    """`import kbvqa` loads no module that prompts; each name of __all__
    still imports, as the object its module defines."""
    code = ("import sys, kbvqa; print('kbvqa.prompts' in sys.modules); "
            "ns = {}; exec('from kbvqa import *', ns); "
            "print(sorted(set(kbvqa.__all__) - (set(ns) & set(dir(kbvqa)))))")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False", "[]"]
    import kbvqa

    for name in kbvqa.__all__:
        value = {}
        exec(f"from kbvqa import {name} as value", value)
        assert value["value"] is getattr(sys.modules[value["value"].__module__], name)
    with pytest.raises(ImportError):
        exec("from kbvqa import no_such_name", {})


def _chain(bundle, retrievals: Path, out: Path) -> list[list[str]]:
    """The commands of the offline chain that read no embedding."""
    kb = ["--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest)]
    q = ["--queries", str(bundle.queries_path)]
    r = ["--retrievals", str(retrievals)]
    mock = ["--mock-script", str(bundle.mock_script), "--workers", "1"]
    traces = str(out / "run" / "traces.jsonl")
    return [
        ["ingest", *kb, *q, "--out-dir", str(out / "ingest")],
        ["run", "--variant", "core", *kb, *q, *r, *mock, "--out-dir", str(out / "run")],
        ["probe-unimodal", *kb, *q, *r, *mock, "--out-dir", str(out / "probe")],
        ["mine-prki", "--traces-int", traces, "--traces-ext", traces, *q,
         "--out-dir", str(out / "prki")],
        ["export-training", "--records", str(out / "prki" / "d_int.jsonl"),
         str(out / "prki" / "d_ext.jsonl"), "--objective", "prki", *kb, *q,
         "--out-dir", str(out / "export")],
        ["score", "--traces", traces, *q, *r, *kb, "--out-dir", str(out / "score")],
    ]


def _tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under root by relative path, with root itself written as ROOT."""
    return {str(p.relative_to(root)): p.read_bytes().replace(str(root).encode(), b"ROOT")
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_traces_with_prompt_parts_score_and_mine_as_their_digest_form(bundle, goldens_dir,
                                                                     tmp_path):
    """Core staged traces written when transcripts carried their prompt parts
    read as the digest form of the same lines, and score and mine-prki write
    the same bytes for both."""
    old_lines = (Path(__file__).parent / "data" / "core_staged_traces_with_prompt_parts.jsonl"
                 ).read_text(encoding="utf-8").splitlines(keepends=True)
    qids = [json.loads(line)["query_id"] for line in old_lines]
    chain = goldens_dir / "chain"
    new_by_qid = {json.loads(line)["query_id"]: line for line in
                  (chain / "run_core_staged" / "traces.jsonl").read_text(
                      encoding="utf-8").splitlines(keepends=True)}
    queries = [line for line in bundle.queries_path.read_text(encoding="utf-8").splitlines(
        keepends=True) if json.loads(line)["query_id"] in qids]
    kb = ["--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest)]
    trees = {}
    for side, lines in (("parts", old_lines), ("digest", [new_by_qid[q] for q in qids])):
        root = tmp_path / side
        root.mkdir()
        (root / "traces.jsonl").write_text("".join(lines), encoding="utf-8")
        (root / "queries.jsonl").write_text("".join(queries), encoding="utf-8")
        traces, q = str(root / "traces.jsonl"), ["--queries", str(root / "queries.jsonl")]
        assert main(["score", "--traces", traces, *q, *kb, "--retrievals",
                     str(chain / "retrieve" / "retrieval_results.jsonl"),
                     "--out-dir", str(root / "score")]) == 0
        assert main(["mine-prki", "--traces-int", traces, "--traces-ext", traces, *q,
                     "--out-dir", str(root / "mine_prki")]) == 0
        trees[side] = _tree_bytes(root)
    assert (read_traces(tmp_path / "parts" / "traces.jsonl")
            == read_traces(tmp_path / "digest" / "traces.jsonl"))
    assert trees["parts"].pop("traces.jsonl") != trees["digest"].pop("traces.jsonl")
    assert trees["parts"] == trees["digest"]
    counts = json.loads(trees["digest"]["mine_prki/mining_summary.json"])
    assert (counts["d_int"], counts["d_ext"], counts["equal_answers"]) == (1, 1, 1)


def test_offline_chain_runs_where_numpy_cannot_load(ws, bundle, tmp_path):
    """ingest, run, probe-unimodal, mine-prki, export-training and score in
    processes where `import numpy` fails write the bytes a normal run writes."""
    env = _src_env()
    code = ("import sys; sys.modules['numpy'] = None; "
            "from kbvqa.cli import main; sys.exit(main(sys.argv[1:]))")
    retrievals = ws.retrieve / "retrieval_results.jsonl"
    for argv in _chain(bundle, retrievals, tmp_path / "plain"):
        assert main(argv) == 0
    for argv in _chain(bundle, retrievals, tmp_path / "no_numpy"):
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    plain = _tree_bytes(tmp_path / "plain")
    assert len(plain) >= 6 * 2
    assert _tree_bytes(tmp_path / "no_numpy") == plain


def test_index_and_retrieve_load_numpy_when_they_run(ws, bundle, tmp_path):
    """In fresh processes, index and retrieve import numpy themselves and
    write the results the in-process workflow wrote."""
    env = _src_env()
    kb = ["--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest)]
    for argv in (
        ["index", *kb, "--kb-embeddings", str(bundle.kb_embeddings),
         "--out-dir", str(tmp_path / "index")],
        ["retrieve", *kb, "--index", str(tmp_path / "index" / "index.npz"),
         "--queries", str(bundle.queries_path), "--query-manifest", str(bundle.query_manifest),
         "--query-embeddings", str(bundle.query_embeddings), "--k", "10",
         "--out-dir", str(tmp_path / "retrieve")],
    ):
        proc = subprocess.run([sys.executable, "-m", "kbvqa.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    name = "retrieval_results.jsonl"
    assert (tmp_path / "retrieve" / name).read_bytes() == (ws.retrieve / name).read_bytes()


def _blas_kb(root: Path) -> list[str]:
    """The flags of a retrieve over 20,000 entries of dimension 64, large
    enough for a threaded GEMM, with duplicate rows planted so ties decide
    the order."""
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(20_000, 64))
    rows[1::97] = rows[0]
    queries = rows[rng.choice(20_000, 64)] + rng.normal(scale=0.05, size=(64, 64))
    kb_manifest, kb_data = fixture_gen.write_matrix(
        root, "kb", rows / np.linalg.norm(rows, axis=1, keepdims=True))
    q_manifest, q_data = fixture_gen.write_matrix(
        root, "q", queries / np.linalg.norm(queries, axis=1, keepdims=True))
    (root / "entries.jsonl").write_text("".join(
        json.dumps({"entry_id": f"e{i}", "url": f"u{i}", "embedding_row": i}) + "\n"
        for i in range(20_000)), encoding="utf-8")
    (root / "queries.jsonl").write_text("".join(
        json.dumps({"query_id": f"q{j}", "question": "?", "gold_answers": ["a"],
                    "query_embedding_row": j}) + "\n" for j in range(64)), encoding="utf-8")
    return ["--kb", str(root / "entries.jsonl"), "--kb-manifest", str(kb_manifest),
            "--kb-embeddings", str(kb_data), "--queries", str(root / "queries.jsonl"),
            "--query-manifest", str(q_manifest), "--query-embeddings", str(q_data), "--k", "10"]


def test_retrieve_writes_the_same_results_with_one_or_two_blas_threads(tmp_path):
    flags = _blas_kb(tmp_path)
    results = {}
    for threads in ("1", "2"):
        env = dict(_src_env(), **dict.fromkeys(cli_module.BLAS_THREAD_VARS, threads))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "kbvqa.cli", "retrieve", *flags,
                               "--out-dir", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        results[threads] = (out / "retrieval_results.jsonl").read_bytes()
    assert results["1"] == results["2"]
    assert len(results["1"].splitlines()) == 64


@pytest.mark.parametrize("command", ["index", "retrieve", "ingest"])
def test_main_defaults_one_blas_thread_for_the_numpy_commands_only(ws, bundle, tmp_path,
                                                                   monkeypatch, command):
    """A variable the user set keeps its value; only index and retrieve set the others."""
    for name in cli_module.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    kb = ["--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest)]
    q = ["--queries", str(bundle.queries_path)]
    argv = {
        "index": ["index", *kb, "--kb-embeddings", str(bundle.kb_embeddings)],
        "retrieve": ["retrieve", *kb, "--index", str(ws.index / "index.npz"), *q,
                     "--query-manifest", str(bundle.query_manifest),
                     "--query-embeddings", str(bundle.query_embeddings)],
        "ingest": ["ingest", *kb, *q],
    }[command]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 0
    expected = "1" if command in ("index", "retrieve") else None
    assert [os.environ.get(name) for name in cli_module.BLAS_THREAD_VARS] == [
        "3", expected, expected]


def test_cli_import_sets_no_blas_thread_count():
    env = {k: v for k, v in _src_env().items() if k not in cli_module.BLAS_THREAD_VARS}
    code = ("import os, kbvqa.cli; "
            f"print([n for n in {cli_module.BLAS_THREAD_VARS!r} if n in os.environ])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCrossFileReferences:
    """An id or index in one file that names nothing in another stops the
    command with exit 2 and one error line, before it writes anything."""

    @staticmethod
    def _broken(source: Path, path: Path, change) -> Path:
        lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[0])
        change(record)
        lines[0] = json.dumps(record) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        return path

    @staticmethod
    def _assert_exit_two(argv: list[str], out: Path, capsys, message: str) -> None:
        assert main([*argv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("context_entry_ids", "ghost",
         "field 'context_entry_ids' names entry 'ghost', which is not in the KB"),
        ("i_v", 9, "field 'i_v' must be an index into the 5 entries of context_entry_ids, got 9"),
        ("i_v", -1, "field 'i_v' must be an index into the 5 entries of context_entry_ids, "
                    "got -1"),
        ("i_t", 5, "field 'i_t' must be an index into the 5 entries of context_entry_ids, got 5"),
    ])
    def test_mine_vtki_rejects_a_probe_trace_naming_nothing(self, ws, bundle, tmp_path, capsys,
                                                           field, value, message):
        def change(trace):
            if field == "context_entry_ids":
                trace[field][2] = value
            else:
                trace[field] = value
        bad = self._broken(ws.probe / "probe_traces.jsonl", tmp_path / "probe.jsonl", change)
        argv = ["mine-vtki", "--probe-traces", str(bad), "--kb", str(bundle.entries_path),
                "--kb-manifest", str(bundle.kb_manifest), "--queries", str(bundle.queries_path)]
        self._assert_exit_two(argv, tmp_path / "out", capsys, f"{bad}:1: {message}")

    @pytest.mark.parametrize("objective", ["sft", "vtki"])
    @pytest.mark.parametrize("change, got", [
        ({"target": 7}, "5 entries of context_entry_ids, got 7"),
        ({"target": -1}, "5 entries of context_entry_ids, got -1"),
        ({"target": "x"}, "5 entries of context_entry_ids, got \"x\""),
        ({"context_entry_ids": []}, "0 entries of context_entry_ids, got 0"),
    ], ids=["past-the-end", "negative", "a-string", "empty-context"])
    def test_export_rejects_a_selection_target_outside_its_context(
            self, ws, bundle, tmp_path, capsys, objective, change, got):
        bad = self._broken(ws.mine_vtki / "d_v.jsonl", tmp_path / "d_v.jsonl",
                           lambda record: record.update(change))
        argv = ["export-training", "--records", str(bad), "--objective", objective,
                "--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest),
                "--queries", str(bundle.queries_path)]
        self._assert_exit_two(argv, tmp_path / "out", capsys,
                              f"{bad}:1: field 'target' must be an index into the {got}")

    @pytest.mark.parametrize("hit", [0, -1], ids=["first-hit", "last-hit"])
    def test_score_rejects_a_hit_not_in_the_kb_as_run_does(self, ws, bundle, tmp_path, capsys,
                                                            hit):
        def change(result):
            result["hits"][hit]["entry_id"] = "ghost"
        bad = self._broken(ws.retrieve / "retrieval_results.jsonl", tmp_path / "results.jsonl",
                           change)
        kb = ["--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest)]
        q = ["--queries", str(bundle.queries_path)]
        message = "retrieval hit 'ghost' for query 'q00' is not in the KB"
        commands = [["score", "--traces", str(ws.run / "traces.jsonl"), *q, *kb,
                     "--retrievals", str(bad)]]
        if hit == 0:  # run resolves only the hits it prompts with
            commands.append(["run", "--variant", "core", *kb, *q, "--retrievals", str(bad),
                             "--mock-script", str(bundle.mock_script)])
        for i, argv in enumerate(commands):
            self._assert_exit_two(argv, tmp_path / f"out{i}", capsys, message)


def _without_latency(value):
    if isinstance(value, dict):
        return {k: _without_latency(v) for k, v in value.items() if k != "latency_ms"}
    if isinstance(value, list):
        return [_without_latency(v) for v in value]
    return value


def _http_core_run(ws, bundle, tmp_path, server, label, *extra):
    """`kbvqa run` of staged core against server; the traces without latency."""
    endpoint = tmp_path / "endpoint.json"
    endpoint.write_text(json.dumps({"base_url": server.url, "model": "m"}))
    assert main([
        "run", "--variant", "core", "--core-mode", "staged",
        "--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest),
        "--queries", str(bundle.queries_path),
        "--retrievals", str(ws.retrieve / "retrieval_results.jsonl"),
        "--endpoint-config", str(endpoint), *extra, "--out-dir", str(tmp_path / label),
    ]) == 0
    return _without_latency(read_jsonl(tmp_path / label / "traces.jsonl"))


def test_http_run_keeps_max_in_flight_calls_on_the_wire(ws, bundle, tmp_path):
    """Without --workers an HTTP run holds DEFAULT_HTTP_WORKERS (8) calls at
    once, never more, and writes the traces a one-worker run writes."""
    with LocalServer(delay_s=0.05, reply=fixture_gen.core_staged_reply(bundle)) as server:
        concurrent = _http_core_run(ws, bundle, tmp_path, server, "default")
        in_flight_max = server.in_flight_max
        server.delay_s = 0.0
        serial = _http_core_run(ws, bundle, tmp_path, server, "serial", "--workers", "1")
    assert in_flight_max == 8
    assert len(server.requests) == 2 * 4 * len(bundle.queries)
    assert concurrent == serial
    assert [t["query_id"] for t in serial] == [q["query_id"] for q in bundle.queries]


@pytest.mark.parametrize("workers", [4, 8, 16])
def test_http_run_holds_workers_calls_on_the_wire(ws, bundle, tmp_path, workers):
    """--workers alone sets the calls in flight, past the default of 8 too,
    and the traces match those of a run that holds one call at a time."""
    with LocalServer(delay_s=0.05, reply=fixture_gen.core_staged_reply(bundle)) as server:
        concurrent = _http_core_run(ws, bundle, tmp_path, server, "concurrent",
                                    "--workers", str(workers))
        in_flight_max = server.in_flight_max
        server.delay_s, server.in_flight_max = 0.0, 0
        serial = _http_core_run(ws, bundle, tmp_path, server, "serial", "--workers", "1")
    assert (in_flight_max, server.in_flight_max) == (workers, 1)
    assert concurrent == serial


def test_mock_run_defaults_to_one_worker(bundle, tmp_path, monkeypatch):
    """The mock backend has no calls in flight, so its default is one thread."""
    seen = []
    run_many = PipelineRunner.run_many

    def spy(self, *args, workers):
        seen.append(workers)
        return run_many(self, *args, workers=workers)

    monkeypatch.setattr(PipelineRunner, "run_many", spy)
    assert main([
        "run", "--variant", "param", "--kb", str(bundle.entries_path),
        "--kb-manifest", str(bundle.kb_manifest), "--queries", str(bundle.queries_path),
        "--mock-script", str(bundle.mock_script), "--out-dir", str(tmp_path),
    ]) == 0
    assert seen == [1]
    assert json.loads((tmp_path / "run_config.json").read_text())["workers"] is None


def test_http_run_needs_no_requests_package(ws, bundle, tmp_path):
    """A `kbvqa run` over HTTP, in a process where `import requests` fails."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    for name in ("NO_PROXY", "no_proxy", "ALL_PROXY", "all_proxy", "HTTP_PROXY", "http_proxy"):
        env.pop(name, None)
    code = ("import sys; sys.modules['requests'] = None; "
            "from kbvqa.cli import main; sys.exit(main(sys.argv[1:]))")
    endpoint = tmp_path / "endpoint.json"
    with LocalServer(reply=fixture_gen.core_staged_reply(bundle)) as server:
        endpoint.write_text(json.dumps({"base_url": server.url, "model": "m"}))
        proc = subprocess.run(
            [sys.executable, "-c", code, "run", "--variant", "core", "--core-mode", "staged",
             "--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest),
             "--queries", str(bundle.queries_path),
             "--retrievals", str(ws.retrieve / "retrieval_results.jsonl"),
             "--endpoint-config", str(endpoint), "--out-dir", str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode == 0, proc.stderr
    assert len(server.requests) == 4 * len(bundle.queries)
    traces = read_jsonl(tmp_path / "run" / "traces.jsonl")
    assert not any(t["failed"] for t in traces)


def test_http_reply_with_a_lone_surrogate_fails_that_query(ws, bundle, tmp_path):
    """Content that no UTF-8 file can hold fails its call as a malformed body;
    the other queries' traces are written whole."""
    answer = fixture_gen.core_staged_reply(bundle)

    def reply(body: bytes) -> str:
        text = answer(body)
        return "[x\ud800]" if "What does query 7 ask about" in body.decode() else text

    endpoint = tmp_path / "endpoint.json"
    with LocalServer(reply=reply) as server:
        endpoint.write_text(json.dumps({"base_url": server.url, "model": "m"}))
        rc = main([
            "run", "--variant", "core", "--core-mode", "staged", "--workers", "1",
            "--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest),
            "--queries", str(bundle.queries_path),
            "--retrievals", str(ws.retrieve / "retrieval_results.jsonl"),
            "--endpoint-config", str(endpoint), "--out-dir", str(tmp_path / "run"),
        ])
    assert rc == 1
    traces = read_jsonl(tmp_path / "run" / "traces.jsonl")
    assert [t["query_id"] for t in traces] == [q["query_id"] for q in bundle.queries]
    failed = [t for t in traces if t["failed"]]
    assert [t["query_id"] for t in failed] == ["q07"]
    assert "malformed response body for query_id='q07' stage=" in failed[0]["error"]
    assert "lone surrogate" in failed[0]["error"]


class TestHelpGoldens:
    def _golden_check(self, text, path):
        assert path.exists(), f"golden missing: {path}"
        assert text == path.read_text(encoding="utf-8")

    def test_main_help(self, goldens_dir, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        self._golden_check(build_parser().format_help(),
                           goldens_dir / "help_main.golden.txt")

    def test_run_help(self, goldens_dir, monkeypatch):
        import argparse
        monkeypatch.setenv("COLUMNS", "100")
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        self._golden_check(sub.choices["run"].format_help(),
                           goldens_dir / "help_run.golden.txt")

    @pytest.mark.parametrize("command", [
        "ingest", "index", "retrieve", "probe-unimodal", "mine-prki", "mine-vtki",
        "export-training", "score", "sweep",
    ])
    def test_subcommand_help(self, command, goldens_dir, monkeypatch):
        import argparse
        monkeypatch.setenv("COLUMNS", "100")
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        self._golden_check(sub.choices[command].format_help(),
                           goldens_dir / f"help_{command.replace('-', '_')}.golden.txt")


@pytest.mark.parametrize("command", list(cli_module.COMMANDS))
def test_one_command_parser_matches_the_full_parser(command, monkeypatch):
    """main builds only the named subcommand: its help and defaults are the full parser's."""
    import argparse

    monkeypatch.setenv("COLUMNS", "100")

    def sub(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    alone, full = build_parser(command), build_parser()
    assert list(sub(alone)) == [command]
    assert sub(alone)[command].format_help() == sub(full)[command].format_help()
    assert (cli_module._resolve(alone.parse_args([command]))
            == cli_module._resolve(full.parse_args([command])))


def resolved_defaults() -> str:
    """Each subcommand's configuration with no flags and no config file, as JSON."""
    import argparse

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    out = {command: cli_module._resolve(parser.parse_args([command])) for command in sub.choices}
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def test_resolved_default_config(goldens_dir):
    golden = goldens_dir / "resolved_defaults.golden.json"
    assert golden.exists(), f"golden missing: {golden}"
    assert resolved_defaults() == golden.read_text(encoding="utf-8")
