"""Seeded input generation for the three benchmark workloads.

Everything the program reads is written here from ``--seed``; the same seed
gives byte-identical inputs. Alongside the files, each workload gets a
*plan*: the answers the backend will give, the outcome every check expects,
and the retrieval ranking computed by the benchmark's own float64
brute-force search. The program never sees the plan.

Regenerate one workload's inputs without running anything:

    python3 perfbench/workloads.py --workload core_http --seed 1 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checkers import brute_force_topk
from stub_server import IMAGE_MAGIC

LETTERS = "ABCDE"
TOP_K = 5  # the CLI's --top-k default; prompts carry five references
K = 10  # retrieval depth: retrieve --k, and the hits written for offline_eval


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload's inputs."""

    entries: int
    dim: int
    queries: int
    content_chars: tuple[int, int]  # uniform range of entry content length
    image_bytes: int  # 0: image refs are URIs, never read
    stub_delay_ms: float  # 0: no HTTP endpoint


SPECS = {
    "retrieve_100k": Spec(entries=100_000, dim=256, queries=128,
                          content_chars=(40, 160), image_bytes=0, stub_delay_ms=0.0),
    # Images: 96 KiB, an estimate of a 640x480 photograph stored as JPEG at
    # about 2.5 bits per pixel. Delay: 20 ms per call; README.md shows that it
    # fits the staged-core throughput measured against single-write and
    # two-write stubs.
    "core_http": Spec(entries=1_000, dim=64, queries=96,
                      content_chars=(800, 3000), image_bytes=98_304, stub_delay_ms=20.0),
    "offline_eval": Spec(entries=20_000, dim=64, queries=1_200,
                         content_chars=(300, 2600), image_bytes=0, stub_delay_ms=0.0),
}

WORKLOAD_SALT = {"retrieve_100k": 1, "core_http": 2, "offline_eval": 3}

_SYLLABLES = ("ka", "lo", "mer", "vin", "sta", "dor", "qui", "bel", "tra", "zen", "fa",
              "ros", "nel", "pi", "gru", "sho", "ton", "vek", "mi", "dal", "rug", "cen")
_KINDS = ("landmark", "building", "animal", "plant", "bridge", "painting", "vessel", "mountain")


# -- small generators -----------------------------------------------------


def _word_pool(rng: np.random.Generator, size: int) -> list[str]:
    """Distinct capitalised pseudo-words; none is an article."""
    words: set[str] = set()
    while len(words) < size:
        n = int(rng.integers(2, 4))
        words.add("".join(_SYLLABLES[i] for i in rng.integers(0, len(_SYLLABLES), n)).capitalize())
    return sorted(words)


def _text_pool(rng: np.random.Generator, words: list[str]) -> str:
    """A long run of encyclopedia-style sentences to slice entry content from."""
    sentences = []
    for _ in range(600):
        a, b, c, d = (words[i] for i in rng.integers(0, len(words), 4))
        year = int(rng.integers(1200, 2020))
        form = int(rng.integers(0, 3))
        if form == 0:
            sentences.append(f"The {a} {b} of {c} was first recorded in {year} near {d}.")
        elif form == 1:
            sentences.append(f"In {year}, {a} described the {b} as the largest in {c}!")
        else:
            sentences.append(f"Is the {a} related to {b}? Scholars of {c} and {d} disagree.")
    return " ".join(sentences)


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    m = rng.standard_normal((n, dim), dtype=np.float32)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    return m


def _write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")


def _write_matrix(root: Path, stem: str, matrix: np.ndarray | None, count: int, dim: int):
    manifest = root / f"{stem}_manifest.json"
    manifest.write_text(json.dumps({"dim": dim, "count": count, "normalized": True,
                                    "dtype": "f32le"}) + "\n", encoding="utf-8")
    data = root / f"{stem}.f32"
    if matrix is not None:
        matrix.astype("<f4").tofile(data)
    return manifest, data


def entry_id(i: int) -> str:
    return f"e{i:06d}"


def entry_url(i: int) -> str:
    return f"https://kb.example/wiki/Article_{i:06d}"


def image_blob(name: str, size: int, rng: np.random.Generator) -> bytes:
    """An image file that names itself in its first line, then random bytes."""
    head = IMAGE_MAGIC + name.encode("ascii") + b"\n"
    return head + rng.integers(0, 256, size - len(head), dtype=np.uint8).tobytes()


# -- planted answers --------------------------------------------------------

# Answer-inconsistency categories: (y_int matches gold, y_ext matches gold,
# answers equal after normalisation). both_right differs only in surface form
# that the match rule accepts, and goes to d_int.
PRKI_CATEGORIES = ("same_right", "same_wrong", "int_right", "ext_right", "both_right", "neither")
PRKI_WEIGHTS = (0.25, 0.10, 0.20, 0.25, 0.08, 0.12)
# Selection-inconsistency categories for the unimodal probes.
VTKI_CATEGORIES = ("equal", "v_right", "t_right", "neither")
VTKI_WEIGHTS = (0.40, 0.25, 0.20, 0.15)


def _answers(rng: np.random.Generator, words: list[str], numeric: bool, category: str):
    """(gold_answers, y_int, y_ext, right_variant, wrong_variant) for one query.

    Every string's match status and normal form is known by construction:
    gold names and wrong names are distinct pseudo-words, "the X" / "X." /
    lowercase are the same normal form, and numbers 2% off match under the
    5% tolerance while 30% off do not.
    """
    if numeric:
        v = int(rng.integers(150, 9000))
        gold = (str(v),)
        right = [str(v), f"the {v}", f"{v}."]
        near = str(round(v * 1.02))
        wrong_a, wrong_b = str(round(v * 1.3)), str(round(v * 0.6))
    else:
        a, b, c, d, e = (words[i] for i in rng.choice(len(words), 5, replace=False))
        gold = (f"{a} {b}", f"{c} {b}")
        right = [gold[0], f"the {gold[0]}", f"{gold[0].lower()}."]
        near = gold[1]
        wrong_a, wrong_b = f"{d} {b}", f"{e} {a}"
    r1, r2 = (right[i] for i in rng.choice(len(right), 2, replace=False))
    y = {
        "same_right": (r1, r2),
        "same_wrong": (wrong_a, wrong_a + "."),
        "int_right": (r1, wrong_a),
        "ext_right": (wrong_a, r1),
        "both_right": (r1, near),
        "neither": (wrong_a, wrong_b),
    }[category]
    return gold, y[0], y[1], right[0], wrong_b


def _reply(rng: np.random.Generator, answer: str) -> str:
    """A verbose model reply whose last bracket span is the answer."""
    lead = ("Looking at the image, ", "The photo shows a known subject; ", "")[int(rng.integers(0, 3))]
    return f"{lead}my answer is [ {answer} ]"


def _letter_reply(rng: np.random.Generator, index: int) -> str:
    """A reply that mentions a decoy reference before the chosen one."""
    decoy = LETTERS[int(rng.integers(0, TOP_K))]
    return f"Reference {decoy} looks close, but the best match is [Reference {LETTERS[index]}]"


def plan_queries(rng: np.random.Generator, words: list[str], qids: list[str],
                 candidates: dict[str, list[str]], gold_pos: dict[str, int | None],
                 gold_entry: dict[str, str], with_probes: bool) -> dict[str, dict]:
    """Per query: the planted stage replies and every value they must produce."""
    plan: dict[str, dict] = {}
    for qid in qids:
        numeric = rng.random() < 0.2
        category = PRKI_CATEGORIES[int(rng.choice(len(PRKI_CATEGORIES), p=PRKI_WEIGHTS))]
        gold, y_int, y_ext, right, wrong = _answers(rng, words, numeric, category)
        final_right = bool(rng.random() < 0.6)
        y_final = right if final_right else wrong
        i_tv = int(rng.integers(0, TOP_K))
        p = {
            "category": category,
            "answer_type": "numeric" if numeric else "text",
            "gold_answers": list(gold),
            "y_int": y_int, "y_ext": y_ext, "y_final": y_final, "final_right": final_right,
            "i_tv": i_tv,
            "prki_flag": category not in ("same_right", "same_wrong"),
            "candidates": candidates[qid][:TOP_K],
            "gold_pos": gold_pos[qid],
            "gold_entry": gold_entry[qid],
            "replies": {
                "core_param": _reply(rng, y_int),
                "core_select": _letter_reply(rng, i_tv),
                "core_ext_gen": _reply(rng, y_ext),
                "core_reconcile": _reply(rng, y_final),
            },
        }
        if with_probes:
            oracle_right = bool(rng.random() < 0.7)
            p["oracle_answer"] = right if oracle_right else wrong
            p["oracle_right"] = oracle_right
            p["replies"]["oracle_gen"] = _reply(rng, p["oracle_answer"])
            i_v, i_t = _probe_indices(rng, gold_pos[qid])
            p["i_v"], p["i_t"] = i_v, i_t
            p["replies"]["probe_visual"] = _letter_reply(rng, i_v)
            p["replies"]["probe_text"] = _letter_reply(rng, i_t)
        plan[qid] = p
    return plan


def _probe_indices(rng: np.random.Generator, i_gt: int | None) -> tuple[int, int]:
    category = VTKI_CATEGORIES[int(rng.choice(len(VTKI_CATEGORIES), p=VTKI_WEIGHTS))]
    others = [i for i in range(TOP_K) if i != i_gt]
    if category == "equal":
        i = int(rng.integers(0, TOP_K))
        return i, i
    if i_gt is not None and category == "v_right":
        return i_gt, int(rng.choice(others))
    if i_gt is not None and category == "t_right":
        return int(rng.choice(others)), i_gt
    a, b = (int(x) for x in rng.choice(others, 2, replace=False))
    return a, b


# -- workloads ------------------------------------------------------------


def _entries(spec: Spec, rng: np.random.Generator, words: list[str], image_ref) -> list[dict]:
    text = _text_pool(rng, words)
    starts = [i + 1 for i, ch in enumerate(text[:-4000]) if ch == "." and text[i + 1] == " "]
    lo, hi = spec.content_chars
    lengths = rng.integers(lo, hi + 1, spec.entries)
    offsets = rng.integers(0, len(starts), spec.entries)
    t1 = rng.integers(0, len(words), spec.entries)
    t2 = rng.integers(0, len(words), spec.entries)
    rows = []
    for i in range(spec.entries):
        title = f"{words[t1[i]]} {words[t2[i]]}"
        s = starts[offsets[i]] + 1
        rows.append({
            "schema_version": 1, "entry_id": entry_id(i), "url": entry_url(i),
            "title": title,
            "content": f"{title} is an article of the encyclopedia. " + text[s:s + int(lengths[i])],
            "image_refs": [image_ref(i)],
            "embedding_row": i,
        })
    return rows


def _clustered_kb(spec: Spec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """KB and query vectors where each query has a cluster of close entries,
    some of them exact duplicate rows, so score ties land inside the top-k."""
    kb = _unit_rows(rng, spec.entries, spec.dim)
    queries = np.empty((spec.queries, spec.dim), dtype=np.float32)
    used: set[int] = set()

    def fresh(count: int) -> list[int]:
        out = []
        while len(out) < count:
            i = int(rng.integers(0, spec.entries))
            if i not in used:
                used.add(i)
                out.append(i)
        return out

    for j in range(spec.queries):
        centre = rng.standard_normal(spec.dim)
        centre /= np.linalg.norm(centre)
        q = centre + 0.15 * rng.standard_normal(spec.dim) / np.sqrt(spec.dim)
        queries[j] = q / np.linalg.norm(q)
        members = fresh(12)
        for rank, i in enumerate(members):
            noise = (0.2 + 0.12 * rank) * rng.standard_normal(spec.dim) / np.sqrt(spec.dim)
            v = centre + noise
            kb[i] = v / np.linalg.norm(v)
        # three members get one or two exact copies elsewhere in the KB
        for i in rng.choice(members[:11], 3, replace=False):
            for dup in fresh(int(rng.integers(1, 3))):
                kb[dup] = kb[i]
    return kb, queries


def _query_rows(qids: list[str], questions: list[str], plan, gold_entry,
                image_ref) -> list[dict]:
    rows = []
    for j, qid in enumerate(qids):
        rows.append({
            "query_id": qid, "question": questions[j], "image_ref": image_ref(qid),
            "gold_answers": plan[qid]["gold_answers"] if plan else ["unknown"],
            "gold_entry_url": entry_url(int(gold_entry[qid][1:])),
            "split_tag": ("unseen_q", "unseen_e", "other")[j % 3],
            "answer_type": plan[qid]["answer_type"] if plan else "text",
            "query_embedding_row": j,
        })
    return rows


def _questions(rng: np.random.Generator, words: list[str], qids: list[str]) -> list[str]:
    out = []
    for qid in qids:
        kind = _KINDS[int(rng.integers(0, len(_KINDS)))]
        place = words[int(rng.integers(0, len(words)))]
        out.append(f"Which {kind} from {place} is shown in this photo (record {qid})?")
    return out


@dataclass
class Inputs:
    """Paths of the generated files plus the plan the checkers use."""

    root: Path
    spec: Spec
    files: dict[str, Path]
    expected_topk: dict[str, list[tuple[int, float]]]  # qid -> [(ordinal, score)]
    plan: dict[str, dict]
    images: dict[str, str]  # image name -> sha256 hex
    questions: dict[str, str]  # question text -> query id

    def plan_json(self) -> dict:
        """What the stub endpoint needs to recognise and answer every request."""
        return {"questions": self.questions, "queries": self.plan, "images": self.images}


def generate(name: str, seed: int, root: Path, spec: Spec | None = None) -> Inputs:
    """Write every input of workload *name* for *seed* under *root*."""
    spec = spec or SPECS[name]
    rng = np.random.default_rng([seed, WORKLOAD_SALT[name]])
    root.mkdir(parents=True, exist_ok=True)
    words = _word_pool(rng, 4096)
    qids = [f"q{j:05d}" for j in range(spec.queries)]
    files: dict[str, Path] = {}
    images: dict[str, str] = {}

    if spec.image_bytes:
        img_dir = root / "images"
        img_dir.mkdir(exist_ok=True)

        def entry_image(i: int) -> str:
            return str(img_dir / f"{entry_id(i)}.img")

        def query_image(qid: str) -> str:
            return str(img_dir / f"{qid}.img")

        for name_ in [entry_id(i) for i in range(spec.entries)] + qids:
            blob = image_blob(name_, spec.image_bytes, rng)
            (img_dir / f"{name_}.img").write_bytes(blob)
            images[name_] = hashlib.sha256(blob).hexdigest()
    else:
        def entry_image(i: int) -> str:
            return f"https://img.example/{entry_id(i)}.jpg"

        def query_image(qid: str) -> str:
            return f"https://img.example/{qid}.jpg"

    entries = _entries(spec, rng, words, entry_image)
    files["kb"] = root / "entries.jsonl"
    _write_jsonl(files["kb"], entries)
    del entries

    expected_topk: dict[str, list[tuple[int, float]]] = {}
    candidates: dict[str, list[str]] = {}
    gold_pos: dict[str, int | None] = {}
    gold_entry: dict[str, str] = {}
    if name == "offline_eval":
        # Retrieval output is written by the benchmark: ten distinct hits per
        # query with the gold entry planted at a chosen rank (or absent).
        files["kb_manifest"], _ = _write_matrix(root, "kb", None, spec.entries, spec.dim)
        results = []
        for qid in qids:
            hits = [int(i) for i in rng.choice(spec.entries, K + 1, replace=False)]
            rank = int(rng.choice([1, 2, 3, 4, 5, 7, 0], p=[.3, .15, .1, .1, .1, .1, .15]))
            gold = hits.pop()
            if rank:
                hits[rank - 1] = gold
            scores = np.sort(rng.uniform(0.2, 0.9, K))[::-1]
            results.append({"query_id": qid, "k": K, "hits": [
                {"entry_id": entry_id(i), "score": float(f"{s:.9g}")} for i, s in zip(hits, scores)]})
            candidates[qid] = [entry_id(i) for i in hits]
            gold_pos[qid] = rank - 1 if 1 <= rank <= TOP_K else None
            gold_entry[qid] = entry_id(gold)
        files["retrievals"] = root / "retrievals.jsonl"
        _write_jsonl(files["retrievals"], results)
    else:
        if name == "retrieve_100k":
            kb, qm = _clustered_kb(spec, rng)
        else:
            kb, qm = _unit_rows(rng, spec.entries, spec.dim), _unit_rows(rng, spec.queries, spec.dim)
        files["kb_manifest"], files["kb_embeddings"] = _write_matrix(
            root, "kb", kb, spec.entries, spec.dim)
        files["query_manifest"], files["query_embeddings"] = _write_matrix(
            root, "query", qm, spec.queries, spec.dim)
        topk = brute_force_topk(kb, qm, K)
        del kb
        for j, qid in enumerate(qids):
            expected_topk[qid] = topk[j]
            candidates[qid] = [entry_id(i) for i, _ in topk[j]]
            # gold planted at rank 1..5 of the independent ranking, or rank 8
            rank = int(rng.choice([1, 2, 3, 4, 5, 8], p=[.4, .15, .15, .1, .1, .1]))
            gold_entry[qid] = entry_id(topk[j][rank - 1][0])
            gold_pos[qid] = rank - 1 if rank <= TOP_K else None

    plan: dict[str, dict] = {}
    if name != "retrieve_100k":
        plan = plan_queries(rng, words, qids, candidates, gold_pos, gold_entry,
                            with_probes=(name == "offline_eval"))
    questions = _questions(rng, words, qids)
    files["queries"] = root / "queries.jsonl"
    _write_jsonl(files["queries"], _query_rows(qids, questions, plan, gold_entry, query_image))

    if name == "offline_eval":
        files["mock_script"] = root / "mock_script.jsonl"
        _write_jsonl(files["mock_script"], (
            {"query_id": qid, "stage": stage, "text": text}
            for qid in qids for stage, text in plan[qid]["replies"].items()))
    inputs = Inputs(root=root, spec=spec, files=files, expected_topk=expected_topk,
                    plan=plan, images=images, questions=dict(zip(questions, qids)))
    if name == "core_http":
        files["plan"] = root / "stub_plan.json"
        files["plan"].write_text(json.dumps(inputs.plan_json()), encoding="utf-8")
    return inputs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(SPECS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    inputs = generate(args.workload, args.seed, args.out)
    for role, path in sorted(inputs.files.items()):
        print(f"{role}: {path}")


if __name__ == "__main__":
    main()
