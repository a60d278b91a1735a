"""CoNLL-U parsing, event loading, and the synthetic generator."""

import collections
import fractions
import json
import math
import pickle
import random
import re

import numpy as np
import pytest

from depchain import (
    CorpusError,
    DepSentence,
    EventMention,
    SynthConfig,
    TemporalStatus,
    Token,
    generate_synthetic,
    index_sentences,
    load_events,
    parse_conllu,
    serialize_conllu,
    serialize_events,
    synthetic_cue_forms,
    synthetic_vocabulary,
)

FIXTURE = """# newdoc id = doc1
# sent_id = s1
1\tactivists\t_\t_\t_\t_\t3\tnsubj\t_\t_
2\twill\t_\t_\t_\t_\t3\taux\t_\t_
3\tlaunch\t_\t_\t_\t_\t0\troot\t_\t_
4\ta\t_\t_\t_\t_\t5\tdet\t_\t_
5\tstrike\t_\t_\t_\t_\t3\tdobj\t_\t_
6\tdescribing\t_\t_\t_\t_\t3\txcomp\t_\t_
7\ttheir\t_\t_\t_\t_\t8\tnmod:poss\t_\t_
8\tprotest\t_\t_\t_\t_\t6\tdobj\t_\t_
"""

ROW = "1\thi\t_\t_\t_\t_\t0\troot\t_\t_"


def make_sentence(rows, doc_id="d", sent_id="s"):
    tokens = tuple(
        Token(id=i + 1, form=form, head=head, deprel=rel)
        for i, (form, head, rel) in enumerate(rows)
    )
    return DepSentence(doc_id=doc_id, sent_id=sent_id, tokens=tokens)


class TestTemporalStatus:
    def test_codes(self):
        assert TemporalStatus.PAST.code == "PA"
        assert TemporalStatus.ONGOING.code == "OG"
        assert TemporalStatus.FUTURE.code == "FU"

    def test_order_matches_class_indices(self):
        assert int(TemporalStatus.PAST) == 0
        assert int(TemporalStatus.ONGOING) == 1
        assert int(TemporalStatus.FUTURE) == 2

    def test_from_code(self):
        assert TemporalStatus.from_code("FU") is TemporalStatus.FUTURE
        with pytest.raises(CorpusError, match="unknown label"):
            TemporalStatus.from_code("XX")


class TestParseConllu:
    def test_fixture(self):
        sents = parse_conllu(FIXTURE)
        assert len(sents) == 1
        s = sents[0]
        assert s.doc_id == "doc1"
        assert s.sent_id == "s1"
        assert [t.form for t in s.tokens] == [
            "activists", "will", "launch", "a", "strike",
            "describing", "their", "protest",
        ]
        assert s.token(3).head == 0
        assert s.token(7).deprel == "nmod:poss"
        assert s.root_id == 3
        assert s.children == ((3,), (), (), (1, 2, 5, 6), (), (4,), (8,), (), (7,))

    def test_multiword_and_empty_nodes_skipped(self):
        text = (
            "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tde\t_\t_\t_\t_\t2\tcase\t_\t_\n"
            "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\tcasa\t_\t_\t_\t_\t0\troot\t_\t_\n"
        )
        sents = parse_conllu(text)
        assert [t.form for t in sents[0].tokens] == ["de", "casa"]

    def test_missing_sent_id_synthesized(self):
        text = "1\thi\t_\t_\t_\t_\t0\troot\t_\t_\n\n1\tyo\t_\t_\t_\t_\t0\troot\t_\t_\n"
        sents = parse_conllu(text)
        assert len(sents) == 2
        assert sents[0].sent_id != sents[1].sent_id

    def test_comment_only_block_ignored(self):
        assert parse_conllu("# sent_id = ghost\n\n") == []

    @pytest.mark.parametrize(
        "rows,pattern",
        [
            ("1\thi\t_\t_\t_\t_\t0\troot\t_\t_\n3\tyo\t_\t_\t_\t_\t1\tdet\t_\t_", "consecutive"),
            ("1\thi\t_\t_\t_\t_\t0\troot\t_\t_\n2\tyo\t_\t_\t_\t_\t0\troot\t_\t_", "root"),
            ("1\thi\t_\t_\t_\t_\t2\tdet\t_\t_\n2\tyo\t_\t_\t_\t_\t1\tdet\t_\t_", "root"),
            ("1\thi\t_\t_\t_\t_\t9\tdet\t_\t_", "head"),
            ("1\thi\t_\t_\t_\t_\t1\tdet\t_\t_", "head"),
            ("1\thi\t_\t_\t_\t_\t0\troot", "column"),
            ("0\thi\t_\t_\t_\t_\t0\troot\t_\t_", "token id must be >= 1"),
            ("x\thi\t_\t_\t_\t_\t0\troot\t_\t_", "bad token id 'x'"),
            ("1\thi\t_\t_\t_\t_\tx\troot\t_\t_", "non-integer head 'x'"),
            ("1\thi\t_\t_\t_\t_\t-1\troot\t_\t_", "negative head"),
            # ID and HEAD are ASCII digits only, whatever int() accepts
            *((f"{n}\thi\t_\t_\t_\t_\t0\troot\t_\t_", re.escape(f"bad token id {n!r}"))
              for n in ("+1", " 1", "0_1", "\u0661")),
            *((f"1\thi\t_\t_\t_\t_\t{n}\troot\t_\t_", re.escape(f"non-integer head {n!r}"))
              for n in ("+0", " 0", "0_0", "\u0660")),
        ],
    )
    def test_malformed_sentences(self, rows, pattern):
        with pytest.raises(CorpusError, match=pattern) as exc:
            parse_conllu(rows + "\n")
        assert re.search(r"^sentence 1/1 \(line \d+\): ", str(exc.value))

    def test_cycle_detected(self):
        text = (
            "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2\tb\t_\t_\t_\t_\t3\tdep\t_\t_\n"
            "3\tc\t_\t_\t_\t_\t2\tdep\t_\t_\n"
        )
        with pytest.raises(CorpusError, match=r"\(line \d+\): cycle"):
            parse_conllu(text)

    def test_tree_fault_names_first_row_of_its_block(self):
        text = (
            "# sent_id = ok\n1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
            "# sent_id = bad\n# text = b c\n"
            "1\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2\tc\t_\t_\t_\t_\t0\troot\t_\t_\n"
        )
        with pytest.raises(CorpusError) as exc:
            parse_conllu(text)
        assert str(exc.value) == "sentence 1/bad (line 6): multiple roots [1, 2]"

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_block_ordinals_and_document_ids(self, newline):
        # Every block with rows or a sent_id takes an ordinal, even when none
        # of its rows is a token; comment-only blocks take none.
        row = "1\tx\t_\t_\t_\t_\t0\troot\t_\t_"
        lines = [
            "# text = no id", "", row, "",
            "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_", "", "# sent_id = lone", "",
            row, "  ", "# newdoc id = D", row, "", "# note", row,
        ]
        sents = parse_conllu(newline.join(lines))
        assert [(s.doc_id, s.sent_id) for s in sents] == [("1", "1"), ("1", "4"), ("D", "5"), ("D", "6")]

    @pytest.mark.parametrize("comment,key", [
        ("# sent_id", "sent_id"), ("# sent_id =", "sent_id"), ("#sent_id= ", "sent_id"),
        ("# newdoc id", "newdoc id"), ("# newdoc id = ", "newdoc id"),
    ])
    def test_empty_id_comment_rejected(self, comment, key):
        text = f"{ROW}\n\n{comment}\n{ROW}\n"
        with pytest.raises(CorpusError) as exc:
            parse_conllu(text)
        assert str(exc.value) == f"line 3: # {key} without a value"

    def test_cycle_names_first_repeated_token(self):
        # walking up from token 2 (the lowest off the root's tree) meets 3 again first
        rows = [("a", 0, "root"), ("b", 3, "dep"), ("c", 4, "dep"), ("d", 3, "dep")]
        text = "".join(f"{i}\t{f}\t_\t_\t_\t_\t{h}\t{r}\t_\t_\n"
                       for i, (f, h, r) in enumerate(rows, start=1))
        with pytest.raises(CorpusError) as exc:
            parse_conllu(text)
        assert str(exc.value) == "sentence 1/1 (line 1): cycle through token 3"
        with pytest.raises(CorpusError) as exc:
            make_sentence(rows)
        assert str(exc.value) == "sentence d/s: cycle through token 3"

    def test_error_carries_locator(self):
        text = "# sent_id = bad1\n1\thi\t_\t_\t_\t_\t5\tdet\t_\t_\n"
        with pytest.raises(CorpusError, match="bad1"):
            parse_conllu(text)

    def test_serialize_round_trip(self):
        sents, _ = generate_synthetic(SynthConfig(n_sentences=25, seed=3))
        text = serialize_conllu(sents)
        back = parse_conllu(text)
        assert back == sents
        assert serialize_conllu(back) == text


def rebuilt(sent):
    """The sentence built again through the checking constructors."""
    tokens = tuple(
        Token(id=t.id, form=t.form, head=t.head, deprel=t.deprel, lemma=t.lemma, upos=t.upos)
        for t in sent.tokens
    )
    return DepSentence(doc_id=sent.doc_id, sent_id=sent.sent_id, tokens=tokens)


def children_from_heads(sent):
    kids = [[] for _ in range(len(sent) + 1)]
    for t in sent.tokens:
        kids[t.head].append(t.id)
    return tuple(tuple(k) for k in kids)


class TestParsedEqualsConstructed:
    """The parser builds tokens and sentences without re-running their
    checks; what it builds must be what the constructors build."""

    def assert_same(self, parsed, built):
        assert parsed == built
        assert hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)
        assert [hash(t) for t in parsed.tokens] == [hash(t) for t in built.tokens]
        assert parsed.children == built.children == children_from_heads(parsed)
        assert parsed.root_id == built.root_id

    @pytest.mark.parametrize("seed", [0, 4, 19])
    @pytest.mark.parametrize("distractor_len", [0, 1, 2, 9])
    def test_synthetic_round_trip(self, seed, distractor_len):
        sents, _ = generate_synthetic(
            SynthConfig(n_sentences=12, seed=seed, distractor_len=distractor_len)
        )
        parsed = parse_conllu(serialize_conllu(sents))
        assert len(parsed) == len(sents)
        for p, s in zip(parsed, sents):
            self.assert_same(p, s)
            self.assert_same(p, rebuilt(p))

    def test_multiword_and_empty_node_fixture(self):
        text = (
            "# sent_id = mw\n"
            "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tde\tde\t_\t_\t_\t2\tcase\t_\t_\n"
            "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\tcasa\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
        )
        (parsed,) = parse_conllu(text)
        built = DepSentence(doc_id="1", sent_id="mw", tokens=(
            Token(id=1, form="de", head=2, deprel="case", lemma="de"),
            Token(id=2, form="casa", head=0, deprel="root", upos="NOUN"),
        ))
        self.assert_same(parsed, built)
        assert parsed.children == ((2,), (), (1,))

    def test_pickle_round_trip(self):
        (parsed,) = parse_conllu(FIXTURE)
        back = pickle.loads(pickle.dumps(parsed))
        self.assert_same(back, parsed)


class TestSerializeRoundTrip:
    """serialize_conllu refuses what parse_conllu would reject or read back
    differently, naming the sentence and the token at fault."""

    @pytest.mark.parametrize("doc_id, sent_id", [
        ("", "s"), ("d", ""), (" d", "s"), ("d", "s "), ("d", "a\tb"), ("a\nb", "s"),
        ("d", "a\u2028b"), ("d", "s\r"),
    ])
    def test_bad_id(self, doc_id, sent_id):
        sent = make_sentence([("hi", 0, "root")], doc_id=doc_id, sent_id=sent_id)
        with pytest.raises(CorpusError, match=r"sentence .* id .* does not read back"):
            serialize_conllu([sent])

    @pytest.mark.parametrize("field, value", [
        ("form", "a\tb"), ("form", "a\nb"), ("lemma", "x\r"), ("upos", "\u2028"),
        ("deprel", "nsubj\tx"), ("deprel", "a\x1cb"), ("lemma", "_"), ("upos", "_"),
    ])
    def test_bad_token_field(self, field, value):
        fields = {"id": 2, "form": "there", "head": 1, "deprel": "dep", field: value}
        sent = DepSentence("d1", "s7", (Token(id=1, form="hi", head=0, deprel="root"),
                                        Token(**fields)))
        with pytest.raises(CorpusError, match="sentence 'd1'/'s7': token 2"):
            serialize_conllu([sent])

    def test_random_fields_raise_or_round_trip(self):
        # fields drawn from an alphabet rich in what CoNLL-U rows and
        # comments cannot hold; each sentence either raises or reads back equal
        rng = random.Random(11)
        alphabet, weights = "ab_ \t\n\r\u2028", [20, 20, 4, 2, 1, 1, 1, 1]

        def text(lo, hi):
            return "".join(rng.choices(alphabet, weights, k=rng.randint(lo, hi)))

        outcomes = collections.Counter()
        for _ in range(1500):
            tokens = tuple(
                Token(id=i, form=text(1, 3), head=rng.randrange(1, i) if i > 1 else 0,
                      deprel=text(0, 3), lemma=rng.choice([None, text(0, 2)]),
                      upos=rng.choice([None, text(0, 2)]))
                for i in range(1, rng.randint(1, 3) + 1)
            )
            sent = DepSentence(doc_id=text(0, 3), sent_id=text(0, 3), tokens=tokens)
            try:
                out = serialize_conllu([sent])
            except CorpusError:
                outcomes["refused"] += 1
                continue
            assert parse_conllu(out) == [sent]
            outcomes["round trip"] += 1
        assert min(outcomes["refused"], outcomes["round trip"]) >= 50, outcomes


class TestTokenValidation:
    def test_head_equals_id_rejected(self):
        with pytest.raises(CorpusError):
            Token(id=2, form="x", head=2, deprel="dep")

    def test_empty_form_rejected(self):
        with pytest.raises(CorpusError):
            Token(id=1, form="", head=0, deprel="root")

    @pytest.mark.parametrize("field, value", [
        ("id", True), ("id", 1.0), ("id", "1"), ("head", False), ("head", None),
        ("form", 5), ("form", b"x"), ("deprel", None), ("lemma", 5), ("upos", 3.0),
    ])
    def test_field_types(self, field, value):
        # the reader gives none of these; a bool id would serialize to a row
        # it rejects, and a non-string lemma would break serialize_conllu
        fields = {"id": 1, "form": "x", "head": 0, "deprel": "root", field: value}
        with pytest.raises(CorpusError, match=f"^token {field} {re.escape(repr(value))} is not "):
            Token(**fields)

    def test_missing_lemma_and_upos_accepted(self):
        token = Token(id=1, form="x", head=0, deprel="root", lemma=None, upos="NOUN")
        assert parse_conllu(serialize_conllu([DepSentence("d", "s", (token,))]))[0].tokens == (
            token,)


class TestSentenceValidation:
    @pytest.mark.parametrize("doc_id, sent_id, match", [
        (5, "s", "^sentence doc_id 5 is not a string$"),
        ("d", None, "^sentence sent_id None is not a string$"),
    ])
    def test_id_types(self, doc_id, sent_id, match):
        with pytest.raises(CorpusError, match=match):
            DepSentence(doc_id, sent_id, (Token(id=1, form="x", head=0, deprel="root"),))

    def test_tokens_must_be_tokens(self):
        with pytest.raises(CorpusError, match="^sentence d/s: 'x' is not a Token$"):
            DepSentence("d", "s", ("x",))


class TestIndexSentences:
    def test_duplicate_key_rejected(self):
        s = make_sentence([("hi", 0, "root")])
        with pytest.raises(CorpusError, match="duplicate"):
            index_sentences([s, s])

    def test_lookup(self):
        s = make_sentence([("hi", 0, "root")], doc_id="d9", sent_id="s9")
        assert index_sentences([s])[("d9", "s9")] is s


class TestEvents:
    def setup_method(self):
        self.corpus = parse_conllu(FIXTURE)

    def test_load(self):
        text = '{"doc_id": "doc1", "sent_id": "s1", "token_id": 8, "label": "FU"}\n'
        mentions = load_events(text, self.corpus)
        assert mentions == [
            EventMention(doc_id="doc1", sent_id="s1", token_id=8,
                         label=TemporalStatus.FUTURE)
        ]

    def test_null_label(self):
        text = '{"doc_id": "doc1", "sent_id": "s1", "token_id": 8, "label": null}\n'
        assert load_events(text, self.corpus)[0].label is None

    @pytest.mark.parametrize(
        "line,pattern",
        [
            ('{"doc_id": "nope", "sent_id": "s1", "token_id": 8, "label": "FU"}', "dangling"),
            ('{"doc_id": "doc1", "sent_id": "s1", "token_id": 99, "label": "FU"}', "out of range"),
            ('{"doc_id": "doc1", "sent_id": "s1", "token_id": 8, "label": "ZZ"}', "unknown label"),
            ('{"doc_id": "doc1", "sent_id": "s1", "token_id": 8}', "field"),
            ('{"doc_id": "doc1", "sent_id": "s1", "token_id": 8, "label": "FU", "extra": 1}', "field"),
            ("not json", "line 1"),
            ('{"doc_id": "doc1", "sent_id": "s1", "token_id": true, "label": "FU"}', "out of range"),
            ('{"doc_id": "doc1", "sent_id": "s1", "token_id": 8, "label": 2}', "string or null"),
        ],
    )
    def test_malformed(self, line, pattern):
        with pytest.raises(CorpusError, match=pattern):
            load_events(line + "\n", self.corpus)

    @pytest.mark.parametrize("doc_id, sent_id, field", [
        ("1", 1, "sent_id"), (1, "1", "doc_id"), (None, "1", "doc_id"), ("1", None, "sent_id"),
        (["1"], "1", "doc_id"), ("1", 1.0, "sent_id"), ("1", True, "sent_id"),
    ])
    def test_ids_must_be_strings(self, doc_id, sent_id, field):
        # str() would read 1 as document "1", every CoNLL-U file's default id
        corpus = parse_conllu("# sent_id = 1\n" + FIXTURE.split("\n", 2)[2])
        assert index_sentences(corpus).keys() == {("1", "1")}
        good = {"doc_id": "1", "sent_id": "1", "token_id": 8, "label": "FU"}
        text = json.dumps(good) + "\n" + json.dumps({**good, "doc_id": doc_id, "sent_id": sent_id})
        with pytest.raises(CorpusError, match=f"^events line 2: {field} must be a string$"):
            load_events(text, corpus)

    def test_round_trip(self):
        sents, mentions = generate_synthetic(SynthConfig(n_sentences=30, seed=5))
        text = serialize_events(mentions)
        assert load_events(text, sents) == mentions


class TestSynthConfig:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(CorpusError, match="sum"):
            SynthConfig(n_sentences=10, label_weights=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("weights", [(math.nan, 0.5, 0.5), (0.5, 0.5, math.nan),
                                         (math.inf, 0.0, 0.0)])
    def test_nonfinite_weight_rejected(self, weights):
        # NaN compares false with everything, so a "< 0" test and the sum
        # check both let it through to the quotas, which cannot round it
        with pytest.raises(CorpusError, match=r"\[0, 1\]"):
            SynthConfig(n_sentences=10, label_weights=weights)

    @pytest.mark.parametrize("weights", [
        ("a", 0.5, 0.5), None, (True, False, False), ("0.5", "0.5", "0"), (0.5, 0.5),
        (0.5, 0.25, 0.25, 0.0), 1.0, "abc",
    ], ids=["str-entry", "none", "bools", "strs", "two", "four", "scalar", "str"])
    def test_weights_must_be_three_reals(self, weights):
        with pytest.raises(CorpusError, match=r"^synth config label_weights .* is not three "
                                              r"real numbers$"):
            SynthConfig(n_sentences=10, label_weights=weights)

    def test_weights_of_any_real_type(self):
        weights = (1, np.float32(0.5), fractions.Fraction(-1, 2))
        with pytest.raises(CorpusError, match=r"\[0, 1\]"):  # read as reals, then range-checked
            SynthConfig(n_sentences=10, label_weights=weights)
        cfg = SynthConfig(n_sentences=10, label_weights=[1, 0, np.float64(0.0)])
        assert cfg.label_weights == (1.0, 0.0, 0.0)
        assert all(type(w) is float for w in cfg.label_weights)

    def test_negative_distractor_rejected(self):
        with pytest.raises(CorpusError, match="distractor"):
            SynthConfig(n_sentences=10, distractor_len=-1)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(CorpusError):
            SynthConfig(n_sentences=0)

    @pytest.mark.parametrize("kwargs", [
        dict(n_sentences=True), dict(n_sentences=2.5), dict(distractor_len=1.5),
        dict(seed=1.5), dict(seed=-1),
    ], ids=["n-bool", "n-float", "distractor-float", "seed-float", "seed-neg"])
    def test_bad_count_or_seed_rejected(self, kwargs):
        # a bool is no int: True would build one sentence
        with pytest.raises(CorpusError, match=next(iter(kwargs))):
            SynthConfig(**{"n_sentences": 10, **kwargs})


class TestGenerateSynthetic:
    def test_deterministic(self):
        cfg = SynthConfig(n_sentences=40, seed=11)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert serialize_conllu(a[0]) == serialize_conllu(b[0])
        assert serialize_events(a[1]) == serialize_events(b[1])

    def test_label_quota_largest_remainder(self):
        # 700 * (0.67, 0.21, 0.12) floors to exactly (469, 147, 84)
        _, mentions = generate_synthetic(SynthConfig(n_sentences=700, seed=7))
        counts = collections.Counter(m.label for m in mentions)
        assert counts[TemporalStatus.PAST] == 469
        assert counts[TemporalStatus.ONGOING] == 147
        assert counts[TemporalStatus.FUTURE] == 84

    def test_one_mention_per_sentence(self):
        sents, mentions = generate_synthetic(SynthConfig(n_sentences=25, seed=1))
        assert len(mentions) == len(sents) == 25
        keys = {(m.doc_id, m.sent_id) for m in mentions}
        assert len(keys) == 25
        by_key = index_sentences(sents)
        for m in mentions:
            sent = by_key[(m.doc_id, m.sent_id)]
            assert 1 <= m.token_id <= len(sent)
            assert m.label is not None

    def test_vocabulary_covers_output(self):
        sents, _ = generate_synthetic(SynthConfig(n_sentences=60, seed=9))
        vocab = set(synthetic_vocabulary())
        emitted = {t.form for s in sents for t in s.tokens}
        assert emitted <= vocab

    def test_cue_forms(self):
        fu = synthetic_cue_forms(TemporalStatus.FUTURE)
        assert "will" in fu
        assert "launch" in fu and "launched" not in fu
        pa = synthetic_cue_forms(TemporalStatus.PAST)
        assert "had" in pa and "launched" in pa
        og = synthetic_cue_forms(TemporalStatus.ONGOING)
        assert "is" in og and "launching" in og

    def test_every_sentence_is_valid_tree(self):
        sents, _ = generate_synthetic(SynthConfig(n_sentences=50, seed=2))
        for s in sents:
            roots = [t for t in s.tokens if t.head == 0]
            assert len(roots) == 1
