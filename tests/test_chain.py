"""Two-stage chain extraction, window baseline, and corpus statistics."""

import json

import numpy as np
import pytest

from depchain import (
    CorpusError,
    DepSentence,
    EventMention,
    SynthConfig,
    TemporalStatus,
    Token,
    chain_stats,
    extract_chain,
    extract_window,
    generate_synthetic,
    index_sentences,
    synthetic_cue_forms,
)
from depchain.chain import REPRESENTATIONS, representation_ids, representation_record

from test_corpus import FIXTURE, make_sentence
from depchain import parse_conllu


@pytest.fixture
def example_sentence():
    return parse_conllu(FIXTURE)[0]


COPULAR = """# sent_id = c1
1\tThe\t_\t_\t_\t_\t2\tdet\t_\t_
2\tstrike\t_\t_\t_\t_\t4\tnsubj\t_\t_
3\tis\t_\t_\t_\t_\t4\tcop\t_\t_
4\tongoing\t_\t_\t_\t_\t0\troot\t_\t_
"""


class TestExtractChain:
    def test_reference_example(self, example_sentence):
        ch = extract_chain(example_sentence, 8)
        assert ch.stage1_ids == (3, 6, 7, 8)
        assert ch.member_ids == (2, 3, 6, 7, 8)
        forms = [example_sentence.token(i).form for i in ch.member_ids]
        assert forms == ["will", "launch", "describing", "their", "protest"]

    def test_copular_fixture(self):
        sent = parse_conllu(COPULAR)[0]
        ch = extract_chain(sent, 2)
        assert ch.member_ids == (1, 2, 3, 4)

    def test_target_is_root(self, example_sentence):
        ch = extract_chain(example_sentence, 3)
        # root's subtree is the whole sentence
        assert ch.member_ids == tuple(range(1, 9))

    def test_aux_subtype_matches(self):
        sent = make_sentence([
            ("report", 0, "root"),
            ("was", 1, "aux:pass"),
            ("today", 1, "nmod"),
        ])
        ch = extract_chain(sent, 1)
        assert 2 in ch.member_ids

    def test_stage2_single_pass_no_closure(self):
        # aux chained onto another aux: only the aux headed by a stage-1
        # member joins; the one headed by that aux does not
        sent = make_sentence([
            ("might", 3, "aux"),
            ("have", 1, "aux"),
            ("left", 0, "root"),
            ("home", 3, "dobj"),
        ])
        ch = extract_chain(sent, 4)
        assert 1 in ch.member_ids
        assert 2 not in ch.member_ids

    def test_stage2_rel_must_be_tense_carrier(self):
        sent = make_sentence([
            ("dogs", 2, "nsubj"),
            ("bark", 0, "root"),
            ("loudly", 2, "advmod"),
        ])
        ch = extract_chain(sent, 2)
        # nsubj/advmod children enter via the subtree rule only when the
        # target dominates them; target=root dominates everything here
        ch_leaf = extract_chain(sent, 1)
        assert ch_leaf.member_ids == (1, 2)

    def test_punctuation_kept_by_default(self):
        sent = make_sentence([
            ("go", 0, "root"),
            ("now", 1, "advmod"),
            ("!", 1, "punct"),
        ])
        assert extract_chain(sent, 1).member_ids == (1, 2, 3)

    def test_unknown_target_rejected(self, example_sentence):
        with pytest.raises(CorpusError):
            extract_chain(example_sentence, 99)

    def test_root_always_on_chain(self, example_sentence):
        for target in range(1, 9):
            ch = extract_chain(example_sentence, target)
            assert example_sentence.root_id in ch.member_ids

    def test_ordering_strictly_increasing(self, example_sentence):
        for target in range(1, 9):
            ids = extract_chain(example_sentence, target).member_ids
            assert all(a < b for a, b in zip(ids, ids[1:]))

    def test_form_permutation_leaves_ids_unchanged(self, example_sentence):
        ch0 = extract_chain(example_sentence, 8).member_ids
        rotated = tuple(
            Token(id=t.id, form=example_sentence.tokens[(i + 3) % 8].form,
                  head=t.head, deprel=t.deprel)
            for i, t in enumerate(example_sentence.tokens)
        )
        permuted = DepSentence(doc_id="d", sent_id="s", tokens=rotated)
        assert extract_chain(permuted, 8).member_ids == ch0


def random_sentence(rng, n):
    """Random labeled tree over ids 1..n with a random root position."""
    rels = ["nsubj", "dobj", "nmod", "advmod", "aux", "auxpass", "cop",
            "aux:pass", "det", "xcomp", "punct"]
    order = rng.permutation(n) + 1
    heads = {int(order[0]): 0}
    for i in range(1, n):
        heads[int(order[i])] = int(order[int(rng.integers(0, i))])
    tokens = tuple(
        Token(id=i, form=f"w{i}", head=heads[i],
              deprel="root" if heads[i] == 0 else rels[int(rng.integers(0, len(rels)))])
        for i in range(1, n + 1)
    )
    return DepSentence(doc_id="d", sent_id="s", tokens=tokens)


def oracle_chain(sent, target_id):
    """Brute-force reachability oracle for the two-stage definition."""
    n = len(sent)
    parent = {t.id: t.head for t in sent.tokens}

    def ancestors(i):
        out = set()
        while parent[i] != 0:
            i = parent[i]
            out.add(i)
        return out

    stage1 = {target_id} | ancestors(target_id)
    stage1 |= {i for i in range(1, n + 1) if target_id in ancestors(i)}
    carriers = {"aux", "auxpass", "cop"}
    stage2 = {
        t.id
        for t in sent.tokens
        if t.id not in stage1
        and t.deprel.split(":", 1)[0] in carriers
        and t.head in stage1
    }
    return stage1, tuple(sorted(stage1 | stage2))


class TestChainOracle:
    def test_random_trees_match_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 15))
            sent = random_sentence(rng, n)
            target = int(rng.integers(1, n + 1))
            want_stage1, want_ids = oracle_chain(sent, target)
            got = extract_chain(sent, target)
            assert got.stage1_ids == tuple(sorted(want_stage1))
            assert got.member_ids == want_ids

    def test_removing_off_chain_non_carrier_is_noop(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 50:
            n = int(rng.integers(4, 14))
            sent = random_sentence(rng, n)
            target = int(rng.integers(1, n + 1))
            before = extract_chain(sent, target)
            chain_set = set(before.member_ids)
            has_kids = {t.head for t in sent.tokens}
            # leaves only: removing an inner node reattaches its children,
            # which is a different tree, not the property under test
            victims = [
                t for t in sent.tokens
                if t.id not in chain_set
                and t.id not in has_kids
                and t.deprel.split(":", 1)[0] not in ("aux", "auxpass", "cop")
            ]
            if not victims:
                continue
            victim = victims[int(rng.integers(0, len(victims)))]
            slim, id_map = _remove_token(sent, victim.id)
            after = extract_chain(slim, id_map[target])
            assert after.member_ids == tuple(id_map[i] for i in before.member_ids)
            checked += 1


def _remove_token(sent, victim_id):
    """Drop a leafless-in-chain token, reattaching its children to its head."""
    victim_head = sent.token(victim_id).head
    id_map = {}
    new_id = 0
    for t in sent.tokens:
        if t.id == victim_id:
            continue
        new_id += 1
        id_map[t.id] = new_id
    tokens = []
    for t in sent.tokens:
        if t.id == victim_id:
            continue
        head = t.head
        if head == victim_id:
            head = victim_head
        tokens.append(Token(id=id_map[t.id], form=t.form,
                            head=0 if head == 0 else id_map[head],
                            deprel=t.deprel))
    return DepSentence(doc_id=sent.doc_id, sent_id=sent.sent_id,
                       tokens=tuple(tokens)), id_map


class TestExtractWindow:
    def test_centered(self, example_sentence):
        w = extract_window(example_sentence, 8, 7)
        assert w.member_ids == (1, 2, 3, 4, 5, 6, 7, 8)

    def test_left_truncated(self):
        sent = make_sentence([("w", 0, "root")] + [("x", 1, "dep")] * 19)
        w = extract_window(sent, 1, 7)
        assert w.member_ids == tuple(range(1, 9))

    def test_whole_sentence(self):
        sent = make_sentence([("a", 2, "det"), ("b", 0, "root"),
                              ("c", 2, "dep"), ("d", 2, "dep"), ("e", 2, "dep")])
        assert extract_window(sent, 3, 7).member_ids == (1, 2, 3, 4, 5)

    def test_half_width_zero(self, example_sentence):
        assert extract_window(example_sentence, 5, 0).member_ids == (5,)

    def test_negative_half_width(self, example_sentence):
        with pytest.raises(ValueError):
            extract_window(example_sentence, 5, -1)

    def test_unknown_target(self, example_sentence):
        with pytest.raises(CorpusError):
            extract_window(example_sentence, 99)


class TestChainStats:
    def test_single_mention(self, example_sentence):
        mentions = [EventMention("doc1", "s1", 8, TemporalStatus.FUTURE)]
        st = chain_stats([example_sentence], mentions)
        assert st.n_mentions == 1
        assert st.mean_length == 5.0
        assert st.median_length == 5.0

    def test_two_mentions_mean_median(self):
        # chains of length 4 and 6
        s1 = make_sentence(
            [("a", 2, "aux"), ("b", 0, "root"), ("c", 2, "dobj"), ("d", 3, "det")],
            sent_id="s1",
        )
        # target 3: stage1 {2,3,4}, stage2 {1} -> length 4
        s2 = make_sentence(
            [("a", 2, "aux"), ("b", 0, "root"), ("c", 2, "dobj"),
             ("d", 3, "det"), ("e", 3, "nmod"), ("f", 5, "det")],
            sent_id="s2",
        )
        # target 3: stage1 {2,3,4,5,6}, stage2 {1} -> length 6
        mentions = [EventMention("d", "s1", 3, None), EventMention("d", "s2", 3, None)]
        st = chain_stats([s1, s2], mentions)
        assert st.mean_length == 5.0
        assert st.median_length == 5.0

    def test_empty_mentions_rejected(self, example_sentence):
        with pytest.raises(CorpusError):
            chain_stats([example_sentence], [])

    def test_synthetic_overlap_and_cue_coverage(self):
        sents, mentions = generate_synthetic(
            SynthConfig(n_sentences=1000, seed=7, distractor_len=9)
        )
        st = chain_stats(sents, mentions)
        assert st.mean_window_overlap < 1.0
        by_key = index_sentences(sents)
        fu = [m for m in mentions if m.label is TemporalStatus.FUTURE]
        assert fu
        cues = synthetic_cue_forms(TemporalStatus.FUTURE)
        for m in fu:
            sent = by_key[(m.doc_id, m.sent_id)]
            chain_forms = {
                sent.token(i).form for i in extract_chain(sent, m.token_id).member_ids
            }
            assert chain_forms & cues


class TestRepresentationRecord:
    def test_chain_record(self, example_sentence):
        m = EventMention("doc1", "s1", 8, TemporalStatus.FUTURE)
        rec = json.loads(representation_record(example_sentence, m, "chain"))
        assert rec["doc_id"] == "doc1"
        assert rec["sent_id"] == "s1"
        assert rec["token_id"] == 8
        assert rec["kind"] == "chain"
        assert rec["forms"] == ["will", "launch", "describing", "their", "protest"]
        assert rec["member_ids"] == [2, 3, 6, 7, 8]

    def test_window_record(self, example_sentence):
        m = EventMention("doc1", "s1", 8, None)
        rec = json.loads(representation_record(example_sentence, m, "window", half_width=1))
        assert rec["forms"] == ["their", "protest"]

    def test_unknown_kind(self, example_sentence):
        m = EventMention("doc1", "s1", 8, None)
        with pytest.raises(ValueError):
            representation_record(example_sentence, m, "zigzag")

    def test_representation_ids(self, example_sentence):
        expected = {
            "chain": extract_chain(example_sentence, 8).member_ids,
            "window": extract_window(example_sentence, 8, 2).member_ids,
            "tree": tuple(range(1, 9)),
        }
        assert set(expected) == set(REPRESENTATIONS)
        for name, ids in expected.items():
            assert representation_ids(example_sentence, 8, name, 2) == ids
        with pytest.raises(ValueError, match="unknown representation 'zigzag'"):
            representation_ids(example_sentence, 8, "zigzag")

    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    @pytest.mark.parametrize("target_id", [0, 9, 99])
    def test_representation_ids_checks_the_target(self, example_sentence, representation,
                                                  target_id):
        with pytest.raises(CorpusError, match=f"token id {target_id} out of range"):
            representation_ids(example_sentence, target_id, representation)
