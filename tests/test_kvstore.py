"""Transactional KV store: semantics, rollback, digests, procedures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import KVError, TransactionAborted
from repro.kvstore import Checkpoint, KVStore, ProcedureRegistry, checkpoint_digest
from repro.kvstore.store import state_accumulator


class TestTransactions:
    def test_commit_applies_writes(self):
        kv = KVStore()
        result, record = kv.execute(lambda tx: tx.put("a", 1))
        assert kv.get("a") == 1
        assert record is not None

    def test_read_your_writes(self):
        kv = KVStore({"a": 1})

        def fn(tx):
            tx.put("a", 2)
            return tx.get("a")

        result, _ = kv.execute(fn)
        assert result == 2

    def test_abort_rolls_back(self):
        kv = KVStore({"a": 1})

        def fn(tx):
            tx.put("a", 99)
            tx.abort("nope")

        result, record = kv.execute(fn)
        assert record is None
        assert result == {"ok": False, "error": "nope"}
        assert kv.get("a") == 1

    def test_exception_rolls_back_and_propagates(self):
        kv = KVStore({"a": 1})
        with pytest.raises(ZeroDivisionError):
            kv.execute(lambda tx: (tx.put("a", 2), 1 / 0))
        assert kv.get("a") == 1

    def test_delete(self):
        kv = KVStore({"a": 1})
        kv.execute(lambda tx: tx.delete("a"))
        assert "a" not in kv

    def test_has_and_get_default(self):
        kv = KVStore({"a": 1})

        def fn(tx):
            assert tx.has("a")
            assert not tx.has("b")
            assert tx.get("b", "dflt") == "dflt"
            tx.delete("a")
            assert not tx.has("a")

        kv.execute(fn)

    def test_keys_with_prefix_sees_buffered_writes(self):
        kv = KVStore({"p:1": 1, "p:2": 2, "q:1": 3})

        def fn(tx):
            tx.put("p:3", 3)
            tx.delete("p:1")
            return tx.keys_with_prefix("p:")

        result, _ = kv.execute(fn)
        assert result == ["p:2", "p:3"]

    def test_handle_unusable_after_commit(self):
        kv = KVStore()
        tx = kv.begin()
        tx.put("a", 1)
        tx._commit()
        with pytest.raises(KVError):
            tx.get("a")

    def test_op_count(self):
        kv = KVStore({"a": 1})
        tx = kv.begin()
        tx.get("a")
        tx.put("b", 2)
        assert tx.op_count == 2
        tx._discard()

    def test_non_string_key_rejected(self):
        kv = KVStore()
        tx = kv.begin()
        with pytest.raises(KVError):
            tx.put(5, "x")

    def test_unencodable_value_rejected_eagerly(self):
        from repro.errors import CodecError

        kv = KVStore()
        tx = kv.begin()
        with pytest.raises(CodecError):
            tx.put("a", object())


class TestRollback:
    def test_rollback_last(self):
        kv = KVStore()
        kv.execute(lambda tx: tx.put("a", 1))
        kv.execute(lambda tx: tx.put("a", 2))
        kv.rollback_last()
        assert kv.get("a") == 1

    def test_rollback_to_restores_deletes(self):
        kv = KVStore({"a": 1})
        kv.execute(lambda tx: tx.delete("a"))
        kv.rollback_to(0)
        assert kv.get("a") == 1

    def test_rollback_suffix(self):
        kv = KVStore()
        for i in range(5):
            kv.execute(lambda tx, i=i: tx.put(f"k{i}", i))
        kv.rollback_to(2)
        assert kv.get("k1") == 1
        assert kv.get("k2") is None
        assert kv.tx_count == 2

    def test_rollback_out_of_range(self):
        kv = KVStore()
        with pytest.raises(KVError):
            kv.rollback_to(1)

    def test_rollback_restores_state_digest(self):
        kv = KVStore({"a": 1, "b": 2})
        before = kv.state_digest()
        kv.execute(lambda tx: (tx.put("a", 9), tx.delete("b"), tx.put("c", 3)))
        kv.rollback_last()
        assert kv.state_digest() == before


class TestDigests:
    def test_digest_independent_of_history(self):
        kv1 = KVStore()
        kv1.execute(lambda tx: tx.put("a", 1))
        kv1.execute(lambda tx: tx.put("b", 2))
        kv2 = KVStore({"b": 2, "a": 1})
        assert kv1.state_digest() == kv2.state_digest()

    def test_checkpoint_digest_matches_store(self):
        kv = KVStore({"x": 1, "y": (1, 2)})
        assert checkpoint_digest(kv.snapshot()) == kv.state_digest()

    def test_digest_changes_with_state(self):
        kv = KVStore({"a": 1})
        before = kv.state_digest()
        kv.execute(lambda tx: tx.put("a", 2))
        assert kv.state_digest() != before

    def test_acc_hint_matches_computed(self):
        state = {"a": 1, "b": 2}
        acc = state_accumulator(state.items())
        assert KVStore(state, acc_hint=acc).state_digest() == KVStore(state).state_digest()

    def test_restore_recomputes_digest(self):
        kv = KVStore({"a": 1})
        snap = kv.snapshot()
        kv.execute(lambda tx: tx.put("b", 2))
        kv.restore(snap)
        assert kv.state_digest() == KVStore({"a": 1}).state_digest()


class TestCheckpoint:
    def test_capture_and_restore(self):
        kv = KVStore({"a": 1})
        cp = Checkpoint.capture(kv, seqno=5, ledger_size=10, ledger_root=b"\x01" * 32)
        kv.execute(lambda tx: tx.put("a", 2))
        cp.restore_into(kv)
        assert kv.get("a") == 1
        assert cp.digest() == kv.state_digest()

    def test_capture_digest_cached(self):
        kv = KVStore({"a": 1})
        cp = Checkpoint.capture(kv, 0, 0, b"\x00" * 32)
        assert cp.digest() == checkpoint_digest(cp.state)

    def test_negative_seqno_rejected(self):
        with pytest.raises(KVError):
            Checkpoint.capture(KVStore(), -1, 0, b"\x00" * 32)


class TestProcedures:
    def test_register_and_invoke(self):
        reg = ProcedureRegistry()
        reg.register("inc", lambda tx, args: tx.put("n", (tx.get("n") or 0) + args["by"]))
        kv = KVStore()
        kv.execute(lambda tx: reg.invoke("inc", tx, {"by": 5}))
        assert kv.get("n") == 5

    def test_unknown_procedure(self):
        reg = ProcedureRegistry()
        with pytest.raises(KVError):
            reg.get("missing")

    def test_code_digest_changes_on_update(self):
        reg = ProcedureRegistry()
        reg.register("p", lambda tx, args: None)
        before = reg.code_digest()
        reg.register("p", lambda tx, args: 1)
        assert reg.code_digest() != before

    def test_names_sorted(self):
        reg = ProcedureRegistry()
        reg.register("b", lambda tx, a: None)
        reg.register("a", lambda tx, a: None)
        assert reg.names() == ["a", "b"]

    def test_copy_independent(self):
        reg = ProcedureRegistry()
        reg.register("p", lambda tx, a: None)
        clone = reg.copy()
        clone.register("q", lambda tx, a: None)
        assert not reg.has("q") and clone.has("p")

    def test_empty_name_rejected(self):
        reg = ProcedureRegistry()
        with pytest.raises(KVError):
            reg.register("", lambda tx, a: None)


# -- property-based -----------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete"]),
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=50, deadline=None)
@given(ops, ops)
def test_property_rollback_is_inverse(first, second):
    kv = KVStore({"a": 0})

    def apply(batch):
        def fn(tx):
            for op, key, value in batch:
                if op == "put":
                    tx.put(key, value)
                else:
                    tx.delete(key)

        kv.execute(fn)

    apply(first)
    snapshot = kv.snapshot()
    digest_before = kv.state_digest()
    apply(second)
    kv.rollback_last()
    assert kv.snapshot() == snapshot
    assert kv.state_digest() == digest_before


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=4), st.integers(), max_size=8))
def test_property_digest_is_content_function(state):
    assert KVStore(dict(state)).state_digest() == KVStore(dict(reversed(list(state.items())))).state_digest()


# -- write-set digest and accumulator composed from cached encodings ------------
#
# ``put`` encodes each value once; ``_commit`` builds the accumulator terms
# and ``KVTransaction.write_set_digest`` the write-set digest from those
# bytes and each key's map form (varint length + raw UTF-8, no str tag).
# Both must equal the reference forms over the plain values.

from repro import codec  # noqa: E402
from repro.kvstore.store import _pair_term, entry_accumulator_term  # noqa: E402

kv_keys = st.sampled_from(["a", "b", "c:1", "é", "漢字", "k" * 127, "k" * 128, "ü" * 70]) | st.text(max_size=150)
kv_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**80), max_value=2**80)
    | st.sampled_from([-1, -64, -65, 2**62, -(2**62), 2**64]) | st.binary(max_size=140)
    | st.text(max_size=140),
    lambda children: st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=130), children, max_size=4),
    max_leaves=10,
)
kv_ops = st.lists(
    st.tuples(st.sampled_from(["put", "delete"]), kv_keys, kv_values), max_size=12
)


def _apply(tx, ops):
    for op, key, value in ops:
        if op == "put":
            tx.put(key, value)
        else:
            tx.delete(key)


@given(kv_keys, kv_values)
def test_composed_term_equals_entry_accumulator_term(key, value):
    assert _pair_term(codec.map_key(key), codec.encode(value)) == entry_accumulator_term(key, value)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(kv_keys, kv_values, max_size=6), st.lists(kv_ops, min_size=1, max_size=4))
def test_composed_write_set_digest_and_accumulator(initial, transactions):
    kv = KVStore(initial)
    states = []
    for ops in transactions:
        states.append((kv.tx_count, dict(kv._data), kv._acc))
        tx = kv.begin()
        _apply(tx, ops)
        record = tx._commit()
        # The reference form: digest_value of the normalized/deleted map.
        assert tx.write_set_digest() == record.write_set_digest()
        assert kv._acc == state_accumulator(kv._data.items())
    for mark, data, acc in reversed(states):
        kv.rollback_to(mark)
        assert kv._data == data
        assert kv._acc == acc == state_accumulator(kv._data.items())


def test_composed_write_set_digest_edge_cases():
    kv = KVStore({"gone": 1, "k" * 200: (1, 2)})
    tx = kv.begin()
    tx.put("new", {"n": {"x": -(2**70)}, "s": "é" * 90})
    tx.put("then-deleted", 5)
    tx.delete("then-deleted")
    tx.delete("gone")
    tx.delete("never-there")
    tx.delete("k" * 200)
    tx.put("k" * 200, "back")
    record = tx._commit()
    assert tx.write_set_digest() == record.write_set_digest()
    assert kv._acc == state_accumulator(kv._data.items())
    empty = kv.begin()
    assert empty._commit().write_set_digest() == empty.write_set_digest()
