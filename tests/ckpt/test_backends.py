"""Storage backends: commit atomicity, retention, locks, throttling."""

import json
import threading
import time

import pytest

from repro.ckpt import backends
from repro.ckpt.backends import IOStore, LocalStore, PartnerStore
from repro.ckpt.format import make_header


def files(payloads: dict[int, bytes], ckpt_id: int, app="app"):
    return {
        r: (make_header(app, r, ckpt_id, p, position=float(ckpt_id)), p)
        for r, p in payloads.items()
    }


@pytest.fixture
def data(small_blob):
    return {0: small_blob, 1: small_blob[::-1]}


class TestCommitProtocol:
    def test_write_then_read(self, tmp_path, data):
        store = LocalStore(tmp_path, capacity=4)
        store.write_checkpoint("app", 1, files(data, 1))
        back = store.read_checkpoint("app", 1)
        assert back[0][1] == data[0]
        assert back[1][1] == data[1]
        assert back[1][0].rank == 1

    def test_staged_invisible_until_commit(self, tmp_path, data):
        store = LocalStore(tmp_path, capacity=4)
        h, p = files(data, 1)[0]
        store.stage_rank_file("app", 1, 0, h, p)
        assert store.committed("app") == []
        with pytest.raises(FileNotFoundError):
            store.read_checkpoint("app", 1)
        store.commit_checkpoint("app", 1)
        assert store.committed("app") == [1]

    def test_latest(self, tmp_path, data):
        store = LocalStore(tmp_path, capacity=8)
        assert store.latest("app") is None
        for cid in (1, 2, 5):
            store.write_checkpoint("app", cid, files(data, cid))
        assert store.latest("app") == 5

    def test_apps_isolated(self, tmp_path, data):
        store = LocalStore(tmp_path, capacity=4)
        store.write_checkpoint("a", 1, files(data, 1, app="a"))
        assert store.committed("b") == []

    def test_delete(self, tmp_path, data):
        store = LocalStore(tmp_path, capacity=4)
        store.write_checkpoint("app", 1, files(data, 1))
        store.delete_checkpoint("app", 1)
        assert store.committed("app") == []

    def test_wipe(self, tmp_path, data):
        store = LocalStore(tmp_path, capacity=4)
        store.write_checkpoint("app", 1, files(data, 1))
        store.wipe("app")
        assert store.committed("app") == []

    def test_empty_files_rejected(self, tmp_path):
        store = LocalStore(tmp_path, capacity=4)
        with pytest.raises(ValueError):
            store.write_checkpoint("app", 1, {})


class TestLocalRetention:
    def test_capacity_enforced_fifo(self, tmp_path, data):
        store = LocalStore(tmp_path, capacity=2)
        for cid in (1, 2, 3, 4):
            store.write_checkpoint("app", cid, files(data, cid))
        assert store.committed("app") == [3, 4]

    def test_evicted_checkpoint_directory_removed(self, tmp_path, data):
        store = LocalStore(tmp_path, capacity=1)
        store.write_checkpoint("app", 1, files(data, 1))
        store.write_checkpoint("app", 2, files(data, 2))
        assert not (tmp_path / "app" / "ckpt_00000001").exists()

    def test_locked_checkpoint_survives(self, tmp_path, data):
        store = LocalStore(tmp_path, capacity=2)
        store.write_checkpoint("app", 1, files(data, 1))
        store.lock("app", 1)
        store.write_checkpoint("app", 2, files(data, 2))
        store.write_checkpoint("app", 3, files(data, 3))
        assert 1 in store.committed("app")
        assert 2 not in store.committed("app")

    def test_unlock_triggers_deferred_eviction(self, tmp_path, data):
        store = LocalStore(tmp_path, capacity=1)
        store.write_checkpoint("app", 1, files(data, 1))
        store.lock("app", 1)
        store.write_checkpoint("app", 2, files(data, 2))
        assert store.committed("app") == [1, 2]  # over capacity, 1 locked
        store.unlock("app", 1)
        assert store.committed("app") == [2]

    def test_lock_uncommitted_rejected(self, tmp_path):
        store = LocalStore(tmp_path, capacity=2)
        with pytest.raises(FileNotFoundError):
            store.lock("app", 99)

    def test_capacity_validation(self, tmp_path):
        with pytest.raises(ValueError):
            LocalStore(tmp_path, capacity=0)


#: name -> (a read of checkpoint 1 as {rank: (header, payload)}, the ranks it returns)
READERS = {
    "read_checkpoint": (lambda store: store.read_checkpoint("app", 1), (0, 1)),
    "read_rank_file": (lambda store: {1: store.read_rank_file("app", 1, 1)}, (1,)),
}


class TestReadOutsideTheLock:
    @pytest.mark.parametrize("reader_name", READERS)
    def test_commit_lands_while_a_read_is_blocked(self, tmp_path, data, monkeypatch, reader_name):
        read_ranks, ranks = READERS[reader_name]
        store = LocalStore(tmp_path, capacity=4)
        store.write_checkpoint("app", 1, files(data, 1))
        for rank, (header, payload) in files(data, 2).items():
            store.stage_rank_file("app", 2, rank, header, payload)
        reading, release = threading.Event(), threading.Event()
        read = backends.read_context_file

        def blocked_read(path, verify=True):
            reading.set()
            release.wait(10)
            return read(path, verify=verify)

        monkeypatch.setattr(backends, "read_context_file", blocked_read)
        got = {}
        reader = threading.Thread(target=lambda: got.update(read_ranks(store)))
        committer = threading.Thread(target=store.commit_checkpoint, args=("app", 2))
        reader.start()
        try:
            assert reading.wait(10)
            committer.start()
            committer.join(2.0)
            assert not committer.is_alive(), "commit waited for the reader"
            assert reader.is_alive()
        finally:
            release.set()
            reader.join(10)
            if committer.ident is not None:
                committer.join(10)
        assert not reader.is_alive() and not committer.is_alive()
        assert {r: p for r, (_, p) in got.items()} == {r: data[r] for r in ranks}
        assert [(h.rank, h.ckpt_id) for h, _ in got.values()] == [(r, 1) for r in ranks]
        manifest = json.loads((tmp_path / "app" / backends._MANIFEST).read_text())
        assert manifest == {"committed": [1, 2], "locked": []}


class TestPartnerRetention:
    def test_partner_keeps_newest(self, tmp_path, data):
        store = PartnerStore(tmp_path, capacity=2)
        for cid in (1, 2, 3):
            store.write_checkpoint("app", cid, files(data, cid))
        assert store.committed("app") == [2, 3]


def record_manifest_io(store, monkeypatch):
    """Log each manifest write (with the ids it commits) and each deleted
    checkpoint directory of ``store``, in call order."""
    events = []
    write = store._write_manifest

    def spy_write(app_id, manifest):
        events.append(("write", list(manifest["committed"])))
        write(app_id, manifest)

    def spy_rmtree(path, **kwargs):
        events.append(("rmtree", path.name))
        rmtree(path, **kwargs)

    rmtree = backends.shutil.rmtree
    monkeypatch.setattr(store, "_write_manifest", spy_write)
    monkeypatch.setattr(backends.shutil, "rmtree", spy_rmtree)
    return events


class TestOneManifestWrite:
    """A commit or unlock writes the manifest once, then deletes its victims."""

    def test_local_commit_past_capacity(self, tmp_path, data, monkeypatch):
        store = LocalStore(tmp_path, capacity=2)
        events = record_manifest_io(store, monkeypatch)
        for cid in (1, 2, 3, 4):
            store.write_checkpoint("app", cid, files(data, cid))
        assert events == [
            ("write", [1]),
            ("write", [1, 2]),
            ("write", [2, 3]), ("rmtree", "ckpt_00000001"),
            ("write", [3, 4]), ("rmtree", "ckpt_00000002"),
        ]
        assert store.committed("app") == [3, 4]
        assert sorted(p.name for p in (tmp_path / "app").glob("ckpt_*")) == [
            "ckpt_00000003", "ckpt_00000004",
        ]

    def test_unlock_releases_deferred_eviction(self, tmp_path, data, monkeypatch):
        store = LocalStore(tmp_path, capacity=1)
        store.write_checkpoint("app", 1, files(data, 1))
        store.lock("app", 1)
        store.write_checkpoint("app", 2, files(data, 2))
        store.lock("app", 2)
        store.write_checkpoint("app", 3, files(data, 3))
        assert store.committed("app") == [1, 2, 3]
        events = record_manifest_io(store, monkeypatch)
        store.unlock("app", 1)
        assert events == [("write", [2, 3]), ("rmtree", "ckpt_00000001")]
        events.clear()
        store.unlock("app", 2)
        assert events == [("write", [3]), ("rmtree", "ckpt_00000002")]
        assert store.committed("app") == [3]
        assert store.locked("app") == []

    def test_three_victims_one_write(self, tmp_path, data, monkeypatch):
        roomy = LocalStore(tmp_path, capacity=3)
        for cid in (1, 2, 3):
            roomy.write_checkpoint("app", cid, files(data, cid))
        store = LocalStore(tmp_path, capacity=1)
        events = record_manifest_io(store, monkeypatch)
        store.write_checkpoint("app", 4, files(data, 4))
        assert events == [
            ("write", [4]),
            ("rmtree", "ckpt_00000001"),
            ("rmtree", "ckpt_00000002"),
            ("rmtree", "ckpt_00000003"),
        ]
        assert store.committed("app") == [4]

    def test_unlock_of_unlocked_id_writes_nothing(self, tmp_path, data, monkeypatch):
        store = LocalStore(tmp_path, capacity=2)
        store.write_checkpoint("app", 1, files(data, 1))
        events = record_manifest_io(store, monkeypatch)
        store.unlock("app", 1)
        assert events == []

    def test_partner_commit_past_capacity(self, tmp_path, data, monkeypatch):
        store = PartnerStore(tmp_path, capacity=1)
        events = record_manifest_io(store, monkeypatch)
        for cid in (1, 2, 3):
            store.write_checkpoint("app", cid, files(data, cid))
        assert events == [
            ("write", [1]),
            ("write", [2]), ("rmtree", "ckpt_00000001"),
            ("write", [3]), ("rmtree", "ckpt_00000002"),
        ]


class TestIOStore:
    def test_no_retention_limit(self, tmp_path, data):
        store = IOStore(tmp_path)
        for cid in range(1, 7):
            store.write_checkpoint("app", cid, files(data, cid))
        assert len(store.committed("app")) == 6

    def test_bytes_written_counter(self, tmp_path, data):
        store = IOStore(tmp_path)
        store.write_checkpoint("app", 1, files(data, 1))
        assert store.bytes_written == sum(len(p) for p in data.values())

    def test_throttle_slows_writes(self, tmp_path, data):
        fast = IOStore(tmp_path / "fast")
        slow = IOStore(tmp_path / "slow", throttle_bps=200_000)
        t0 = time.perf_counter()
        fast.write_checkpoint("app", 1, files(data, 1))
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        slow.write_checkpoint("app", 1, files(data, 1))
        t_slow = time.perf_counter() - t0
        expected = sum(len(p) for p in data.values()) / 200_000
        assert t_slow > max(t_fast, 0.8 * expected)

    def test_throttle_validation(self, tmp_path):
        with pytest.raises(ValueError):
            IOStore(tmp_path, throttle_bps=0)
