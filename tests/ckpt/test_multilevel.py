"""The multilevel checkpointer orchestrator (host and NDP modes)."""

import time

import pytest

from repro.ckpt.backends import IOStore, LocalStore, PartnerStore
from repro.ckpt.multilevel import MultilevelCheckpointer
from repro.compression.codecs import make_codec

GZIP = make_codec("gzip", 1)


@pytest.fixture
def stores(tmp_path):
    return LocalStore(tmp_path / "nvm", capacity=3), IOStore(tmp_path / "pfs")


def payloads(tag: bytes, ranks=2):
    return {r: tag * 500 + bytes([r]) for r in range(ranks)}


class TestHostMode:
    def test_io_every_controls_ratio(self, stores):
        local, io = stores
        cr = MultilevelCheckpointer("app", local, io, mode="host", io_every=3)
        for i in range(1, 7):
            cr.checkpoint(payloads(b"a"), position=float(i))
        assert io.committed("app") == [3, 6]
        assert local.latest("app") == 6

    def test_host_mode_compression(self, stores, small_blob):
        local, io = stores
        cr = MultilevelCheckpointer(
            "app", local, io, mode="host", codec=GZIP, io_every=1
        )
        cr.checkpoint({0: small_blob})
        header, _ = io.read_checkpoint("app", 1)[0]
        assert header.codec == "gzip(1)"
        res = cr.restart()
        assert res.payloads[0] == small_blob

    def test_no_daemon_in_host_mode(self, stores):
        local, io = stores
        cr = MultilevelCheckpointer("app", local, io, mode="host")
        assert cr.daemon is None
        cr.close()  # no-op, must not raise


class TestNDPMode:
    def test_checkpoints_reach_io_in_background(self, stores, small_blob):
        local, io = stores
        with MultilevelCheckpointer("app", local, io, mode="ndp", codec=GZIP) as cr:
            cr.checkpoint({0: small_blob}, position=1.0)
            assert cr.flush_to_io(30)
        assert io.committed("app") == [1]

    def test_local_copy_uncompressed(self, stores, small_blob):
        local, io = stores
        with MultilevelCheckpointer("app", local, io, mode="ndp", codec=GZIP) as cr:
            cr.checkpoint({0: small_blob})
            header, payload = local.read_checkpoint("app", 1)[0]
            assert header.codec is None
            assert payload == small_blob

    def test_restart_prefers_local(self, stores, small_blob):
        local, io = stores
        with MultilevelCheckpointer("app", local, io, mode="ndp") as cr:
            cr.checkpoint({0: small_blob}, position=9.0)
            res = cr.restart()
        assert res.level == "local"
        assert res.positions[0] == 9.0

    def test_restart_from_io_after_nvm_loss(self, stores, small_blob):
        local, io = stores
        with MultilevelCheckpointer("app", local, io, mode="ndp", codec=GZIP) as cr:
            cr.checkpoint({0: small_blob})
            assert cr.flush_to_io(30)
            local.wipe("app")
            res = cr.restart()
        assert res.level == "io"
        assert res.payloads[0] == small_blob


class TestPartnerLevel:
    def test_partner_every(self, tmp_path, stores):
        local, io = stores
        partner = PartnerStore(tmp_path / "partner", capacity=8)
        cr = MultilevelCheckpointer(
            "app", local, io, partner=partner, mode="host", io_every=10, partner_every=2
        )
        for i in range(1, 6):
            cr.checkpoint(payloads(b"p"))
        assert partner.committed("app") == [2, 4]

    def test_partner_zero_disables(self, tmp_path, stores):
        local, io = stores
        partner = PartnerStore(tmp_path / "partner")
        cr = MultilevelCheckpointer(
            "app", local, io, partner=partner, mode="host", partner_every=0
        )
        cr.checkpoint(payloads(b"p"))
        assert partner.committed("app") == []

    def test_recovery_from_partner(self, tmp_path, stores, small_blob):
        local, io = stores
        partner = PartnerStore(tmp_path / "partner")
        cr = MultilevelCheckpointer(
            "app", local, io, partner=partner, mode="host", io_every=100
        )
        cr.checkpoint({0: small_blob})
        local.wipe("app")
        res = cr.restart()
        assert res.level == "partner"


class TestNumbering:
    def test_ids_resume_after_restart(self, stores, small_blob):
        local, io = stores
        cr1 = MultilevelCheckpointer("app", local, io, mode="host")
        cr1.checkpoint({0: small_blob})
        cr1.checkpoint({0: small_blob})
        # New checkpointer instance (process restart): numbering continues.
        cr2 = MultilevelCheckpointer("app", local, io, mode="host")
        cid = cr2.checkpoint({0: small_blob})
        assert cid == 3

    def test_validation(self, stores):
        local, io = stores
        with pytest.raises(ValueError):
            MultilevelCheckpointer("app", local, io, mode="cloud")
        with pytest.raises(ValueError):
            MultilevelCheckpointer("app", local, io, io_every=0)
        with pytest.raises(ValueError):
            MultilevelCheckpointer("app", local, io, partner_every=-1)

    def test_empty_payloads_rejected(self, stores):
        local, io = stores
        cr = MultilevelCheckpointer("app", local, io, mode="host")
        with pytest.raises(ValueError):
            cr.checkpoint({})


class TestClose:
    def test_unstarted_daemon_fails_the_flush_at_once(self, stores, small_blob):
        local, io = stores
        cr = MultilevelCheckpointer("app", local, io, mode="ndp")
        cr.checkpoint({0: small_blob})
        t0 = time.monotonic()
        assert cr.close(timeout=3.0) is False
        assert time.monotonic() - t0 < 1.0
        assert io.committed("app") == []

    def test_started_daemon_flushes_to_io(self, stores, small_blob):
        local, io = stores
        cr = MultilevelCheckpointer("app", local, io, mode="ndp").start()
        cr.checkpoint({0: small_blob})
        assert cr.close(timeout=30.0) is True
        assert io.committed("app") == [1]

    def test_no_flush_requested(self, stores, small_blob):
        local, io = stores
        cr = MultilevelCheckpointer("app", local, io, mode="ndp")
        cr.checkpoint({0: small_blob})
        assert cr.close(flush=False) is True
        assert MultilevelCheckpointer("app", local, io, mode="host").close() is True

    def test_exit_does_not_swallow_exceptions(self, stores):
        local, io = stores
        with pytest.raises(KeyError):
            with MultilevelCheckpointer("app", local, io, mode="ndp"):
                raise KeyError("from the with block")
