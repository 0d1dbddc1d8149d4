"""Functional multilevel checkpoint/restart runtime.

A working (filesystem-backed) implementation of the paper's Section 4
design: BLCR-style context files, a local-NVM circular buffer with drain
locks, partner and global-I/O stores, a background NDP drain daemon that
compresses and ships checkpoints off the critical path, and the
local -> partner -> I/O recovery protocol with parallel host-side
decompression.
"""

from .backends import DirectoryStore, IOStore, LocalStore, PartnerStore
from .format import (
    ContextHeader,
    CorruptCheckpointError,
    make_header,
    read_context_file,
    write_context_file,
)
from .metrics import RuntimeMetrics
from .multilevel import MultilevelCheckpointer
from .ndp_daemon import DrainStats, NDPDrainDaemon
from .restart import NoCheckpointError, RecoveryResult, recover
from .schedule import AdaptiveScheduler, DalyIntervalAdvisor, OnlineMTTIEstimator
from .tools import CheckpointInfo, VerifyReport, deep_verify, inventory, verify_store
from .stream import (
    DEFAULT_BLOCK_SIZE,
    compress_stream,
    decompress_stream,
    parallel_decompress,
)

__all__ = [
    "ContextHeader",
    "make_header",
    "write_context_file",
    "read_context_file",
    "CorruptCheckpointError",
    "DirectoryStore",
    "LocalStore",
    "PartnerStore",
    "IOStore",
    "NDPDrainDaemon",
    "DrainStats",
    "MultilevelCheckpointer",
    "RuntimeMetrics",
    "OnlineMTTIEstimator",
    "DalyIntervalAdvisor",
    "AdaptiveScheduler",
    "CheckpointInfo",
    "VerifyReport",
    "inventory",
    "verify_store",
    "deep_verify",
    "recover",
    "RecoveryResult",
    "NoCheckpointError",
    "compress_stream",
    "decompress_stream",
    "parallel_decompress",
    "DEFAULT_BLOCK_SIZE",
]
