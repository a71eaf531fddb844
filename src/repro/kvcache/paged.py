"""PagedAttention-style KV-cache block manager.

ThunderServe incorporates PagedAttention for memory management: the KV cache is
stored in fixed-size blocks so that sequences of different lengths share device
memory without fragmentation.  The decode-replica simulator uses this manager to
decide whether a newly arrived request can join the running batch and when memory
pressure forces it to wait.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.exceptions import ReproError


class BlockAllocationError(ReproError):
    """Raised when a sequence requests more KV blocks than are available."""


def blocks_for(num_tokens: int, block_size: int) -> int:
    """Blocks of ``block_size`` tokens that store ``num_tokens`` tokens."""
    return -(-num_tokens // block_size)  # ceil division


@dataclass
class _SequenceState:
    """Bookkeeping for one active sequence."""

    num_tokens: int
    num_blocks: int


class PagedKVCache:
    """Block-granular KV-cache capacity tracker.

    Parameters
    ----------
    num_blocks:
        Total number of KV blocks available on the replica (derived from the
        replica's free memory divided by the block byte size).
    block_size:
        Number of tokens per block (16 in vLLM's default configuration).
    """

    def __init__(self, num_blocks: int, block_size: int = 16) -> None:
        if num_blocks < 0:
            raise ValueError("num_blocks must be >= 0")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.num_blocks = num_blocks
        self.block_size = block_size
        self._sequences: Dict[int, _SequenceState] = {}
        self._used_blocks = 0

    # ------------------------------------------------------------------ queries
    @property
    def used_blocks(self) -> int:
        """Number of blocks currently allocated."""
        return self._used_blocks

    @property
    def free_blocks(self) -> int:
        """Number of blocks currently free."""
        return self.num_blocks - self._used_blocks

    @property
    def num_sequences(self) -> int:
        """Number of active sequences."""
        return len(self._sequences)

    @property
    def utilization(self) -> float:
        """Fraction of blocks in use (0 when the cache has no blocks)."""
        if self.num_blocks == 0:
            return 0.0
        return self._used_blocks / self.num_blocks

    def tokens_of(self, seq_id: int) -> int:
        """Number of cached tokens for a sequence (0 if unknown)."""
        state = self._sequences.get(seq_id)
        return state.num_tokens if state else 0

    def blocks_needed(self, num_tokens: int) -> int:
        """Blocks required to store ``num_tokens`` tokens."""
        if num_tokens < 0:
            raise ValueError("num_tokens must be >= 0")
        return blocks_for(num_tokens, self.block_size)

    def can_allocate(self, num_tokens: int) -> bool:
        """Whether a new sequence of ``num_tokens`` tokens fits right now."""
        return self.blocks_needed(num_tokens) <= self.free_blocks

    # ------------------------------------------------------------------ mutation
    def allocate(self, seq_id: int, num_tokens: int) -> int:
        """Admit a new sequence with ``num_tokens`` already-cached tokens.

        Returns the number of blocks allocated.  Raises
        :class:`BlockAllocationError` if the sequence is already present or the
        cache lacks capacity.
        """
        if seq_id in self._sequences:
            raise BlockAllocationError(f"sequence {seq_id} is already allocated")
        blocks = self.blocks_needed(num_tokens)
        if blocks > self.free_blocks:
            raise BlockAllocationError(
                f"sequence {seq_id} needs {blocks} blocks but only {self.free_blocks} are free"
            )
        self._sequences[seq_id] = _SequenceState(num_tokens=num_tokens, num_blocks=blocks)
        self._used_blocks += blocks
        return blocks

    def append_token(self, seq_id: int) -> bool:
        """Extend a sequence by one generated token.

        Returns ``True`` if a new block had to be allocated.  Raises
        :class:`BlockAllocationError` when the cache is full and a new block is
        required, or when the sequence is unknown.
        """
        state = self._sequences.get(seq_id)
        if state is None:
            raise BlockAllocationError(f"unknown sequence {seq_id}")
        state.num_tokens += 1
        needed = self.blocks_needed(state.num_tokens)
        if needed > state.num_blocks:
            if self.free_blocks < 1:
                state.num_tokens -= 1
                raise BlockAllocationError("KV cache exhausted while appending a token")
            state.num_blocks += 1
            self._used_blocks += 1
            return True
        return False

    def free(self, seq_id: int) -> int:
        """Release a finished sequence and return the number of freed blocks."""
        state = self._sequences.pop(seq_id, None)
        if state is None:
            raise BlockAllocationError(f"unknown sequence {seq_id}")
        self._used_blocks -= state.num_blocks
        return state.num_blocks

    def reset(self) -> None:
        """Release every sequence."""
        self._sequences.clear()
        self._used_blocks = 0


__all__ = ["PagedKVCache", "BlockAllocationError", "blocks_for"]
