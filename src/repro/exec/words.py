"""The word-size convention shared by the model substrates.

Both simulated models budget *words* (a word = O(log n) bits): MPC's local
memory ``S`` bounds the words a machine may send/receive per round, and
CONGEST's per-edge limit bounds the words of a single message.  Historically
each simulator sized payloads ad hoc -- MPC charged one word per *message*
regardless of size, and CONGEST counted any non-tuple payload (dict, set,
long string) as a single word -- so oversized payloads evaded both budgets.
:func:`payload_words` is the single sizing rule both now share: CONGEST
sizes every message with it, MPC sizes each bulk round's message tag (the
int fields of an MPC message are one word each by construction) and every
stored item.
"""

from __future__ import annotations

from typing import Optional

#: payload types sized as one machine word
_SCALAR_TYPES = (int, float, bool, type(None))

#: bytes per machine word used to size strings/bytes payloads
_BYTES_PER_WORD = 8


def payload_words(payload: object, default: Optional[int] = None) -> Optional[int]:
    """Size ``payload`` in machine words.

    The convention (matching how the matching programs encode messages):

    * scalars (ints, floats, bools, ``None``) count 1;
    * ``str`` / ``bytes`` count one word per 8 bytes (UTF-8 bytes for
      ``str``, floor 1);
    * containers (tuples, lists, sets, dicts) count the *recursive* sum of
      their elements' words (keys and values for dicts), floor 1 -- a flat
      int tuple therefore counts ``len``, and nesting cannot smuggle data
      past a budget (``(tuple(range(100)),)`` is 100 words, not 1);
    * anything else is *unsizable*: ``default`` is returned when given
      (MPC treats unknown storage objects as one word), else ``None`` so the
      caller can reject the payload (CONGEST under ``strict=True``) --
      an unsizable element makes its whole container unsizable.

    Exact ints and ASCII strings of at most 8 characters -- what the
    CONGEST programs send, alone or in tuples, and the MPC round's message
    tags -- are sized before the isinstance chain and without the UTF-8
    encode, both at the top and per item of a container.
    """
    kind = type(payload)
    if kind is int or (kind is str and len(payload) <= 8 and payload.isascii()):
        return 1
    if kind is tuple or isinstance(payload, (tuple, list, set, frozenset)):
        total = 0
        for item in payload:
            item_kind = type(item)
            if item_kind is int or (item_kind is str and len(item) <= 8
                                    and item.isascii()):
                total += 1
                continue
            words = payload_words(item, default)
            if words is None:
                return None
            total += words
        return max(1, total)
    if isinstance(payload, _SCALAR_TYPES):
        return 1
    if isinstance(payload, (str, bytes, bytearray)):
        if isinstance(payload, str):
            # size by encoded bytes, not code points: a 32-char CJK string
            # carries ~96 bytes and must not pass as 4 words
            nbytes = len(payload.encode("utf-8", "surrogatepass"))
        else:
            nbytes = len(payload)
        return max(1, (nbytes + _BYTES_PER_WORD - 1) // _BYTES_PER_WORD)
    if isinstance(payload, dict):
        total = 0
        for key, value in payload.items():
            key_words = payload_words(key, default)
            value_words = payload_words(value, default)
            if key_words is None or value_words is None:
                return None
            total += key_words + value_words
        return max(1, total)
    return default
