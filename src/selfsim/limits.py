"""Enumeration caps.

Level sweeps, level-one quotients, machine powers and nucleus computations
are exact but can be asked for absurd sizes; these caps turn runaway
requests into errors instead of hangs.  The CLI reads SELFSIM_CAPS to raise
them: either a bare integer (level cap) or comma separated pairs like
``level=2000000,quotient=9,nucleus-depth=64,nucleus-size=1024``.  Every cap
is a positive integer, and each key may appear once.  MEMO_LIMIT and
MAX_POWER_STATES are plain constants with no SELFSIM_CAPS key; MEMO_LIMIT
bounds each memo a machine keeps: the closure verdicts of the words that
fix level one (`wp`; a word that moves a letter is never stored), the shared
NonIdentity verdicts, one per witness (`moved`), and the level walks
(`stab`, `fragile`).
"""

import os

from .errors import FormatError

DEFAULT_LEVEL_CAP = 10 ** 6      # max |X|**k entries in a level enumeration, and max k
DEFAULT_QUOTIENT_CAP = 8         # max |X| for the level-one quotient order; gates the
                                 # alphabet size only, no closure is enumerated
DEFAULT_NUCLEUS_DEPTH = 64       # max breadth-first levels per element-pair graph
DEFAULT_NUCLEUS_SIZE = 512       # max number of nucleus elements
MEMO_LIMIT = 300_000             # max entries kept in each per-automaton memo
MAX_POWER_STATES = 10 ** 6       # max states of mealy.power's n-th power machine, and max n

_KEYS = {
    "level": "level_cap",
    "quotient": "quotient_cap",
    "nucleus-depth": "nucleus_depth",
    "nucleus-size": "nucleus_size",
}


def power_exceeds(base, exp, cap) -> bool:
    """True iff base ** exp > cap for a positive base, without the full power.

    2 ** cap.bit_length() already passes the cap, so no larger exponent has
    to be raised.
    """
    return base ** min(exp, cap.bit_length()) > cap


def number_text(value) -> str:
    """repr(value) for a message, with an int past 18 digits given by its digit count.

    str() of an int refuses more than a few thousand digits, and a message
    need not print a number that long in full.
    """
    if not isinstance(value, int) or -10 ** 18 < value < 10 ** 18:
        return repr(value)
    size = abs(value)
    digits = max(1, int(size.bit_length() * 0.30102999566398120) - 1)   # log10(2)
    while 10 ** digits <= size:
        digits += 1
    return "%s<%d-digit number>" % ("-" if value < 0 else "", digits)


def check_int(value, least, what, error):
    """Raise `error` unless value is an int, not a bool, and at least `least`.

    With `least` None only the type is checked.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise error("%s must be an integer, got %s" % (what, number_text(value)))
    if least is not None and value < least:
        raise error("%s must be >= %d" % (what, least))


def positive_int(text) -> int:
    """A cap value: a positive integer, else ValueError."""
    value = int(text)
    if value <= 0:
        raise ValueError("%r is not a positive integer" % (text,))
    return value


def caps_from_env(environ=None) -> dict:
    """Parse SELFSIM_CAPS into keyword overrides for the ops that take caps."""
    env = os.environ if environ is None else environ
    raw = env.get("SELFSIM_CAPS", "").strip()
    if not raw:
        return {}
    out = {}
    if "=" not in raw:
        try:
            out["level_cap"] = positive_int(raw)
        except ValueError:
            raise FormatError(
                "SELFSIM_CAPS must be a positive integer or k=v pairs, got %r" % raw)
        return out
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise FormatError("unknown SELFSIM_CAPS key %r" % key)
        if _KEYS[key] in out:
            raise FormatError("duplicate SELFSIM_CAPS key %r" % key)
        try:
            out[_KEYS[key]] = positive_int(value)
        except ValueError:
            raise FormatError(
                "bad SELFSIM_CAPS value for %r: %r is not a positive integer" % (key, value))
    return out
