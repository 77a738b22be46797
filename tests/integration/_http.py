"""The HTTP error helper the serve tests share."""

import json
import urllib.error

import pytest


def http_error(call, *args, **kwargs):
    """The ``HTTPError`` that ``call(*args, **kwargs)`` raises, as
    ``(code, headers, JSON body)``.

    The error holds its response's socket: it is read and closed here,
    so no test leaves one to the garbage collector (a ResourceWarning,
    and an error under CI's ``-W error``).
    """
    with pytest.raises(urllib.error.HTTPError) as err:
        call(*args, **kwargs)
    with err.value as exc:
        raw = exc.read()
    return exc.code, exc.headers, json.loads(raw)
