# repro: module=repro.runtime.chainclock
"""DET001 reports the direct site only: the wall-clock read in `_stamp`
is flagged, while `helper` and `caller`, which reach it through calls,
are not (fixing or blessing the read clears them too)."""

import time


def _stamp():
    return time.time()


def helper():
    return _stamp()


def caller():
    return helper()
