# repro: module=repro.runtime.chainclockok
"""Blessing the direct site is the whole fix: DET001 reports no
caller, so one suppression at the source leaves nothing to flag."""

import time


def _stamp():
    return time.time()  # repro: allow[DET001]


def helper():
    return _stamp()


def caller():
    return helper()
