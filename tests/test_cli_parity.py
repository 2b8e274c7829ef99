"""The CLI parity gate as a test: the pinned digest of ``tests/cli_parity.py``.

A change meant to alter the CLI's output updates the pin below, as it would
a golden file.
"""

from __future__ import annotations

import logging
import os

from wfcover import cli

import cli_parity


def test_command_set_digest_is_pinned():
    logger = logging.getLogger("wfcover")
    cwd, handlers, level = os.getcwd(), list(logger.handlers), logger.level
    count, codes, sha = cli_parity.run_commands(cli)
    assert (os.getcwd(), logger.handlers, logger.level) == (cwd, handlers, level)
    assert count == 2025
    assert codes == {0: 638, 1: 41, 2: 1346}
    assert sha == "3947e7bd484a95d0e9399501cb1667a2f94cacfbc3af182371113131bc7de0d9"
