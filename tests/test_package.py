"""The public API: every exported name resolves."""

import cubix


def test_every_exported_name_resolves():
    missing = [name for name in cubix.__all__ if not hasattr(cubix, name)]
    assert not missing, f"cubix.__all__ names missing attributes: {missing}"
