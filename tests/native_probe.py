"""Re-probing the native backend inside one test.

The package chooses its engine and backend from one cached probe,
``probe_backend("native")``.  A test that needs the other answer
forgets that probe and installs a factory for the next one; the
``monkeypatch`` undo restores the cached state afterwards.  Forked
workers inherit the patch, so a campaign run on a pool sees it too.
"""

from repro import backends


def no_toolchain():
    """A native factory failing as a missing compiler does."""
    raise OSError("no toolchain")


def reprobe_native(monkeypatch, factory):
    """Forget the native probe and the active backend selection, and
    build the native backend with ``factory`` next time."""
    monkeypatch.setitem(backends._FACTORIES, "native", factory)
    for name in ("_PROBED", "_PROBE_ERRORS"):
        kept = {k: v for k, v in getattr(backends, name).items() if k != "native"}
        monkeypatch.setattr(backends, name, kept)
    monkeypatch.setattr(backends, "_ACTIVE", None)


def pin_threaded(monkeypatch):
    """Make the native probe fail, as on a host without a C toolchain:
    every capture then runs on the threaded engine."""
    reprobe_native(monkeypatch, no_toolchain)
