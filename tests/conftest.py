"""Test-session settings: hypothesis reports a failing example without shrinking it.

Shrinking runs only after a failure, so passing runs do not change; an
assertion that fails at every example is then reported in about a second
rather than after minutes of shrinking.
"""

try:
    from hypothesis import Phase, settings
except ImportError:     # test_properties.py, the only hypothesis user, needs it
    pass
else:
    settings.register_profile("no_shrink", phases=[p for p in Phase if p is not Phase.shrink])
    settings.load_profile("no_shrink")
