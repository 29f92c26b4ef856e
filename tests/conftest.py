import gc

import hypothesis
import pytest

hypothesis.settings.register_profile("suite", deadline=None)
hypothesis.settings.load_profile("suite")


@pytest.fixture()
def collector():
    """Yields a function that sets the collector's state; restores it after."""
    was_enabled = gc.isenabled()

    def set_enabled(enabled: bool):
        (gc.enable if enabled else gc.disable)()

    yield set_enabled
    set_enabled(was_enabled)
