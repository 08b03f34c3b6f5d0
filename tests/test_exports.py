import pytest

import eqkd
import eqkd.harness


@pytest.mark.parametrize("module", [eqkd, eqkd.harness], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import():
    namespace = {}
    exec("from eqkd import *", namespace)
    assert set(eqkd.__all__) <= set(namespace)
