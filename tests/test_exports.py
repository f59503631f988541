"""The package's public names all resolve."""

import polytoep


def test_every_exported_name_resolves():
    missing = [name for name in polytoep.__all__ if not hasattr(polytoep, name)]
    assert missing == []
    assert len(set(polytoep.__all__)) == len(polytoep.__all__)
