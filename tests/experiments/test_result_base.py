"""The one result contract the drivers share: ``common.Result``.

``test_result_contract`` runs every driver; this checks the shape that
contract rests on without running any.
"""

import dataclasses
import importlib
import pkgutil

import repro.experiments
from repro.experiments.common import Result, Table
from repro.experiments.fig6 import Fig6Result


def driver_result_classes():
    found = []
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        found.extend(
            obj for name, obj in vars(module).items()
            if isinstance(obj, type)
            and name.endswith("Result")
            and obj is not Result
            and obj.__module__ == module.__name__
        )
    return found


def test_every_driver_result_inherits_rows_and_headers():
    classes = driver_result_classes()
    assert len(classes) == 20
    for cls in classes:
        assert issubclass(cls, Result), cls
        assert dataclasses.is_dataclass(cls), cls
        assert "rows" not in vars(cls) and "headers" not in vars(cls), cls
        assert "summary" in {f.name for f in dataclasses.fields(cls)}, cls


def test_fields_keep_their_order_and_positions():
    """The base adds no field, so positional construction — and the
    ``rows()`` perfbench reads off ``Fig6Result`` — are unchanged."""
    assert [f.name for f in dataclasses.fields(Fig6Result)] == [
        "curves", "max_steps", "summary",
    ]
    table = Table("t", ["step", "ber"], [[1, 0.5], [2, 0.25]])
    result = Fig6Result({(1, 32): [0.5, 0.25]}, 2, table)
    assert result.rows() == [[1, 0.5], [2, 0.25]]
    assert result.headers == ["step", "ber"]
