"""The package's modules import one another without a cycle.

Every relative import counts, including those inside functions, which
run only when called and so hide a cycle from an import-time check.
"""

import ast
import graphlib
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "soupadapter"


def module_graph(package: Path = PACKAGE) -> dict[str, set[str]]:
    """{module: the package modules it imports}, from every relative
    ``from . import a`` and ``from .a import b`` in its source."""
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((package / f"{name}.py").read_text())
        graph[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    graph[name] |= {a.name for a in node.names} & modules
                else:
                    graph[name].add(node.module.split(".")[0])
    return graph


def absolute_imports(package: Path = PACKAGE) -> dict[str, set[str]]:
    """{module: every dotted name it imports from outside the package},
    from each ``import a.b`` (a and a.b) and ``from a import b`` (a and
    a.b) in its source."""
    graph = {}
    for path in package.glob("*.py"):
        graph[path.stem] = names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            for name in modules:
                parts = name.split(".")
                names |= {".".join(parts[:i + 1]) for i in range(len(parts))}
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle as [a, b, ..., a], or None."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None


def test_the_scan_sees_imports_inside_functions(tmp_path):
    (tmp_path / "a.py").write_text("from .b import f\n")
    (tmp_path / "b.py").write_text(
        "def f():\n    from . import a, os\n    return a\n")
    (tmp_path / "c.py").write_text("from .a import f\n")
    assert module_graph(tmp_path) == {"a": {"b"}, "b": {"a"}, "c": {"a"}}
    assert find_cycle(module_graph(tmp_path)) in (["a", "b", "a"],
                                                  ["b", "a", "b"])


def test_the_package_has_no_import_cycle():
    assert find_cycle(module_graph()) is None


def test_soup_does_not_import_heads():
    assert "heads" not in module_graph()["soup"]


def test_the_absolute_scan_sees_every_form(tmp_path):
    (tmp_path / "a.py").write_text("import concurrent.futures, os\n")
    (tmp_path / "b.py").write_text(
        "def f():\n    from concurrent import futures\n")
    (tmp_path / "c.py").write_text("from . import a\nimport threading\n")
    assert absolute_imports(tmp_path) == {
        "a": {"concurrent", "concurrent.futures", "os"},
        "b": {"concurrent", "concurrent.futures"},
        "c": {"threading"}}


def test_only_cli_imports_concurrent_futures():
    # the component pool of train --jobs is the package's one executor
    assert {name for name, names in absolute_imports().items()
            if "concurrent.futures" in names} == {"cli"}


def names_used(package: Path = PACKAGE) -> dict[str, set[str]]:
    """{module: every name its code reads, imports or takes as an
    attribute}; docstrings and comments do not count."""
    graph = {}
    for path in package.glob("*.py"):
        graph[path.stem] = names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    return graph


def norm_calls_with_axis(package: Path = PACKAGE) -> list[str]:
    """"module:line" of each np.linalg.norm call that passes an axis, by
    keyword or as its third argument."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "norm" \
                    and isinstance(node.func.value, ast.Attribute) \
                    and node.func.value.attr == "linalg" \
                    and (len(node.args) > 2
                         or any(k.arg == "axis" for k in node.keywords)):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_the_name_scans_see_every_form(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""CHUNK_VALUES in a docstring."""\n'
        "from .numerics import CHUNK_VALUES as c\n")
    (tmp_path / "b.py").write_text(
        "import numpy as np\nfrom . import numerics\n"
        "n = numerics.PRODUCT_VALUES\n"
        "x = np.linalg.norm(v)\ny = np.linalg.norm(v, None, 1)\n")
    (tmp_path / "c.py").write_text(
        "import numpy as np\nz = np.linalg.norm(w, axis=-1)  # CHUNK\n")
    assert {m for m, names in names_used(tmp_path).items()
            if {"CHUNK_VALUES", "PRODUCT_VALUES"} & names} == {"a", "b"}
    assert norm_calls_with_axis(tmp_path) == ["b:5", "c:2"]


def test_only_numerics_names_the_chunk_sizes():
    # every other module takes its rows per chunk from numerics.chunk_rows
    # and its product spans from numerics.row_spans
    assert {m for m, names in names_used().items()
            if {"CHUNK_VALUES", "PRODUCT_VALUES"} & names} == {"numerics"}


def test_row_norms_are_taken_by_numerics_row_norms_alone():
    assert norm_calls_with_axis() == []


def os_calls(name: str, package: Path = PACKAGE) -> set[str]:
    """Modules whose code calls os.<name>."""
    return {path.stem for path in package.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os"}


def test_the_fork_scan_sees_a_call_anywhere(tmp_path):
    (tmp_path / "a.py").write_text("import os\ndef f():\n    os.fork()\n")
    (tmp_path / "b.py").write_text('"""os.fork() in a docstring."""\n'
                                   "import os\nhas = hasattr(os, 'fork')\n")
    assert os_calls("fork", tmp_path) == {"a"}


def test_only_workers_forks():
    # one helper makes every child process, and reaps it
    assert os_calls("fork") == {"workers"}


def test_only_dataio_reads_and_writes_at_offsets():
    # ContainerReader and ContainerWriter are the container's one reader
    # and one writer; forked processes share the files they hold open
    assert os_calls("preadv") == os_calls("pwrite") == {"dataio"}


def modules_catching(name: str, package: Path = PACKAGE) -> set[str]:
    """Modules with an except clause that names the exception class
    ``name``, alone, in a tuple or as a module attribute."""
    found = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None \
                    and any(isinstance(n, ast.Name) and n.id == name
                            or isinstance(n, ast.Attribute) and n.attr == name
                            for n in ast.walk(node.type)):
                found.add(path.stem)
    return found


def test_the_catch_scan_sees_every_form(tmp_path):
    (tmp_path / "a.py").write_text(
        "try:\n    pass\nexcept (KeyError, E) as exc:\n    pass\n")
    (tmp_path / "b.py").write_text(
        "try:\n    pass\nexcept errors.E:\n    pass\n")
    (tmp_path / "c.py").write_text(
        '"""except E in a docstring."""\nclass E(Exception):\n    pass\n'
        "try:\n    pass\nexcept Exception:\n    raise E\n")
    assert modules_catching("E", tmp_path) == {"a", "b"}


def test_only_cli_and_errors_catch_library_errors():
    # cli maps them to exit codes and errors.prefixed names their file;
    # which one a fan-out raises is workers.deal's rule, kept there alone
    assert modules_catching("SoupAdapterError") == {"cli", "errors"}


# the package's names before they were resolved lazily, by module
EXPORTED = {
    "adapter": ["AdapterParams", "HyperConfig", "TrainRecord",
                "adapter_backward", "adapter_forward", "blend",
                "init_adapter", "load_checkpoint", "sample_hyperconfig",
                "save_checkpoint", "train_component"],
    "dataio": ["ContainerReader", "EmbeddingSet", "FewShotSelection",
               "Manifest", "generate_synthetic", "read_container",
               "read_manifest", "sample_few_shot", "write_container",
               "write_manifest"],
    "evalkit": ["EvalReport", "SweepRow", "component_average_report",
                "knn_accuracy", "ratio_sweep", "read_report",
                "robustness_report", "write_report"],
    "heads": ["ClassifierHead", "KnnConfig", "build_prototypes",
              "export_head", "head_logits", "import_head",
              "knn_logits_batch", "leave_one_out_prototypes",
              "selection_prototypes"],
    "numerics": ["OptimState", "adamw_step",
                 "cross_entropy_label_smoothing_batch", "gelu", "gelu_grad",
                 "normalize_rows"],
    "soup": ["Soup", "load_soup", "reparameterize", "soup_forward",
             "verify_equivalence"],
}


def test_every_exported_name_resolves_to_its_modules_object():
    package = importlib.import_module("soupadapter")
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"soupadapter.{module}")
        for name in names:
            assert getattr(package, name) is getattr(owner, name), name
            assert name in dir(package)
    assert package.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'absent'"):
        package.absent
