"""The parameter boxes of perfbench's param-sweep workload, read from its
source, and hypothesis strategies that draw from them."""
import ast
import os

from hypothesis import strategies as st


def benchmark_boxes() -> dict[str, dict]:
    """HESTON_BOX, KOU_BOX and NIG_BOX of the param-sweep benchmark workload,
    `dict(name=(lo, hi), ...)` read from its source."""
    with open(os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    return {node.targets[0].id: {kw.arg: ast.literal_eval(kw.value) for kw in node.value.keywords}
            for node in tree.body if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("HESTON_BOX", "KOU_BOX", "NIG_BOX")}


BOXES = benchmark_boxes()


def box_draw(box: str):
    return st.fixed_dictionaries({key: st.floats(lo, hi) for key, (lo, hi) in BOXES[box].items()})
