import pytest

from fairmpdag import ExperimentConfig, parse_graph

# Star-plus-triangle MPDAG: sensitive root with directed edges into an
# undirected triangle. Its class has six member DAGs.
STAR_TRIANGLE = """
A -> X1
A -> X2
A -> X3
X1 -- X2
X1 -- X3
X2 -- X3
"""

# The matching fully directed member (complete graph on four vertices).
STAR_TRIANGLE_DAG = """
A -> X1
A -> X2
A -> X3
X1 -> X2
X1 -> X3
X2 -> X3
"""

# Nine-vertex MPDAG with three nontrivial buckets; the golden case for the
# partial causal ordering and the identification-formula text.
NINE_BUCKETS = """
node A
node B
node C
node D
node E
node M
node L
node R
node N
A -- E
B -- C
B -> D
E -> D
E -> R
A -> N
M -- L
M -> N
L -> N
R -> N
"""

# Nine-vertex DAG whose CPDAG leaves six edges undirected; orienting the
# four A-edges as background knowledge settles everything except C - N,
# leaving E as the only definite non-descendant of A.
BK_DEMO_DAG = """
node A
node B
node C
node D
node E
node F
node L
node M
node N
A -> C
A -> D
A -> B
A -> N
C -> N
C -> M
C -> L
B -> M
B -> F
E -> L
A -> L
F -> L
"""

BK_DEMO_KNOWLEDGE = (("A", "B"), ("A", "C"), ("A", "D"), ("A", "N"))


def train_from_json(train: str):
    """The TrainConfig loaded from the JSON object text ``train`` in a config file."""
    return ExperimentConfig.from_json(
        f'{{"graph_settings": [{{"d": 4, "s": 3, "count": 1}}], "train": {train}}}'
    ).train


@pytest.fixture
def star_triangle():
    return parse_graph(STAR_TRIANGLE)


@pytest.fixture
def star_triangle_dag():
    return parse_graph(STAR_TRIANGLE_DAG)


@pytest.fixture
def nine_buckets():
    return parse_graph(NINE_BUCKETS)


@pytest.fixture
def bk_demo_dag():
    return parse_graph(BK_DEMO_DAG)
