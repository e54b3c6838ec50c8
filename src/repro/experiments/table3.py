"""Table 3: the networks used in the evaluation.

Regenerates the model-statistics table from the model zoo and compares the
parameter counts against the paper's reported values.  It keeps a custom
body rather than a :class:`~repro.experiments.figure.Figure`: it describes
the models and simulates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments import paper_reference
from repro.experiments.report import format_table
from repro.nn.model_zoo import get_model_spec
from repro.nn.spec import ModelSpec

#: Mapping from the paper's Table 3 row names to model-zoo registry keys.
TABLE3_MODEL_KEYS = {
    "CIFAR-10 quick": "cifar10-quick",
    "GoogLeNet": "googlenet",
    "Inception-V3": "inception-v3",
    "VGG19": "vgg19",
    "VGG19-22K": "vgg19-22k",
    "ResNet-152": "resnet-152",
}


@dataclass(frozen=True)
class Table3Row:
    """One model's statistics, measured and as reported."""

    model: str
    params_millions: float
    reported_params_millions: Optional[float]
    dataset: str
    batch_size: int
    fc_fraction: float
    num_param_layers: int


@dataclass
class Table3Result:
    """All rows of the regenerated Table 3."""

    rows: List[Table3Row] = field(default_factory=list)

    def row(self, model: str) -> Table3Row:
        """Look up a model's row by its paper name."""
        for entry in self.rows:
            if entry.model == model:
                return entry
        raise KeyError(f"no Table 3 row for {model!r}")


def run_table3() -> Table3Result:
    """Collect statistics for every Table 3 model from the model zoo."""
    result = Table3Result()
    for paper_name, registry_key in TABLE3_MODEL_KEYS.items():
        spec: ModelSpec = get_model_spec(registry_key)
        reported = paper_reference.TABLE3_MODELS.get(paper_name)
        result.rows.append(
            Table3Row(
                model=paper_name,
                params_millions=spec.total_params / 1e6,
                reported_params_millions=reported[0] if reported else None,
                dataset=spec.dataset,
                batch_size=spec.default_batch_size,
                fc_fraction=spec.fc_param_fraction,
                num_param_layers=len(spec.parameter_layers()),
            )
        )
    return result


def render(result: Table3Result) -> str:
    """Render the regenerated Table 3."""
    rows = [
        (
            row.model,
            row.params_millions,
            row.reported_params_millions if row.reported_params_millions else "n/a",
            row.dataset,
            row.batch_size,
            f"{row.fc_fraction * 100:.0f}%",
            row.num_param_layers,
        )
        for row in result.rows
    ]
    return format_table(
        headers=["Model", "Params (M)", "Paper (M)", "Dataset", "Batch",
                 "FC share", "Param layers"],
        rows=rows,
        title="Table 3: neural networks used for evaluation",
    )


def report(quick: bool = False) -> str:
    """The runner's table3 section (the same with ``quick`` or not)."""
    return render(run_table3())
